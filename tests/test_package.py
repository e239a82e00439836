"""Package surface: every exported name resolves."""

import camforest


def test_every_exported_name_resolves():
    missing = [name for name in camforest.__all__
               if not hasattr(camforest, name)]
    assert missing == []
    assert len(set(camforest.__all__)) == len(camforest.__all__)
