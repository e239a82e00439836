import hashlib

import pytest

from camforest.config import CONFIG_VERSION, load_config, parse_config_text
from camforest.errors import ConfigError

MINIMAL = "[meta]\nversion = 1\n"


def test_minimal_config_resolves_all_defaults():
    cfg = parse_config_text(MINIMAL)
    assert set(cfg) == {"meta", "dataset", "train", "device", "arch",
                        "sweep", "perf", "output"}
    assert cfg["meta"]["version"] == CONFIG_VERSION
    assert cfg["meta"]["seed"] is None
    assert cfg["train"] == {"n_trees": 15, "max_depth": 6}
    assert cfg["arch"]["tile_h"] == 16
    assert cfg["arch"]["n_bits"] is None
    assert cfg["arch"]["reorder"] is True
    assert cfg["device"]["g_lrs"] == pytest.approx(200e-6)
    assert cfg["perf"]["t_clk"] == pytest.approx(1e-9)
    assert cfg["perf"]["pipelined"] is False
    assert cfg["output"]["dir"] == "out"


def test_values_override_defaults_with_types():
    cfg = parse_config_text(
        "[meta]\nversion = 1\nseed = 42\n"
        "[train]\nn_trees = 3\n"
        "[arch]\nsigma = 0.05\nn_bits = 4\nreorder = no\n"
        "[sweep]\ngrid = 0.0, 0.5, 1.5\n"
        "[perf]\npipelined = true\n")
    assert cfg["meta"]["seed"] == 42
    assert cfg["train"]["n_trees"] == 3
    assert cfg["train"]["max_depth"] == 6
    assert cfg["arch"]["sigma"] == pytest.approx(0.05)
    assert cfg["arch"]["n_bits"] == 4
    assert cfg["arch"]["reorder"] is False
    assert cfg["sweep"]["grid"] == [0.0, 0.5, 1.5]
    assert cfg["perf"]["pipelined"] is True


def test_empty_optional_int_means_unset():
    cfg = parse_config_text("[meta]\nversion = 1\n[arch]\nn_bits =\n")
    assert cfg["arch"]["n_bits"] is None


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config_text(MINIMAL + "[nonsense]\nx = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("[meta]\nversion = 1\ntypo = 3\n")


def test_keys_are_case_sensitive():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("[meta]\nVersion = 1\nversion = 1\n")


def test_missing_version_rejected():
    with pytest.raises(ConfigError, match="version"):
        parse_config_text("[meta]\nseed = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("[train]\nn_trees = 3\n")


def test_wrong_version_rejected():
    with pytest.raises(ConfigError, match="version"):
        parse_config_text("[meta]\nversion = 99\n")


def test_bad_scalar_types_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("[meta]\nversion = elephant\n")
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "[arch]\nsigma = many\n")
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "[perf]\npipelined = maybe\n")
    for section, setting in (("arch", "sigma = nan"), ("device", "g_lrs = inf"),
                             ("perf", "t_clk = -inf"),
                             ("sweep", "grid = 0.1, nan")):
        with pytest.raises(ConfigError, match=setting.split()[0]):
            parse_config_text(MINIMAL + f"[{section}]\n{setting}\n")


def test_percent_signs_are_literal():
    cfg = parse_config_text(MINIMAL + "[output]\ndir = out%run\n")
    assert cfg["output"]["dir"] == "out%run"


def test_load_config_hashes_raw_bytes(tmp_path):
    path = tmp_path / "exp.ini"
    text = MINIMAL + "[train]\nn_trees = 2\n"
    path.write_text(text)
    cfg, sha = load_config(str(path))
    assert cfg["train"]["n_trees"] == 2
    assert sha == hashlib.sha256(text.encode()).hexdigest()


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/no/such/config.ini")
