"""Tests of the benchmark itself, on workloads that run in about a second.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json

import numpy as np
import pytest

import child
import run
from spans import Tracer, self_times


def _corrupt_first(infer_batch):
    def corrupted(arch, X, *args, **kwargs):
        pred = infer_batch(arch, X, *args, **kwargs).copy()
        pred[0] = (pred[0] + 1) % arch.n_classes
        return pred
    return corrupted


def test_check_decisions_counts_every_disagreement():
    sw = np.array([0, 1, 2, 1, 0])
    assert child.check_decisions(sw.copy(), sw) == (5, 0)
    hw = sw.copy()
    hw[[1, 3]] = 2
    assert child.check_decisions(hw, sw) == (5, 2)
    assert child.check_decisions(hw[:4], sw) == (5, 5)


@pytest.mark.parametrize("workload", ["tiny_validate", "tiny_sweep"])
def test_gate_fails_on_corrupted_prediction(workload, monkeypatch, tmp_path,
                                            capsys):
    monkeypatch.setattr(child.cf, "infer_batch",
                        _corrupt_first(child.cf.infer_batch))
    monkeypatch.setattr(run, "spawn", lambda w, s, t: child.run_once(w, s, t))
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "MIN_REPS", 1)
    code = run.main(["--workload", workload, "--seed", "5",
                     "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["attempted"] > result["failed"]
    assert result["metrics"]["agreement_rate"]["value"] < 1.0


def test_clean_run_passes_and_prints_every_metric(monkeypatch, tmp_path,
                                                  capsys):
    monkeypatch.setattr(run, "spawn", lambda w, s, t: child.run_once(w, s, t))
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "MIN_REPS", 1)
    bench = json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code = run.main(["--workload", "tiny_validate", "--seed", "5",
                         "--seconds", "0", "--trace", str(trace)])
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in bench[key]}
        units = {m["name"]: m["unit"] for m in bench[key]}
        for name, m in result["metrics"].items():
            assert m["unit"] == units[name]


def test_traced_sweep_replay_reproduces_sweep_rows():
    plain = child.run_once("tiny_sweep", 9, False)
    traced = child.run_once("tiny_sweep", 9, True)
    assert traced["rows"] == plain["rows"]
    assert run.check([plain, traced]) == (
        plain["attempted"] + traced["attempted"]
        + len(plain["digests"]) + len(plain["rows"]), 0)
    traced["rows"][1][2] = float(0.5).hex()
    assert run.check([plain, traced])[1] == 1


@pytest.mark.parametrize("workload",
                         ["tiny_sweep", "tiny_validate", "blobs16_validate"])
def test_seed_determines_inputs(workload):
    spec = child.WORKLOADS[workload]
    a = child.make_inputs(spec, 1)
    again = child.make_inputs(spec, 1)
    b = child.make_inputs(spec, 2)
    for x, y in zip(a, again):
        np.testing.assert_array_equal(x, y)
    # The trained model is fixed by the workload; the seed draws the
    # evaluation inputs.
    np.testing.assert_array_equal(a[0], b[0])
    assert not np.array_equal(a[2], b[2])


def test_self_time_is_duration_minus_child_coverage():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 10.0])
    t = Tracer("t", clock=lambda: next(ticks))
    with t.span("root"):              # 0 .. 10
        with t.span("a"):             # 1 .. 4
            with t.span("a.inner"):   # 2 .. 3
                pass
        with t.span("b"):             # 6 .. 7
            pass
    own = {t.spans[i]["name"]: v for i, v in self_times(t.spans).items()}
    assert own == {"root": 10 - (3 + 1), "a": 3 - 1, "a.inner": 1, "b": 1}
    assert [s["parent"] for s in t.spans] == [None, 0, 1, 0]
    assert {s["trace"] for s in t.spans} == {"t"}


def test_self_time_counts_overlapping_children_once():
    spans = [
        {"id": 0, "parent": None, "name": "p", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "c", "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "name": "c", "start": 3.0, "end": 6.0},
        {"id": 3, "parent": 0, "name": "c", "start": 9.0, "end": 12.0},
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)
