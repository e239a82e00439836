"""End-to-end command-line tests run in-process via ``main``."""

import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from camforest.cli import main
from camforest.datasets import load_iris, save_csv

BASE = """\
[meta]
version = 1
seed = 7

[dataset]
builtin = iris
test_fraction = 0.25

[train]
n_trees = 5
max_depth = 4

[sweep]
variable = sigma
grid = 0.0, 0.05, 0.1
trials = 4
"""


@pytest.fixture
def ini(tmp_path):
    def make(text=BASE, name="exp.ini"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return make


@pytest.fixture
def run(tmp_path, capsys):
    def call(*argv):
        code = main(list(argv))
        return code, capsys.readouterr()
    return call


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_train_writes_model_and_manifest(ini, run, tmp_path):
    out = tmp_path / "out"
    code, cap = run("train", "--config", ini(), "--out", str(out))
    assert code == 0
    model = json.loads((out / "model.json").read_text())
    assert model["format"] == "camforest-model"
    assert len(model["trees"]) == 5
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 7
    assert manifest["resolved_config"]["train"]["n_trees"] == 5
    assert manifest["physical_constants"]["cell"]["v_sl_hi"] == 1.8
    assert manifest["physical_constants"]["match_sense"]["v_sa"] == 0.4
    assert set(manifest["outputs"]) == {"model.json"}
    digest = hashlib.sha256((out / "model.json").read_bytes()).hexdigest()
    assert manifest["outputs"]["model.json"] == digest
    assert "timestamp" not in json.dumps(manifest).lower()
    assert "wrote" in cap.out


def test_seed_flag_overrides_config(ini, run, tmp_path):
    cfg = ini()
    run("train", "--config", cfg, "--out", str(tmp_path / "a"))
    run("train", "--config", cfg, "--seed", "7", "--out", str(tmp_path / "b"))
    run("train", "--config", cfg, "--seed", "8", "--out", str(tmp_path / "c"))
    a = (tmp_path / "a" / "model.json").read_bytes()
    b = (tmp_path / "b" / "model.json").read_bytes()
    c = (tmp_path / "c" / "model.json").read_bytes()
    assert a == b
    assert a != c


def test_full_pipeline_train_compile_simulate_validate(ini, run, tmp_path):
    cfg = ini()
    model_dir, plan_dir = str(tmp_path / "m"), str(tmp_path / "p")
    assert run("train", "--config", cfg, "--out", model_dir)[0] == 0
    model = os.path.join(model_dir, "model.json")

    assert run("compile", model, "--config", cfg, "--out", plan_dir)[0] == 0
    plan = json.loads((tmp_path / "p" / "plan.json").read_text())
    assert plan["format"] == "camforest-plan"
    assert plan["feature_bounds"] and len(plan["feature_bounds"]) == 4
    prog = plan["programming"]
    assert len(prog["groups"]) == len(plan["groups"])
    assert prog["n_bits"] is None
    assert np.isfinite(prog["groups"][0]["m1"]).all()

    sim_dir = str(tmp_path / "s")
    code, cap = run("simulate", model, "--config", cfg, "--out", sim_dir)
    assert code == 0
    rows = read_csv(os.path.join(sim_dir, "accuracy.csv"))
    assert rows[0] == ["accuracy", "n_samples"]
    accuracy, n = float(rows[1][0]), int(rows[1][1])
    assert 0.8 <= accuracy <= 1.0 and n == 38
    confusion = read_csv(os.path.join(sim_dir, "confusion.csv"))
    total = sum(int(v) for row in confusion[1:] for v in row[1:])
    assert total == n

    val_dir = str(tmp_path / "v")
    code, cap = run("validate", model, "--config", cfg, "--out", val_dir)
    assert code == 0
    rows = read_csv(os.path.join(val_dir, "validate.csv"))
    assert rows[0] == ["equivalent", "mismatches", "n_samples"]
    assert rows[1] == ["true", "0", "38"]
    assert "equivalent: true" in cap.out


def test_simulate_from_plan_matches_model(ini, run, tmp_path):
    cfg = ini()
    run("train", "--config", cfg, "--out", str(tmp_path / "m"))
    model = str(tmp_path / "m" / "model.json")
    run("compile", model, "--config", cfg, "--out", str(tmp_path / "p"))
    plan = str(tmp_path / "p" / "plan.json")
    run("simulate", model, "--config", cfg, "--out", str(tmp_path / "s1"),
        "--format", "json")
    run("simulate", plan, "--config", cfg, "--out", str(tmp_path / "s2"),
        "--format", "json")
    a = json.loads((tmp_path / "s1" / "simulate.json").read_text())
    b = json.loads((tmp_path / "s2" / "simulate.json").read_text())
    assert a == b
    assert a["accuracy"] >= 0.8
    assert len(a["confusion"]) == 3


def test_sweep_csv_shape_and_byte_identical_reruns(ini, run, tmp_path):
    cfg = ini()
    d1, d2 = str(tmp_path / "w1"), str(tmp_path / "w2")
    assert run("sweep", "--config", cfg, "--out", d1)[0] == 0
    assert run("sweep", "--config", cfg, "--out", d2, "--threads", "3")[0] == 0
    rows = read_csv(os.path.join(d1, "sweep.csv"))
    assert rows[0] == ["variable", "value", "trial", "accuracy"]
    assert len(rows) == 1 + 3 * 4
    assert {r[0] for r in rows[1:]} == {"sigma"}
    for name in ("sweep.csv", "sweep_summary.csv", "sweep.svg",
                 "manifest.json"):
        b1 = (tmp_path / "w1" / name).read_bytes()
        b2 = (tmp_path / "w2" / name).read_bytes()
        assert b1 == b2, name
    svg = (tmp_path / "w1" / "sweep.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_sweep_json_format(ini, run, tmp_path):
    out = str(tmp_path / "w")
    assert run("sweep", "--config", ini(), "--out", out,
               "--format", "json")[0] == 0
    data = json.loads((tmp_path / "w" / "sweep.json").read_text())
    assert data["variable"] == "sigma"
    assert len(data["rows"]) == 12
    assert len(data["summary"]) == 3


def test_vote_noise_validates_and_sweeps_deterministically(ini, run, tmp_path):
    cfg = ini(BASE + "\n[arch]\nvote_sigma = 0.05\n")
    assert run("train", "--config", cfg, "--out", str(tmp_path / "m"))[0] == 0
    model = str(tmp_path / "m" / "model.json")
    code, cap = run("validate", model, "--config", cfg,
                    "--out", str(tmp_path / "v"))
    assert code == 0 and "equivalent: true" in cap.out
    for out, threads in (("w1", "1"), ("w4", "4")):
        assert run("sweep", "--config", cfg, "--out", str(tmp_path / out),
                   "--threads", threads)[0] == 0
    for name in ("sweep.csv", "sweep_summary.csv", "sweep.svg",
                 "manifest.json"):
        b1 = (tmp_path / "w1" / name).read_bytes()
        b4 = (tmp_path / "w4" / name).read_bytes()
        assert b1 == b4, name


def test_perf_from_geometry_matches_published_point(ini, run, tmp_path):
    text = ("[meta]\nversion = 1\n"
            "[perf]\nt_clk = 1e-9\nn_arrays = 16\ntile_h = 16\n"
            "tile_w = 16\nn_tiles = 16\nn_nodes = 1000\n")
    out = str(tmp_path / "pf")
    assert run("perf", "--config", ini(text), "--out", out)[0] == 0
    rows = read_csv(os.path.join(out, "perf.csv"))
    header, data = rows[0], rows[1:]
    assert header[0] == "ml_mode"
    assert {r[0] for r in data} == {"dimensional", "as_printed"}
    by_mode = {r[0]: dict(zip(header[1:], r[1:])) for r in data}
    thru = float(by_mode["dimensional"]["throughput"])
    assert thru == pytest.approx(20.833e6, rel=5e-3)
    e = float(by_mode["dimensional"]["energy_per_decision"])
    p = float(by_mode["dimensional"]["p_total"])
    assert e * thru == pytest.approx(p, rel=1e-12)

    piped = text.replace("n_nodes = 1000\n", "n_nodes = 1000\npipelined = yes\n")
    out2 = str(tmp_path / "pf2")
    assert run("perf", "--config", ini(piped, "p2.ini"), "--out", out2,
               "--format", "json")[0] == 0
    rep = json.loads((tmp_path / "pf2" / "perf.json").read_text())
    assert rep["dimensional"]["throughput"] == pytest.approx(333.33e6, rel=5e-3)
    assert rep["dimensional"]["pipelined"] is True


def test_perf_derives_geometry_from_artifacts(ini, run, tmp_path):
    cfg = ini()
    run("train", "--config", cfg, "--out", str(tmp_path / "m"))
    model = str(tmp_path / "m" / "model.json")
    run("compile", model, "--config", cfg, "--out", str(tmp_path / "p"))
    plan = str(tmp_path / "p" / "plan.json")
    out_m, out_p = str(tmp_path / "fm"), str(tmp_path / "fp")
    assert run("perf", model, "--config", cfg, "--out", out_m,
               "--format", "json")[0] == 0
    assert run("perf", plan, "--config", cfg, "--out", out_p,
               "--format", "json")[0] == 0
    a = json.loads((tmp_path / "fm" / "perf.json").read_text())
    b = json.loads((tmp_path / "fp" / "perf.json").read_text())
    # leaves - trees == internal nodes, so both inputs agree exactly
    assert a == b


def test_perf_without_geometry_fails(ini, run):
    code, cap = run("perf", "--config", ini("[meta]\nversion = 1\n"))
    assert code == 2
    assert "missing" in cap.err


def test_csv_dataset_roundtrip(ini, run, tmp_path):
    X, y = load_iris()
    data = tmp_path / "iris_copy.csv"
    save_csv(str(data), X, y)
    text = BASE.replace("builtin = iris", f"path = {data}")
    out = str(tmp_path / "out")
    assert run("train", "--config", ini(text, "csv.ini"), "--out", out)[0] == 0
    assert (tmp_path / "out" / "model.json").exists()


def test_non_finite_features_exit_three(ini, run, tmp_path):
    out = str(tmp_path / "model")
    assert run("train", "--config", ini(), "--out", out)[0] == 0
    X, y = load_iris()
    X[10, 2] = np.nan
    data = tmp_path / "nan.csv"
    save_csv(str(data), X, y)
    text = BASE.replace("builtin = iris", f"path = {data}").replace(
        "test_fraction = 0.25", "test_fraction = 0.0")
    cfg = ini(text, "nan.ini")
    model = os.path.join(out, "model.json")
    for command in ("simulate", "validate"):
        code, cap = run(command, model, "--config", cfg,
                        "--out", str(tmp_path / command))
        assert code == 3 and "NaN or infinite" in cap.err
        assert not (tmp_path / command / "manifest.json").exists()


@pytest.mark.parametrize("bound", [[1.0, 1.0], [0.0, float("inf")]])
def test_bad_plan_feature_bounds_exit_three(ini, run, tmp_path, bound):
    cfg = ini()
    model = str(tmp_path / "m" / "model.json")
    run("train", "--config", cfg, "--out", str(tmp_path / "m"))
    run("compile", model, "--config", cfg, "--out", str(tmp_path / "p"))
    plan = tmp_path / "p" / "plan.json"
    obj = json.loads(plan.read_text())
    obj["feature_bounds"][0] = bound
    plan.write_text(json.dumps(obj))
    code, cap = run("simulate", str(plan), "--config", cfg,
                    "--out", str(tmp_path / "s"))
    assert code == 3 and "feature_bounds" in cap.err
    assert not (tmp_path / "s" / "manifest.json").exists()


@pytest.mark.parametrize("commands, field, value, message", [
    (("simulate", "perf"), "rows", [], "no rows"),
    (("simulate",), "class", -1, "non-negative"),
    (("simulate",), "ranges", lambda r: r[:-1], "one range per feature"),
    (("simulate",), "ranges", lambda r: r + r[-1:], "one range per feature")])
def test_bad_plan_rows_exit_three(ini, run, tmp_path, commands, field, value,
                                  message):
    cfg = ini()
    model = str(tmp_path / "m" / "model.json")
    run("train", "--config", cfg, "--out", str(tmp_path / "m"))
    run("compile", model, "--config", cfg, "--out", str(tmp_path / "p"))
    plan = tmp_path / "p" / "plan.json"
    obj = json.loads(plan.read_text())
    if field == "rows":
        # An empty map with a layout that agrees with it.
        obj["rows"], obj["memory_cells"] = value, 0
        obj["groups"] = [[] for _ in obj["groups"]]
    else:
        row = obj["rows"][0]
        row[field] = value(row[field]) if callable(value) else value
    plan.write_text(json.dumps(obj))
    for command in commands:
        code, cap = run(command, str(plan), "--config", cfg,
                        "--out", str(tmp_path / command))
        assert code == 3 and message in cap.err
        assert not (tmp_path / command / "manifest.json").exists()


def test_exit_codes(ini, run, tmp_path):
    code, cap = run("train", "--config",
                    ini("[meta]\nversion = 1\nbogus = 1\n", "a.ini"))
    assert code == 2 and "unknown key" in cap.err

    code, cap = run("train", "--config", str(tmp_path / "missing.ini"))
    assert code == 2 and "not found" in cap.err

    code, cap = run("train", "--config",
                    ini("[meta]\nversion = 1\n[dataset]\nbuiltin = iris\n",
                        "b.ini"))
    assert code == 2 and "stochastic" in cap.err

    code, cap = run("train", "--config",
                    ini(BASE.replace("builtin = iris", "builtin = mnist"),
                        "c.ini"))
    assert code == 2 and "builtin" in cap.err

    code, cap = run("validate", str(tmp_path / "no_model.json"),
                    "--config", ini())
    assert code == 3 and "not found" in cap.err

    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "other"}')
    code, cap = run("simulate", str(bad), "--config", ini())
    assert code == 3 and "format" in cap.err

    missing_data = BASE.replace("builtin = iris",
                                f"path = {tmp_path / 'gone.csv'}")
    code, cap = run("train", "--config", ini(missing_data, "d.ini"))
    assert code == 3 and "not found" in cap.err

    empty_grid = BASE.replace("grid = 0.0, 0.05, 0.1", "grid =")
    code, cap = run("sweep", "--config", ini(empty_grid, "e.ini"))
    assert code == 2 and "grid" in cap.err

    # Values the library rejects are configuration errors too.
    run("train", "--config", ini(), "--out", str(tmp_path / "m"))
    model = str(tmp_path / "m" / "model.json")
    for command, section, setting, word in [
            ("simulate", "arch", "tile_h = 0", "tile"),
            ("compile", "arch", "tile_w = 0", "width"),
            ("simulate", "arch", "sigma = -0.1", "sigma"),
            ("simulate", "device", "n_levels = 1", "n_levels"),
            ("simulate", "device", "g_hrs = 2e-4", "g_hrs"),
            ("perf", "perf", "ml_mode = foo", "ml_mode"),
            ("simulate", "arch", "n_bits = 0", "n_bits"),
            ("compile", "arch", "n_bits = -1", "n_bits")]:
        bad_value = ini(BASE + f"[{section}]\n{setting}\n", "f.ini")
        code, cap = run(command, model, "--config", bad_value,
                        "--out", str(tmp_path / "f"))
        assert code == 2 and word in cap.err, (setting, code, cap.err)


def test_noise_simulation_requires_seed(ini, run, tmp_path):
    noisy = ("[meta]\nversion = 1\n[dataset]\nbuiltin = iris\n"
             "[arch]\nsigma = 0.05\n")
    cfg = ini()
    run("train", "--config", cfg, "--out", str(tmp_path / "m"))
    model = str(tmp_path / "m" / "model.json")
    code, cap = run("simulate", model, "--config", ini(noisy, "n.ini"))
    assert code == 2 and "seed" in cap.err
    code, _ = run("simulate", model, "--config", ini(noisy, "n.ini"),
                  "--seed", "3", "--out", str(tmp_path / "s"))
    assert code == 0


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_console_entry_point(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[meta]\nversion = 1\n[perf]\ntile_h = 4\ntile_w = 4\n"
                   "n_tiles = 1\nn_arrays = 1\nn_nodes = 10\n")
    proc = subprocess.run(
        [sys.executable, "-m", "camforest.cli", "perf", "--config", str(cfg),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "o" / "perf.csv").exists()
