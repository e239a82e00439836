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
from camforest.forest import MAX_DEPTH
from camforest.datasets import load_iris, save_csv, train_test_split

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


def test_simulate_plan_counts_a_class_that_wins_no_leaf(ini, run, tmp_path):
    """A plan's class count is the width of its stored vote matrix: class
    2, one sample of 60, wins no leaf, yet the plan simulates as its model
    does."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 2))
    y = (X[:, 0] > 0).astype(int)
    # Inside class 1's half and central on feature 1: no two cuts isolate it.
    X[0], y[0] = (1.0, 0.0), 2
    data = tmp_path / "rare.csv"
    save_csv(str(data), X, y)
    text = (BASE.replace("builtin = iris", f"path = {data}")
            .replace("test_fraction = 0.25", "test_fraction = 0.0")
            .replace("n_trees = 5", "n_trees = 3")
            .replace("max_depth = 4", "max_depth = 2"))
    cfg = ini(text, "rare.ini")
    model = str(tmp_path / "m" / "model.json")
    assert run("train", "--config", cfg, "--out", str(tmp_path / "m"))[0] == 0
    assert run("compile", model, "--config", cfg,
               "--out", str(tmp_path / "p"))[0] == 0
    plan = tmp_path / "p" / "plan.json"
    obj = json.loads(plan.read_text())
    assert max(row["class"] for row in obj["rows"]) == 1
    assert len(obj["programming"]["vote_matrix"][0]) == 3
    for out, artifact in (("s1", model), ("s2", str(plan))):
        assert run("simulate", artifact, "--config", cfg,
                   "--out", str(tmp_path / out))[0] == 0
    for name in ("accuracy.csv", "confusion.csv"):
        assert (tmp_path / "s1" / name).read_bytes() == \
            (tmp_path / "s2" / name).read_bytes()
    # A vote matrix narrower than the rows' classes is malformed.
    votes = obj["programming"]["vote_matrix"]
    obj["programming"]["vote_matrix"] = [row[:1] for row in votes]
    plan.write_text(json.dumps(obj))
    code, cap = run("simulate", str(plan), "--config", cfg,
                    "--out", str(tmp_path / "s3"))
    assert code == 3 and "vote_matrix" in cap.err
    assert not (tmp_path / "s3" / "manifest.json").exists()


def test_class_unseen_in_training_exits_three(ini, run, tmp_path):
    """An evaluation half holding a class the training half lacks is a data
    error for simulate and for sweep, with and without vote noise."""
    X, y = load_iris()
    y = np.minimum(y, 1)
    _, _, held, _ = train_test_split(np.arange(len(y))[:, None], y,
                                     test_fraction=0.25, seed=7)
    y[held[0, 0]] = 2
    data = tmp_path / "unseen.csv"
    save_csv(str(data), X, y)
    text = BASE.replace("builtin = iris", f"path = {data}")
    cfg = ini(text, "unseen.ini")
    assert run("train", "--config", cfg, "--out", str(tmp_path / "m"))[0] == 0
    model = tmp_path / "m" / "model.json"
    assert json.loads(model.read_text())["n_classes"] == 2
    runs = [("simulate", str(model), "--config", cfg)] + [
        ("sweep", "--config", ini(text + f"[arch]\nvote_sigma = {v}\n",
                                  f"v{v}.ini")) for v in ("0", "0.3")]
    for k, argv in enumerate(runs):
        out = tmp_path / f"o{k}"
        code, cap = run(*argv, "--out", str(out))
        assert code == 3, (argv, cap.err)
        assert "labels exceed the model's class count" in cap.err
        assert not (out / "manifest.json").exists()


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


def test_json_and_csv_outputs_carry_the_same_values(ini, run, tmp_path):
    cfg = ini()
    run("train", "--config", cfg, "--out", str(tmp_path / "m"))
    model = str(tmp_path / "m" / "model.json")
    printed = {}
    for fmt in ("csv", "json"):
        for command, inputs in (("simulate", [model]), ("validate", [model]),
                                ("perf", [model]), ("sweep", [])):
            code, cap = run(command, *inputs, "--config", cfg, "--format", fmt,
                            "--out", str(tmp_path / f"{command}_{fmt}"))
            assert code == 0
            printed.setdefault(command, []).append(
                [line for line in cap.out.splitlines()
                 if not line.startswith("wrote ")])
    assert all(csv_out == json_out for csv_out, json_out in printed.values())

    def load(command, name):
        return json.loads((tmp_path / f"{command}_json" / name).read_text())

    def table(command, name):
        return read_csv(tmp_path / f"{command}_csv" / name)

    def cells(values):  # as the CSV writer prints them
        return [repr(v) if isinstance(v, float) else str(v) for v in values]

    sim = load("simulate", "simulate.json")
    assert table("simulate", "accuracy.csv") == [
        ["accuracy", "n_samples"], cells([sim["accuracy"], sim["n_samples"]])]
    k = len(sim["confusion"])
    assert table("simulate", "confusion.csv") == (
        [["true\\pred"] + [f"pred_{j}" for j in range(k)]]
        + [[f"true_{i}"] + cells(row) for i, row in enumerate(sim["confusion"])])
    val = load("validate", "validate.json")
    assert table("validate", "validate.csv") == [
        ["equivalent", "mismatches", "n_samples"],
        [str(val["equivalent"]).lower()] + cells([val["mismatches"],
                                                  val["n_samples"]])]
    perf = load("perf", "perf.json")
    header, *rows = table("perf", "perf.csv")
    assert sorted(row[0] for row in rows) == sorted(perf)
    for row in rows:
        assert row[1:] == cells(perf[row[0]][key] for key in header[1:])
    sw = load("sweep", "sweep.json")
    for name, key in (("sweep.csv", "rows"), ("sweep_summary.csv", "summary")):
        assert table("sweep", name)[1:] == [[sw["variable"]] + cells(row)
                                            for row in sw[key]]


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


@pytest.mark.parametrize("setting", ["n_arrays = 0", "tile_h = -4",
                                     "n_tiles = 0", "tile_w = 0"])
def test_perf_rejects_geometry_below_one(setting, ini, run, tmp_path):
    """Each geometry count must be at least 1: a configuration error (exit
    2) naming the key, not a crash or a report of zero energy."""
    geometry = {"tile_h": 4, "tile_w": 4, "n_tiles": 1, "n_arrays": 1,
                "n_nodes": 10}
    key, value = setting.split(" = ")
    geometry[key] = int(value)
    text = "[meta]\nversion = 1\n[perf]\n" + "".join(
        f"{k} = {v}\n" for k, v in geometry.items())
    code, cap = run("perf", "--config", ini(text), "--out",
                    str(tmp_path / "pf"))
    assert code == 2 and f"{key} must be >= 1" in cap.err, (code, cap.err)
    assert not (tmp_path / "pf").exists()


@pytest.mark.parametrize("threads", ["-3", "0"])
def test_sweep_rejects_threads_below_one(threads, ini, run, tmp_path):
    """``--threads`` below 1 is a configuration error (exit 2) naming it,
    not a serial run or a run on every CPU."""
    out = tmp_path / "w"
    code, cap = run("sweep", "--config", ini(), "--out", str(out),
                    "--threads", threads)
    assert code == 2 and "workers must be an integer >= 1" in cap.err, (
        code, cap.err)
    assert not out.exists()


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


def _first_split(trees):
    """The first tree's root, which the CLI's default forest splits."""
    assert "feature" in trees[0]
    return trees[0]


@pytest.mark.parametrize("field, edit, message", [
    ("n_features", lambda obj: "x", "integers"),
    ("feature_bounds", lambda obj: [0.5] + obj[1:], "(min, max)"),
    ("feature_bounds", lambda obj: [[False, True]] + obj[1:], "(min, max)"),
    ("trees", lambda obj: [dict(_first_split(obj), feature=True)] + obj[1:],
     "split feature must be an integer"),
    ("trees", lambda obj: 5, "list of trees")],
    ids=["n_features_string", "scalar_feature_bound", "boolean_feature_bound",
         "boolean_split_feature", "trees_number"])
def test_malformed_model_fields_exit_three(ini, run, tmp_path, field, edit,
                                           message):
    cfg = ini()
    run("train", "--config", cfg, "--out", str(tmp_path / "m"))
    model = tmp_path / "m" / "model.json"
    obj = json.loads(model.read_text())
    obj[field] = edit(obj[field])
    model.write_text(json.dumps(obj))
    code, cap = run("simulate", str(model), "--config", cfg,
                    "--out", str(tmp_path / "s"))
    assert code == 3 and message in cap.err
    assert not (tmp_path / "s" / "manifest.json").exists()


@pytest.mark.parametrize("commands, field, value, message", [
    (("simulate", "perf"), "rows", [], "no rows"),
    (("simulate",), "class", -1, "non-negative"),
    (("simulate",), "ranges", lambda r: r[:-1], "one range per feature"),
    (("simulate",), "ranges", lambda r: r + r[-1:], "one range per feature"),
    (("simulate",), "class", 1.9, "class must be an integer"),
    (("simulate",), "tree", False, "tree must be an integer"),
    (("simulate", "perf"), "tile_h", 16.7, "tile_h must be an integer"),
    (("simulate",), "n_features", "4", "n_features must be an integer"),
    (("simulate",), "ranges", lambda r: [dict(r[0], lo="0.5")] + r[1:],
     "range bounds must be finite numbers or null"),
    (("simulate", "perf"), "ranges", lambda r: [dict(r[0], hi=True)] + r[1:],
     "range bounds must be finite numbers or null"),
    (("simulate",), "ranges", lambda r: [dict(r[0], lo=float("nan"))] + r[1:],
     "range bounds must be finite numbers or null")])
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
    elif field in obj:
        obj[field] = value
    else:
        row = obj["rows"][0]
        row[field] = value(row[field]) if callable(value) else value
    plan.write_text(json.dumps(obj))
    for command in commands:
        code, cap = run(command, str(plan), "--config", cfg,
                        "--out", str(tmp_path / command))
        assert code == 3 and message in cap.err
        assert not (tmp_path / command / "manifest.json").exists()


def _compiled_plan(ini, run, tmp_path):
    """(config, plan path, plan object) of the default forest's plan."""
    cfg = ini()
    run("train", "--config", cfg, "--out", str(tmp_path / "m"))
    run("compile", str(tmp_path / "m" / "model.json"), "--config", cfg,
        "--out", str(tmp_path / "p"))
    plan = tmp_path / "p" / "plan.json"
    return cfg, plan, json.loads(plan.read_text())


def test_plan_tile_layout_must_match_its_packing(ini, run, tmp_path):
    cfg, plan, obj = _compiled_plan(ini, run, tmp_path)
    tile = obj["groups"][0][0]
    assert len(tile) > 1
    obj["groups"][0][0] = tile[::-1]
    plan.write_text(json.dumps(obj))
    code, cap = run("simulate", str(plan), "--config", cfg,
                    "--out", str(tmp_path / "s"))
    assert code == 3 and "tile layout disagrees" in cap.err
    assert not (tmp_path / "s" / "manifest.json").exists()


def test_plan_without_feature_bounds_fails_only_simulate(ini, run, tmp_path):
    """simulate needs the bounds to map inputs to voltages; perf reads
    only the plan's geometry."""
    cfg, plan, obj = _compiled_plan(ini, run, tmp_path)
    del obj["feature_bounds"]
    plan.write_text(json.dumps(obj))
    code, cap = run("simulate", str(plan), "--config", cfg,
                    "--out", str(tmp_path / "s"))
    assert code == 3 and "plan lacks feature_bounds" in cap.err
    assert not (tmp_path / "s" / "manifest.json").exists()
    code, _ = run("perf", str(plan), "--config", cfg,
                  "--out", str(tmp_path / "f"))
    assert code == 0
    assert (tmp_path / "f" / "perf.csv").exists()


@pytest.mark.parametrize("text, message", [
    ("not json", "not valid JSON"),
    ('["camforest-plan"]', "unrecognized artifact format"),
    ("", "not valid JSON")], ids=["text", "list", "empty"])
def test_non_object_artifacts_exit_three(ini, run, tmp_path, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for command in ("simulate", "perf"):
        code, cap = run(command, str(bad), "--config", ini(),
                        "--out", str(tmp_path / command))
        assert code == 3 and message in cap.err, (command, code, cap.err)
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

    # Hand-nested artifacts deeper than the JSON parser recurses.
    for tag in ("camforest-model", "camforest-plan"):
        bad.write_text(f'{{"format": "{tag}", "rows": '
                       + "[" * 100_000 + "]" * 100_000 + "}")
        code, cap = run("simulate", str(bad), "--config", ini())
        assert code == 3 and "nested" in cap.err, (tag, code, cap.err)

    missing_data = BASE.replace("builtin = iris",
                                f"path = {tmp_path / 'gone.csv'}")
    code, cap = run("train", "--config", ini(missing_data, "d.ini"))
    assert code == 3 and "not found" in cap.err

    empty_grid = BASE.replace("grid = 0.0, 0.05, 0.1", "grid =")
    code, cap = run("sweep", "--config", ini(empty_grid, "e.ini"))
    assert code == 2 and "grid" in cap.err

    for good, bad in (("n_trees = 5", "n_trees = 0"),
                      ("max_depth = 4", "max_depth = 0"),
                      ("max_depth = 4", f"max_depth = {MAX_DEPTH + 1}")):
        code, cap = run("train", "--config",
                        ini(BASE.replace(good, bad), "t.ini"))
        assert code == 2 and bad.split()[0] in cap.err, (bad, code)

    for fraction in ("1.5", "-0.2", "1.0"):
        bad_split = BASE.replace("test_fraction = 0.25",
                                 f"test_fraction = {fraction}")
        code, cap = run("train", "--config", ini(bad_split, "g.ini"))
        assert code == 2 and "test_fraction" in cap.err, (fraction, code)

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
            ("compile", "arch", "n_bits = -1", "n_bits"),
            ("simulate", "arch", "sigma = nan", "sigma"),
            ("simulate", "device", "g_lrs = inf", "g_lrs"),
            ("simulate", "arch", "t_clk = inf", "t_clk"),
            ("perf", "perf", "t_clk = inf", "t_clk")]:
        bad_value = ini(BASE + f"[{section}]\n{setting}\n", "f.ini")
        code, cap = run(command, model, "--config", bad_value,
                        "--out", str(tmp_path / "f"))
        assert code == 2 and word in cap.err, (setting, code, cap.err)


def test_non_finite_csv_label_exits_three(ini, run, tmp_path):
    data = tmp_path / "nan_label.csv"
    data.write_text("f0,f1,label\n0.1,0.2,0\n0.3,0.4,nan\n")
    cfg = ini(BASE.replace("builtin = iris", f"path = {data}"), "nan.ini")
    code, cap = run("train", "--config", cfg, "--out", str(tmp_path / "m"))
    assert code == 3 and "line 3" in cap.err, (code, cap.err)


def test_csv_label_past_int64_exits_three(ini, run, tmp_path):
    data = tmp_path / "huge_label.csv"
    data.write_text("f0,f1,label\n0.1,0.2,0\n0.3,0.4,1e300\n")
    cfg = ini(BASE.replace("builtin = iris", f"path = {data}"), "big.ini")
    code, cap = run("train", "--config", cfg, "--out", str(tmp_path / "m"))
    assert code == 3 and "line 3" in cap.err, (code, cap.err)
    assert not (tmp_path / "m" / "manifest.json").exists()


@pytest.mark.parametrize("max_depth", [1, 2, 3])
@pytest.mark.parametrize("low", [123.456, 1.0], ids=["odd", "even"])
def test_train_on_adjacent_float_values(ini, run, tmp_path, low, max_depth):
    """Two rows one float apart train at any depth (a midpoint that rounds
    onto the upper value once left a child empty)."""
    data = tmp_path / "adjacent.csv"
    save_csv(str(data), [[low], [float(np.nextafter(low, np.inf))]], [0, 1])
    text = (BASE.replace("builtin = iris", f"path = {data}")
            .replace("test_fraction = 0.25", "test_fraction = 0.0")
            .replace("max_depth = 4", f"max_depth = {max_depth}"))
    code, cap = run("train", "--config", ini(text, "adj.ini"),
                    "--out", str(tmp_path / "m"))
    assert code == 0, cap.err
    assert (tmp_path / "m" / "model.json").exists()


def test_n_bits_past_float_range_exits_two(ini, run, tmp_path):
    """2**(n_bits + 1) must be a float: from 1023 up, n_bits is a
    configuration error in simulate and sweep, set in [arch] or swept."""
    run("train", "--config", ini(), "--out", str(tmp_path / "m"))
    model = str(tmp_path / "m" / "model.json")
    for command, text in [
            (["simulate", model], BASE + "[arch]\nn_bits = 1100\n"),
            (["sweep"], BASE + "[arch]\nn_bits = 1023\n"),
            (["sweep"], BASE.replace("variable = sigma", "variable = n_bits")
             .replace("grid = 0.0, 0.05, 0.1", "grid = 4, 1100"))]:
        code, cap = run(*command, "--config", ini(text, "b.ini"),
                        "--out", str(tmp_path / "b"))
        assert code == 2 and "n_bits must be in [1, 1022]" in cap.err, (
            command, code, cap.err)
        assert not (tmp_path / "b" / "manifest.json").exists()


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
