"""One benchmark repetition, run in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/child.py <workload> <seed> <trace 0|1>

Builds the workload's inputs from the seed, runs the command-equivalent
pipeline through camforest's public API, checks every ideal-program decision
against ``Forest.predict``, and prints one JSON object: host timings, the
correctness counts, the simulated statistics with their digests, layer
counts, and (traced) the spans. Host time is how long the simulator takes;
the simulated statistics describe the modelled hardware and are only ever
compared for exact equality.

Untraced, the pipeline makes the calls the CLI makes (``compile_forest``,
``program``, ``sweep``). Traced, it makes the same work visible per layer:
compile is split into extract/reorder/pack, cold calibration is a call of
its own before ``program``, and the sweep is replayed through public
``program``/``evaluate_accuracy`` calls with ``sweep()``'s seeds.
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import camforest as cf
from spans import NullTracer, Tracer
from workloads import MODEL_SEED, TILE, WORKLOADS, SweepSpec, ValidateSpec

SRC = Path(__file__).resolve().parent.parent / "src"
DEVICE = cf.DeviceModel()
CONFIG = cf.ArchConfig()


def make_inputs(spec, seed: int) -> tuple:
    """(X_train, y_train, X_eval, y_eval).

    The training set, and so the trained forest and its layout, is fixed by
    the workload; the seed draws the evaluation inputs. Run-to-run spread
    then measures the simulator, not how large the seed made the forest.
    """
    rng = np.random.default_rng(seed)
    if isinstance(spec, SweepSpec):
        # The seed orders the samples; it also seeds the sweep's noise.
        X, y = cf.load_iris()
        perm = rng.permutation(len(y))
        return X, y, X[perm], y[perm]
    n = spec.n_train + spec.n_eval
    # One draw, then a split: the class centres depend on the draw's seed,
    # so separately drawn train and eval sets would not share their classes.
    X, y = cf.gaussian_blobs(n, spec.n_features, spec.n_classes, MODEL_SEED)
    X_tr, y_tr, X_ev, y_ev = cf.train_test_split(
        X, y, test_fraction=spec.n_eval / n, seed=MODEL_SEED)
    if len(y_ev) != spec.n_eval:
        raise RuntimeError("train_test_split returned the wrong eval size")
    pick = rng.integers(0, spec.n_eval, size=spec.n_eval)
    return X_tr, y_tr, X_ev[pick], y_ev[pick]


def check_decisions(hardware, software) -> tuple:
    """(attempted, failed): every simulated decision against the software
    forest's; a disagreement is a failed operation."""
    hardware = np.asarray(hardware)
    software = np.asarray(software)
    if hardware.shape != software.shape:
        return max(1, software.size), max(1, software.size)
    return int(software.size), int(np.count_nonzero(hardware != software))


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _hex(x) -> str:
    return float(x).hex()


def _plan_digest(plan) -> str:
    rows = [[row.class_label, row.tree_index,
             [[_hex(r.lo), _hex(r.hi)] for r in row.ranges]]
            for row in plan.tmap.rows]
    return _digest([list(plan.col_perm), [[list(t) for t in g]
                                          for g in plan.groups], rows])


def _occupied_cells(plan) -> int:
    """Non-wildcard cells actually placed in the packed tiles."""
    occ = np.array([row.occupied() for row in plan.tmap.rows], dtype=bool)
    total = 0
    for g, tiles in enumerate(plan.groups):
        cols = list(plan.group_columns(g))
        for tile in tiles:
            total += int(occ[np.ix_(list(tile), cols)].sum())
    return total


def _setup(spec, inputs, t, traced: bool):
    """Train, compile, calibrate cold and program the ideal architecture."""
    X_tr, y_tr = inputs[0], inputs[1]
    forest = t.call("forest.train", cf.train_forest, X_tr, y_tr,
                    n_trees=spec.n_trees, max_depth=spec.max_depth,
                    seed=MODEL_SEED)
    if traced:
        tmap = t.call("mapper.extract", cf.extract_paths, forest)
        col_perm, _, tmap = t.call("mapper.reorder", cf.reorder, tmap,
                                   group_width=TILE)
        plan = t.call("mapper.pack", cf.pack_tiles, tmap, TILE, TILE, col_perm)
        with t.span("device.calibrate"):
            i_ref = cf.reference_current(
                CONFIG.parasitics.ml_capacitance(TILE), CONFIG.v_ml0,
                CONFIG.v_sa, CONFIG.t_clk)
            cf.build_calibration(CONFIG.params, DEVICE, i_ref)
    else:
        plan = cf.compile_forest(forest, TILE, TILE)
    arch = t.call("arch.program", cf.program, plan, DEVICE, CONFIG,
                  forest.feature_bounds, forest.n_classes, sigma_rel=0.0)
    return forest, plan, arch


def _run_sweep(spec: SweepSpec, inputs, seed: int, t, traced: bool) -> dict:
    X, y = inputs[2], inputs[3]
    clock = time.perf_counter
    t0 = clock()
    forest, plan, arch = _setup(spec, inputs, t, traced)
    t1 = clock()
    if traced:
        rows = []
        for i, value in enumerate(spec.grid):
            for trial in range(spec.trials):
                a = t.call("arch.program", cf.program, plan, DEVICE, CONFIG,
                           forest.feature_bounds, forest.n_classes, None,
                           float(value), seed=[seed, i, trial])
                acc, _ = t.call("arch.infer", cf.evaluate_accuracy, a, X, y)
                rows.append((float(value), trial, acc))
    else:
        rows = list(cf.sweep(forest, X, y, "sigma", spec.grid, spec.trials,
                             seed, device=DEVICE, config=CONFIG,
                             tile_h=TILE, tile_w=TILE, workers=1).rows)
    t2 = clock()
    hardware = t.call("arch.infer", cf.infer_batch, arch, X)
    software = t.call("forest.predict", forest.predict, X)
    attempted, failed = check_decisions(hardware, software)
    mismatches = failed
    # Rows at sigma = 0 are ideal programs: their accuracy is the software
    # forest's, exactly.
    sw_acc = float(np.mean(software == y))
    for value, _, acc in rows:
        if value == 0.0:
            attempted += 1
            failed += acc != sw_acc
    return {
        "forest": forest, "plan": plan, "arch": arch,
        "setup_s": t1 - t0, "run_s": t2 - t0, "post_setup_s": t2 - t1,
        "decisions": len(rows) * len(y),
        "infer_samples": (len(rows) + 1) * len(y),
        "sim_accuracy": float(np.mean([r[2] for r in rows])),
        "attempted": attempted, "failed": int(failed),
        "checked": len(y), "mismatches": mismatches,
        "rows": [[v, tr, _hex(acc)] for v, tr, acc in rows],
        "predictions": hardware,
    }


def _run_validate(spec: ValidateSpec, inputs, seed: int, t,
                  traced: bool) -> dict:
    X_ev, y_ev = inputs[2], inputs[3]
    clock = time.perf_counter
    t0 = clock()
    forest, plan, arch = _setup(spec, inputs, t, traced)
    t1 = clock()
    hardware = t.call("arch.infer", cf.infer_batch, arch, X_ev)
    t2 = clock()
    software = t.call("forest.predict", forest.predict, X_ev)
    t3 = clock()
    attempted, failed = check_decisions(hardware, software)
    return {
        "forest": forest, "plan": plan, "arch": arch,
        "setup_s": t1 - t0, "run_s": t3 - t0, "post_setup_s": t2 - t1,
        "decisions": len(y_ev), "infer_samples": len(y_ev),
        "sim_accuracy": float(np.mean(hardware == y_ev)),
        "attempted": attempted, "failed": failed,
        "checked": len(y_ev), "mismatches": failed,
        "rows": None, "predictions": hardware,
    }


def run_once(name: str, seed: int, traced: bool) -> dict:
    """One repetition; returns a JSON-ready record."""
    spec = WORKLOADS[name]
    t = Tracer(f"{name}-{seed}") if traced else NullTracer()
    inputs = make_inputs(spec, seed)
    runner = _run_sweep if isinstance(spec, SweepSpec) else _run_validate
    r = runner(spec, inputs, seed, t, traced)
    forest, plan, arch = r.pop("forest"), r.pop("plan"), r.pop("arch")
    n_nodes = sum(tree.n_leaves() - 1 for tree in forest.trees)
    rep = t.call("perf.report", cf.report_for_plan, plan, n_nodes)
    sim = {"throughput_dec_s": rep.throughput,
           "energy_j_per_dec": rep.energy_per_decision,
           "power_w": rep.p_total,
           "cycles_per_decision": arch.cycles_per_decision}
    occupied = _occupied_cells(plan)
    packed = plan.memory_cells
    predictions = r.pop("predictions")
    r.update({
        "workload": name, "seed": seed, "traced": traced,
        "sim_stats": sim,
        "digests": {
            "predictions": hashlib.sha256(
                np.asarray(predictions, dtype=np.int64).tobytes()).hexdigest(),
            "sweep_rows": _digest(r["rows"]),
            "plan": _plan_digest(plan),
            "sim_stats": _digest({k: _hex(v) for k, v in sim.items()}),
        },
        "counts": {
            "forest.leaves": n_nodes + len(forest.trees),
            "mapper.rows": len(plan.tmap.rows),
            "mapper.tiles": plan.n_tiles,
            "mapper.active_groups": arch.n_active_arrays,
            "mapper.occupied_cells": occupied,
            "mapper.packed_cells": packed,
            "arch.decisions": r["decisions"],
            "arch.packed_cell_evals": r["infer_samples"] * packed,
            "arch.occupied_cell_evals": r["infer_samples"] * occupied,
        },
        "spans": list(t.spans),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    return r


def main(argv) -> int:
    if len(argv) != 3 or argv[0] not in WORKLOADS or argv[2] not in ("0", "1"):
        print("usage: child.py <workload> <seed> <0|1>", file=sys.stderr)
        return 2
    if SRC not in Path(cf.__file__).resolve().parents:
        print(f"camforest imported from {cf.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    print(json.dumps(run_once(argv[0], int(argv[1]), argv[2] == "1")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
