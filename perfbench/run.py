"""camforest simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``. Each
repetition is a fresh interpreter running ``perfbench/child.py``, so every
repetition pays cold calibration as every CLI command does, and its peak
resident memory is its own. Repetitions run one after another (a closed
loop, one client, one process) until ``--seconds`` have passed, at least
``MIN_REPS`` times.

``--trace 0`` prints the end-to-end metrics, each the median over the
run's repetitions.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics from the spans; the difference of the two run times is
the tracing overhead. All timings are host time. The modelled hardware's
statistics are checked for exact equality across repetitions, never timed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Details, quartiles
and spans go to ``perfbench/out/``. Exit status: 0 when every check passed,
1 when a check failed or a repetition crashed, 2 on a usage error or when
the library's sources are missing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_REPS = 3
CHILD_TIMEOUT_S = 90

# Per-layer span names, in pipeline order (see child.py).
SETUP_LAYERS = ("forest.train", "mapper.extract", "mapper.reorder",
                "mapper.pack", "device.calibrate")
COUNTS = ("forest.leaves", "mapper.rows", "mapper.tiles",
          "mapper.active_groups", "arch.decisions", "arch.packed_cell_evals",
          "arch.occupied_cell_evals")
SIM_STATS = {"perf.throughput_dec_s": ("throughput_dec_s", "dec/s"),
             "perf.energy_j_per_dec": ("energy_j_per_dec", "J"),
             "perf.cycles_per_decision": ("cycles_per_decision", "cycles")}


class RepFailed(Exception):
    """A repetition crashed or printed no result."""


def spawn(workload: str, seed: int, traced: bool) -> dict:
    """Run one repetition in a fresh interpreter and return its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed),
           "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RepFailed(f"repetition exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RepFailed(f"repetition exited {proc.returncode}:\n"
                        f"{proc.stderr[-4000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RepFailed("repetition printed no JSON result") from None


def run_reps(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Repetitions until ``seconds`` have passed (at least MIN_REPS; traced
    runs alternate untraced and traced, MIN_REPS of each)."""
    kinds = (False, True) if trace else (False,)
    reps, start = [], time.perf_counter()
    while True:
        for traced in kinds:
            rec = spawn(workload, seed, traced)
            rec["rep"] = len(reps)
            for s in rec["spans"]:
                s["trace"] = f"{workload}-{seed}-rep{rec['rep']}"
            reps.append(rec)
        elapsed = time.perf_counter() - start
        rounds = len(reps) // len(kinds)
        if rounds >= MIN_REPS and elapsed * (rounds + 1) / rounds > seconds:
            return reps


def check(reps: list) -> tuple:
    """(attempted, failed) over every repetition's own checks plus exact
    repeatability: every repetition must reproduce the first one's digests
    and, row by row, its sweep results (traced replays included)."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    first = reps[0]
    for r in reps[1:]:
        for key, value in first["digests"].items():
            attempted += 1
            failed += r["digests"][key] != value
        if first["rows"] is not None:
            attempted += len(first["rows"])
            if r["rows"] is None or len(r["rows"]) != len(first["rows"]):
                failed += len(first["rows"])
            else:
                failed += sum(a != b for a, b in zip(r["rows"], first["rows"]))
    return attempted, int(failed)


def quartiles(values) -> list:
    values = sorted(values)
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def percentile(values, q: int) -> float:
    """q-th percentile (inclusive interpolation) of a non-empty list."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(reps: list) -> dict:
    """name -> (per-repetition values, unit)."""
    checked = sum(r["checked"] for r in reps)
    mismatched = sum(r["mismatches"] for r in reps)
    return {
        "setup_s": ([r["setup_s"] for r in reps], "s"),
        "run_s": ([r["run_s"] for r in reps], "s"),
        "decisions_per_s": ([r["decisions"] / r["post_setup_s"]
                             for r in reps], "1/s"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in reps], "MiB"),
        "sim_accuracy": ([r["sim_accuracy"] for r in reps], "ratio"),
        "agreement_rate": ([1.0 - mismatched / checked], "ratio"),
    }


def _calls(rep: dict, name: str) -> list:
    return [s["end"] - s["start"] for s in rep["spans"] if s["name"] == name]


def per_layer(untraced: list, traced: list) -> dict:
    """name -> (values, unit) from the traced repetitions' spans."""
    def totals(rep):
        own = self_times(rep["spans"])
        out = {}
        for s in rep["spans"]:
            out[s["name"]] = out.get(s["name"], 0.0) + own[s["id"]]
        return out

    tot = [totals(r) for r in traced]
    m = {}
    for name in SETUP_LAYERS + ("forest.predict", "perf.report"):
        m[f"{name}_s"] = ([t.get(name, 0.0) for t in tot], "s")
    for layer in ("program", "infer"):
        calls = [_calls(r, f"arch.{layer}") for r in traced]
        for q in (50, 95):
            m[f"arch.{layer}_p{q}_s"] = ([percentile(c, q) for c in calls], "s")
        m[f"arch.{layer}_calls"] = ([len(c) for c in calls], "count")
    m["device.calibrations"] = (
        [len(_calls(r, "device.calibrate")) for r in traced], "count")
    m["arch.ns_per_packed_cell"] = (
        [1e9 * t["arch.infer"] / r["counts"]["arch.packed_cell_evals"]
         for t, r in zip(tot, traced)], "ns")
    m["arch.software_ratio"] = (
        [statistics.median(_calls(r, "arch.infer")) / t["forest.predict"]
         for t, r in zip(tot, traced)], "ratio")
    for name in COUNTS:
        m[name] = ([r["counts"][name] for r in traced], "count")
    m["mapper.occupancy"] = (
        [r["counts"]["mapper.occupied_cells"] / r["counts"]["mapper.packed_cells"]
         for r in traced], "ratio")
    for name, (key, unit) in SIM_STATS.items():
        m[name] = ([r["sim_stats"][key] for r in traced], unit)
    m["trace.overhead_s"] = (
        [statistics.median(r["run_s"] for r in traced)
         - statistics.median(r["run_s"] for r in untraced)], "s")
    return m


def shares(traced: list) -> dict:
    """Median share of run_s (and, for set-up layers, of setup_s) taken by
    each layer's spans."""
    out = {}
    for name in SETUP_LAYERS + ("arch.program", "arch.infer", "forest.predict"):
        bases = ("setup_s", "run_s") if name in SETUP_LAYERS else ("run_s",)
        out[name] = {base: statistics.median(
            sum(_calls(r, name)) / r[base] for r in traced) for base in bases}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "camforest" / "__init__.py").is_file():
        print(f"error: camforest sources not found under {SRC}",
              file=sys.stderr)
        return 2
    try:
        reps = run_reps(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = check(reps)
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    table = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    metrics, detail = {}, {}
    for name, (values, unit) in table.items():
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        detail[name] = {"median": med, "quartiles": [q1, med, q3],
                        "values": values, "unit": unit}
        print(f"{name:26s} {med:12.6g} {unit:6s} "
              f"[{q1:.6g}, {q3:.6g}] n={len(values)}")
    first = reps[0]
    print("simulated:", json.dumps(first["sim_stats"], sort_keys=True))
    print("digests:", json.dumps(first["digests"], sort_keys=True))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "attempted": attempted,
              "failed": failed, "metrics": detail,
              "simulated": first["sim_stats"], "digests": first["digests"],
              "repetitions": [{k: v for k, v in r.items() if k != "spans"}
                              for r in reps]}
    if args.trace:
        record["layer_shares"] = shares(traced)
        for name, share in record["layer_shares"].items():
            print(f"share of {name:18s}", "  ".join(
                f"{base} {v:6.1%}" for base, v in share.items()))
        (OUT / f"{stem}-spans.json").write_text(
            json.dumps([s for r in traced for s in r["spans"]]))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
