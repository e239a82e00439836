"""Command-line front end.

Subcommands: train, compile, simulate, sweep, perf, validate. Every run
is driven by a versioned INI config plus a handful of flags, writes its
outputs atomically into one directory, and finishes with a manifest
recording the config hash, resolved settings, seed, and a checksum per
output file. Identical config and seed reproduce byte-identical files;
the manifest carries no timestamps.

``main`` resolves the seed, runs the command's handler and writes the
files it returns; handlers share one compile (``_compile``), program
(``_program``) and table writer (``_files``, JSON or CSV).

Exit codes: 0 success, 2 configuration error, 3 data or file-format
error, 4 invariant violation, 1 anything unexpected.
"""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .arch import ArchConfig, evaluate_accuracy, infer_batch, program, sweep
from .cell import CellParams, Parasitics
from .config import CONFIG_VERSION, load_config
from .datasets import load_csv, load_iris, train_test_split
from .device import DeviceModel
from .errors import (
    CalibrationError,
    CamForestError,
    ConfigError,
    DataError,
    InvariantError,
    ModelFormatError,
)
from .forest import MODEL_FORMAT, MODEL_VERSION, _from_obj, _loads, from_json, to_json, train_forest
from .mapper import PLAN_FORMAT, PLAN_VERSION, _plan_from_obj, compile_forest, plan_to_json
from .perf import ML_MODES, PerfConfig, perf_report

MANIFEST_FILE = "manifest.json"


def _atomic_write(path: str, data: bytes):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_bytes(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode("utf-8")


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode("utf-8")


def _physical_constants() -> dict:
    """Fixed cell and wiring constants assumed by every run.

    These are fitted device characteristics, not tunables; they are
    echoed here so no physical assumption stays silent.
    """
    sense = ArchConfig()
    return {
        "cell": dataclasses.asdict(CellParams()),
        "parasitics": dataclasses.asdict(Parasitics()),
        "match_sense": {"v_ml0": sense.v_ml0, "v_sa": sense.v_sa,
                        "v_read": sense.v_read},
    }


def _emit(out_dir: str, files: dict, command: str, config_sha: str,
          resolved: dict, seed):
    """Write all output files atomically, then the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    checksums = {}
    for name, data in files.items():
        path = os.path.join(out_dir, name)
        _atomic_write(path, data)
        checksums[name] = hashlib.sha256(data).hexdigest()
        print(f"wrote {path}")
    manifest = {
        "command": command,
        "config_sha256": config_sha,
        "seed": seed,
        "versions": {
            "camforest": __version__,
            "numpy": np.__version__,
            "config_format": CONFIG_VERSION,
            "model_format": MODEL_VERSION,
            "plan_format": PLAN_VERSION,
        },
        "resolved_config": resolved,
        "physical_constants": _physical_constants(),
        "outputs": checksums,
    }
    path = os.path.join(out_dir, MANIFEST_FILE)
    _atomic_write(path, _json_bytes(manifest))
    print(f"wrote {path}")


def _dataset(cfg, seed) -> tuple:
    """(X_train, y_train, X_eval, y_eval) of the configured dataset; with
    no test fraction both halves are the whole set."""
    ds = cfg["dataset"]
    if ds["path"] and ds["builtin"]:
        raise ConfigError("set either dataset.path or dataset.builtin, not both")
    if ds["builtin"]:
        if ds["builtin"] != "iris":
            raise ConfigError(f"unknown builtin dataset {ds['builtin']!r}")
        X, y = load_iris()
    elif ds["path"]:
        try:
            X, y = load_csv(ds["path"])
        except FileNotFoundError:
            raise DataError(f"dataset file not found: {ds['path']}") from None
    else:
        raise ConfigError("config needs dataset.path or dataset.builtin")
    frac = ds["test_fraction"]
    if not 0.0 <= frac < 1.0:
        raise ConfigError("[dataset] test_fraction must be in [0, 1)")
    if frac == 0.0:
        return X, y, X, y
    if seed is None:
        raise ConfigError("test_fraction > 0 needs a seed for the split")
    return train_test_split(X, y, test_fraction=frac, seed=seed)


def _read_input(path: str) -> str:
    try:
        with open(path, "r") as fh:
            return fh.read()
    except FileNotFoundError:
        raise DataError(f"input file not found: {path}") from None


def _arch_config(cfg) -> ArchConfig:
    a = cfg["arch"]
    return ArchConfig(t_clk=a["t_clk"], vote_sigma=a["vote_sigma"])


def _compile(cfg, forest):
    """The forest's plan under the [arch] tile and reorder keys."""
    a = cfg["arch"]
    return compile_forest(forest, a["tile_h"], a["tile_w"],
                          reorder_map=a["reorder"])


def _program(cfg, plan, bounds, n_classes, noise_seed=None, ideal=False):
    """``plan`` programmed on the configured device at [arch] n_bits, with
    [arch] sigma programming noise from ``noise_seed`` when one is given;
    ``ideal`` programs it exactly, without quantization or vote noise."""
    a = cfg["arch"]
    device, config = DeviceModel(**cfg["device"]), _arch_config(cfg)
    if ideal:
        config = dataclasses.replace(config, vote_sigma=0.0)
    return program(plan, device, config, bounds, n_classes,
                   n_bits=None if ideal else a["n_bits"],
                   sigma_rel=0.0 if noise_seed is None else a["sigma"],
                   seed=0 if noise_seed is None else [noise_seed, 0])


def _files(args, stem: str, payload, tables: dict) -> dict:
    """A command's tabular outputs: ``payload`` as ``<stem>.json`` in the
    json format, else one CSV file per ``tables`` entry,
    ``{name: (header, rows)}``."""
    if args.format == "json":
        return {f"{stem}.json": _json_bytes(payload)}
    return {name: _csv_bytes(header, rows)
            for name, (header, rows) in tables.items()}


def cmd_train(args, cfg, seed):
    X_tr, y_tr, _, _ = _dataset(cfg, seed)
    t = cfg["train"]
    forest = train_forest(X_tr, y_tr, n_trees=t["n_trees"],
                          max_depth=t["max_depth"], seed=seed)
    print(f"trained {t['n_trees']} trees on {len(y_tr)} samples")
    return {"model.json": (to_json(forest) + "\n").encode("utf-8")}


def cmd_compile(args, cfg, seed):
    forest = from_json(_read_input(args.input))
    plan = _compile(cfg, forest)
    arch = _program(cfg, plan, forest.feature_bounds, forest.n_classes)
    programming = {
        "t_clk": arch.config.t_clk,
        "n_bits": arch.n_bits,
        "g_hrs": arch.device.g_hrs,
        "g_lrs": arch.device.g_lrs,
        "groups": [{"m1": m1.tolist(), "m2": m2.tolist()}
                   for m1, m2 in zip(arch.cells_m1, arch.cells_m2)],
        "vote_matrix": arch.vote_matrix.tolist(),
    }
    text = plan_to_json(plan, feature_bounds=forest.feature_bounds,
                        programming=programming)
    print(f"compiled {plan.tmap.n_rows} rows into {plan.n_tiles} tiles "
          f"({plan.memory_cells} cells)")
    return {"plan.json": (text + "\n").encode("utf-8")}


def _plan_from_input(args, cfg, unseeded_noise: bool = False) -> tuple:
    """(plan, feature bounds, class count) of the model or plan artifact
    given on the command line; a model compiles with the [arch] tile and
    reorder keys. ``unseeded_noise`` raises ConfigError once the artifact's
    kind is known, before it is parsed."""
    obj = _loads(_read_input(args.input))
    tag = obj.get("format") if isinstance(obj, dict) else None
    if tag not in (MODEL_FORMAT, PLAN_FORMAT):
        raise ModelFormatError(f"unrecognized artifact format {tag!r}")
    if unseeded_noise:
        raise ConfigError("sigma or vote_sigma > 0 needs a seed")
    if tag == PLAN_FORMAT:
        plan, bounds = _plan_from_obj(obj)
        return plan, bounds, _plan_class_count(obj, plan)
    forest = _from_obj(obj)
    return _compile(cfg, forest), forest.feature_bounds, forest.n_classes


def _plan_class_count(obj, plan) -> int:
    """A plan's class count: the width of the vote matrix its programming
    payload stores (a class may win no leaf), else its largest row class
    + 1."""
    seen = int(plan.tmap.labels.max()) + 1
    programming = obj.get("programming")
    votes = (programming.get("vote_matrix")
             if isinstance(programming, dict) else None)
    if votes is None:
        return seen
    if not (isinstance(votes, list) and len(votes) == plan.tmap.n_rows
            and all(isinstance(row, list) and len(row) == len(votes[0])
                    for row in votes) and len(votes[0]) >= seen):
        raise ModelFormatError("plan vote_matrix must hold one row per map "
                               "row and a column per class")
    return len(votes[0])


def cmd_simulate(args, cfg, seed):
    _, _, X_ev, y_ev = _dataset(cfg, seed)
    a = cfg["arch"]
    stochastic = a["sigma"] > 0.0 or a["vote_sigma"] > 0.0
    plan, bounds, n_classes = _plan_from_input(
        args, cfg, unseeded_noise=stochastic and seed is None)
    if bounds is None:
        raise ModelFormatError("plan lacks feature_bounds; re-export it "
                               "with bounds to simulate")
    arch = _program(cfg, plan, bounds, n_classes, noise_seed=seed or 0)
    rng = (np.random.default_rng([seed, 1])
           if arch.config.vote_sigma > 0.0 else None)
    accuracy, confusion = evaluate_accuracy(arch, X_ev, y_ev, rng=rng)
    print(f"accuracy {accuracy:.4f} on {len(y_ev)} samples")
    n = int(len(y_ev))
    return _files(args, "simulate", {
        "accuracy": accuracy, "n_samples": n,
        "confusion": confusion.tolist(),
    }, {
        "accuracy.csv": (["accuracy", "n_samples"], [[accuracy, n]]),
        "confusion.csv": (
            ["true\\pred"] + [f"pred_{j}" for j in range(arch.n_classes)],
            [[f"true_{i}"] + row for i, row in enumerate(confusion.tolist())]),
    })


def _sweep_svg(variable: str, summary) -> str:
    """Self-contained SVG line chart of mean accuracy vs the swept value."""
    width, height, margin = 640, 400, 60
    xs = [s[0] for s in summary]
    ys = [s[1] for s in summary]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def px(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def py(yv):
        return height - margin - (yv - y_lo) / y_span * (height - 2 * margin)

    points = " ".join(f"{px(x):.2f},{py(yv):.2f}" for x, yv in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<polyline points="{points}" fill="none" stroke="#1f6fb2" '
        'stroke-width="2"/>',
    ]
    for x, yv in zip(xs, ys):
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(yv):.2f}" r="3" '
                     'fill="#1f6fb2"/>')
        parts.append(f'<text x="{px(x):.2f}" y="{height - margin + 18}" '
                     f'font-size="11" text-anchor="middle">{x:g}</text>')
    parts.append(f'<text x="{width / 2:.0f}" y="{height - 12}" '
                 f'font-size="13" text-anchor="middle">{variable}</text>')
    parts.append(f'<text x="16" y="{height / 2:.0f}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{height / 2:.0f})">mean accuracy</text>')
    parts.append(f'<text x="{margin}" y="{margin - 8}" font-size="11">'
                 f'{y_hi:.4f}</text>')
    parts.append(f'<text x="{margin}" y="{height - margin + 30}" '
                 f'font-size="11">{y_lo:.4f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_sweep(args, cfg, seed):
    s = cfg["sweep"]
    if s["variable"] is None:
        raise ConfigError("sweep needs [sweep] variable")
    if s["grid"] is None:
        raise ConfigError("sweep needs a non-empty [sweep] grid")
    X_tr, y_tr, X_ev, y_ev = _dataset(cfg, seed)
    t = cfg["train"]
    forest = train_forest(X_tr, y_tr, n_trees=t["n_trees"],
                          max_depth=t["max_depth"], seed=seed)
    a = cfg["arch"]
    result = sweep(forest, X_ev, y_ev, s["variable"], s["grid"], s["trials"],
                   seed, DeviceModel(**cfg["device"]), _arch_config(cfg),
                   tile_h=a["tile_h"], tile_w=a["tile_w"], n_bits=a["n_bits"],
                   sigma_rel=a["sigma"], reorder_map=a["reorder"],
                   workers=args.threads)
    for value, mean, std in result.summary:
        print(f"{s['variable']}={value:g}: mean accuracy {mean:.4f} "
              f"(std {std:.4f})")
    rows = [list(r) for r in result.rows]
    summary = [list(r) for r in result.summary]
    files = _files(args, "sweep", {
        "variable": result.variable, "rows": rows, "summary": summary,
    }, {
        "sweep.csv": (["variable", "value", "trial", "accuracy"],
                      [[result.variable] + r for r in rows]),
        "sweep_summary.csv": (
            ["variable", "value", "mean_accuracy", "std_accuracy"],
            [[result.variable] + r for r in summary]),
    })
    if s["plot"]:
        files["sweep.svg"] = _sweep_svg(result.variable,
                                        result.summary).encode("utf-8")
    return files


def cmd_perf(args, cfg, seed):
    p = cfg["perf"]
    pcfg = PerfConfig(**{f.name: p[f.name]
                         for f in dataclasses.fields(PerfConfig)})
    ml_mode = p["ml_mode"] or "dimensional"
    if ml_mode not in ML_MODES:
        raise ConfigError("[perf] ml_mode must be one of "
                          f"{', '.join(ML_MODES)}")
    geometry = {k: p[k] for k in
                ("tile_h", "tile_w", "n_tiles", "n_arrays", "n_nodes")}
    if args.input is not None:
        plan, _, _ = _plan_from_input(args, cfg)
        # One mapped row per leaf; binary trees: internals = leaves - trees.
        n_trees = int(plan.tmap.trees.max()) + 1
        defaults = {
            "tile_h": plan.tile_h,
            "tile_w": plan.tile_w,
            "n_tiles": plan.n_tiles,
            "n_arrays": max(1, plan.n_active_groups),
            "n_nodes": plan.tmap.n_rows - n_trees,
        }
        for key, value in defaults.items():
            if geometry[key] is None:
                geometry[key] = value
    missing = [k for k, v in geometry.items() if v is None]
    if missing:
        raise ConfigError("perf needs geometry from an input artifact or "
                          f"[perf] keys; missing: {', '.join(missing)}")
    reports = {
        mode: perf_report(geometry["tile_h"], geometry["tile_w"],
                          geometry["n_tiles"], geometry["n_arrays"],
                          geometry["n_nodes"], pcfg, ml_mode=mode)
        for mode in ML_MODES
    }
    main_report = reports[ml_mode]
    print(f"throughput {main_report.throughput:.4g} dec/s, "
          f"energy {main_report.energy_per_decision:.4g} J/dec")
    fields = ["p_static", "p_dl", "p_ml", "p_total", "tau_dl", "throughput",
              "energy_per_decision", "energy_per_node_per_decision"]
    values = {mode: [getattr(rep, f) for f in fields] + [rep.pipelined]
              for mode, rep in reports.items()}
    return _files(args, "perf", {
        mode: dict(zip(fields + ["pipelined"], row))
        for mode, row in values.items()
    }, {"perf.csv": (["ml_mode"] + fields + ["pipelined"],
                     [[mode] + row for mode, row in values.items()])})


def cmd_validate(args, cfg, seed):
    _, _, X_ev, _ = _dataset(cfg, seed)
    forest = from_json(_read_input(args.input))
    # The ideal program: no programming, quantization or vote noise.
    arch = _program(cfg, _compile(cfg, forest), forest.feature_bounds,
                    forest.n_classes, ideal=True)
    hardware = infer_batch(arch, X_ev)
    software = forest.predict(X_ev)
    mismatches = int(np.sum(hardware != software))
    equivalent = mismatches == 0
    print(f"equivalent: {str(equivalent).lower()}, mismatches: {mismatches} "
          f"of {len(X_ev)}")
    n = int(len(X_ev))
    return _files(args, "validate", {
        "equivalent": equivalent, "mismatches": mismatches, "n_samples": n,
    }, {"validate.csv": (["equivalent", "mismatches", "n_samples"],
                         [[str(equivalent).lower(), mismatches, n]])})


# name: (handler, takes an input artifact, stochastic: needs a seed)
_COMMANDS = {
    "train": (cmd_train, False, True),
    "compile": (cmd_compile, True, False),
    "simulate": (cmd_simulate, True, False),
    "sweep": (cmd_sweep, False, True),
    "perf": (cmd_perf, True, False),
    "validate": (cmd_validate, True, False),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="camforest",
        description="Train, compile, and simulate decision forests on an "
                    "analog range-matching memory architecture.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, takes_input, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        if takes_input:
            nargs = "?" if name == "perf" else None
            p.add_argument("input", nargs=nargs,
                           help="model.json or plan.json artifact")
        p.add_argument("--config", required=True, help="INI experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides [meta] seed)")
        p.add_argument("--out", default=None,
                       help="output directory (overrides [output] dir)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads for sweeps")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="tabular output format")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg, config_sha = load_config(args.config)
        handler, _, stochastic = _COMMANDS[args.command]
        seed = args.seed if args.seed is not None else cfg["meta"]["seed"]
        if seed is None and stochastic:
            raise ConfigError(f"{args.command} is stochastic: provide --seed "
                              "or [meta] seed")
        files = handler(args, cfg, seed)
        _emit(args.out or cfg["output"]["dir"], files, args.command,
              config_sha, cfg, seed)
        return 0
    except (ConfigError, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ModelFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CamForestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
