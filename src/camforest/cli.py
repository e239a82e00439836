"""Command-line front end.

Subcommands: train, compile, simulate, sweep, perf, validate. Every run
is driven by a versioned INI config plus a handful of flags, writes its
outputs atomically into one directory, and finishes with a manifest
recording the config hash, resolved settings, seed, and a checksum per
output file. Identical config and seed reproduce byte-identical files;
the manifest carries no timestamps.

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
from .forest import MODEL_FORMAT, MODEL_VERSION, from_json, to_json, train_forest
from .mapper import PLAN_FORMAT, PLAN_VERSION, compile_forest, plan_from_json, plan_to_json
from .perf import ML_MODES, PerfConfig, ScaleFactors, perf_report

MANIFEST_FILE = "manifest.json"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue().encode("utf-8")


def _cell(v):
    if isinstance(v, float):
        return repr(v)
    return v


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
        checksums[name] = _sha256(data)
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


def _resolve_seed(args, cfg, command: str, stochastic: bool):
    seed = args.seed if args.seed is not None else cfg["meta"]["seed"]
    if seed is None and stochastic:
        raise ConfigError(f"{command} is stochastic: provide --seed or "
                          "[meta] seed")
    return seed


def _load_dataset(cfg):
    ds = cfg["dataset"]
    if ds["path"] and ds["builtin"]:
        raise ConfigError("set either dataset.path or dataset.builtin, not both")
    if ds["builtin"]:
        if ds["builtin"] != "iris":
            raise ConfigError(f"unknown builtin dataset {ds['builtin']!r}")
        return load_iris()
    if ds["path"]:
        try:
            return load_csv(ds["path"])
        except FileNotFoundError:
            raise DataError(f"dataset file not found: {ds['path']}") from None
    raise ConfigError("config needs dataset.path or dataset.builtin")


def _split_dataset(cfg, X, y, seed):
    frac = cfg["dataset"]["test_fraction"]
    if frac == 0.0:
        return X, y, X, y
    if seed is None:
        raise ConfigError("test_fraction > 0 needs a seed for the split")
    return train_test_split(X, y, test_fraction=frac, seed=seed)


def _read_input(path: str) -> str:
    if path is None:
        raise ConfigError("this command requires an input file argument")
    try:
        with open(path, "r") as fh:
            return fh.read()
    except FileNotFoundError:
        raise DataError(f"input file not found: {path}") from None


def _input_kind(text: str) -> str:
    try:
        tag = json.loads(text).get("format")
    except (json.JSONDecodeError, AttributeError):
        raise ModelFormatError("input is not a JSON artifact") from None
    if tag == MODEL_FORMAT:
        return "model"
    if tag == PLAN_FORMAT:
        return "plan"
    raise ModelFormatError(f"unrecognized artifact format {tag!r}")


def _device(cfg) -> DeviceModel:
    d = cfg["device"]
    return DeviceModel(g_hrs=d["g_hrs"], g_lrs=d["g_lrs"],
                       n_levels=d["n_levels"])


def _arch_config(cfg) -> ArchConfig:
    a = cfg["arch"]
    return ArchConfig(t_clk=a["t_clk"], vote_sigma=a["vote_sigma"])


def _perf_config(cfg) -> PerfConfig:
    p = cfg["perf"]
    return PerfConfig(
        v_dd=p["v_dd"], v_sl_hi=p["v_sl_hi"], t_clk=p["t_clk"],
        r_out=p["r_out"], r_w=p["r_w"], c_dl=p["c_dl"], c_ml=p["c_ml"],
        scale=ScaleFactors(power_scale=p["power_scale"],
                           cap_scale=p["cap_scale"],
                           volt_scale=p["volt_scale"]),
        pipelined=p["pipelined"],
    )


def _programming_payload(arch) -> dict:
    return {
        "t_clk": arch.config.t_clk,
        "n_bits": arch.n_bits,
        "g_hrs": arch.device.g_hrs,
        "g_lrs": arch.device.g_lrs,
        "groups": [
            {"m1": m1.tolist(), "m2": m2.tolist()}
            for m1, m2 in zip(arch.cells_m1, arch.cells_m2)
        ],
        "vote_matrix": arch.vote_matrix.tolist(),
    }


def cmd_train(args, cfg, config_sha):
    seed = _resolve_seed(args, cfg, "train", stochastic=True)
    X, y = _load_dataset(cfg)
    X_tr, y_tr, _, _ = _split_dataset(cfg, X, y, seed)
    t = cfg["train"]
    forest = train_forest(X_tr, y_tr, n_trees=t["n_trees"],
                          max_depth=t["max_depth"], seed=seed)
    print(f"trained {t['n_trees']} trees on {len(y_tr)} samples")
    _emit(args.out or cfg["output"]["dir"],
          {"model.json": (to_json(forest) + "\n").encode("utf-8")},
          "train", config_sha, cfg, seed)


def cmd_compile(args, cfg, config_sha):
    seed = _resolve_seed(args, cfg, "compile", stochastic=False)
    forest = from_json(_read_input(args.input))
    a = cfg["arch"]
    plan = compile_forest(forest, a["tile_h"], a["tile_w"],
                          reorder_map=a["reorder"])
    arch = program(plan, _device(cfg), _arch_config(cfg),
                   forest.feature_bounds, forest.n_classes,
                   n_bits=a["n_bits"], sigma_rel=0.0)
    text = plan_to_json(plan, feature_bounds=forest.feature_bounds,
                        programming=_programming_payload(arch))
    print(f"compiled {len(plan.tmap.rows)} rows into {plan.n_tiles} tiles "
          f"({plan.memory_cells} cells)")
    _emit(args.out or cfg["output"]["dir"],
          {"plan.json": (text + "\n").encode("utf-8")},
          "compile", config_sha, cfg, seed)


def _architecture_from_input(args, cfg, seed):
    """Program an architecture from a model or plan artifact."""
    text = _read_input(args.input)
    kind = _input_kind(text)
    a = cfg["arch"]
    stochastic = a["sigma"] > 0.0 or a["vote_sigma"] > 0.0
    if stochastic and seed is None:
        raise ConfigError("sigma or vote_sigma > 0 needs a seed")
    prog_seed = seed if seed is not None else 0
    if kind == "model":
        forest = from_json(text)
        plan = compile_forest(forest, a["tile_h"], a["tile_w"],
                              reorder_map=a["reorder"])
        bounds = forest.feature_bounds
        n_classes = forest.n_classes
    else:
        plan, bounds = plan_from_json(text)
        if bounds is None:
            raise ModelFormatError("plan lacks feature_bounds; re-export it "
                                   "with bounds to simulate")
        forest = None
        n_classes = int(plan.tmap.labels.max()) + 1
    arch = program(plan, _device(cfg), _arch_config(cfg), bounds, n_classes,
                   n_bits=a["n_bits"], sigma_rel=a["sigma"],
                   seed=[prog_seed, 0])
    return arch, forest


def cmd_simulate(args, cfg, config_sha):
    seed = _resolve_seed(args, cfg, "simulate", stochastic=False)
    X, y = _load_dataset(cfg)
    _, _, X_ev, y_ev = _split_dataset(cfg, X, y, seed)
    arch, _ = _architecture_from_input(args, cfg, seed)
    if int(np.max(y_ev)) >= arch.n_classes:
        raise DataError("dataset labels exceed the model's class count")
    rng = (np.random.default_rng([seed, 1])
           if arch.config.vote_sigma > 0.0 else None)
    accuracy, confusion = evaluate_accuracy(arch, X_ev, y_ev, rng=rng)
    print(f"accuracy {accuracy:.4f} on {len(y_ev)} samples")
    k = arch.n_classes
    if args.format == "json":
        files = {"simulate.json": _json_bytes({
            "accuracy": accuracy,
            "n_samples": int(len(y_ev)),
            "confusion": confusion.tolist(),
        })}
    else:
        files = {
            "accuracy.csv": _csv_bytes(
                ["accuracy", "n_samples"], [[accuracy, int(len(y_ev))]]),
            "confusion.csv": _csv_bytes(
                ["true\\pred"] + [f"pred_{j}" for j in range(k)],
                [[f"true_{i}"] + [int(v) for v in confusion[i]]
                 for i in range(k)]),
        }
    _emit(args.out or cfg["output"]["dir"], files, "simulate", config_sha,
          cfg, seed)


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


def cmd_sweep(args, cfg, config_sha):
    seed = _resolve_seed(args, cfg, "sweep", stochastic=True)
    s = cfg["sweep"]
    if s["variable"] is None:
        raise ConfigError("sweep needs [sweep] variable")
    if s["grid"] is None:
        raise ConfigError("sweep needs a non-empty [sweep] grid")
    X, y = _load_dataset(cfg)
    X_tr, y_tr, X_ev, y_ev = _split_dataset(cfg, X, y, seed)
    t = cfg["train"]
    forest = train_forest(X_tr, y_tr, n_trees=t["n_trees"],
                          max_depth=t["max_depth"], seed=seed)
    a = cfg["arch"]
    result = sweep(forest, X_ev, y_ev, s["variable"], s["grid"], s["trials"],
                   seed, device=_device(cfg), config=_arch_config(cfg),
                   tile_h=a["tile_h"], tile_w=a["tile_w"], n_bits=a["n_bits"],
                   sigma_rel=a["sigma"], reorder_map=a["reorder"],
                   workers=args.threads)
    for value, mean, std in result.summary:
        print(f"{s['variable']}={value:g}: mean accuracy {mean:.4f} "
              f"(std {std:.4f})")
    if args.format == "json":
        files = {"sweep.json": _json_bytes({
            "variable": result.variable,
            "rows": [list(r) for r in result.rows],
            "summary": [list(r) for r in result.summary],
        })}
    else:
        files = {
            "sweep.csv": _csv_bytes(
                ["variable", "value", "trial", "accuracy"],
                [[result.variable, value, trial, acc]
                 for value, trial, acc in result.rows]),
            "sweep_summary.csv": _csv_bytes(
                ["variable", "value", "mean_accuracy", "std_accuracy"],
                [[result.variable, value, mean, std]
                 for value, mean, std in result.summary]),
        }
    if s["plot"]:
        files["sweep.svg"] = _sweep_svg(result.variable,
                                        result.summary).encode("utf-8")
    _emit(args.out or cfg["output"]["dir"], files, "sweep", config_sha,
          cfg, seed)


def _count_nodes(forest) -> int:
    return sum(t.n_leaves() - 1 for t in forest.trees)


def cmd_perf(args, cfg, config_sha):
    seed = _resolve_seed(args, cfg, "perf", stochastic=False)
    p = cfg["perf"]
    pcfg = _perf_config(cfg)
    ml_mode = p["ml_mode"] or "dimensional"
    if ml_mode not in ML_MODES:
        raise ConfigError("[perf] ml_mode must be one of "
                          f"{', '.join(ML_MODES)}")
    geometry = {k: p[k] for k in
                ("tile_h", "tile_w", "n_tiles", "n_arrays", "n_nodes")}
    if args.input is not None:
        text = _read_input(args.input)
        kind = _input_kind(text)
        if kind == "model":
            forest = from_json(text)
            a = cfg["arch"]
            plan = compile_forest(forest, a["tile_h"], a["tile_w"],
                                  reorder_map=a["reorder"])
            n_nodes = _count_nodes(forest)
        else:
            plan, _ = plan_from_json(text)
            # one mapped row per leaf; binary trees: internals = leaves - trees
            n_trees = max(r.tree_index for r in plan.tmap.rows) + 1
            n_nodes = len(plan.tmap.rows) - n_trees
        defaults = {
            "tile_h": plan.tile_h,
            "tile_w": plan.tile_w,
            "n_tiles": plan.n_tiles,
            "n_arrays": max(1, sum(1 for g in plan.groups if g)),
            "n_nodes": n_nodes,
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
    if args.format == "json":
        files = {"perf.json": _json_bytes({
            mode: {f: getattr(rep, f) for f in fields} |
                  {"pipelined": rep.pipelined}
            for mode, rep in reports.items()
        })}
    else:
        files = {"perf.csv": _csv_bytes(
            ["ml_mode"] + fields + ["pipelined"],
            [[mode] + [getattr(rep, f) for f in fields] + [rep.pipelined]
             for mode, rep in reports.items()])}
    _emit(args.out or cfg["output"]["dir"], files, "perf", config_sha,
          cfg, seed)


def cmd_validate(args, cfg, config_sha):
    seed = _resolve_seed(args, cfg, "validate", stochastic=False)
    X, y = _load_dataset(cfg)
    _, _, X_ev, _ = _split_dataset(cfg, X, y, seed)
    forest = from_json(_read_input(args.input))
    a = cfg["arch"]
    plan = compile_forest(forest, a["tile_h"], a["tile_w"],
                          reorder_map=a["reorder"])
    # The ideal program: no programming, quantization or vote noise.
    ideal = dataclasses.replace(_arch_config(cfg), vote_sigma=0.0)
    arch = program(plan, _device(cfg), ideal, forest.feature_bounds,
                   forest.n_classes, n_bits=None, sigma_rel=0.0)
    hardware = infer_batch(arch, X_ev)
    software = forest.predict(X_ev)
    mismatches = int(np.sum(hardware != software))
    equivalent = mismatches == 0
    print(f"equivalent: {str(equivalent).lower()}, mismatches: {mismatches} "
          f"of {len(X_ev)}")
    payload = {
        "equivalent": equivalent,
        "mismatches": mismatches,
        "n_samples": int(len(X_ev)),
    }
    if args.format == "json":
        files = {"validate.json": _json_bytes(payload)}
    else:
        files = {"validate.csv": _csv_bytes(
            ["equivalent", "mismatches", "n_samples"],
            [[str(equivalent).lower(), mismatches, int(len(X_ev))]])}
    _emit(args.out or cfg["output"]["dir"], files, "validate", config_sha,
          cfg, seed)


_COMMANDS = {
    "train": (cmd_train, False),
    "compile": (cmd_compile, True),
    "simulate": (cmd_simulate, True),
    "sweep": (cmd_sweep, False),
    "perf": (cmd_perf, True),
    "validate": (cmd_validate, True),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="camforest",
        description="Train, compile, and simulate decision forests on an "
                    "analog range-matching memory architecture.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, takes_input) in _COMMANDS.items():
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
    if not hasattr(args, "input"):
        args.input = None
    try:
        cfg, config_sha = load_config(args.config)
        handler = _COMMANDS[args.command][0]
        handler(args, cfg, config_sha)
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
