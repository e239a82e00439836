"""Experiment configuration: a strict, versioned INI dialect.

Every key has a declared type and default; unknown sections or keys are
rejected rather than ignored, and the fully resolved configuration
(defaults included) is what commands consume and echo into the run
manifest, so no silent assumption leaves the process unrecorded.
"""

import configparser
import dataclasses
import hashlib
import math

from .arch import ArchConfig
from .device import DeviceModel
from .errors import ConfigError
from .perf import ML_MODES, PerfConfig

CONFIG_VERSION = 1

_REQUIRED = object()


def _to_int(raw: str):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}") from None


def _to_opt_int(raw: str):
    if raw.strip() == "":
        return None
    return _to_int(raw)


def _to_float(raw: str):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


def _to_bool(raw: str):
    states = configparser.ConfigParser.BOOLEAN_STATES
    try:
        return states[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"expected a boolean, got {raw!r}") from None


def _to_str(raw: str):
    value = raw.strip()
    return value if value else None


def _to_float_list(raw: str):
    toks = [t.strip() for t in raw.split(",") if t.strip()]
    if not toks:
        return None
    return [_to_float(t) for t in toks]


def _fields(cls) -> dict:
    """key -> (converter by annotated type, default) per field of ``cls``."""
    convert = {float: _to_float, int: _to_int, bool: _to_bool}
    return {f.name: (convert[f.type], f.default)
            for f in dataclasses.fields(cls)}


# section -> key -> (converter, default); _REQUIRED keys must appear.
# [device] and the value keys of [perf] are the fields of the objects
# they build, ``DeviceModel`` and ``PerfConfig``.
SCHEMA = {
    "meta": {
        "version": (_to_int, _REQUIRED),
        "seed": (_to_opt_int, None),
    },
    "dataset": {
        "path": (_to_str, None),
        "builtin": (_to_str, None),
        "test_fraction": (_to_float, 0.0),
    },
    "train": {
        "n_trees": (_to_int, 15),
        "max_depth": (_to_int, 6),
    },
    "device": _fields(DeviceModel),
    "arch": {
        "t_clk": (_to_float, ArchConfig.t_clk),
        "tile_h": (_to_int, 16),
        "tile_w": (_to_int, 16),
        "n_bits": (_to_opt_int, None),
        "sigma": (_to_float, 0.0),
        "vote_sigma": (_to_float, ArchConfig.vote_sigma),
        "reorder": (_to_bool, True),
    },
    "sweep": {
        "variable": (_to_str, None),
        "grid": (_to_float_list, None),
        "trials": (_to_int, 10),
        "plot": (_to_bool, True),
    },
    "perf": {
        **_fields(PerfConfig),
        "ml_mode": (_to_str, ML_MODES[0]),
        "tile_h": (_to_opt_int, None),
        "tile_w": (_to_opt_int, None),
        "n_tiles": (_to_opt_int, None),
        "n_arrays": (_to_opt_int, None),
        "n_nodes": (_to_opt_int, None),
    },
    "output": {
        "dir": (_to_str, "out"),
    },
}


def parse_config_text(text: str) -> dict:
    """Parse and validate INI text into the fully resolved nested dict."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    resolved = {}
    for section, keys in SCHEMA.items():
        resolved[section] = {}
        for key, (convert, default) in keys.items():
            if parser.has_option(section, key):
                try:
                    resolved[section][key] = convert(parser.get(section, key))
                except ConfigError as exc:
                    raise ConfigError(f"[{section}] {key}: {exc}") from None
            elif default is _REQUIRED:
                raise ConfigError(f"missing required key [{section}] {key}")
            else:
                resolved[section][key] = default

    version = resolved["meta"]["version"]
    if version != CONFIG_VERSION:
        raise ConfigError(f"config version {version} unsupported "
                          f"(expected {CONFIG_VERSION})")
    return resolved


def load_config(path) -> tuple:
    """Read a config file; returns (resolved dict, sha256 of the raw bytes)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    resolved = parse_config_text(raw.decode("utf-8"))
    return resolved, hashlib.sha256(raw).hexdigest()
