"""Threshold encoding onto memristor conductances.

Feature values map affinely onto the DL voltage window. A stored bound is
"placed" by choosing the conductance whose match edge (the DL voltage where
the cell's discharge current equals the row's sensing budget) lands on the
bound. The edge-vs-conductance curve is tabulated once per operating point
by sweeping the divider solver and inverted by monotone interpolation.

The default window (0.31 V .. 0.49 V) sits inside a single regime of the
fitted transistor law, where edges are uniformly sharp and the required
conductances span about one decade inside the device range.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .cell import CellParams, discharge_current, inverter_output, solve_divider
from .errors import CalibrationError

# DL input window (V). Chosen inside the 0.3..0.5 regime of the fitted law;
# see README calibration notes.
V_DL_MIN = 0.31
V_DL_MAX = 0.49
# Calibration sweep domain; slightly wider than the window so clamped edges
# are unreachable by clipped inputs.
CAL_V_LO = 0.3005
CAL_V_HI = 0.4995


@dataclass(frozen=True)
class DeviceModel:
    """Programmable-conductance device limits and programming noise."""

    g_hrs: float = 0.5e-6     # high-resistance (off/wildcard) conductance, S
    g_lrs: float = 200e-6     # low-resistance conductance, S
    n_levels: int = 16        # distinguishable programming levels
    sigma_rel: float = 0.0    # relative std of programming noise

    def __post_init__(self):
        if not 0 < self.g_hrs < self.g_lrs:
            raise ValueError("need 0 < g_hrs < g_lrs")
        if self.n_levels < 2:
            raise ValueError("n_levels must be at least 2")
        if self.sigma_rel < 0:
            raise ValueError("sigma_rel must be non-negative")


@dataclass(frozen=True)
class ThresholdRange:
    """Acceptance interval (lo, hi] in feature units; infinities open a side."""

    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("range lower bound exceeds upper bound")

    @property
    def wildcard(self) -> bool:
        return math.isinf(self.lo) and math.isinf(self.hi)

    def contains(self, x) -> bool:
        # Half-open: a path predicate `f <= t` keeps t inside, `f > t` excludes it.
        return bool(np.all((x > self.lo) & (x <= self.hi)))


@dataclass(frozen=True)
class ConductancePair:
    """Programmed cell: g_m1 holds the lower bound, g_m2 the upper."""

    g_m1: float
    g_m2: float


def feature_to_voltage(x, feature_bounds, v_dl_min: float = V_DL_MIN,
                       v_dl_max: float = V_DL_MAX, clip: bool = True):
    """Affine map of [min, max] feature values onto the DL window.

    Input samples are clipped into the window; stored thresholds are mapped
    with clip=False so widened bounds may extend into the calibration slack.
    ``feature_bounds`` is one (min, max) pair or an (F, 2) array of them,
    one per feature along the last axis of ``x``.
    """
    bounds = np.asarray(feature_bounds, dtype=float)
    lo, hi = bounds[..., 0], bounds[..., 1]
    if not np.all(lo < hi):
        raise ValueError("degenerate feature bounds")
    v = v_dl_min + (np.asarray(x, dtype=float) - lo) * (v_dl_max - v_dl_min) / (hi - lo)
    if clip:
        v = np.clip(v, v_dl_min, v_dl_max)
    return v


def reference_current(c_ml_total: float, v_ml0: float, v_sa_threshold: float,
                      t_clk: float) -> float:
    """Discharge current that pulls an ML exactly to the sense threshold at t_clk."""
    return c_ml_total * (v_ml0 - v_sa_threshold) / t_clk


def _branch_currents(v, g, params, side):
    v_div = solve_divider(v, g, params)
    if side == "lower":
        return discharge_current(v_div, params)
    return discharge_current(inverter_output(v_div, params), params)


def _edge_table(params, device, i_ref, v_lo, v_hi, n_grid, side):
    """Match-edge voltage for every conductance whose edge lies in the domain."""
    g_grid = np.geomspace(device.g_hrs, device.g_lrs, n_grid)
    c_lo = _branch_currents(np.full(n_grid, v_lo), g_grid, params, side)
    c_hi = _branch_currents(np.full(n_grid, v_hi), g_grid, params, side)
    if side == "lower":
        # Current falls with v: edge in-domain iff it brackets i_ref downward.
        valid = (c_lo >= i_ref) & (c_hi <= i_ref)
    else:
        valid = (c_lo <= i_ref) & (c_hi >= i_ref)
    g_valid = g_grid[valid]
    if g_valid.size < 2:
        raise CalibrationError(
            f"{side} branch: match edges unreachable in ({v_lo}, {v_hi}) V; "
            "operating point cannot encode thresholds"
        )
    lo = np.full(g_valid.size, v_lo)
    hi = np.full(g_valid.size, v_hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        cur = _branch_currents(mid, g_valid, params, side)
        if side == "lower":
            above = cur > i_ref  # still discharging: edge lies above mid
        else:
            above = cur < i_ref
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    edges = 0.5 * (lo + hi)
    if np.any(np.diff(edges) <= 0):
        raise CalibrationError(
            f"{side} branch: edge-vs-conductance curve not monotone; "
            "operating point is miscalibrated"
        )
    return g_valid, edges


@dataclass(frozen=True)
class Calibration:
    """Inverse match-edge maps for one (cell params, i_ref) operating point."""

    i_ref: float
    lower_g: np.ndarray
    lower_edge: np.ndarray
    upper_g: np.ndarray
    upper_edge: np.ndarray

    def g_for_lower(self, edge_v):
        """Conductance placing the lower-bound edge at ``edge_v`` (clamped
        to the attainable span; clamped edges are unreachable by clipped
        inputs, i.e. permissive)."""
        return np.interp(edge_v, self.lower_edge, self.lower_g)

    def g_for_upper(self, edge_v):
        return np.interp(edge_v, self.upper_edge, self.upper_g)


_CAL_CACHE: dict = {}


def build_calibration(params: CellParams, device: DeviceModel, i_ref: float,
                      v_lo: float = CAL_V_LO, v_hi: float = CAL_V_HI,
                      n_grid: int = 1024) -> Calibration:
    """Tabulate and invert both branches' match edges (cached)."""
    key = (params, device.g_hrs, device.g_lrs, i_ref, v_lo, v_hi, n_grid)
    cal = _CAL_CACHE.get(key)
    if cal is None:
        lg, le = _edge_table(params, device, i_ref, v_lo, v_hi, n_grid, "lower")
        ug, ue = _edge_table(params, device, i_ref, v_lo, v_hi, n_grid, "upper")
        cal = Calibration(i_ref, lg, le, ug, ue)
        _CAL_CACHE[key] = cal
    return cal


def encode_range(r: ThresholdRange, feature_bounds, device: DeviceModel,
                 calibration: Calibration, v_dl_min: float = V_DL_MIN,
                 v_dl_max: float = V_DL_MAX, widen: float = 0.0) -> ConductancePair:
    """Conductance pair whose match window realizes ``r``.

    ``widen`` (feature units, typically LSB/2 when thresholds are quantized)
    relaxes each finite bound outward. Unbounded sides take the wildcard
    conductances: g_hrs on the lower memristor, g_lrs on the upper, which
    keep that side's discharge path off across the whole window.
    """
    if math.isinf(r.lo):
        g_m1 = device.g_hrs
    else:
        v = feature_to_voltage(r.lo - widen, feature_bounds, v_dl_min, v_dl_max,
                               clip=False)
        g_m1 = float(calibration.g_for_lower(v))
    if math.isinf(r.hi):
        g_m2 = device.g_lrs
    else:
        v = feature_to_voltage(r.hi + widen, feature_bounds, v_dl_min, v_dl_max,
                               clip=False)
        g_m2 = float(calibration.g_for_upper(v))
    return ConductancePair(g_m1, g_m2)


def snap_to_levels(x, n_bits: int, lo: float, hi: float):
    """Nearest of 2**n_bits uniform levels on [lo, hi]; ties take the lower
    level. Infinities pass through. Accepts scalars or arrays."""
    n = 2 ** n_bits
    step = (hi - lo) / (n - 1)
    idx = np.ceil((np.asarray(x, dtype=float) - lo) / step - 0.5)
    snapped = lo + np.clip(idx, 0, n - 1) * step
    return np.where(np.isinf(x), x, snapped)


def quantize_range(r: ThresholdRange, n_bits: int, feature_bounds) -> ThresholdRange:
    """Snap finite bounds to the nearest of 2**n_bits uniform levels."""
    if n_bits < 1:
        raise ValueError("n_bits must be at least 1")
    lo, hi = float(feature_bounds[0]), float(feature_bounds[1])
    return replace(r, lo=float(snap_to_levels(r.lo, n_bits, lo, hi)),
                   hi=float(snap_to_levels(r.hi, n_bits, lo, hi)))


def quantize_thresholds(rows, n_bits: int, feature_bounds):
    """Quantize every range of a rows x features grid of ThresholdRange.

    ``feature_bounds`` is a (F, 2) array-like of per-feature (min, max).
    Wildcards pass through unchanged; quantization is idempotent.
    """
    return [
        [quantize_range(r, n_bits, feature_bounds[j]) for j, r in enumerate(row)]
        for row in rows
    ]


def lsb(feature_bounds, n_bits: int) -> float:
    """Quantization step of one feature at n_bits."""
    return (float(feature_bounds[1]) - float(feature_bounds[0])) / 2 ** n_bits


def inject_noise(g, device: DeviceModel, rng: np.random.Generator):
    """Multiplicative Gaussian programming noise, clipped to the device range."""
    g = np.asarray(g, dtype=float)
    if device.sigma_rel == 0:
        return g.copy()
    noisy = g * (1.0 + rng.normal(0.0, device.sigma_rel, size=g.shape))
    return np.clip(noisy, device.g_hrs, device.g_lrs)
