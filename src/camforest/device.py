"""Threshold encoding onto memristor conductances.

Feature values map affinely onto the DL voltage window. A stored bound is
"placed" by choosing the conductance whose match edge (the DL voltage where
the branch's discharge current equals the row's sensing budget) lands on
the bound. The fitted T1 law is drain-independent, so the divider balance
is linear and that conductance has a closed form (see ``Calibration``).

The default window (0.31 V .. 0.49 V) sits inside a single regime of the
fitted transistor law, where edges are uniformly sharp and the required
conductances span about one decade inside the device range.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cell import (
    INVERTER_RAIL,
    CellParams,
    lower_branch_current,
    t1_current,
    upper_branch_current,
)
from .errors import CalibrationError, ConfigError

# DL input window (V). Chosen inside the 0.3..0.5 regime of the fitted law;
# see README calibration notes.
V_DL_MIN = 0.31
V_DL_MAX = 0.49
# Calibration domain; slightly wider than the window so clamped edges
# are unreachable by clipped inputs.
CAL_V_LO = 0.3005
CAL_V_HI = 0.4995
# Relative sense margin of every edge: at its stored bound the lower branch
# draws i_ref * (1 + m) (mismatch) and the upper i_ref * (1 - m) (match), so
# (lo, hi] holds on the bounds; cell-law rounding is about 1e-13 relative.
EDGE_MARGIN = 1e-9


@dataclass(frozen=True)
class DeviceModel:
    """Programmable-conductance device limits and programming noise."""

    g_hrs: float = 0.5e-6     # high-resistance (off/wildcard) conductance, S
    g_lrs: float = 200e-6     # low-resistance conductance, S
    n_levels: int = 16        # distinguishable programming levels
    sigma_rel: float = 0.0    # relative std of programming noise

    def __post_init__(self):
        if not 0 < self.g_hrs < self.g_lrs:
            raise ConfigError("need 0 < g_hrs < g_lrs")
        if self.n_levels < 2:
            raise ConfigError("n_levels must be at least 2")
        if self.sigma_rel < 0:
            raise ConfigError("sigma_rel must be non-negative")


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
    """Branch current through the bisection divider solver (a reference
    independent of the closed-form calibration)."""
    if side == "lower":
        return lower_branch_current(v, g, params)
    return upper_branch_current(v, g, params)


@dataclass(frozen=True)
class Calibration:
    """Closed-form match-edge placement for one operating point.

    i_ref (with the edge margin) alone fixes the divider node at each
    branch's edge: ``v_div_lower`` opens the discharge gate to that current,
    ``v_div_upper`` drives the inverter to it. The conductance placing an
    edge at e balances T1 there: g = I_T1(e) / (v_sl_hi - v_div).
    """

    i_ref: float
    params: CellParams
    g_hrs: float
    g_lrs: float
    v_div_lower: float
    v_div_upper: float

    def _g_for(self, edge_v, v_div):
        edge = np.clip(edge_v, CAL_V_LO, CAL_V_HI)
        g = t1_current(edge, None, self.params) / (self.params.v_sl_hi - v_div)
        return np.clip(g, self.g_hrs, self.g_lrs)

    def g_for_lower(self, edge_v):
        """Conductance placing the lower-bound edge at ``edge_v``; edges clamp
        to the domain (beyond clipped inputs: permissive), g to the rails."""
        return self._g_for(edge_v, self.v_div_lower)

    def g_for_upper(self, edge_v):
        """Conductance placing the upper-bound edge at ``edge_v``."""
        return self._g_for(edge_v, self.v_div_upper)


def build_calibration(params: CellParams, device: DeviceModel,
                      i_ref: float) -> Calibration:
    """Divider-node targets of both branches' match edges.

    Raises CalibrationError when i_ref is out of reach of the discharge gate
    or the inverter, when a T1 regime boundary (where the law jumps) lies in
    the domain, or when no in-domain edge of a branch fits in [g_hrs, g_lrs].
    """
    for b in (params.v_sub_max, params.v_ohmic_min):
        if CAL_V_LO < b <= CAL_V_HI:
            raise CalibrationError(f"T1 regime boundary {b} V inside the "
                                   "calibration domain; edges not monotone")
    # Discharge-gate voltages at which each branch draws its edge current.
    gate_lower = params.v_th_t2 + math.sqrt(i_ref * (1 + EDGE_MARGIN) / params.k2)
    gate_upper = params.v_th_t2 + math.sqrt(i_ref * (1 - EDGE_MARGIN) / params.k2)
    if not 0 < gate_upper < INVERTER_RAIL:
        raise CalibrationError("upper branch: i_ref beyond the inverter rail")
    v_div_upper = -params.gamma - math.log(
        gate_upper / (INVERTER_RAIL - gate_upper)) / params.beta
    ends = t1_current(np.array([CAL_V_LO, CAL_V_HI]), None, params)
    for side, v_div in (("lower", gate_lower), ("upper", v_div_upper)):
        if not params.v_sl_lo < v_div < params.v_sl_hi:
            raise CalibrationError(f"{side} branch: i_ref out of reach "
                                   "(divider node beyond the rails)")
        g_lo, g_hi = ends / (params.v_sl_hi - v_div)
        if g_hi < device.g_hrs or g_lo > device.g_lrs:
            raise CalibrationError(
                f"{side} branch: no match edge in ({CAL_V_LO}, {CAL_V_HI}) V "
                "fits [g_hrs, g_lrs]; operating point cannot encode thresholds")
    return Calibration(i_ref, params, device.g_hrs, device.g_lrs, gate_lower,
                       v_div_upper)


def encode_bounds(lo, hi, feature_bounds, device: DeviceModel,
                  calibration: Calibration, n_bits: int | None = None):
    """(g_m1, g_m2) grids for stored bounds ``lo``/``hi`` (infinite on open
    sides) under ``feature_bounds``, one (min, max) pair or an (F, 2) array
    of them along the last axis of ``lo``/``hi``.

    Open sides take the wildcard conductances, g_hrs on the lower memristor
    and g_lrs on the upper, which keep that discharge path off across the
    window. With ``n_bits`` bounds snap to 2**n_bits levels, widened by
    half an LSB so inputs on a quantized threshold still match.
    """
    if n_bits is not None:
        b = np.asarray(feature_bounds, dtype=float)
        b_lo, b_hi = b[..., 0], b[..., 1]
        widen = (b_hi - b_lo) / 2 ** (n_bits + 1)
        lo = snap_to_levels(lo, n_bits, b_lo, b_hi) - widen
        hi = snap_to_levels(hi, n_bits, b_lo, b_hi) + widen
    v_lo = feature_to_voltage(lo, feature_bounds, clip=False)
    v_hi = feature_to_voltage(hi, feature_bounds, clip=False)
    g_m1 = np.where(np.isinf(lo), device.g_hrs, calibration.g_for_lower(v_lo))
    g_m2 = np.where(np.isinf(hi), device.g_lrs, calibration.g_for_upper(v_hi))
    return g_m1, g_m2


def encode_range(r: ThresholdRange, feature_bounds, device: DeviceModel,
                 calibration: Calibration, widen: float = 0.0) -> ConductancePair:
    """Conductance pair whose match window realizes ``r``.

    ``widen`` (feature units, typically LSB/2 when thresholds are quantized)
    relaxes each finite bound outward.
    """
    g_m1, g_m2 = encode_bounds(r.lo - widen, r.hi + widen, feature_bounds,
                               device, calibration)
    return ConductancePair(float(g_m1), float(g_m2))


def snap_to_levels(x, n_bits: int, lo: float, hi: float):
    """Nearest of 2**n_bits uniform levels on [lo, hi]; ties take the lower
    level. Infinities pass through. Accepts scalars or arrays."""
    if n_bits < 1:
        raise ConfigError("n_bits must be at least 1")
    n = 2 ** n_bits
    step = (hi - lo) / (n - 1)
    idx = np.ceil((np.asarray(x, dtype=float) - lo) / step - 0.5)
    snapped = lo + np.clip(idx, 0, n - 1) * step
    return np.where(np.isinf(x), x, snapped)


def inject_noise(g, device: DeviceModel, rng: np.random.Generator):
    """Multiplicative Gaussian programming noise, clipped to the device range."""
    g = np.asarray(g, dtype=float)
    if device.sigma_rel == 0:
        return g.copy()
    noisy = g * (1.0 + rng.normal(0.0, device.sigma_rel, size=g.shape))
    return np.clip(noisy, device.g_hrs, device.g_lrs)
