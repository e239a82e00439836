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
    """Programmable-conductance device limits; programming noise is not a
    device setting but ``program``'s ``sigma_rel``."""

    g_hrs: float = 0.5e-6     # high-resistance (off/wildcard) conductance, S
    g_lrs: float = 200e-6     # low-resistance conductance, S
    # Distinguishable levels over the DL window. No library computation
    # reads it (programming resolution is ``n_bits``): acceptance check 08
    # takes (V_DL_MAX - V_DL_MIN) / n_levels as its round-trip step, and
    # stored bounds must measure back within half of it.
    n_levels: int = 16

    def __post_init__(self):
        if not (0 < self.g_hrs < self.g_lrs and math.isfinite(self.g_lrs)):
            raise ConfigError("need 0 < g_hrs < g_lrs")
        if self.n_levels < 2:
            raise ConfigError("n_levels must be at least 2")


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


def feature_to_voltage(x, feature_bounds, clip: bool = True, out=None):
    """Affine map of [min, max] feature values onto the DL window.

    Input samples are clipped into the window; stored thresholds are mapped
    with clip=False so widened bounds may extend into the calibration slack.
    ``feature_bounds`` is one (min, max) pair or a (..., 2) array of them
    that broadcasts against ``x``: (F, 2) holds one per feature along the
    last axis of ``x``, (F, 1, 2) along the first. The map runs in place in
    ``out`` (a new array when None) as V_DL_MIN + (x - min) *
    (V_DL_MAX - V_DL_MIN) / (max - min), in that operation order.
    """
    bounds = np.asarray(feature_bounds, dtype=float)
    lo, hi = bounds[..., 0], bounds[..., 1]
    if not np.all(lo < hi):
        raise ValueError("degenerate feature bounds")
    v = np.subtract(np.asarray(x, dtype=float), lo, out=out)
    v *= V_DL_MAX - V_DL_MIN
    v /= hi - lo
    v += V_DL_MIN
    if clip:
        v = np.clip(v, V_DL_MIN, V_DL_MAX, out=out)
    return v


def reference_current(c_ml_total: float, v_ml0: float, v_sa_threshold: float,
                      t_clk: float) -> float:
    """Discharge current that pulls an ML exactly to the sense threshold at t_clk."""
    return c_ml_total * (v_ml0 - v_sa_threshold) / t_clk


def _branch_currents(v, g, params, side):
    """Current of a ``side`` branch of conductance ``g`` at DL input ``v``
    on the forward cell law. Acceptance check 08 bisects it for each
    encoded edge, so it measures the calibration's inverse formulas
    against the law they invert."""
    if side == "lower":
        return lower_branch_current(v, g, params)
    return upper_branch_current(v, g, params)


@dataclass(frozen=True)
class Calibration:
    """Closed-form match-edge placement for one operating point.

    ``band_edges`` gives each branch's edge as a T1 current per siemens of
    its conductance: ``lower_divisor`` is ``lower_full`` at i_ref * (1 +
    EDGE_MARGIN), ``upper_divisor`` is ``upper_full`` at i_ref * (1 -
    EDGE_MARGIN). The conductance placing an edge at e is g = I_T1(e) /
    divisor.
    """

    i_ref: float
    params: CellParams
    g_hrs: float
    g_lrs: float
    lower_divisor: float
    upper_divisor: float

    def _g_for(self, edge_v, divisor):
        edge = np.clip(edge_v, CAL_V_LO, CAL_V_HI)
        g = t1_current(edge, None, self.params) / divisor
        return np.clip(g, self.g_hrs, self.g_lrs)

    def g_for_lower(self, edge_v):
        """Conductance placing the lower-bound edge at ``edge_v``; edges clamp
        to the domain (beyond clipped inputs: permissive), g to the rails."""
        return self._g_for(edge_v, self.lower_divisor)

    def g_for_upper(self, edge_v):
        """Conductance placing the upper-bound edge at ``edge_v``."""
        return self._g_for(edge_v, self.upper_divisor)


def _gate_for(params: CellParams, current: float) -> float:
    """Discharge-gate voltage at which the discharge transistor draws
    ``current`` (>= 0)."""
    return params.v_th_t2 + math.sqrt(current / params.k2)


def _inverter_input(params: CellParams, gate: float) -> float:
    """Divider node at which the inverter outputs ``gate``. The output
    falls with the node inside (0, INVERTER_RAIL): -inf at or above the
    rail, +inf at or below 0."""
    if gate >= INVERTER_RAIL:
        return -math.inf
    if gate <= 0:
        return math.inf
    return -params.gamma - math.log(gate / (INVERTER_RAIL - gate)) / params.beta


@dataclass(frozen=True)
class BandEdges:
    """Where each branch law leaves its band at one sense current, in T1
    current per siemens of the branch's conductance g (the divider node is
    v_sl_hi - I_T1 / g). A lower branch draws exactly 0.0 A for I_T1 >=
    g * lower_zero and at least the sense current for I_T1 <= g *
    lower_full; an upper branch 0.0 A for I_T1 <= g * upper_zero and at
    least the sense current for I_T1 >= g * upper_full (+inf: never).
    These are closed forms; a caller deciding bits widens them toward the
    band."""

    lower_zero: float
    lower_full: float
    upper_zero: float
    upper_full: float

    def widths_v(self, params: CellParams) -> tuple:
        """(lower, upper) band widths in DL volts where T1 is exponential in
        the DL voltage, as across the window; there they do not depend on
        the conductance."""
        return (params.alpha * math.log(self.lower_zero / self.lower_full),
                params.alpha * math.log(self.upper_full / self.upper_zero))


def band_edges(params: CellParams, i_sense: float) -> BandEdges:
    """Both branch laws' band edges at sense current ``i_sense``, from the
    calibration's gate formulas. The node never leaves [v_sl_lo, v_sl_hi],
    so an edge that needs it lower is never reached."""
    hi, lo = params.v_sl_hi, params.v_sl_lo
    gate = _gate_for(params, i_sense)
    v_full = _inverter_input(params, gate)
    return BandEdges(
        lower_zero=hi - params.v_th_t2 if params.v_th_t2 >= lo else math.inf,
        lower_full=hi - gate,
        upper_zero=hi - _inverter_input(params, params.v_th_t2),
        upper_full=hi - v_full if v_full >= lo else math.inf)


def build_calibration(params: CellParams, device: DeviceModel,
                      i_ref: float) -> Calibration:
    """Both branches' edge divisors, from ``band_edges`` at the edge currents.

    Raises CalibrationError when i_ref is out of reach of the discharge gate
    or the inverter, when a T1 regime boundary (where the law jumps) lies in
    the domain, when T1 draws nothing at its low end (below the ohmic
    threshold), or when no in-domain edge of a branch fits in [g_hrs,
    g_lrs]. So T1 is strictly increasing and above 0 across the domain.
    """
    for b in (params.v_sub_max, params.v_ohmic_min):
        if CAL_V_LO < b <= CAL_V_HI:
            raise CalibrationError(f"T1 regime boundary {b} V inside the "
                                   "calibration domain; edges not monotone")
    ends = t1_current(np.array([CAL_V_LO, CAL_V_HI]), None, params)
    if not ends[0] > 0:
        raise CalibrationError(f"T1 draws no current at {CAL_V_LO} V; edges "
                               "below its threshold cannot be placed")
    if not 0 < _gate_for(params, i_ref * (1 - EDGE_MARGIN)) < INVERTER_RAIL:
        raise CalibrationError("upper branch: i_ref beyond the inverter rail")
    lower = band_edges(params, i_ref * (1 + EDGE_MARGIN)).lower_full
    upper = band_edges(params, i_ref * (1 - EDGE_MARGIN)).upper_full
    for side, divisor in (("lower", lower), ("upper", upper)):
        # The edge's divider node v_sl_hi - divisor must lie between the rails.
        if not 0 < divisor < params.v_sl_hi - params.v_sl_lo:
            raise CalibrationError(f"{side} branch: i_ref out of reach "
                                   "(divider node beyond the rails)")
        g_lo, g_hi = ends / divisor
        if g_hi < device.g_hrs or g_lo > device.g_lrs:
            raise CalibrationError(
                f"{side} branch: no match edge in ({CAL_V_LO}, {CAL_V_HI}) V "
                "fits [g_hrs, g_lrs]; operating point cannot encode thresholds")
    return Calibration(i_ref, params, device.g_hrs, device.g_lrs, lower, upper)


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
        lo, hi = (snap_to_levels(x, n_bits, b_lo, b_hi) for x in (lo, hi))
        widen = (b_hi - b_lo) / 2 ** (n_bits + 1)
        lo, hi = lo - widen, hi + widen
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
    if not 1 <= n_bits <= 1022:     # so 2**(n_bits + 1) is a finite float
        raise ConfigError("n_bits must be in [1, 1022]")
    n = 2 ** n_bits
    step = (hi - lo) / (n - 1)
    idx = np.ceil((np.asarray(x, dtype=float) - lo) / step - 0.5)
    snapped = lo + np.clip(idx, 0, n - 1) * step
    return np.where(np.isinf(x), x, snapped)


def inject_noise(g, sigma_rel, device: DeviceModel, rng: np.random.Generator):
    """g * (1 + N(0, sigma_rel)), clipped to the device's [g_hrs, g_lrs].
    Drawn in place: ``rng.normal(0.0, sigma_rel)`` is ``0.0 + sigma_rel * z``
    on the same stream of standard normals z, and 1.0 plus either zero is
    1.0, so these are its bits with no temporaries."""
    g = np.asarray(g, dtype=float)
    if sigma_rel < 0:               # as ``rng.normal`` refuses it
        raise ConfigError("sigma_rel must be non-negative")
    if sigma_rel == 0:
        return g.copy()
    noisy = rng.standard_normal(g.shape)
    noisy *= sigma_rel
    noisy += 1.0
    noisy *= g
    return np.clip(noisy, device.g_hrs, device.g_lrs, out=noisy)
