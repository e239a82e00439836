"""Behavioral model of one analog CAM cell and its match line.

A cell stores an acceptance range as two memristor conductances. Each
conductance forms a voltage divider with a series transistor driven by the
data line (DL); the divider node steers a discharge path onto the match
line (ML). The lower-threshold side discharges when the input is below the
stored bound, the upper side (through an inverter) when it is above. A row
matches when the ML, pre-charged to ``v_ml0``, is still above the sense
threshold after ``t_clk``.

The fitted T1 law does not depend on its drain (the divider node), so each
divider has one closed-form law, ``divider_node_t1``. The ``*_t1`` entry
points take the T1 current, which both branches of a cell share; the
``v_dl`` entry points compute it first.

All current/voltage functions broadcast over numpy arrays.
"""

from dataclasses import dataclass

import numpy as np

# Supply rail of the T4-T5 inverter in the fitted transfer curve.
INVERTER_RAIL = 0.8


@dataclass(frozen=True)
class CellParams:
    """Fitted transistor constants and search-line bias of one cell.

    The defaults reproduce a 180 nm cell; ``v_sl_hi``/``v_sl_lo`` set the
    divider rails and bound every divider-node voltage.
    """

    i_d0: float = 50e-9          # subthreshold prefactor, A
    alpha: float = 0.080         # subthreshold slope, V
    i_d0_prime: float = 45e-9    # intermediate-regime prefactor, A
    k1: float = 160e-6           # ohmic transconductance, A/V
    v_th_t1: float = 0.405       # divider transistor threshold, V
    k2: float = 300e-6           # discharge transistor gain, A/V^2
    v_th_t2: float = 0.350       # discharge transistor threshold, V
    beta: float = 50.0           # inverter steepness, 1/V
    gamma: float = -0.4          # inverter midpoint offset, V
    v_sl_hi: float = 1.8         # divider high rail, V
    v_sl_lo: float = 0.0         # divider low rail, V
    v_sub_max: float = 0.3       # below: deep subthreshold fit
    v_ohmic_min: float = 0.5     # at or above: ohmic fit

    def __post_init__(self):
        if self.alpha <= 0 or self.k1 <= 0 or self.k2 <= 0 or self.beta <= 0:
            raise ValueError("cell gain parameters must be positive")
        if self.i_d0 <= 0 or self.i_d0_prime <= 0:
            raise ValueError("subthreshold prefactors must be positive")
        if not self.v_sl_lo < self.v_sl_hi:
            raise ValueError("v_sl_lo must lie below v_sl_hi")
        if not self.v_sub_max < self.v_ohmic_min:
            raise ValueError("regime bounds out of order")


@dataclass(frozen=True)
class Parasitics:
    """Line parasitics of the array wiring."""

    r_wire: float = 1.4          # per-cell wire resistance, ohm
    c_line: float = 1.9e-15      # per-cell line capacitance, F
    c_precharge: float = 40.95e-15  # pre-charge device load, F
    c_sense: float = 50e-15      # sense amplifier load, F

    def __post_init__(self):
        if min(self.r_wire, self.c_line, self.c_precharge, self.c_sense) <= 0:
            raise ValueError("parasitics must be positive")

    def ml_capacitance(self, width: int) -> float:
        """Total ML capacitance of a row of ``width`` cells."""
        return width * self.c_line + self.c_precharge + self.c_sense


def t1_current(v_dl, v_div, params: CellParams):
    """Divider-transistor current for gate drive ``v_dl``.

    Piecewise fit selected by v_dl: subthreshold below ``v_sub_max``,
    intermediate up to ``v_ohmic_min``, ohmic above. The fit carries no
    drain-voltage dependence, so ``v_div`` does not enter the value; it is
    kept in the signature because it is the drain node of the device.
    """
    del v_div
    v_dl = np.asarray(v_dl, dtype=float)
    v_gs = v_dl - params.v_sl_lo
    exp_term = np.exp(v_gs / params.alpha)
    ohmic = params.k1 * np.maximum(v_gs - params.v_th_t1, 0.0)
    return np.where(
        v_dl < params.v_sub_max,
        params.i_d0 * exp_term,
        np.where(v_dl < params.v_ohmic_min, params.i_d0_prime * exp_term, ohmic),
    )


def t1_inverse(i_t1, v_regime, params: CellParams, out=None):
    """DL voltage at which ``t1_current`` draws ``i_t1`` (> 0), by the
    formula of the regime that holds ``v_regime`` alone. On one regime the
    fit is strictly increasing where it is above 0, so for ``v_dl`` in that
    regime t1_current(v_dl) >= i exactly where v_dl >= t1_inverse(i), up
    to rounding (about 1e-15 relative in T1). Runs in place in ``out`` (a
    new array when None)."""
    if out is None:
        out = np.empty(np.shape(i_t1))
    if v_regime >= params.v_ohmic_min:
        np.divide(i_t1, params.k1, out=out)
        out += params.v_th_t1
    else:
        np.divide(i_t1, params.i_d0 if v_regime < params.v_sub_max
                  else params.i_d0_prime, out=out)
        np.log(out, out=out)
        out *= params.alpha
    out += params.v_sl_lo
    return out


def divider_node_t1(i_t1, g_m, params: CellParams):
    """Divider node where the memristor current g_m * (v_sl_hi - v) meets
    T1 current ``i_t1``. The fitted T1 law is drain-independent, so the
    balance is linear: v = v_sl_hi - i_t1 / g_m, clipped to the rails (the
    node sits at v_sl_lo when even that rail cannot supply ``i_t1``). At
    g_m = 0 with i_t1 = 0 the node floats; it reads v_sl_hi."""
    g_safe = np.maximum(np.asarray(g_m, dtype=float), 1e-30)
    v = params.v_sl_hi - i_t1 / g_safe
    return np.clip(v, params.v_sl_lo, params.v_sl_hi)


def solve_divider(v_dl, g_m, params: CellParams):
    """Divider-node voltage for DL input ``v_dl`` (see ``divider_node_t1``)."""
    return divider_node_t1(t1_current(v_dl, None, params), g_m, params)


def discharge_current(v_gate, params: CellParams):
    """Quadratic discharge-transistor current for gate voltage ``v_gate``."""
    over = np.maximum(np.asarray(v_gate, dtype=float) - params.v_th_t2, 0.0)
    return params.k2 * over * over


def inverter_output(v_div, params: CellParams):
    """Fitted inverter transfer curve driving the upper-side discharge gate."""
    v_div = np.asarray(v_div, dtype=float)
    return INVERTER_RAIL - INVERTER_RAIL / (
        1.0 + np.exp(-params.beta * (v_div + params.gamma))
    )


def lower_branch_current(v_dl, g_m1, params: CellParams):
    """ML discharge current of the lower-threshold side.

    Large when the input is below the stored bound (high divider node opens
    the discharge gate); exactly zero once the node falls below the gate
    threshold. Non-increasing in v_dl, non-decreasing in g_m1 over the
    operating window.
    """
    return lower_branch_t1(t1_current(v_dl, None, params), g_m1, params)


def upper_branch_current(v_dl, g_m2, params: CellParams):
    """ML discharge current of the upper-threshold side.

    The divider node drives the inverter whose output opens the discharge
    gate when the input exceeds the stored bound. Non-decreasing in v_dl,
    non-increasing in g_m2 over the operating window.
    """
    return upper_branch_t1(t1_current(v_dl, None, params), g_m2, params)


def lower_branch_t1(i_t1, g_m1, params: CellParams):
    """Lower-side ML discharge current for T1 current ``i_t1`` (closed-form
    divider node).

    Both divider transistors of a cell share its data line, so one T1
    current serves both branches; callers evaluating many cells on few
    inputs compute it once per input."""
    return discharge_current(divider_node_t1(i_t1, g_m1, params), params)


def upper_branch_t1(i_t1, g_m2, params: CellParams):
    """Upper-side ML discharge current for T1 current ``i_t1`` (closed-form
    divider node)."""
    return discharge_current(
        inverter_output(divider_node_t1(i_t1, g_m2, params), params), params)


def cell_current(g_m1, g_m2, v_dl, params: CellParams):
    """ML discharge current of each cell: lower plus upper branch."""
    i_t1 = t1_current(v_dl, None, params)
    return lower_branch_t1(i_t1, g_m1, params) + upper_branch_t1(
        i_t1, g_m2, params)


def row_total_current(g_m1, g_m2, v_dl, params: CellParams):
    """Summed discharge current of one row of cells (last axis = cells)."""
    return cell_current(g_m1, g_m2, v_dl, params).sum(axis=-1)


def ml_voltage_at(g_m1, g_m2, v_dl, t, v_ml0, c_ml_total, params: CellParams):
    """ML voltage after discharging for time ``t``.

    The total row current is treated as constant over the evaluation window,
    so the pre-charged ML ramps down linearly and clamps at 0 V.
    """
    i_total = row_total_current(g_m1, g_m2, v_dl, params)
    return np.maximum(v_ml0 - i_total * t / c_ml_total, 0.0)


def row_matches(g_m1, g_m2, v_dl, t_clk, v_ml0, v_sa_threshold, c_ml_total,
                params: CellParams):
    """True when the row's ML is still above the sense threshold at t_clk."""
    return ml_voltage_at(g_m1, g_m2, v_dl, t_clk, v_ml0, c_ml_total, params) > v_sa_threshold
