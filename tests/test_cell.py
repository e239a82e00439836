"""Cell-level electrical model against hand-computed values."""

from dataclasses import replace

import numpy as np
import pytest

from camforest.cell import (
    CellParams,
    Parasitics,
    cell_current,
    discharge_current,
    divider_node_t1,
    inverter_output,
    lower_branch_current,
    lower_branch_t1,
    ml_voltage_at,
    row_matches,
    row_total_current,
    solve_divider,
    t1_current,
    t1_inverse,
    upper_branch_current,
    upper_branch_t1,
)
from camforest.device import V_DL_MAX, V_DL_MIN, DeviceModel

P = CellParams()
PAR = Parasitics()


def bisect_node(v_dl, g_m, p=P):
    """Independent divider oracle in plain floats: bisect the balance
    g_m * (v_sl_hi - v) = I_T1 on [v_sl_lo, v_sl_hi], as acceptance check 07
    writes its own; v_sl_lo when even that rail cannot supply I_T1."""
    i_t1 = float(t1_current(v_dl, None, p))
    lo, hi = p.v_sl_lo, p.v_sl_hi
    if g_m * (p.v_sl_hi - lo) - i_t1 <= 0.0:
        return lo
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g_m * (p.v_sl_hi - mid) - i_t1 > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_t1_current_subthreshold():
    assert t1_current(0.0, 0.0, P) == pytest.approx(50e-9, rel=1e-12)
    assert t1_current(0.25, 0.0, P) == pytest.approx(1.1379948e-6, rel=1e-6)


def test_t1_current_intermediate():
    assert t1_current(0.4, 0.0, P) == pytest.approx(6.678594e-6, rel=1e-6)


def test_t1_current_ohmic():
    assert t1_current(0.6, 0.0, P) == pytest.approx(31.2e-6, rel=1e-12)


def test_t1_current_ohmic_clamps_to_zero():
    # Gate overdrive below threshold: no conduction.
    p = replace(P, v_sl_lo=0.3)
    assert t1_current(0.6, 0.0, p) == 0.0


@pytest.mark.parametrize("low, high", [(0.0, 0.29), (0.31, 0.49),
                                       (0.51, 1.2)],
                         ids=["subthreshold", "intermediate", "ohmic"])
def test_t1_inverse_round_trips_on_each_regime(low, high):
    """On each regime of the fit, chosen by any voltage in it, the inverse
    gives back the DL voltage within a few ulp, and T1 of it the current
    within 1e-14 relative, far inside the kernel's BAND_MARGIN (1e-9)."""
    v = np.linspace(low, high, 2001)
    i = t1_current(v, None, P)
    assert np.all(np.diff(i) > 0)
    for v_regime in (low, high):
        back = t1_inverse(i, v_regime, P)
        assert np.max(np.abs(back - v)) < 1e-15
        assert np.allclose(t1_current(back, None, P), i, rtol=1e-14, atol=0)
    out = np.empty_like(i)
    assert t1_inverse(i, low, P, out=out) is out
    assert np.array_equal(out, back)
    assert t1_inverse(i[7], low, P) == back[7]


def test_t1_current_broadcasts():
    v = np.array([0.0, 0.4, 0.6])
    out = t1_current(v, np.zeros(3), P)
    assert out.shape == (3,)
    assert out[2] == pytest.approx(31.2e-6)


def test_discharge_current():
    assert discharge_current(0.45, P) == pytest.approx(3e-6, rel=1e-12)
    assert discharge_current(0.35, P) == 0.0
    assert discharge_current(0.1, P) == 0.0


def test_inverter_output():
    assert inverter_output(0.4, P) == pytest.approx(0.4, rel=1e-12)
    assert inverter_output(0.3, P) == pytest.approx(0.79464568, rel=1e-6)
    assert inverter_output(0.5, P) == pytest.approx(0.00535432, rel=1e-4)
    # Monotone decreasing.
    v = np.linspace(0.0, 1.0, 101)
    assert np.all(np.diff(inverter_output(v, P)) < 0)


def test_solve_divider_interior_residual():
    v_dl = np.linspace(0.31, 0.49, 25)
    g = np.geomspace(2e-6, 2e-4, 25)
    v_div = solve_divider(v_dl, g, P)
    interior = v_div > P.v_sl_lo + 1e-9
    # Memristor current in minus T1 current out of the divider node.
    res = g * (P.v_sl_hi - v_div) - t1_current(v_dl, None, P)
    assert np.all(np.abs(res[interior]) < 1e-12)


def test_solve_divider_clamps_when_memristor_cannot_supply():
    # Tiny conductance: the divider node collapses to the low rail.
    assert solve_divider(0.49, 1e-9, P) == P.v_sl_lo


def test_solve_divider_short_limit():
    # Very strong memristor, weak transistor: node pulled near the high rail.
    v = solve_divider(0.2, 2e-3, P)
    assert abs(v - P.v_sl_hi) < 1e-3


def test_solve_divider_scalar_calls_match_array_call():
    # Scalar calls return 0-d results equal to the array call's elements.
    rng = np.random.default_rng(8)
    v_dl = np.concatenate([rng.uniform(-0.2, 1.9, 600),
                           [P.v_sub_max, P.v_ohmic_min, V_DL_MIN, V_DL_MAX]])
    g = np.concatenate([10 ** rng.uniform(-9, -2, 600),
                        [0.0, 1e-9, 2e-6, 2e-4]])
    batch = solve_divider(v_dl, g, P)
    for k in range(v_dl.size):
        single = solve_divider(v_dl[k], g[k], P)
        assert single.shape == () and single == batch[k]


def test_fast_node_matches_bisection():
    edges = [P.v_sub_max, P.v_ohmic_min]
    v_dl = np.concatenate([
        np.linspace(V_DL_MIN, V_DL_MAX, 40), edges,
        [np.nextafter(b, d) for b in edges for d in (-np.inf, np.inf)]])
    g = np.concatenate([[0.0], np.geomspace(0.5e-6, 200e-6, 40)])
    oracle = np.array([[bisect_node(v, gm) for v in v_dl] for gm in g])
    vv, gg = np.meshgrid(v_dl, g)
    assert np.max(np.abs(solve_divider(vv, gg, P) - oracle)) < 1e-12
    node = divider_node_t1(t1_current(vv, None, P), gg, P)
    assert np.max(np.abs(node - oracle)) < 1e-12
    # The grid holds nodes clamped to the low rail and interior nodes.
    assert np.any(oracle == P.v_sl_lo) and np.any(oracle > P.v_sl_lo)


def test_floating_divider_node_reads_high_rail():
    # g = 0 and a cut-off ohmic T1: neither device conducts, so the node
    # floats. The closed form reads v_sl_hi there, a bisection's rail test
    # reads v_sl_lo. Only custom CellParams reach it; across the default
    # window T1 is exponential and never 0.
    p = replace(P, v_sl_lo=0.3)
    assert t1_current(0.6, None, p) == 0.0
    assert solve_divider(0.6, 0.0, p) == p.v_sl_hi
    assert bisect_node(0.6, 0.0, p) == p.v_sl_lo
    assert lower_branch_current(0.6, 0.0, p) == discharge_current(p.v_sl_hi, p)


def test_t1_entry_point_bitwise_equals_cell_current():
    edges = [P.v_sub_max, P.v_ohmic_min]
    v = np.concatenate([
        [V_DL_MIN, V_DL_MAX], edges,
        [np.nextafter(b, d) for b in edges for d in (-np.inf, np.inf)],
        np.linspace(V_DL_MIN, V_DL_MAX, 41)])
    d = DeviceModel()
    g = np.array([0.0, d.g_hrs, d.g_lrs, 3e-6, 2e-5, 8e-5])
    g1, g2 = (a.reshape(-1, 1) for a in np.meshgrid(g, g))
    i_t1 = t1_current(v, None, P)
    new = lower_branch_t1(i_t1, g1, P) + upper_branch_t1(i_t1, g2, P)
    written_out = discharge_current(divider_node_t1(i_t1, g1, P), P) + \
        discharge_current(inverter_output(divider_node_t1(i_t1, g2, P), P), P)
    for ref in (cell_current(g1, g2, v, P), written_out):
        assert np.array_equal(new.view(np.int64), ref.view(np.int64))
    assert np.any(new == 0.0) and np.any(new > 0.0)


def test_branch_current_monotonicity():
    v_dl = np.linspace(0.31, 0.49, 50)
    g = np.geomspace(0.5e-6, 200e-6, 50)
    vv, gg = np.meshgrid(v_dl, g)
    low = lower_branch_current(vv, gg, P)
    up = upper_branch_current(vv, gg, P)
    # Along v_dl: lower branch turns off, upper branch turns on.
    assert np.all(np.diff(low, axis=1) <= 1e-18)
    assert np.all(np.diff(up, axis=1) >= -1e-18)
    # Along conductance: the opposite.
    assert np.all(np.diff(low, axis=0) >= -1e-18)
    assert np.all(np.diff(up, axis=0) <= 1e-18)


def test_row_total_current_sums_cells():
    g1 = np.array([2e-6, 5e-6])
    g2 = np.array([8e-6, 1e-5])
    v = np.array([0.35, 0.42])
    total = row_total_current(g1, g2, v, P)
    per_cell = lower_branch_current(v, g1, P) + upper_branch_current(v, g2, P)
    assert total == pytest.approx(float(np.sum(per_cell)), rel=1e-12)


def test_ml_voltage_clamps_at_zero():
    # Both memristors strong and the input far past the upper edge: the
    # line would go negative without the clamp.
    v = ml_voltage_at(np.array([200e-6]), np.array([200e-6]), np.array([0.49]),
                      1e-6, 0.8, PAR.ml_capacitance(1), P)
    assert v == 0.0


def test_wildcard_row_matches_everywhere():
    c_ml = PAR.ml_capacitance(4)
    for v in np.linspace(0.31, 0.49, 9):
        dl = np.full(4, v)
        assert row_matches(np.full(4, 0.5e-6), np.full(4, 200e-6), dl,
                           1e-6, 0.8, 0.4, c_ml, P)


def test_inverted_pair_mismatches_everywhere():
    # Swapped rails close both acceptance windows over the whole input range.
    c_ml = PAR.ml_capacitance(1)
    for v in np.linspace(0.31, 0.49, 9):
        assert not row_matches(np.array([200e-6]), np.array([0.5e-6]),
                               np.array([v]), 1e-6, 0.8, 0.4, c_ml, P)


def test_ml_capacitance():
    assert PAR.ml_capacitance(16) == pytest.approx(121.35e-15, rel=1e-12)
    assert PAR.ml_capacitance(1) == pytest.approx(92.85e-15, rel=1e-12)


def test_cell_params_validation():
    with pytest.raises(ValueError):
        replace(P, v_sl_lo=2.0)
    with pytest.raises(ValueError):
        replace(P, k1=-1.0)
    with pytest.raises(ValueError):
        replace(P, v_sub_max=0.7)
    with pytest.raises(ValueError):
        Parasitics(r_wire=-1.0)
