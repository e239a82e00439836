"""Threshold encoding, calibration round-trips, quantization, noise."""

import math

import numpy as np
import pytest

from camforest.cell import (
    CellParams,
    Parasitics,
    lower_branch_t1,
    t1_current,
    upper_branch_t1,
)
from camforest.device import (
    CAL_V_HI,
    CAL_V_LO,
    V_DL_MAX,
    V_DL_MIN,
    ConductancePair,
    DeviceModel,
    ThresholdRange,
    _branch_currents,
    build_calibration,
    encode_range,
    feature_to_voltage,
    inject_noise,
    reference_current,
    snap_to_levels,
)
from camforest.errors import CalibrationError, ConfigError
from camforest.mapper import MapRow, ThresholdMap, map_matches

P = CellParams()
D = DeviceModel()
PAR = Parasitics()
I_REF16 = reference_current(PAR.ml_capacitance(16), 0.8, 0.4, 1e-6)


def test_reference_current_value():
    assert I_REF16 == pytest.approx(4.854e-8, rel=1e-12)


def test_feature_to_voltage_affine_and_clip():
    b = (0.0, 10.0)
    assert feature_to_voltage(5.0, b) == pytest.approx(0.40)
    assert feature_to_voltage(0.0, b) == pytest.approx(V_DL_MIN)
    assert feature_to_voltage(10.0, b) == pytest.approx(V_DL_MAX)
    assert feature_to_voltage(-3.0, b) == pytest.approx(V_DL_MIN)
    assert feature_to_voltage(15.0, b) == pytest.approx(V_DL_MAX)
    assert feature_to_voltage(-3.0, b, clip=False) == pytest.approx(0.256)
    with pytest.raises(ValueError):
        feature_to_voltage(1.0, (2.0, 2.0))


def test_placed_edges_straddle_i_ref_at_their_targets():
    # An input exactly on a stored bound must sense as (lo, hi] says: the
    # lower branch draws at least i_ref there (mismatch), the upper less
    # than i_ref (match), each by the edge margin and no more.
    cal = build_calibration(P, D, I_REF16)
    v = np.linspace(V_DL_MIN, V_DL_MAX, 10_001)
    g1, g2 = cal.g_for_lower(v), cal.g_for_upper(v)
    i_t1 = t1_current(v, None, P)
    for lower, upper in (
            (lower_branch_t1(i_t1, g1, P), upper_branch_t1(i_t1, g2, P)),
            (_branch_currents(v, g1, P, "lower"),
             _branch_currents(v, g2, P, "upper"))):
        assert np.all(lower >= I_REF16) and np.all(lower < I_REF16 * (1 + 1e-8))
        assert np.all(upper < I_REF16) and np.all(upper > I_REF16 * (1 - 1e-8))


def test_calibration_g_monotone_and_clamped():
    v = np.linspace(0.28, 0.52, 2401)
    inside = (v > CAL_V_LO) & (v < CAL_V_HI)
    cal = build_calibration(P, D, I_REF16)
    for g in (cal.g_for_lower(v), cal.g_for_upper(v)):
        assert np.all(np.diff(g[inside]) > 0)
        # Edges beyond the domain take the domain ends' conductances.
        assert np.all(g[v <= CAL_V_LO] == g[v <= CAL_V_LO][-1])
        assert np.all(g[v >= CAL_V_HI] == g[v >= CAL_V_HI][0])
        assert D.g_hrs < g[0] < g[-1] < D.g_lrs
    # Rails inside the in-domain span clamp g at both ends.
    narrow = DeviceModel(g_hrs=2e-6, g_lrs=10e-6)
    cal = build_calibration(P, narrow, I_REF16)
    for g in (cal.g_for_lower(v), cal.g_for_upper(v)):
        assert np.all(np.diff(g) >= 0)
        assert g[0] == narrow.g_hrs and g[-1] == narrow.g_lrs
        free = inside & (g > narrow.g_hrs) & (g < narrow.g_lrs)
        assert np.all(np.diff(g[free]) > 0) and free.sum() > 100


def _measured_edge(g, side, i_ref):
    """Bisect the DL voltage where the branch current crosses i_ref."""
    g = np.atleast_1d(np.asarray(g, dtype=float))
    lo = np.full(g.shape, CAL_V_LO)
    hi = np.full(g.shape, CAL_V_HI)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        cur = _branch_currents(mid, g, P, side)
        discharging = cur > i_ref if side == "lower" else cur < i_ref
        lo = np.where(discharging, mid, lo)
        hi = np.where(discharging, hi, mid)
    out = 0.5 * (lo + hi)
    return float(out[0]) if out.size == 1 else out


def test_edge_placement_round_trip():
    cal = build_calibration(P, D, I_REF16)
    rng = np.random.default_rng(7)
    targets = rng.uniform(0.315, 0.485, 200)
    for side, fn in (("lower", cal.g_for_lower), ("upper", cal.g_for_upper)):
        g = fn(targets)
        assert np.max(np.abs(_measured_edge(g, side, I_REF16) - targets)) < 5e-5


def test_encode_measure_round_trip_within_half_lsb():
    # 200 random ranges; each placed bound must sit within LSB/2 of its
    # target, with the LSB taken from the device's level count.
    cal = build_calibration(P, D, I_REF16)
    bounds = (0.0, 1.0)
    step_v = (V_DL_MAX - V_DL_MIN) / D.n_levels
    rng = np.random.default_rng(21)
    pts = np.sort(rng.uniform(0.05, 0.95, (200, 2)), axis=1)
    pts[:, 1] = np.maximum(pts[:, 1], pts[:, 0] + 1e-3)
    pairs = [encode_range(ThresholdRange(lo, hi), bounds, D, cal)
             for lo, hi in pts]
    g1 = np.array([p.g_m1 for p in pairs])
    g2 = np.array([p.g_m2 for p in pairs])
    v_lo = feature_to_voltage(pts[:, 0], bounds)
    v_hi = feature_to_voltage(pts[:, 1], bounds)
    assert np.max(np.abs(_measured_edge(g1, "lower", I_REF16) - v_lo)) < step_v / 2
    assert np.max(np.abs(_measured_edge(g2, "upper", I_REF16) - v_hi)) < step_v / 2


def test_encode_wildcard_uses_rails():
    cal = build_calibration(P, D, I_REF16)
    pair = encode_range(ThresholdRange(), (0.0, 1.0), D, cal)
    assert pair == ConductancePair(D.g_hrs, D.g_lrs)
    half = encode_range(ThresholdRange(hi=0.5), (0.0, 1.0), D, cal)
    assert half.g_m1 == D.g_hrs
    assert half.g_m2 != D.g_lrs


def test_encode_widen_moves_bounds_outward():
    cal = build_calibration(P, D, I_REF16)
    bounds = (0.0, 1.0)
    tight = encode_range(ThresholdRange(0.4, 0.6), bounds, D, cal)
    wide = encode_range(ThresholdRange(0.4, 0.6), bounds, D, cal, widen=0.02)
    # Lower edge moves down (smaller g), upper edge moves up (larger g).
    assert wide.g_m1 < tight.g_m1
    assert wide.g_m2 > tight.g_m2


def test_out_of_window_bounds_clamp_permissively():
    cal = build_calibration(P, D, I_REF16)
    pair = encode_range(ThresholdRange(-5.0, 7.0), (0.0, 1.0), D, cal)
    # Clamped edges sit in the calibration slack outside the input window.
    assert _measured_edge(pair.g_m1, "lower", I_REF16) < V_DL_MIN
    assert _measured_edge(pair.g_m2, "upper", I_REF16) > V_DL_MAX


def test_calibration_fails_when_unreachable():
    with pytest.raises(CalibrationError):
        build_calibration(P, D, 1.0)  # absurd reference current
    with pytest.raises(CalibrationError):
        # Device floor above every in-window lower-edge conductance.
        build_calibration(P, DeviceModel(g_hrs=50e-6, g_lrs=200e-6), I_REF16)
    with pytest.raises(CalibrationError):
        # Device ceiling below every in-domain edge conductance.
        build_calibration(P, DeviceModel(g_hrs=0.1e-6, g_lrs=1e-6), I_REF16)
    with pytest.raises(CalibrationError, match="lower branch: i_ref out of"):
        # The lower branch's gate voltage lies above the divider rail.
        build_calibration(CellParams(v_sl_hi=0.36), D, I_REF16)
    with pytest.raises(CalibrationError):
        # The subthreshold/intermediate boundary splits the domain.
        build_calibration(CellParams(v_sub_max=0.35), D, I_REF16)


def test_calibration_rejects_a_domain_where_t1_draws_nothing():
    """With the ohmic fit across the domain and its threshold, 0.405 V,
    inside it, T1 draws 0 A at the domain's low end, where no edge can be
    placed and the kernel's thresholds could not be inverted; the
    calibration rejects it. Below the domain's low end the threshold
    leaves T1 above 0 across it, and the calibration accepts."""
    p = CellParams(v_sub_max=0.1, v_ohmic_min=0.2)
    assert t1_current(CAL_V_LO, None, p) == 0.0 < t1_current(CAL_V_HI, None, p)
    with pytest.raises(CalibrationError, match="draws no current"):
        build_calibration(p, D, I_REF16)
    ohmic = CellParams(v_sub_max=0.1, v_ohmic_min=0.2, v_th_t1=0.1)
    assert t1_current(CAL_V_LO, None, ohmic) > 0.0
    build_calibration(ohmic, D, I_REF16)


def test_threshold_range_semantics():
    # Half-open: a path predicate `f <= t` keeps t inside, `f > t` excludes it.
    tmap = ThresholdMap((MapRow((ThresholdRange(1.0, 2.0),), 0, 0),), 1)
    x = np.array([[1.0], [2.0], [1.5], [2.5], [np.nextafter(1.0, 2.0)]])
    assert map_matches(tmap, x)[:, 0].tolist() == [False, True, True, False,
                                                   True]
    assert ThresholdRange().wildcard
    assert not ThresholdRange(hi=2.0).wildcard
    with pytest.raises(ValueError):
        ThresholdRange(3.0, 1.0)


def test_quantize_range_snaps_to_levels():
    lo, hi = snap_to_levels([0.31, 0.74], 2, 0.0, 1.0)
    assert lo == pytest.approx(1 / 3)
    assert hi == pytest.approx(2 / 3)
    lo8, hi8 = snap_to_levels([0.31, 0.74], 8, 0.0, 1.0)
    assert abs(lo8 - 0.31) <= 0.5 / 255
    assert abs(hi8 - 0.74) <= 0.5 / 255
    # Ties take the lower level; values beyond [lo, hi] clamp to its ends.
    assert snap_to_levels([0.5, 1.5, -2.0, 9.0], 2, 0.0, 3.0).tolist() == \
        [0.0, 1.0, 0.0, 3.0]


def test_quantize_preserves_wildcards_and_is_idempotent():
    assert snap_to_levels([-math.inf, math.inf], 4, 0.0, 1.0).tolist() == \
        [-math.inf, math.inf]
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = np.sort(rng.uniform(0, 1, 2))
        n = int(rng.integers(1, 9))
        q1 = snap_to_levels(x, n, 0.0, 1.0)
        q2 = snap_to_levels(q1, n, 0.0, 1.0)
        assert np.array_equal(q1, q2)


def test_quantize_thresholds_grid():
    # Per-feature bounds broadcast along the last axis, as encode_bounds
    # passes them.
    b_lo, b_hi = np.array([0.0, 0.0]), np.array([1.0, 2.0])
    lo = snap_to_levels(np.array([[0.2, -math.inf]]), 1, b_lo, b_hi)
    hi = snap_to_levels(np.array([[0.9, 1.1]]), 1, b_lo, b_hi)
    assert lo.tolist() == [[0.0, -math.inf]]
    assert hi[0, 0] == 1.0 and hi[0, 1] == pytest.approx(2.0)


def test_inject_noise_statistics():
    rng = np.random.default_rng(11)
    g = np.full(100_000, 10e-6)
    noisy = inject_noise(g, 0.05, D, rng)
    assert abs(np.std(noisy) / np.mean(noisy) - 0.05) < 0.002
    assert np.all(noisy >= D.g_hrs) and np.all(noisy <= D.g_lrs)


def test_inject_noise_zero_sigma_copies():
    g = np.array([1e-6, 2e-6])
    out = inject_noise(g, 0.0, D, np.random.default_rng(0))
    assert np.array_equal(out, g)
    assert out is not g


@pytest.mark.parametrize("sigma", [0.02, 0.05, 0.1, 1e-300, 3.0])
def test_inject_noise_is_the_normal_expression_bit_for_bit(sigma):
    """The in-place draw gives the bits of ``g * (1 + normal(0, sigma))``
    clipped to the rails, on the same stream, values at the rails
    included."""
    g = np.concatenate([np.linspace(D.g_hrs, D.g_lrs, 61),
                        [D.g_hrs, D.g_lrs, 0.5 * D.g_lrs]])
    for k in range(200):
        expected = np.clip(g * (1.0 + np.random.default_rng([1, 2, k]).normal(
            0.0, sigma, size=g.shape)), D.g_hrs, D.g_lrs)
        drawn = inject_noise(g, sigma, D, np.random.default_rng([1, 2, k]))
        assert np.array_equal(drawn.view(np.int64), expected.view(np.int64))


def test_inject_noise_refuses_negative_sigma():
    with pytest.raises(ConfigError, match="non-negative"):
        inject_noise(np.ones(3), -0.05, D, np.random.default_rng(0))


def test_inject_noise_clips_at_rails():
    rng = np.random.default_rng(5)
    noisy = inject_noise(np.full(10_000, D.g_lrs), 0.15, D, rng)
    assert np.all(noisy <= D.g_lrs)
    assert np.any(noisy < D.g_lrs)


def test_device_model_validation():
    with pytest.raises(ConfigError):
        DeviceModel(g_hrs=5e-4)
    with pytest.raises(ConfigError):
        DeviceModel(n_levels=1)
    for bad in (dict(g_lrs=math.inf), dict(g_hrs=math.nan),
                dict(g_lrs=math.nan)):
        with pytest.raises(ConfigError):
            DeviceModel(**bad)
