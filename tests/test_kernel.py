"""Band-decided match kernel against the dense every-cell oracle.

The kernel decides a slot from two DL-voltage compares per term, made once
per row of its compare table of distinct (data line, conductance) pairs
(in one broadcast, or read from a staircase of the data line's sorted
samples), and runs the cell law only on the slots left undecided, every
cell of the row in a zeroed row of W currents. These tests evaluate every cell of the
full (tiles, H, W) grids with ``row_total_current`` and require the sensed
bits, row matches and vote currents to be bit-identical, and traces to
carry the every-cell ML voltages bit for bit. Probes sit on the classifier's
thresholds and their nearest float neighbours, inside the bands and on
stored bounds, under noise, quantisation and several clocks.
"""

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import camforest.arch as arch_module
from camforest.arch import (
    BAND_MARGIN,
    PAD_VOLTAGE,
    ArchConfig,
    _encode,
    _evaluate,
    _input_voltages,
    _chunk_shape,
    _block_plan,
    _chunks,
    _evaluate_programs,
    _limits,
    _program_trials,
    _row_thresholds,
    _sensed_words,
    _staircase,
    _unpack,
    _vote_step,
    evaluate_accuracy,
    infer,
    infer_batch,
    program,
    sweep,
)
from camforest.cell import (
    cell_current,
    lower_branch_t1,
    row_total_current,
    t1_current,
    t1_inverse,
    upper_branch_t1,
)
from camforest.datasets import gaussian_blobs, load_iris
from camforest.device import (
    V_DL_MAX,
    V_DL_MIN,
    DeviceModel,
    ThresholdRange,
    band_edges,
    feature_to_voltage,
    reference_current,
)
from camforest.errors import CalibrationError
from camforest.forest import from_json, to_json, train_forest, train_tree
from camforest.mapper import MapRow, ThresholdMap, compile_forest, pack_tiles

D = DeviceModel()
CFG = ArchConfig()
C_ML = CFG.parasitics.ml_capacitance


def _dense_ml_voltages(arch, X, t):
    """(samples, slots) ML voltages with every cell evaluated, feature by
    feature and column by column."""
    cfg, plan = arch.config, arch.plan
    X = np.asarray(X, dtype=float)
    v_all = np.empty_like(X)
    for j, b in enumerate(arch.feature_bounds):
        v_all[:, j] = feature_to_voltage(X[:, j], b)
    c_ml = cfg.parasitics.ml_capacitance(plan.tile_w)
    out = []
    for g, tiles in enumerate(plan.groups):
        if not tiles:
            continue
        v = np.full((len(X), plan.tile_w), 0.5 * (V_DL_MIN + V_DL_MAX))
        for k, c in enumerate(plan.group_columns(g)):
            v[:, k] = v_all[:, plan.col_perm[c]]
        current = row_total_current(arch.cells_m1[g][None], arch.cells_m2[g][None],
                                    v[:, None, None, :], cfg.params)
        v_ml = np.maximum(cfg.v_ml0 - current * t / c_ml, 0.0)
        out.append(v_ml.reshape(len(X), -1))
    return np.concatenate(out, axis=1)


def _dense_matches(arch, v_ml):
    """Per-slot AND of the sensed lines into map rows."""
    plan = arch.plan
    ml = v_ml > arch.config.v_sa
    matches = np.ones((len(v_ml), len(plan.tmap.rows)), dtype=bool)
    slot = 0
    for tiles in plan.groups:
        for tile in tiles:
            for k, r in enumerate(tile):
                matches[:, r] &= ml[:, slot + k]
            slot += plan.tile_h
    return matches


def _dense_currents(arch, matches):
    """Vote currents of row matches in the exact-count form."""
    g_hrs, g_lrs = arch.device.g_hrs, arch.device.g_lrs
    counts = matches.astype(float) @ (arch.vote_matrix == g_lrs)
    total = matches.sum(axis=1)[:, None]
    return arch.config.v_read * (g_hrs * total + (g_lrs - g_hrs) * counts)


def _kernel_lines(arch, X, t):
    """(programs, samples, slots) sensed bits of the band kernel; slots
    without terms match."""
    n_slots = arch.plan.n_tiles * arch.plan.tile_h
    out = np.ones((arch.term_g.shape[1], len(X), n_slots), dtype=bool)
    v_in = _input_voltages(arch, np.asarray(X, dtype=float))
    thresholds = _row_thresholds(arch, t)
    for programs, samples in _chunks(arch, len(X)):
        lines = _unpack(_sensed_words(arch, v_in, t,
                                      thresholds[:, :, programs], programs,
                                      samples),
                        samples.stop - samples.start)
        out[programs, samples][..., arch.term_slots] = lines.transpose(1, 2, 0)
    return out


def _active_conductances(arch):
    """(g_m1, g_m2) of the active cells of a one-program ``arch``."""
    return tuple(np.concatenate([g.ravel() for g in grids])[arch.active_cell]
                 for grids in (arch.cells_m1, arch.cells_m2))


def _assert_bit_identical(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def _trace_voltages(trace, arch):
    return np.concatenate([trace.ml_voltages[(g, ti)]
                           for g, tiles in enumerate(arch.plan.groups)
                           for ti in range(len(tiles))])


def _splits(forest):
    """Per feature, the thresholds of every split node in the forest."""
    splits = [[] for _ in range(forest.n_features)]
    for tree in json.loads(to_json(forest))["trees"]:
        stack = [tree]
        while stack:
            node = stack.pop()
            if "label" not in node:
                splits[node["feature"]].append(node["threshold"])
                stack += [node["left"], node["right"]]
    return splits


def _threshold_inputs(forest, X):
    """Samples with features set exactly on the forest's split thresholds."""
    X = np.array(X, dtype=float)
    for j, values in enumerate(_splits(forest)):
        if values:
            X[:, j] = np.resize(np.array(values), len(X))
    return X


def _single_threshold_inputs(forest, X):
    """One sample per split node, with only its feature moved exactly onto
    its threshold."""
    rows = []
    for j, values in enumerate(_splits(forest)):
        for t in values:
            x = np.array(X[len(rows) % len(X)], dtype=float)
            x[j] = t
            rows.append(x)
    return np.array(rows)


def _edge_inputs(arch, X, t, n_terms, seed=0):
    """Samples with one term's feature moved to where its T1 current meets
    one of its classifier thresholds at clock ``t`` (and a hair beyond it
    either way), then to that value's nearest float neighbours."""
    p = arch.config.params
    limits = _limits(arch, t)
    rng = np.random.default_rng(seed)
    rows = []
    for k in rng.permutation(arch.term_cell.size)[:n_terms]:
        cell, upper = arch.term_cell[k], arch.term_upper[k]
        f = arch.active_input[cell]
        if f == len(arch.feature_bounds):
            continue                       # a padding column's fixed input
        g = arch.term_g[k, 0]
        lo, hi = arch.feature_bounds[f]
        for c in (limits[2:] if upper else limits[:2]):
            for scale in (1.0, 1 - 2 * BAND_MARGIN, 1 + 2 * BAND_MARGIN):
                i = g * c * scale
                if not 0 < i < np.inf:
                    continue
                # One regime of the T1 law holds the window.
                v = t1_inverse(i, V_DL_MIN, p)
                if not V_DL_MIN < v < V_DL_MAX:
                    continue
                x0 = lo + (v - V_DL_MIN) * (hi - lo) / (V_DL_MAX - V_DL_MIN)
                for direction in (-np.inf, np.inf):
                    x = x0
                    for _ in range(3):
                        row = np.array(X[len(rows) % len(X)], dtype=float)
                        row[f] = x
                        rows.append(row)
                        x = np.nextafter(x, direction)
    return np.array(rows)


@pytest.fixture(scope="module")
def iris():
    X, y = load_iris()
    return train_forest(X, y, n_trees=15, max_depth=4, seed=2), X


@pytest.fixture(scope="module")
def blobs64():
    X, y = gaussian_blobs(400, 64, 4, 3)
    return train_forest(X, y, n_trees=8, max_depth=6, seed=3), X


PROGRAMS = {"ideal": dict(sigma_rel=0.0), "sigma0.1": dict(sigma_rel=0.1),
            "bits3": dict(n_bits=3)}
# 1e-5 puts the upper branch's sense gate above the inverter rail, where
# its full threshold is +inf.
T_SCALES = [1.0, 0.3, 1e-3, 1e-5, 10.0]


@pytest.mark.parametrize("data", ["iris", "blobs64"])
@pytest.mark.parametrize("tile", [8, 16])
@pytest.mark.parametrize("prog", sorted(PROGRAMS))
@pytest.mark.parametrize("t_scale", T_SCALES)
def test_kernel_bit_identical_to_dense(data, tile, prog, t_scale, request,
                                      monkeypatch):
    forest, X = request.getfixturevalue(data)
    plan = compile_forest(forest, tile, tile)
    arch = program(plan, D, CFG, forest.feature_bounds, forest.n_classes,
                   seed=[4, tile], **PROGRAMS[prog])
    t = CFG.t_clk * t_scale
    X = np.vstack([X[:120], _threshold_inputs(forest, X[:60]),
                   _edge_inputs(arch, X, t, n_terms=12)])
    dense = _dense_ml_voltages(arch, X, t)
    calls = _undecided_recorder(monkeypatch)
    assert np.array_equal(_kernel_lines(arch, X, t)[0], dense > CFG.v_sa)
    matches, currents, _ = _evaluate(arch, X, t_clk=t)
    assert _assert_undecided_voltages(calls, arch, dense) > 0
    assert np.array_equal(matches, _dense_matches(arch, dense))
    _assert_bit_identical(currents, _dense_currents(arch, matches))
    for k in (0, len(X) - 1):
        trace = infer(arch, X[k], t_clk=t)
        _assert_bit_identical(_trace_voltages(trace, arch), dense[k])
        assert np.array_equal(trace.row_matches, matches[k])
        _assert_bit_identical(trace.vote_currents, currents[k])


@pytest.mark.parametrize("data", ["iris", "blobs64"])
@pytest.mark.parametrize("prog", sorted(PROGRAMS))
@pytest.mark.parametrize("t_scale", T_SCALES)
def test_thresholds_decide_branch_currents_at_float_neighbours(
        data, prog, t_scale, request):
    """From each term's zero threshold outward its branch law gives exactly
    0.0 A, and from its full threshold outward at least the sense current,
    which alone senses a mismatch: probed at the kernel's thresholds of the
    term's compare row and their next float neighbours in DL volts, on the
    T1 law of the window's regime (``t1_current`` itself inside the
    window). A lower branch draws 0.0 A from ``at_least`` upward and the
    sense current below ``above_most``; an upper branch the other way
    round."""
    forest, _ = request.getfixturevalue(data)
    arch = program(compile_forest(forest, 16, 16), D, CFG,
                   forest.feature_bounds, forest.n_classes, seed=5,
                   **PROGRAMS[prog])
    p, t = CFG.params, CFG.t_clk * t_scale
    in_window = 0
    i_sense = reference_current(C_ML(16), CFG.v_ml0, CFG.v_sa, t)
    assert np.isinf(_limits(arch, t)[3]) == (t_scale == 1e-5)
    at_least, above_most = (x[arch.term_compare, 0, 0]
                            for x in _row_thresholds(arch, t))
    with np.errstate(over="ignore"):    # below -max lies -inf
        at_most = np.nextafter(above_most, -np.inf)
    up = arch.term_upper
    zero, full = np.where(up, at_most, at_least), np.where(up, at_least, at_most)
    rising = np.where(up, -np.inf, np.inf)      # away from a zero threshold
    g = arch.term_g[:, 0]

    def law(v):
        # The window's regime is the intermediate one.
        i = p.i_d0_prime * np.exp((v - p.v_sl_lo) / p.alpha)
        inside = (v >= V_DL_MIN) & (v <= V_DL_MAX)
        assert np.array_equal(i[inside], t1_current(v[inside], None, p))
        nonlocal in_window
        in_window += inside.sum()
        return np.where(up, upper_branch_t1(i, g, p), lower_branch_t1(i, g, p))

    def outward(start, direction):
        i = start
        for _ in range(4):
            yield i
            i = np.nextafter(i, direction)

    for v in outward(zero, rising):
        assert np.all(law(v) == 0.0)
    # Full thresholds beyond the reach of a T1 current (> 0) are infinite
    # and never apply: at the shortest clock no branch can reach the sense
    # current.
    reach = np.isfinite(full)
    assert reach.any() == (t_scale != 1e-5)
    for v in outward(np.where(reach, full, PAD_VOLTAGE), -rising):
        current = law(v)[reach]
        assert np.all(current >= i_sense)
        assert np.all(np.maximum(CFG.v_ml0 - current * t / C_ML(16), 0.0)
                      <= CFG.v_sa)
    assert in_window > 0


def test_branches_drawing_only_at_window_ends_are_terms():
    """A branch whose zero point sits just inside the DL window draws
    current only for inputs at that end of the window; it is still a term,
    and the kernel senses its row as the every-cell evaluation does."""
    p = CFG.params
    i_ref = reference_current(C_ML(4), CFG.v_ml0, CFG.v_sa, CFG.t_clk)
    d_lower, d_upper = band_edges(p, i_ref).widths_v(p)
    scale = 1.0 / (V_DL_MAX - V_DL_MIN)           # features span [0, 1]
    wild = ThresholdRange()
    rows = (MapRow((ThresholdRange(-0.99 * d_lower * scale, np.inf), wild),
                   0, 0),
            MapRow((wild, ThresholdRange(-np.inf, 1 + 0.99 * d_upper * scale)),
                   1, 1))
    plan = pack_tiles(ThresholdMap(rows, 2), 4, 4)
    arch = program(plan, D, CFG, [(0.0, 1.0)] * 2, 2)
    # Row 0's lower branch on feature 0, row 1's upper on feature 1.
    assert set(zip(arch.active_cell[arch.term_cell].tolist(),
                   arch.term_upper.tolist())) == {(0, False), (5, True)}
    X = np.array([[0.0, 1.0], [-1.0, 2.0], [0.5, 0.5]])
    dense = _dense_ml_voltages(arch, X, CFG.t_clk)
    assert 0 < CFG.v_ml0 - dense[0, 0] and 0 < CFG.v_ml0 - dense[0, 1]
    assert np.array_equal(_kernel_lines(arch, X, CFG.t_clk)[0],
                          dense > CFG.v_sa)
    trace = infer(arch, X[0])
    _assert_bit_identical(_trace_voltages(trace, arch), dense[0])


def test_band_edges_closed_form_widths():
    """At the default operating point the bands are 0.705 mV (lower) and
    0.074 mV (upper) of DL voltage wide, 0.39% and 0.041% of a feature's
    range, and each edge is where its branch law turns."""
    p = CFG.params
    i_ref = reference_current(C_ML(16), CFG.v_ml0, CFG.v_sa, CFG.t_clk)
    e = band_edges(p, i_ref)
    lower, upper = e.widths_v(p)
    assert lower == pytest.approx(0.705e-3, abs=1e-6)
    assert upper == pytest.approx(0.0738e-3, abs=1e-6)
    window = V_DL_MAX - V_DL_MIN
    assert lower / window == pytest.approx(0.0039, abs=1e-4)
    assert upper / window == pytest.approx(0.00041, abs=1e-5)
    g = 50e-6
    for c, law, zero_side, full_side in (
            (e.lower_zero, lower_branch_t1, 1 + 1e-12, None),
            (e.lower_full, lower_branch_t1, None, 1 - 1e-12),
            (e.upper_zero, upper_branch_t1, 1 - 1e-12, None),
            (e.upper_full, upper_branch_t1, None, 1 + 1e-12)):
        if zero_side:
            assert law(g * c * zero_side, g, p) == 0.0
            assert law(g * c * (2 - zero_side) ** 1e3, g, p) > 0.0
        else:
            assert law(g * c * full_side, g, p) >= i_ref
            assert law(g * c * (2 - full_side) ** 1e3, g, p) < i_ref
    # Past the inverter rail the upper branch cannot reach the sense current,
    # nor where the inverter would need a divider node below v_sl_lo.
    assert band_edges(p, 1e5 * i_ref).upper_full == np.inf
    raised = replace(p, v_sl_lo=0.36)
    i_sense = 4.8e-5                # inverter input about 0.346 V
    assert band_edges(raised, i_sense).upper_full == np.inf
    assert upper_branch_t1(1.0, g, raised) < i_sense
    # There the lower branch's gate never closes either.
    assert band_edges(raised, i_sense).lower_zero == np.inf
    assert lower_branch_t1(1.0, g, raised) > 0.0
    assert band_edges(p, i_sense).upper_full < np.inf


@pytest.mark.parametrize("regime", [
    dict(v_sub_max=0.55, v_ohmic_min=0.6),
    dict(v_sub_max=0.1, v_ohmic_min=0.2, v_th_t1=0.1)],
    ids=["subthreshold", "ohmic"])
def test_windows_on_other_t1_regimes_bit_identical_to_dense(iris, regime,
                                                           monkeypatch):
    """With the DL window on the subthreshold fit, or on the ohmic fit
    above its threshold, the kernel's thresholds invert that regime's law:
    Iris predicts as the software forest, and every sensed bit, row match,
    vote current and trace voltage is the every-cell oracle's, on stored
    bounds and at the thresholds' float neighbours too."""
    forest, X = iris
    cfg = replace(CFG, params=replace(CFG.params, **regime))
    for sigma in (0.0, 0.1):
        arch = program(compile_forest(forest, 16, 16), D, cfg,
                       forest.feature_bounds, forest.n_classes,
                       sigma_rel=sigma, seed=3)
        if sigma == 0.0:
            assert np.array_equal(infer_batch(arch, X), forest.predict(X))
        for t_scale in (1.0, 1e-5):
            t = cfg.t_clk * t_scale
            probes = np.vstack([X, _threshold_inputs(forest, X[:60]),
                                _single_threshold_inputs(forest, X),
                                _edge_inputs(arch, X, t, n_terms=20)])
            calls = _undecided_recorder(monkeypatch)
            _assert_kernel_is_dense(arch, probes, t)
            dense = _dense_ml_voltages(arch, probes, t)
            assert _assert_undecided_voltages(calls, arch, dense) > 0
            monkeypatch.undo()
            for k in (0, len(probes) - 1):
                _assert_bit_identical(
                    _trace_voltages(infer(arch, probes[k], t_clk=t), arch),
                    dense[k])


def test_chunked_evaluation_matches_one_chunk(iris, monkeypatch):
    forest, X = iris
    arch = program(compile_forest(forest, 16, 16), D, CFG,
                   forest.feature_bounds, forest.n_classes, sigma_rel=0.1,
                   seed=1)
    whole = _evaluate(arch, X)
    # A budget below one word still runs 64 samples per chunk.
    monkeypatch.setattr("camforest.arch.CHUNK_BYTES", 1)
    split = _evaluate(arch, X)
    assert np.array_equal(whole[0], split[0])
    _assert_bit_identical(whole[1], split[1])


def _undecided_recorder(monkeypatch):
    """Record (arch, lines, samples, ML voltages) of every call to
    ``_line_voltages``, the kernel's dense path for undecided lines."""
    calls = []
    original = arch_module._line_voltages

    def recorded(arch, v_in, t, line, program_ids, sample):
        v_ml = original(arch, v_in, t, line, program_ids, sample)
        calls.append((arch, line, sample, v_ml))
        return v_ml

    monkeypatch.setattr(arch_module, "_line_voltages", recorded)
    return calls


def _assert_undecided_voltages(calls, arch, dense):
    """Every undecided line recorded for the one-program ``arch`` holds the
    dense ML voltage bit for bit; returns how many there were."""
    n = 0
    for a, line, sample, v_ml in calls:
        if a is arch:
            _assert_bit_identical(v_ml, dense[sample, arch.term_slots[line]])
            n += v_ml.size
    return n


def _cells_per_slot(arch, which=True):
    """Per flat slot, how many active cells (those selected by ``which``)
    it holds."""
    slot = arch.active_cell // arch.plan.tile_w
    return np.bincount(slot[np.broadcast_to(which, slot.shape)],
                       minlength=arch.plan.n_tiles * arch.plan.tile_h)


def test_fixtures_cover_every_row_sum_path(iris, blobs64, monkeypatch):
    """The bit-identity inputs reach every path of the kernel: lines decided
    matched and mismatched, and undecided lines whose zeroed rows hold one,
    two and three or more active cells, cells in both halves of a 16-wide
    row (numpy's partial sums r[j] = a[j] + a[j + 8] add across them) and
    cells that draw current on both sides."""
    calls = _undecided_recorder(monkeypatch)
    both_sides = []
    for forest, X in (blobs64, iris):
        arch = program(compile_forest(forest, 16, 16), D, CFG,
                       forest.feature_bounds, forest.n_classes)
        X = np.vstack([X[:120], _threshold_inputs(forest, X[:60]),
                       _edge_inputs(arch, X, CFG.t_clk, n_terms=12)])
        sensed = _kernel_lines(arch, X, CFG.t_clk)[0][:, arch.term_slots]
        assert sensed.any() and not sensed.all()
        lines = np.concatenate([line for a, line, _, _ in calls if a is arch])
        slots = arch.term_slots[lines]
        assert {1, 2} <= set(_cells_per_slot(arch)[slots].tolist())
        assert _cells_per_slot(arch)[slots].max() >= 3
        # blobs64 fills both halves; Iris's 4 features never reach the second.
        col = arch.active_cell % arch.plan.tile_w
        halves = (_cells_per_slot(arch, col < 8)[slots]
                  & _cells_per_slot(arch, col >= 8)[slots])
        assert halves.any() == (forest.n_features > 8)
        two = np.bincount(arch.term_cell, minlength=arch.active_cell.size) == 2
        both_sides.append(_cells_per_slot(arch, two)[slots].any())
    assert any(both_sides)


def _random_map_case(rng, n_features: int, n_rows: int):
    """A threshold map whose rows each bound about 60% of the features,
    some on both sides."""
    rows = []
    for r in range(n_rows):
        ranges = []
        for _ in range(n_features):
            kind = rng.choice(4, p=[0.4, 0.2, 0.2, 0.2])
            a, b = np.sort(rng.uniform(0.1, 0.9, 2))
            ranges.append(ThresholdRange(lo=a if kind in (1, 3) else -np.inf,
                                         hi=b if kind in (2, 3) else np.inf))
        rows.append(MapRow(tuple(ranges), r % 2, r))
    return ThresholdMap(tuple(rows), n_features)


def _in_band_inputs(arch, tmap, rng, n_samples: int):
    """Samples that each put every bounded feature of one random row inside
    its band, just past the stored bound on the matching side."""
    p = arch.config.params
    i_ref = reference_current(C_ML(arch.plan.tile_w), CFG.v_ml0, CFG.v_sa,
                              CFG.t_clk)
    scale = 1.0 / (V_DL_MAX - V_DL_MIN)     # features span [0, 1]
    d_lower, d_upper = (d * scale for d in band_edges(p, i_ref).widths_v(p))
    X = rng.uniform(0.0, 1.0, (n_samples, tmap.n_features))
    for x in X:
        r = rng.integers(len(tmap.rows))
        lo, hi = tmap.lo[r], tmap.hi[r]
        lower = np.isfinite(lo) & (~np.isfinite(hi) | (rng.random(lo.size) < 0.5))
        upper = np.isfinite(hi) & ~lower
        x[lower] = lo[lower] + rng.uniform(0.05, 0.95, lower.sum()) * d_lower
        x[upper] = hi[upper] - rng.uniform(0.05, 0.95, upper.sum()) * d_upper
    return X


@pytest.mark.parametrize("w", [1, 3, 7, 8, 9, 16, 17, 64, 127, 128, 129,
                               130, 200, 300])
def test_undecided_lines_bit_identical_to_dense_at_any_width(w, monkeypatch):
    """Undecided lines sum a zeroed row of W cells as the every-cell
    evaluation does, in each regime of numpy's pairwise sum (in sequence
    below 8, eight partial sums up to 128, split halves above), with many
    in-band cells per row and values spread over many decades."""
    rng = np.random.default_rng(w)
    n_features = w + w // 2 + 1
    tmap = _random_map_case(rng, n_features, 10)
    plan = pack_tiles(tmap, 4, w)
    calls = _undecided_recorder(monkeypatch)
    for sigma in (0.0, 0.05):
        arch = program(plan, D, CFG, [(0.0, 1.0)] * n_features, 2,
                       sigma_rel=sigma, seed=w)
        X = _in_band_inputs(arch, tmap, rng, 60)
        dense = _dense_ml_voltages(arch, X, CFG.t_clk)
        assert np.array_equal(_kernel_lines(arch, X, CFG.t_clk)[0],
                              dense > CFG.v_sa)
        matches, currents, _ = _evaluate(arch, X)
        assert np.array_equal(matches, _dense_matches(arch, dense))
        _assert_bit_identical(currents, _dense_currents(arch, matches))
        undecided = _assert_undecided_voltages(calls, arch, dense)
        if sigma == 0.0:
            assert undecided > 0
            lines = np.concatenate([line for a, line, _, _ in calls
                                    if a is arch])
            assert (_cells_per_slot(arch)[arch.term_slots[lines]].max()
                    >= min(w, 3))


def test_wide_rows_bit_identical_to_dense(monkeypatch):
    """At W = 130 numpy splits each dense row at column 64 and sums the
    halves apart; rows with cells in both halves add the halves last. The
    map keeps its feature order: reordering would pack the features the
    trees use into the first half."""
    X, y = gaussian_blobs(300, 140, 3, 5)
    forest = train_forest(X, y, n_trees=6, max_depth=6, seed=1)
    arch = program(compile_forest(forest, 8, 130, reorder_map=False), D, CFG,
                   forest.feature_bounds, forest.n_classes, sigma_rel=0.1,
                   seed=2)
    slot, col = np.divmod(arch.active_cell, arch.plan.tile_w)
    assert np.intersect1d(slot[col < 64], slot[col >= 64]).size > 0
    X = np.vstack([X[:80], _threshold_inputs(forest, X[:40]),
                   _edge_inputs(arch, X, CFG.t_clk, n_terms=20)])
    dense = _dense_ml_voltages(arch, X, CFG.t_clk)
    calls = _undecided_recorder(monkeypatch)
    assert np.array_equal(_kernel_lines(arch, X, CFG.t_clk)[0],
                          dense > CFG.v_sa)
    assert _assert_undecided_voltages(calls, arch, dense) > 0
    matches, currents, _ = _evaluate(arch, X)
    assert np.array_equal(matches, _dense_matches(arch, dense))
    _assert_bit_identical(currents, _dense_currents(arch, matches))


def _set_budget(monkeypatch, arch, n_samples, shape):
    """Set ``CHUNK_BYTES`` to the largest budget of the first run of
    budgets at which ``_chunk_shape`` gives ``shape`` for ``n_samples``
    samples."""
    found = None
    for budget in range(64, 1 << 21, 64):
        monkeypatch.setattr(arch_module, "CHUNK_BYTES", budget)
        if arch_module._chunk_shape(arch, n_samples) == shape:
            found = budget
        elif found:
            break
    assert found, f"no budget gives {shape}"
    monkeypatch.setattr(arch_module, "CHUNK_BYTES", found)


@pytest.mark.parametrize("data", ["iris", "blobs64"])
def test_chunks_split_mid_batch_stay_bit_identical(data, request, monkeypatch):
    """Chunks of one word: the 130 samples end mid-word in the last chunk.
    Undecided lines are held across a chunk's pieces of lines and sensed
    per chunk, never across two, and every bit stays that of the dense
    oracle."""
    forest, X = request.getfixturevalue(data)
    arch = program(compile_forest(forest, 16, 16), D, CFG,
                   forest.feature_bounds, forest.n_classes, sigma_rel=0.1,
                   seed=2)
    on = _threshold_inputs(forest, X[:30])
    X = np.vstack([on[:10], X[:50], on[10:20], X[50:100], on[20:]])
    chunks = []
    original = arch_module._sensed_words

    def recorded(arch, v_in, t, thresholds, programs, samples):
        chunks.append((samples.start, samples.stop))
        return original(arch, v_in, t, thresholds, programs, samples)

    _set_budget(monkeypatch, arch, len(X), (1, 1))
    monkeypatch.setattr(arch_module, "_sensed_words", recorded)
    calls = _undecided_recorder(monkeypatch)
    matches, currents, _ = _evaluate(arch, X)
    calls = list(calls)             # the kernel's own, not the checks'
    assert chunks == [(0, 64), (64, 128), (128, 130)]
    # Each chunk reduces its lines in several pieces and holds their
    # undecided lines, fewer than ``_undecided_shape`` holds, to sense them
    # in one call: one call per chunk, never spanning two.
    assert _block_plan(arch, 1, 1)[2] < arch.term_slots.size
    assert [sorted(set((sample // 64).tolist()))
            for _, _, sample, _ in calls] == [[0], [1], [2]]
    assert max(sample.size for _, _, sample, _ in calls) < \
        arch_module._undecided_shape(arch)[0]
    dense = _dense_ml_voltages(arch, X, CFG.t_clk)
    assert _assert_undecided_voltages(calls, arch, dense) > 0
    assert np.array_equal(_kernel_lines(arch, X, CFG.t_clk)[0],
                          dense > CFG.v_sa)
    assert np.array_equal(matches, _dense_matches(arch, dense))
    _assert_bit_identical(currents, _dense_currents(arch, matches))


def _skipped_cells(arch):
    """(g_m1, g_m2) of every programmed cell the kernel does not evaluate."""
    m1 = np.concatenate([g.ravel() for g in arch.cells_m1])
    m2 = np.concatenate([g.ravel() for g in arch.cells_m2])
    skipped = np.ones(m1.size, dtype=bool)
    skipped[arch.active_cell] = False
    return m1[skipped], m2[skipped]


@pytest.mark.parametrize("data", ["iris", "blobs64"])
def test_single_threshold_inputs_predict_as_software(data, request):
    """An input on a stored bound senses on the side (lo, hi] prescribes,
    through the calibration's edge margin."""
    forest, X = request.getfixturevalue(data)
    arch = program(compile_forest(forest, 16, 16), D, CFG,
                   forest.feature_bounds, forest.n_classes)
    X_t = _single_threshold_inputs(forest, X)
    assert len(X_t) >= 30
    assert np.array_equal(infer_batch(arch, X_t), forest.predict(X_t))


@pytest.mark.parametrize("data", ["iris", "blobs64"])
def test_skipped_cells_draw_no_current_across_window(data, request):
    forest, _ = request.getfixturevalue(data)
    arch = program(compile_forest(forest, 16, 16), D, CFG,
                   forest.feature_bounds, forest.n_classes, sigma_rel=0.1,
                   seed=7)
    g1, g2 = _skipped_cells(arch)
    assert 0 < g1.size < arch.plan.memory_cells
    v = np.linspace(V_DL_MIN, V_DL_MAX, 10_001)[:, None]
    for s0 in range(0, len(v), 500):
        assert np.all(cell_current(g1, g2, v[s0:s0 + 500], CFG.params) == 0.0)


@pytest.mark.parametrize("data", ["iris", "blobs64"])
def test_branches_without_terms_draw_no_current_across_window(data, request):
    forest, _ = request.getfixturevalue(data)
    arch = program(compile_forest(forest, 16, 16), D, CFG,
                   forest.feature_bounds, forest.n_classes, sigma_rel=0.1,
                   seed=7)
    cells = np.arange(arch.active_cell.size)
    lower = arch.term_cell[~arch.term_upper]
    upper = arch.term_cell[arch.term_upper]
    no_lower, no_upper = np.setdiff1d(cells, lower), np.setdiff1d(cells, upper)
    # Nearly every active cell draws current on one side only.
    assert no_lower.size + no_upper.size > cells.size // 2
    m1, m2 = _active_conductances(arch)
    i_t1 = t1_current(np.linspace(V_DL_MIN, V_DL_MAX, 10_001)[:, None], None,
                      CFG.params)
    for s0 in range(0, len(i_t1), 500):
        i = i_t1[s0:s0 + 500]
        assert np.all(lower_branch_t1(i, m1[no_lower], CFG.params) == 0)
        assert np.all(upper_branch_t1(i, m2[no_upper], CFG.params) == 0)


def test_active_cells_are_the_ones_that_can_draw_current(iris):
    forest, _ = iris
    arch = program(compile_forest(forest, 16, 16), D, CFG,
                   forest.feature_bounds, forest.n_classes, sigma_rel=0.1,
                   seed=7)
    v = np.array([[V_DL_MIN], [V_DL_MAX]])
    drawn = cell_current(*_active_conductances(arch), v, CFG.params)
    assert np.all(drawn.max(axis=0) > 0.0)
    # Wildcards and padding are skipped: far fewer cells than packed.
    assert arch.active_cell.size < arch.plan.memory_cells // 2


def test_regime_boundary_inside_window_is_rejected():
    """With the ohmic regime starting inside the window, the T1 current
    peaks just below the boundary, not at a window end: a cell can be off at
    both ends and still draw current in between. Calibration rejects such
    a law, so the kernel may bound T1 over the window by its ends."""
    params = replace(CFG.params, v_ohmic_min=0.48)
    g1, g2 = np.array([D.g_hrs]), np.array([11e-6])
    ends = cell_current(g1, g2, np.array([[V_DL_MIN], [V_DL_MAX]]), params)
    window = cell_current(g1, g2, np.linspace(V_DL_MIN, V_DL_MAX, 10_001)[:, None],
                          params)
    assert np.all(ends == 0.0) and np.any(window > 0.0)
    X, y = load_iris()
    forest = train_forest(X, y, n_trees=2, max_depth=2, seed=0)
    with pytest.raises(CalibrationError, match="regime boundary"):
        program(compile_forest(forest, 16, 16), D, replace(CFG, params=params),
                forest.feature_bounds, forest.n_classes)
    i_t1 = t1_current(np.linspace(V_DL_MIN, V_DL_MAX, 10_001), None, CFG.params)
    assert np.all(np.diff(i_t1) >= 0.0)


def test_row_with_three_near_edge_cells(iris, monkeypatch):
    """A row whose total adds three small unclamped currents (the fewest
    for which summation order can change the result) is left undecided and
    summed in the dense order bit for bit."""
    forest, X = iris
    arch = program(compile_forest(forest, 16, 16), D, CFG,
                   forest.feature_bounds, forest.n_classes)
    w = arch.plan.tile_w
    i_ref = C_ML(w) * (CFG.v_ml0 - CFG.v_sa) / CFG.t_clk
    # A matched row with three active cells: its other cells are quiet.
    matches, _, _ = _evaluate(arch, X)
    slot_of_cell = arch.active_cell // w
    for row, line in zip(*arch.line_rows[0]):
        slot = arch.term_slots[line]
        cells = np.flatnonzero(slot_of_cell == slot)
        hits = np.flatnonzero(matches[:, row])
        if cells.size >= 3 and hits.size:
            break
    sample = X[hits[0]].astype(float)
    m1, m2 = _active_conductances(arch)
    # Move three of its features to where their cells draw a small current.
    for c in cells[:3]:
        f = arch.active_input[c]
        xs = np.linspace(*arch.feature_bounds[f], 10_001)
        v = feature_to_voltage(xs, arch.feature_bounds[f])
        cur = cell_current(m1[c], m2[c], v, CFG.params)
        sample[f] = xs[np.flatnonzero((cur > 0) & (cur < 0.2 * i_ref))[0]]
    v_in = _input_voltages(arch, sample[None])
    terms = cell_current(m1[cells], m2[cells],
                         v_in[arch.active_input[cells], 0], CFG.params)
    assert np.count_nonzero(terms) >= 3
    v_ml = _trace_voltages(infer(arch, sample), arch)
    assert CFG.v_sa < v_ml[slot] < CFG.v_ml0
    dense = _dense_ml_voltages(arch, sample[None], CFG.t_clk)
    _assert_bit_identical(v_ml, dense[0])
    calls = _undecided_recorder(monkeypatch)
    assert np.array_equal(_kernel_lines(arch, sample[None], CFG.t_clk)[0],
                          dense > CFG.v_sa)
    assert _assert_undecided_voltages(calls, arch, dense) > 0


def test_padding_slots_trace_at_precharge(iris):
    forest, X = iris
    # 112 rows: the last 10-row tile of the group is partly padding.
    arch = program(compile_forest(forest, 10, 16), D, CFG,
                   forest.feature_bounds, forest.n_classes, sigma_rel=0.1,
                   seed=3)
    trace = infer(arch, X[0])
    h = arch.plan.tile_h
    padded = 0
    for g, tiles in enumerate(arch.plan.groups):
        for ti, tile in enumerate(tiles):
            pad = trace.ml_voltages[(g, ti)][len(tile):]
            assert np.all(pad == CFG.v_ml0)
            assert np.all(trace.ml_outputs[(g, ti)][len(tile):])
            padded += h - len(tile)
    assert padded > 0
    dense = _dense_ml_voltages(arch, X[:1], CFG.t_clk)[0]
    _assert_bit_identical(_trace_voltages(trace, arch), dense)


def _compare_keys(arch):
    """Per term, its (DL input, upper branch, conductance per program)."""
    return [(int(f), bool(up), tuple(g)) for f, up, g in zip(
        arch.active_input[arch.term_cell], arch.term_upper,
        arch.term_g.tolist())]


@pytest.mark.parametrize("data", ["iris", "blobs64"])
@pytest.mark.parametrize("prog", sorted(PROGRAMS))
def test_compare_table_holds_each_distinct_pair_once(data, prog, request):
    """Every (source, conductance row) of the terms is one compare row, and
    every term maps to the row holding its own pair."""
    forest, _ = request.getfixturevalue(data)
    arch = program(compile_forest(forest, 16, 16), D, CFG,
                   forest.feature_bounds, forest.n_classes, seed=6,
                   **PROGRAMS[prog])
    keys = _compare_keys(arch)
    rows = [keys[k] for k in arch.compare_term]
    assert len(set(rows)) == len(rows) and set(rows) == set(keys)
    assert np.array_equal(arch.term_compare[arch.compare_term],
                          np.arange(len(rows)))
    assert all(rows[r] == key for key, r in zip(keys, arch.term_compare))
    # Noise gives every cell its own conductance; noise-free programs
    # store each split bound in many rows.
    assert (len(rows) == len(keys)) == (prog == "sigma0.1")


def test_deep_tree_shares_compare_rows_bit_identical_to_dense():
    """A deep tree repeats each split bound in every leaf below it: far
    fewer compare rows than terms. It predicts as the tree on its training
    set, and every sensed bit, row match and vote current is the
    every-cell oracle's, on bounds and in bands too."""
    X, y = gaussian_blobs(600, 6, 4, 9, spread=0.2)
    forest = train_tree(X, y, max_depth=12)
    arch = program(compile_forest(forest, 16, 8), D, CFG,
                   forest.feature_bounds, forest.n_classes)
    assert 2 * arch.compare_term.size < arch.term_cell.size
    assert np.array_equal(infer_batch(arch, X), forest.predict(X))
    X = np.vstack([X[:200], _threshold_inputs(forest, X[:100]),
                   _single_threshold_inputs(forest, X),
                   _edge_inputs(arch, X, CFG.t_clk, n_terms=30)])
    dense = _dense_ml_voltages(arch, X, CFG.t_clk)
    assert np.array_equal(_kernel_lines(arch, X, CFG.t_clk)[0],
                          dense > CFG.v_sa)
    matches, currents, _ = _evaluate(arch, X)
    assert np.array_equal(matches, _dense_matches(arch, dense))
    _assert_bit_identical(currents, _dense_currents(arch, matches))


def test_noisy_trials_have_one_compare_row_per_term(iris):
    """Each trial draws its own noise on every cell, so no two terms of a
    noisy batch share a compare row."""
    forest, _ = iris
    enc = _encode(compile_forest(forest, 16, 16), D, CFG,
                  forest.feature_bounds, forest.n_classes, None)
    batch = _program_trials(enc, 0.05, [[3, 0, trial] for trial in range(5)])
    assert batch.term_g.shape[1] == 5
    assert batch.compare_term.size == batch.term_cell.size
    assert np.array_equal(np.sort(batch.compare_term),
                          np.arange(batch.term_cell.size))


def test_padding_terms_drive_mid_window_bit_identical_to_dense(iris):
    """Under heavy noise some padding cells hold terms; their DL source is
    the mid-window voltage in compares, undecided lines and traces."""
    forest, X = iris
    arch = program(compile_forest(forest, 16, 16), D, CFG,
                   forest.feature_bounds, forest.n_classes, sigma_rel=0.8,
                   seed=[4, 16])
    n_features = len(arch.feature_bounds)
    assert np.any(arch.active_input[arch.term_cell] == n_features)
    X = np.vstack([X, _threshold_inputs(forest, X[:60])])
    dense = _dense_ml_voltages(arch, X, CFG.t_clk)
    assert np.array_equal(_kernel_lines(arch, X, CFG.t_clk)[0],
                          dense > CFG.v_sa)
    for k in (0, 77, len(X) - 1):
        _assert_bit_identical(_trace_voltages(infer(arch, X[k]), arch),
                              dense[k])


def test_mixed_sigma_sweep_equals_per_trial_replay(iris, monkeypatch):
    """A sweep over noise-free and noisy points, whose batches share compare
    rows and do not, gives the rows of per-trial programs and
    evaluations."""
    forest, X = iris
    _, y = load_iris()
    batches = []
    original = arch_module._sensed_words

    def recorded(arch, v_in, t, thresholds, programs, samples):
        batches.append(arch)
        return original(arch, v_in, t, thresholds, programs, samples)

    monkeypatch.setattr(arch_module, "_sensed_words", recorded)
    grid, trials, seed = [0.0, 0.05, 0.0], 3, 11
    res = sweep(forest, X, y, "sigma", grid, trials=trials, seed=seed,
                workers=1)
    monkeypatch.undo()
    shared = [b.compare_term.size < b.term_cell.size for b in batches]
    assert shared == [True, False, True]
    rows = []
    for i, sigma in enumerate(grid):
        for trial in range(trials):
            arch = program(compile_forest(forest, 16, 16), D, CFG,
                           forest.feature_bounds, forest.n_classes,
                           sigma_rel=sigma, seed=[seed, i, trial])
            rows.append((sigma, trial, evaluate_accuracy(arch, X, y)[0]))
    assert res.rows == tuple(rows)


def _assert_kernel_is_dense(arch, X, t):
    """Sensed lines, row matches and vote currents of the one-program
    ``arch`` are the every-cell oracle's, bit for bit."""
    dense = _dense_ml_voltages(arch, X, t)
    assert np.array_equal(_kernel_lines(arch, X, t)[0], dense > CFG.v_sa)
    matches, currents, _ = _evaluate(arch, X, t_clk=t)
    assert np.array_equal(matches, _dense_matches(arch, dense))
    _assert_bit_identical(currents, _dense_currents(arch, matches))


def _run_sides(arch):
    """Per run of the compare table: (DL source, sides of its rows)."""
    runs = _block_plan(arch, 1, 1)[0]
    upper = arch.term_upper[arch.compare_term]
    return [(s, frozenset(upper[a:b].tolist())) for a, b, s in runs]


def test_one_sided_and_padding_runs_bit_identical_to_dense():
    """Runs of only lower rows (feature 0 bounded from below), only upper
    rows (feature 1 from above), both (feature 2) and, under heavy noise,
    the padding source F of the fourth column: each is one broadcast
    compare, and every bit is the oracle's."""
    wild, rng = ThresholdRange(), np.random.default_rng(3)
    rows = []
    for r in range(12):
        a, b = np.sort(rng.uniform(0.1, 0.9, 2))
        rows.append(MapRow((ThresholdRange(lo=a), ThresholdRange(hi=b),
                            ThresholdRange(a, b) if r % 2 else wild),
                           r % 2, r))
    tmap = ThresholdMap(tuple(rows), 3)
    plan = pack_tiles(tmap, 4, 4)
    ideal = program(plan, D, CFG, [(0.0, 1.0)] * 3, 2)
    assert _run_sides(ideal) == [(0, {False}), (1, {True}),
                                 (2, {False, True})]
    noisy = program(plan, D, CFG, [(0.0, 1.0)] * 3, 2, sigma_rel=0.8, seed=1)
    assert 3 in [s for s, _ in _run_sides(noisy)]
    for arch in (ideal, noisy):
        X = np.vstack([_in_band_inputs(arch, tmap, rng, 60),
                       rng.uniform(0.0, 1.0, (40, 3))])
        for t_scale in (1.0, 1e-5):
            _assert_kernel_is_dense(arch, X, CFG.t_clk * t_scale)


@pytest.mark.parametrize("data", ["iris", "blobs64"])
def test_infinite_thresholds_compare_exactly(data, request):
    """Past the inverter rail an upper row's full threshold is +inf and a
    lower row's T1 edge lies below 0 A, so its voltage is -inf. ``x <= h``
    is ``not x >= nextafter(h, inf)`` for every finite x and any h,
    infinities included, so the one compare per side is exact there too."""
    h = np.array([-np.inf, -1.5, -0.0, 0.0, 5e-324, 2e-6, np.inf])
    x = np.array([-1e300, -1.5, -0.0, 0.0, 5e-324, 1e-323, 2e-6, 1e300])
    assert np.array_equal(x[:, None] <= h,
                          ~(x[:, None] >= np.nextafter(h, np.inf)))
    forest, X = request.getfixturevalue(data)
    arch = program(compile_forest(forest, 16, 16), D, CFG,
                   forest.feature_bounds, forest.n_classes)
    t = CFG.t_clk * 1e-5
    at_least, above_most = _row_thresholds(arch, t)[..., 0]
    upper = arch.term_upper[arch.compare_term]
    assert np.all(np.isposinf(at_least[upper]))
    assert np.all(above_most[~upper] == np.nextafter(-np.inf, np.inf))
    _, lower_full, upper_zero, _ = _limits(arch, t)
    edge = arch.term_g[arch.compare_term] * np.where(upper, upper_zero,
                                                     lower_full)[:, None]
    assert np.all((edge > 0) == upper[:, None])
    edge_v = np.full(edge.shape, -np.inf)
    edge_v[edge > 0] = t1_inverse(edge[edge > 0], V_DL_MIN, CFG.params)
    assert np.array_equal(above_most, np.nextafter(edge_v, np.inf))
    _assert_kernel_is_dense(arch, np.vstack([X[:100], _threshold_inputs(
        forest, X[:40])]), t)


@pytest.mark.parametrize("n", [1, 63, 65, 127, 129, 200])
def test_sample_counts_off_the_word_bit_identical_to_dense(iris, n):
    """A last word only partly filled with samples decides its spare bits
    and holds none of them, whatever the count."""
    forest, X = iris
    arch = program(compile_forest(forest, 16, 16), D, CFG,
                   forest.feature_bounds, forest.n_classes, sigma_rel=0.1,
                   seed=n)
    X = np.resize(np.vstack([_threshold_inputs(forest, X[:50]), X]),
                  (n, X.shape[1]))
    _assert_kernel_is_dense(arch, X, CFG.t_clk)


def test_leaf_only_forest_has_an_empty_compare_table():
    X = np.random.default_rng(0).random((70, 3))
    forest = train_forest(X, np.zeros(70, dtype=int), n_trees=2, max_depth=3)
    arch = program(compile_forest(forest, 16, 16), D, CFG,
                   forest.feature_bounds, forest.n_classes)
    assert arch.compare_term.size == 0
    assert _block_plan(arch, 1, 2)[0] == []
    v_in = _input_voltages(arch, X)
    assert _sensed_words(arch, v_in, CFG.t_clk, _row_thresholds(
        arch, CFG.t_clk), slice(0, 1), slice(0, 70)).shape == (0, 1, 2)
    matches, currents = _evaluate_programs(arch, v_in, CFG.t_clk, True)
    assert matches.all()
    _assert_bit_identical(currents[0], _dense_currents(arch, matches[0]))


def _path_recorder(monkeypatch):
    """Record (sources, sources read from a staircase) of every kernel
    chunk."""
    chunks = []
    sensed, staircase = arch_module._sensed_words, arch_module._staircase

    def recorded(arch, v_in, t, thresholds, programs, samples):
        runs = _block_plan(arch, programs.stop - programs.start,
                           -(-(samples.stop - samples.start) // 64))[0]
        chunks.append([len({s for _, _, s in runs}), 0])
        return sensed(arch, v_in, t, thresholds, programs, samples)

    def tabled(v, n_words):
        chunks[-1][1] += 1
        return staircase(v, n_words)

    monkeypatch.setattr(arch_module, "_sensed_words", recorded)
    monkeypatch.setattr(arch_module, "_staircase", tabled)
    return chunks


def test_multi_program_runs_split_into_pieces_bit_identical(iris,
                                                             monkeypatch):
    """With a small budget a batch of noisy trials compares each source's
    rows in several runs, in chunks of fewer than all programs and samples;
    each trial's matches and vote currents stay its own program's, and so
    the oracle's."""
    forest, X = iris
    enc = _encode(compile_forest(forest, 16, 16), D, CFG,
                  forest.feature_bounds, forest.n_classes, None)
    seeds = [[9, 0, trial] for trial in range(5)]
    batch = _program_trials(enc, 0.05, seeds)
    X = np.vstack([X, _threshold_inputs(forest, X[:60])])
    monkeypatch.setattr(arch_module, "CHUNK_BYTES", 1 << 14)
    shape = _chunk_shape(batch, len(X))
    sources = [s for _, _, s in _block_plan(batch, *shape)[0]]
    assert len(sources) > len(set(sources))
    assert shape[0] < 5 and 64 * shape[1] < len(X)
    v_in = _input_voltages(batch, X)
    paths = _path_recorder(monkeypatch)
    matches, currents = _evaluate_programs(batch, v_in, CFG.t_clk, True)
    # Some chunk reads some sources from their staircases and compares
    # the others.
    assert any(0 < tabled < sources for sources, tabled in paths)
    for trial, seed in enumerate(seeds):
        arch = program(enc.plan, D, CFG, forest.feature_bounds,
                       forest.n_classes, sigma_rel=0.05, seed=seed)
        dense = _dense_ml_voltages(arch, X, CFG.t_clk)
        assert np.array_equal(matches[trial], _dense_matches(arch, dense))
        _assert_bit_identical(currents[trial],
                              _dense_currents(arch, matches[trial]))


def _vote_arch(class_sizes, g_hrs, g_lrs, v_read, rng):
    """The fields ``_vote_step`` reads, for map rows in one group whose
    row r is line r, dealt at random to classes of ``class_sizes`` rows."""
    label = rng.permutation(np.repeat(np.arange(len(class_sizes)),
                                      class_sizes))
    rows = np.arange(label.size)
    return SimpleNamespace(
        plan=SimpleNamespace(tmap=SimpleNamespace(n_rows=label.size)),
        line_rows=((rows, rows),), n_classes=len(class_sizes),
        class_rows=tuple(np.flatnonzero(label == c)
                         for c in range(len(class_sizes))),
        device=SimpleNamespace(g_hrs=g_hrs, g_lrs=g_lrs),
        config=SimpleNamespace(v_read=v_read))


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_vote_step_counts_equal_the_unpacked_sums(n):
    """Classes of 0, 1, 254, 255, 256 and 600 rows, bits past the last
    sample all set: the byte-lane counts of ``_vote_step`` equal the sums
    of the unpacked bools, and so do its currents and their argmax, ties
    to the lowest class (sample 0 matches no row, sample n - 1 one row of
    every class but the empty one, and sample n // 2 every row)."""
    rng = np.random.default_rng(n)
    sizes = [0, 1, 254, 255, 256, 600]
    n_programs, n_words = 3, -(-n // 64)
    words = rng.integers(0, 2**64, (sum(sizes), n_programs, n_words),
                         dtype=np.uint64)
    bits = _unpack(words, 64 * n_words)
    bits[..., n:] = True
    bits[..., n // 2] = True
    bits[..., 0] = False
    for device in ((0.0, 1.0, 1.0), (D.g_hrs, D.g_lrs, CFG.v_read)):
        arch = _vote_arch(sizes, *device, np.random.default_rng(n + 1))
        if n > 1:
            bits[..., n - 1] = False
            bits[[rows[0] for rows in arch.class_rows[1:]], :, n - 1] = True
        words = np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)
        block, currents = _vote_step(arch, words, n)
        assert np.array_equal(block, words)
        counts = np.array([_unpack(words[rows], n).sum(axis=0, dtype=np.intp)
                           for rows in arch.class_rows])
        g_hrs, g_lrs, v_read = device
        expected = np.moveaxis(v_read * (g_hrs * counts.sum(axis=0)
                                         + (g_lrs - g_hrs) * counts), 0, -1)
        _assert_bit_identical(currents, expected)
        if device[1] == 1.0:
            assert np.array_equal(currents, np.moveaxis(counts, 0, -1))
        assert np.array_equal(np.argmax(currents, axis=-1),
                              np.argmax(counts, axis=0))
    tied = {0: 0} if n == 1 else {0: 0, n - 1: 1, n // 2: 5}
    assert (np.argmax(currents, axis=-1)[:, list(tied)]
            == list(tied.values())).all()


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 150])
def test_staircase_words_are_the_packed_compare(n):
    """A threshold's staircase row at its ``searchsorted`` rank holds the
    packed ``>=`` words of the samples, every bit past the last sample set,
    for tied samples, signed zeros, thresholds on samples and on their
    float neighbours, and infinite thresholds."""
    rng = np.random.default_rng(n)
    v = rng.choice(np.append(rng.uniform(-1.0, 1.0, max(1, n // 3)),
                             [0.0, -0.0]), n)
    theta = np.concatenate([v, np.nextafter(v, -np.inf),
                            np.nextafter(v, np.inf), rng.uniform(-2, 2, 20),
                            [-np.inf, np.inf, 0.0, -0.0]])
    n_words = -(-n // 64)
    sorted_v, table = _staircase(v, n_words)
    assert np.array_equal(sorted_v, np.sort(v))
    assert table.shape == (n + 1, n_words) and table.dtype == np.uint64
    bits = np.ones((theta.size, 64 * n_words), dtype=bool)
    bits[:, :n] = v >= theta[:, None]
    want = np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)
    assert np.array_equal(table[np.searchsorted(sorted_v, theta)], want)


@pytest.mark.parametrize("t_scale", [1.0, 1e-5])
def test_sweep_batch_reads_staircases_bit_identical_to_dense(iris, t_scale,
                                                             monkeypatch):
    """A 50-trial sweep batch on 150 samples is one chunk whose sources all
    read their words from staircases; each trial's matches and vote
    currents are its own program's every-cell evaluation."""
    forest, X = iris
    enc = _encode(compile_forest(forest, 16, 16), D, CFG,
                  forest.feature_bounds, forest.n_classes, None)
    seeds = [[4, 2, trial] for trial in range(50)]
    batch = _program_trials(enc, 0.05, seeds)
    t = CFG.t_clk * t_scale
    paths = _path_recorder(monkeypatch)
    matches, currents = _evaluate_programs(batch, _input_voltages(batch, X),
                                           t, True)
    assert len(paths) == 1 and paths[0][0] == paths[0][1] > 0
    for trial, seed in enumerate(seeds):
        arch = program(enc.plan, D, CFG, forest.feature_bounds,
                       forest.n_classes, sigma_rel=0.05, seed=seed)
        dense = _dense_ml_voltages(arch, X, t)
        assert np.array_equal(matches[trial], _dense_matches(arch, dense))
        _assert_bit_identical(currents[trial],
                              _dense_currents(arch, matches[trial]))


def test_samples_on_thresholds_decide_alike_on_both_paths(iris,
                                                         monkeypatch):
    """DL voltages set exactly on a noisy batch's thresholds in the window
    and on their float neighbours: the batch reads every source's words
    from its staircase, each trial programmed alone compares every source,
    and both hold the same undecided (slot, sample) pairs of each trial and
    sense every line as the cell law does."""
    forest, _ = iris
    enc = _encode(compile_forest(forest, 16, 16), D, CFG,
                  forest.feature_bounds, forest.n_classes, None)
    # 16 trials: each source then holds at least twice 256 thresholds.
    seeds = [[6, 0, trial] for trial in range(16)]
    batch = _program_trials(enc, 0.05, seeds)
    n, t = 256, CFG.t_clk
    n_features = len(batch.feature_bounds)
    at = _row_thresholds(batch, t)
    source = batch.active_input[batch.term_cell[batch.compare_term]]
    rng = np.random.default_rng(6)
    v_in = np.full((n_features + 1, n), PAD_VOLTAGE)
    for s in range(n_features):
        on = at[:, source == s].ravel()
        on = np.concatenate([on, np.nextafter(on, -np.inf),
                             np.nextafter(on, np.inf)])
        v_in[s] = rng.choice(on[(on >= V_DL_MIN) & (on <= V_DL_MAX)], n)
    held = []
    line_voltages = arch_module._line_voltages

    def recorded(arch, v_in, t, line, program_ids, sample):
        held.append((line, program_ids, sample))
        return line_voltages(arch, v_in, t, line, program_ids, sample)

    def sensed(arch):
        """(paths, undecided (program, slot, sample)) of ``arch``'s one
        chunk, whose sensed bits are checked against the cell law."""
        held.clear()
        paths = _path_recorder(monkeypatch)
        monkeypatch.setattr(arch_module, "_line_voltages", recorded)
        (programs, samples), = _chunks(arch, n)
        words = arch_module._sensed_words(arch, v_in, t,
                                          _row_thresholds(arch, t),
                                          programs, samples)
        monkeypatch.undo()
        line, program_ids, sample = (a.ravel() for a in np.meshgrid(
            np.arange(arch.term_slots.size), np.arange(arch.term_g.shape[1]),
            np.arange(n), indexing="ij"))
        law = line_voltages(arch, v_in, t, line, program_ids, sample)
        assert np.array_equal(_unpack(words, n),
                              law.reshape(words.shape[:2] + (n,)) > CFG.v_sa)
        return paths, {(int(p), int(arch.term_slots[l]), int(k))
                       for ls, ps, ks in held for l, p, k in zip(ls, ps, ks)}

    paths, undecided = sensed(batch)
    assert paths == [[n_features, n_features]] and undecided
    for trial, seed in enumerate(seeds):
        paths, own = sensed(_program_trials(enc, 0.05, [seed]))
        assert paths == [[n_features, 0]]
        assert own == {(0, slot, k) for p, slot, k in undecided
                       if p == trial}


def test_one_trial_programs_compare_where_their_batch_reads_staircases(
        iris, monkeypatch):
    """On the 150 Iris samples a noisy one-trial program holds more
    thresholds than samples on some source but fewer than twice as many on
    every one, where a staircase was measured slower than the broadcast:
    it compares every source. Its 50-trial batch reads every source from
    a staircase."""
    forest, X = iris
    enc = _encode(compile_forest(forest, 16, 16), D, CFG,
                  forest.feature_bounds, forest.n_classes, None)
    seeds = [[1, 2, trial] for trial in range(50)]
    paths = _path_recorder(monkeypatch)
    for seed in seeds[:5]:
        arch = _program_trials(enc, 0.05, [seed])
        source = arch.active_input[arch.term_cell[arch.compare_term]]
        thresholds = 2 * np.bincount(source)
        assert thresholds.max() > len(X) and thresholds.max() < 2 * len(X)
        _evaluate_programs(arch, _input_voltages(arch, X), CFG.t_clk)
    assert len(paths) == 5 and all(tabled == 0 for _, tabled in paths)
    paths.clear()
    batch = _program_trials(enc, 0.05, seeds)
    _evaluate_programs(batch, _input_voltages(batch, X), CFG.t_clk)
    assert paths and all(tabled == sources for sources, tabled in paths)


def test_thresholds_once_per_call(iris, monkeypatch):
    """A batch of several chunks computes its thresholds once per
    evaluation and gives each chunk its programs' slice, with the bits of
    a single chunk."""
    forest, X = iris
    enc = _encode(compile_forest(forest, 16, 16), D, CFG,
                  forest.feature_bounds, forest.n_classes, None)
    batch = _program_trials(enc, 0.05, [[3, 1, trial] for trial in range(6)])
    v_in = _input_voltages(batch, X)
    assert len(list(_chunks(batch, len(X)))) == 1
    whole = _evaluate_programs(batch, v_in, CFG.t_clk, True)
    calls = []
    original = arch_module._row_thresholds

    def recorded(arch, t):
        calls.append(t)
        return original(arch, t)

    monkeypatch.setattr(arch_module, "_row_thresholds", recorded)
    monkeypatch.setattr(arch_module, "CHUNK_BYTES", 1 << 14)
    assert len(list(_chunks(batch, len(X)))) > 6
    split = _evaluate_programs(batch, v_in, CFG.t_clk, True)
    assert calls == [CFG.t_clk]
    assert np.array_equal(whole[0], split[0])
    _assert_bit_identical(whole[1], split[1])


def _staircase_sources(arch, programs, n):
    """Per DL source with compare rows: whether a chunk of ``programs``
    programs on ``n`` samples reads its words from a staircase, as it
    does when the source's thresholds number at least twice the samples."""
    rows = np.bincount(arch.active_input[arch.term_cell[arch.compare_term]])
    return rows[rows > 0] * programs >= n


def _chunk_bytes(arch, n_samples):
    """(bytes a chunk's compares hold at once: both compares' packed words,
    compare bools when a source is compared, and a staircase of n + 1 rows
    of words per source that reads its words from one; bytes its lines
    and rows hold: a packed word per line and per map row, the byte lanes
    of up to 255 of a class's rows; chunks per call)."""
    programs, words = _chunk_shape(arch, n_samples)
    rows = _block_plan(arch, programs, words)[1]
    n_rows = arch.compare_term.size
    n = min(n_samples, 64 * words)
    tabled = _staircase_sources(arch, programs, n)
    compares = 2 * n_rows * programs * words * 8
    if not tabled.all():
        compares += 2 * min(rows, n_rows) * programs * 64 * words
    compares += tabled.sum() * (n + 1) * words * 8
    class_rows = min(255, np.bincount(arch.plan.tmap.labels).max())
    lines = programs * words * (
        8 * (arch.term_slots.size + arch.plan.tmap.n_rows) + 64 * class_rows)
    return compares, lines, len(list(_chunks(arch, n_samples)))


def test_block_bytes_within_budget_on_benchmark_shapes(monkeypatch):
    """The Iris sweep's 50-trial batch on 150 samples and one program of
    the blobs16 and wide64 validate forests on 5,000 samples are each one
    chunk. A chunk's bools, staircase and words, and its lines and rows,
    each stay within ``CHUNK_BYTES``, there and at smaller budgets, also
    for the ideal Iris program on 5,000 samples, whose lines and rows
    outweigh its compare words."""
    X, y = load_iris()
    forest = train_forest(X, y, n_trees=15, max_depth=4)
    enc = _encode(compile_forest(forest, 16, 16), D, CFG,
                  forest.feature_bounds, forest.n_classes, None)
    cases = [(_program_trials(enc, 0.05, [[1, 0, k] for k in range(50)]),
              150)]
    for n_features, n_trees, depth in ((16, 32, 6), (64, 64, 8)):
        X, y = gaussian_blobs(2000, n_features, 4, 0)
        forest = train_forest(X, y, n_trees=n_trees, max_depth=depth)
        cases.append((program(compile_forest(forest, 16, 16), D, CFG,
                              forest.feature_bounds, forest.n_classes), 5000))
    budget = arch_module.CHUNK_BYTES
    for arch, n_samples in cases:
        assert _chunk_bytes(arch, n_samples)[2] == 1
    # The sweep batch reads every source's words from its staircase, the
    # validate programs compare every source.
    assert [_staircase_sources(arch, _chunk_shape(arch, n_samples)[0],
                               n_samples).mean()
            for arch, n_samples in cases] == [1.0, 0.0, 0.0]
    ideal = _program_trials(enc, 0.0, [0])
    cases.append((ideal, 5000))
    # One chunk of 79 words, whose lines and rows outweigh both compares'
    # packed words.
    assert _chunk_shape(ideal, 5000) == (1, 79)
    assert _chunk_bytes(ideal, 5000)[1] > 79 * 32 * ideal.compare_term.size
    for shift in (0, 2, 4):
        monkeypatch.setattr(arch_module, "CHUNK_BYTES", budget >> shift)
        for arch, n_samples in cases:
            compares, lines, _ = _chunk_bytes(arch, n_samples)
            assert compares <= budget >> shift and lines <= budget >> shift


@pytest.mark.parametrize("leaf_only", [False, True])
@pytest.mark.parametrize("prog", ["ideal", "sigma0.1"])
def test_traces_vote_beside_single_leaf_trees(iris, leaf_only, prog,
                                              monkeypatch):
    """A single-leaf tree's row holds no terms: its word is all ones and it
    matches every sample. Every trace's row matches, vote currents and
    class are those of the batch kernel, read from its own sensed lines
    without calling the packed kernel."""
    forest, X = iris
    obj = json.loads(to_json(forest))
    obj["trees"] = ([{"label": 2}] * 2 if leaf_only
                    else obj["trees"] + [{"label": 2}])
    forest = from_json(json.dumps(obj))
    arch = program(compile_forest(forest, 16, 16), D, CFG,
                   forest.feature_bounds, forest.n_classes, seed=5,
                   **PROGRAMS[prog])
    X = np.vstack([X[::15], _threshold_inputs(forest, X[:10])])
    leaf_row = arch.plan.tmap.trees == len(forest.trees) - 1
    assert not np.isin(np.flatnonzero(leaf_row),
                       np.concatenate([rows for rows, _ in arch.line_rows]))
    matches, currents, predicted = _evaluate(arch, X)
    assert matches[:, leaf_row].all()
    kernel = []
    monkeypatch.setattr(arch_module, "_sensed_words",
                        lambda *args: kernel.append(args))
    for k, x in enumerate(X):
        trace = infer(arch, x)
        assert np.array_equal(trace.row_matches, matches[k])
        _assert_bit_identical(trace.vote_currents, currents[k])
        assert trace.predicted == predicted[k]
        assert trace.ml_outputs.keys() == trace.ml_voltages.keys()
        for key, v_ml in trace.ml_voltages.items():
            assert np.array_equal(trace.ml_outputs[key], v_ml > CFG.v_sa)
    assert len(X) == 20 and kernel == []
