"""Sparse match kernel against the dense every-cell oracle.

The kernel runs the cell law only on the branches of cells that can draw
current and adds each row's terms in numpy's summation order, pruned to
the cells that hold terms. These tests evaluate every cell of the full
(tiles, H, W) grids with ``row_total_current`` and require bit-identical
ML voltages, so skipping cells or branches and the pruned sums must never
change a result, not even in the last bit.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from camforest.arch import (
    ArchConfig,
    _branches_can_draw,
    _evaluate,
    _input_voltages,
    _ml_voltages,
    _row_terms,
    _term_t1,
    infer,
    infer_batch,
    program,
)
from camforest.cell import (
    cell_current,
    lower_branch_t1,
    row_total_current,
    t1_current,
    upper_branch_t1,
)
from camforest.datasets import gaussian_blobs, load_iris
from camforest.device import V_DL_MAX, V_DL_MIN, DeviceModel, feature_to_voltage
from camforest.forest import to_json, train_forest
from camforest.mapper import compile_forest

D = DeviceModel()
CFG = ArchConfig()


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
                                    v[:, None, None, :], cfg.params, fast=True)
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


def _assert_bit_identical(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


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


@pytest.mark.parametrize("data", ["iris", "blobs64"])
@pytest.mark.parametrize("tile", [8, 16])
@pytest.mark.parametrize("prog", sorted(PROGRAMS))
@pytest.mark.parametrize("t_scale", [1.0, 1e-5, 10.0])
def test_kernel_bit_identical_to_dense(data, tile, prog, t_scale, request):
    forest, X = request.getfixturevalue(data)
    plan = compile_forest(forest, tile, tile)
    arch = program(plan, D, CFG, forest.feature_bounds, forest.n_classes,
                   seed=[4, tile], **PROGRAMS[prog])
    X = np.vstack([X[:120], _threshold_inputs(forest, X[:60])])
    t = CFG.t_clk * t_scale
    dense = _dense_ml_voltages(arch, X, t)
    _assert_bit_identical(
        _ml_voltages(arch, _term_t1(arch, _input_voltages(arch, X)), t), dense)
    matches, _, _ = _evaluate(arch, X, t_clk=t)
    assert np.array_equal(matches, _dense_matches(arch, dense))


def test_chunked_evaluation_matches_one_chunk(iris, monkeypatch):
    forest, X = iris
    arch = program(compile_forest(forest, 16, 16), D, CFG,
                   forest.feature_bounds, forest.n_classes, sigma_rel=0.1,
                   seed=1)
    whole = _evaluate(arch, X)
    # A budget below one sample's buffer still runs one sample per chunk.
    monkeypatch.setattr("camforest.arch.CHUNK_BYTES", 1)
    split = _evaluate(arch, X)
    assert np.array_equal(whole[0], split[0])
    assert np.array_equal(whole[1], split[1])


def test_fixtures_cover_every_row_sum_path(iris, blobs64):
    """The bit-identity cases reach every shape the row-sum schedule prunes
    the dense sum to: slots with one, two and three or more active cells, a
    slot whose one cell adds its two branches, two-branch cells among
    others, and slots with cells in both halves of a 16-wide row, whose
    partial sums r[j] = a[j] + a[j + 8] add across the halves."""
    halves = []
    for forest, _ in (blobs64, iris):
        arch = program(compile_forest(forest, 16, 16), D, CFG,
                       forest.feature_bounds, forest.n_classes)
        w, n_slots = arch.plan.tile_w, arch.plan.n_tiles * arch.plan.tile_h
        slot, col = np.divmod(arch.active_cell, w)
        cells = np.bincount(slot, minlength=n_slots)
        assert {1, 2} <= set(cells.tolist()) and cells.max() >= 3
        schedule, n_terms = arch.row_terms, arch.term_cell.size
        # Some row totals are a lone term, others the result of adds.
        assert np.any(schedule.roots < n_terms)
        assert np.any(schedule.roots >= n_terms)
        low = np.bincount(slot[col < 8], minlength=n_slots)
        high = np.bincount(slot[col >= 8], minlength=n_slots)
        halves.append(np.any((low > 0) & (high > 0)))
    # blobs64 fills both halves; Iris's 4 features never reach the second.
    assert halves == [True, False]
    # Iris (the last fixture) has cells that draw current on both sides.
    terms = np.bincount(arch.active_cell[arch.term_cell] // w,
                        minlength=n_slots)
    assert np.any((cells == 1) & (terms == 2))
    assert np.any((cells >= 3) & (terms > cells))


def _random_schedule_case(rng, w: int, n_slots: int):
    """(term positions, second flags, lower terms) of random occupancy:
    each cell holds a lower term, an upper term, both or none."""
    kind = rng.choice(4, size=(n_slots, w), p=rng.dirichlet(np.ones(4)))
    lower, upper = (kind == 1) | (kind == 3), (kind == 2) | (kind == 3)
    term_pos = np.concatenate([np.flatnonzero(lower), np.flatnonzero(upper)])
    second = np.concatenate([np.zeros(lower.sum(), dtype=bool),
                             lower.ravel()[np.flatnonzero(upper)]])
    return term_pos, second, int(lower.sum())


def test_row_schedule_matches_numpy_sum_order():
    """The schedule's row totals equal ``np.add.reduce`` over the dense
    rows bit for bit, for W from 1 to 300 (numpy's sequential, eight-way and
    split regimes), with values spread over 16 decades and exact zeros."""
    rng = np.random.default_rng(11)
    n_slots, n_rows = 6, 9
    for w in range(1, 301):
        term_pos, second, n_lower = _random_schedule_case(rng, w, n_slots)
        schedule = _row_terms(term_pos, second, n_slots, w)
        terms = 10.0 ** rng.uniform(-16.0, 0.0, (term_pos.size, n_rows))
        terms[rng.random(terms.shape) < 0.1] = 0.0
        values = np.empty((schedule.width, n_rows))
        values[:term_pos.size] = terms
        totals = np.zeros((n_slots, n_rows))
        totals[schedule.slots] = schedule.run(values)
        # The dense oracle's cells: lower + upper, 0.0 for a missing branch.
        lo = np.zeros((n_rows, n_slots * w))
        hi = np.zeros((n_rows, n_slots * w))
        lo[:, term_pos[:n_lower]] = terms[:n_lower].T
        hi[:, term_pos[n_lower:]] = terms[n_lower:].T
        dense = np.add.reduce((lo + hi).reshape(n_rows, n_slots, w), axis=-1)
        _assert_bit_identical(totals.T, dense)


def test_wide_rows_bit_identical_to_dense():
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
    X = np.vstack([X[:80], _threshold_inputs(forest, X[:40])])
    _assert_bit_identical(
        _ml_voltages(arch, _term_t1(arch, _input_voltages(arch, X)),
                     CFG.t_clk),
        _dense_ml_voltages(arch, X, CFG.t_clk))


@pytest.mark.parametrize("data", ["iris", "blobs64"])
def test_chunks_split_mid_batch_stay_bit_identical(data, request, monkeypatch):
    forest, X = request.getfixturevalue(data)
    arch = program(compile_forest(forest, 16, 16), D, CFG,
                   forest.feature_bounds, forest.n_classes, sigma_rel=0.1,
                   seed=2)
    X = np.vstack([X[:100], _threshold_inputs(forest, X[:30])])
    # One program: per sample its terms' T1 currents and one row of the
    # chunk (cell-law currents, schedule values, row current, ML voltage).
    per_sample = 8 * (2 * arch.term_cell.size + arch.row_terms.width
                      + 2 * arch.plan.n_tiles * arch.plan.tile_h)
    chunks = []

    def recorded(*args):
        chunks.append(_ml_voltages(*args))
        return chunks[-1]

    # 7 samples per chunk: 130 samples end in a partial chunk.
    monkeypatch.setattr("camforest.arch.CHUNK_BYTES", 7 * per_sample + 5)
    monkeypatch.setattr("camforest.arch._ml_voltages", recorded)
    matches, _, _ = _evaluate(arch, X)
    assert [len(c) for c in chunks] == [7] * 18 + [4]
    dense = _dense_ml_voltages(arch, X, CFG.t_clk)
    _assert_bit_identical(np.concatenate(chunks), dense)
    assert np.array_equal(matches, _dense_matches(arch, dense))


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
    lower, upper = np.split(arch.term_cell, [arch.n_lower])
    no_lower, no_upper = np.setdiff1d(cells, lower), np.setdiff1d(cells, upper)
    # Nearly every active cell draws current on one side only.
    assert no_lower.size + no_upper.size > cells.size // 2
    i_t1 = t1_current(np.linspace(V_DL_MIN, V_DL_MAX, 10_001)[:, None], None,
                      CFG.params)
    for s0 in range(0, len(i_t1), 500):
        i = i_t1[s0:s0 + 500]
        assert np.all(lower_branch_t1(i, arch.active_m1[no_lower], CFG.params) == 0)
        assert np.all(upper_branch_t1(i, arch.active_m2[no_upper], CFG.params) == 0)


def test_active_cells_are_the_ones_that_can_draw_current(iris):
    forest, _ = iris
    arch = program(compile_forest(forest, 16, 16), D, CFG,
                   forest.feature_bounds, forest.n_classes, sigma_rel=0.1,
                   seed=7)
    v = np.array([[V_DL_MIN], [V_DL_MAX]])
    drawn = cell_current(arch.active_m1, arch.active_m2, v, CFG.params)
    assert np.all(drawn.max(axis=0) > 0.0)
    # Wildcards and padding are skipped: far fewer cells than packed.
    assert arch.active_cell.size < arch.plan.memory_cells // 2


def test_regime_boundary_inside_window_is_probed():
    """With the ohmic regime starting inside the window, the T1 current
    peaks just below the boundary, not at a window end: a cell can be off at
    both ends and still draw current in between."""
    params = replace(CFG.params, v_ohmic_min=0.48)
    g1, g2 = np.array([D.g_hrs]), np.array([11e-6])
    ends = cell_current(g1, g2, np.array([[V_DL_MIN], [V_DL_MAX]]), params)
    window = cell_current(g1, g2, np.linspace(V_DL_MIN, V_DL_MAX, 10_001)[:, None],
                          params)
    assert np.all(ends == 0.0) and np.any(window > 0.0)
    lower, upper = _branches_can_draw(g1, g2, params)
    assert (lower | upper).all()


def test_row_with_three_near_edge_cells(iris):
    """A row whose total adds three small unclamped currents (the fewest
    for which summation order can change the result) keeps the dense
    order bit for bit."""
    forest, X = iris
    arch = program(compile_forest(forest, 16, 16), D, CFG,
                   forest.feature_bounds, forest.n_classes)
    w = arch.plan.tile_w
    i_ref = CFG.parasitics.ml_capacitance(w) * (CFG.v_ml0 - CFG.v_sa) / CFG.t_clk
    # A matched row with three active cells: its other cells are quiet.
    matches, _, _ = _evaluate(arch, X)
    slot_of_cell = arch.active_cell // w
    for row, slot in zip(*arch.slot_rows[0]):
        cells = np.flatnonzero(slot_of_cell == slot)
        hits = np.flatnonzero(matches[:, row])
        if cells.size >= 3 and hits.size:
            break
    sample = X[hits[0]].astype(float)
    # Move three of its features to where their cells draw a small current.
    for c in cells[:3]:
        f = arch.active_input[c]
        xs = np.linspace(*arch.feature_bounds[f], 10_001)
        v = feature_to_voltage(xs, arch.feature_bounds[f])
        cur = cell_current(arch.active_m1[c], arch.active_m2[c], v, CFG.params)
        sample[f] = xs[np.flatnonzero((cur > 0) & (cur < 0.2 * i_ref))[0]]
    v_in = _input_voltages(arch, sample[None])
    terms = cell_current(arch.active_m1[cells], arch.active_m2[cells],
                         v_in[0, arch.active_input[cells]], CFG.params)
    assert np.count_nonzero(terms) >= 3
    v_ml = _ml_voltages(arch, _term_t1(arch, v_in), CFG.t_clk)
    assert CFG.v_sa < v_ml[0, slot] < CFG.v_ml0
    _assert_bit_identical(v_ml, _dense_ml_voltages(arch, sample[None], CFG.t_clk))


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
    traced = np.concatenate([trace.ml_voltages[(g, ti)]
                             for g, tiles in enumerate(arch.plan.groups)
                             for ti in range(len(tiles))])
    _assert_bit_identical(traced, dense)
