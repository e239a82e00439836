"""Programming and end-to-end inference behavior."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from camforest.arch import (
    PAD_VOLTAGE,
    ArchConfig,
    ProgrammedArchitecture,
    SWEEP_VARIABLES,
    _encode,
    _evaluate,
    _evaluate_programs,
    _input_voltages,
    _program_trials,
    _draw,
    _chunks,
    _row_thresholds,
    _sensed_words,
    _unpack,
    evaluate_accuracy,
    infer,
    infer_batch,
    program,
    program_forest,
    sweep,
)
from camforest.datasets import (
    grid_classification,
    load_iris,
    off_grid_inputs,
)
from camforest.device import (
    V_DL_MAX,
    V_DL_MIN,
    DeviceModel,
    feature_to_voltage,
    inject_noise,
)
from camforest.errors import ConfigError, DataError
from camforest.forest import Forest, train_forest, train_tree
from camforest.mapper import ThresholdMap, compile_forest, pack_tiles

D = DeviceModel()


def _iris_tree_arch():
    X, y = load_iris()
    model = train_tree(X, y, max_depth=4)
    return model, program_forest(model), X, y


def test_iris_tree_exact_equivalence():
    model, arch, X, y = _iris_tree_arch()
    hw_acc, confusion = evaluate_accuracy(arch, X, y)
    sw_acc = float(np.mean(model.predict(X) == y))
    assert hw_acc == sw_acc
    assert confusion.sum() == len(y)
    assert np.trace(confusion) == round(hw_acc * len(y))


def test_iris_tree_exactly_one_row_matches():
    _, arch, X, _ = _iris_tree_arch()
    matches, _, _ = _evaluate(arch, X)
    assert np.all(matches.sum(axis=1) == 1)


def test_input_voltages_are_feature_to_voltage_bit_for_bit():
    """The in-place map gives ``feature_to_voltage``'s bits in one
    contiguous source-major array, clipped inputs and bounds included; the
    padding source, its last row, is driven at mid-window."""
    model, arch, X, _ = _iris_tree_arch()
    rng = np.random.default_rng(8)
    bounds = np.array(model.feature_bounds)
    X = np.concatenate([X, bounds[:, 0][None], bounds[:, 1][None],
                        rng.uniform(bounds[:, 0] - 2, bounds[:, 1] + 2,
                                    (500, 4))])
    v = _input_voltages(arch, X)
    ref = feature_to_voltage(X, model.feature_bounds)
    assert v.shape == (X.shape[1] + 1, len(X)) and v.flags.c_contiguous
    assert np.array_equal(v[:-1].view(np.int64), ref.T.view(np.int64))
    assert PAD_VOLTAGE == 0.5 * (V_DL_MIN + V_DL_MAX)
    assert np.all(v[-1] == PAD_VOLTAGE)
    assert v.min() == V_DL_MIN and v.max() == V_DL_MAX


def test_single_array_trace_runs_in_four_cycles():
    _, arch, X, _ = _iris_tree_arch()
    assert arch.n_active_arrays == 1
    trace = infer(arch, X[0])
    assert trace.cycles == 4
    assert trace.row_matches.sum() == 1
    assert trace.predicted == int(np.argmax(trace.vote_currents))
    # Sensed booleans are the thresholded voltages.
    for key, ml in trace.ml_outputs.items():
        assert np.array_equal(ml, trace.ml_voltages[key] > arch.config.v_sa)


def test_forest_oracle_equivalence_off_grid():
    for seed in range(3):
        Xg, yg = grid_classification(250, 12, 3, seed=seed)
        forest = train_forest(Xg, yg, n_trees=9, max_depth=5, seed=seed)
        arch = program_forest(forest)
        Xe = off_grid_inputs(150, 12, seed=seed + 100)
        assert np.array_equal(infer_batch(arch, Xe), forest.predict(Xe))


def test_exactly_one_row_per_tree():
    Xg, yg = grid_classification(250, 10, 3, seed=4)
    forest = train_forest(Xg, yg, n_trees=8, max_depth=5, seed=4)
    arch = program_forest(forest)
    Xe = off_grid_inputs(80, 10, seed=5)
    matches, _, _ = _evaluate(arch, Xe)
    tree_idx = np.array([r.tree_index for r in arch.plan.tmap.rows])
    for s in range(Xe.shape[0]):
        per_tree = np.bincount(tree_idx[matches[s]], minlength=8)
        assert np.all(per_tree == 1)


def test_vote_matrix_construction():
    model, arch, _, _ = _iris_tree_arch()
    labels = np.array([r.class_label for r in arch.plan.tmap.rows])
    for i, lab in enumerate(labels):
        row = arch.vote_matrix[i]
        assert row[lab] == D.g_lrs
        assert np.all(np.delete(row, lab) == D.g_hrs)


def test_vote_currents_match_direct_dot_product():
    Xg, yg = grid_classification(200, 8, 3, seed=3)
    forest = train_forest(Xg, yg, n_trees=7, max_depth=5, seed=3)
    arch = program_forest(forest)
    Xe = off_grid_inputs(60, 8, seed=6)
    matches, currents, predicted = _evaluate(arch, Xe)
    direct = arch.config.v_read * (matches @ arch.vote_matrix)
    assert np.allclose(currents, direct, rtol=1e-12)
    assert np.array_equal(predicted, infer_batch(arch, Xe))
    assert [infer(arch, x).predicted for x in Xe] == predicted.tolist()


def test_identical_trees_concentrate_votes():
    X, y = load_iris()
    single = train_tree(X, y, max_depth=3)
    clones = Forest(trees=single.trees * 15, n_features=4, n_classes=3,
                    feature_bounds=single.feature_bounds)
    arch = program_forest(clones)
    trace = infer(arch, X[120])
    winner = trace.predicted
    others = np.delete(trace.vote_currents, winner)
    assert trace.vote_currents[winner] / others == pytest.approx(
        D.g_lrs / D.g_hrs, rel=1e-12)


def test_padding_slots_hold_wildcards():
    X, y = load_iris()
    model = train_tree(X, y, max_depth=4)
    arch = program_forest(model, tile_h=16, tile_w=16)
    plan = arch.plan
    tiles = plan.groups[0]
    used = len(tiles[-1])
    assert used < plan.tile_h  # partial last tile on this model
    pad_m1 = arch.cells_m1[0][-1, used:, :]
    pad_m2 = arch.cells_m2[0][-1, used:, :]
    assert np.all(pad_m1 == D.g_hrs)
    assert np.all(pad_m2 == D.g_lrs)
    # Padded feature columns beyond F are wildcards on every row.
    assert np.all(arch.cells_m1[0][:, :, 4:] == D.g_hrs)
    assert np.all(arch.cells_m2[0][:, :, 4:] == D.g_lrs)


def test_programming_determinism():
    X, y = load_iris()
    forest = train_forest(X, y, n_trees=5, max_depth=3, seed=1)
    plan = compile_forest(forest, 16, 16)
    cfg = ArchConfig()
    a = program(plan, D, cfg, forest.feature_bounds, 3, sigma_rel=0.05, seed=9)
    b = program(plan, D, cfg, forest.feature_bounds, 3, sigma_rel=0.05, seed=9)
    c = program(plan, D, cfg, forest.feature_bounds, 3, sigma_rel=0.05, seed=10)
    for g in range(plan.n_groups):
        assert np.array_equal(a.cells_m1[g], b.cells_m1[g])
        assert np.array_equal(a.cells_m2[g], b.cells_m2[g])
    assert any(not np.array_equal(a.cells_m1[g], c.cells_m1[g])
               for g in range(plan.n_groups))


def test_quantized_iris_high_bits_matches_ideal():
    X, y = load_iris()
    forest = train_forest(X, y, n_trees=15, max_depth=4, seed=2)
    ideal = program_forest(forest)
    quant = program_forest(forest, n_bits=8)
    assert np.array_equal(infer_batch(ideal, X), infer_batch(quant, X))


def test_accuracy_independent_of_tile_height():
    X, y = load_iris()
    forest = train_forest(X, y, n_trees=15, max_depth=4, seed=6)
    accs = {
        h: evaluate_accuracy(program_forest(forest, tile_h=h), X, y)[0]
        for h in (4, 16, 64)
    }
    assert len(set(accs.values())) == 1


def test_short_clock_collapses_matching():
    X, y = load_iris()
    forest = train_forest(X, y, n_trees=15, max_depth=4, seed=2)
    arch = program_forest(forest)
    base, _ = evaluate_accuracy(arch, X, y)
    # 100x the calibrated window changes nothing: clean matches carry
    # exactly zero current, mismatches only discharge harder.
    slow, _ = evaluate_accuracy(arch, X, y, t_clk=arch.config.t_clk * 100)
    assert slow == base
    # Far below the calibrated window nothing discharges: every row matches
    # and all classes tie, so argmax degenerates to class 0.
    fast, _ = evaluate_accuracy(arch, X, y, t_clk=arch.config.t_clk / 1e5)
    matches, _, _ = _evaluate(arch, X, t_clk=arch.config.t_clk / 1e5)
    assert np.all(matches)
    assert fast == pytest.approx(np.mean(y == 0))
    # In between, false matches already degrade the result.
    mid, _ = evaluate_accuracy(arch, X, y, t_clk=arch.config.t_clk / 1000)
    assert mid <= base


def test_noise_changes_programming_not_semantics_at_zero():
    X, y = load_iris()
    forest = train_forest(X, y, n_trees=5, max_depth=3, seed=0)
    a = program_forest(forest, sigma_rel=0.0, seed=1)
    b = program_forest(forest, sigma_rel=0.0, seed=2)
    for g in range(a.plan.n_groups):
        assert np.array_equal(a.cells_m1[g], b.cells_m1[g])
    noisy = program_forest(forest, sigma_rel=0.08, seed=1)
    assert any(not np.array_equal(a.cells_m1[g], noisy.cells_m1[g])
               for g in range(a.plan.n_groups))


def test_evaluate_accuracy_validations():
    _, arch, X, y = _iris_tree_arch()
    with pytest.raises(DataError):
        evaluate_accuracy(arch, np.empty((0, 4)), np.empty(0, dtype=int))
    with pytest.raises(DataError):
        infer_batch(arch, np.ones((3, 7)))
    for t_clk in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            infer_batch(arch, X[:2], t_clk=t_clk)
    for sigma_rel in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            program(arch.plan, DeviceModel(), ArchConfig(), arch.feature_bounds,
                    arch.n_classes, sigma_rel=sigma_rel)


@pytest.mark.parametrize("labels, message", [
    (lambda y: y[:1], "per sample"),
    (lambda y: y.reshape(-1, 1), "per sample"),
    (lambda y: y - 1, "non-negative"),
    (lambda y: np.where(y == 2, 7, y), "class count"),
    (lambda y: y + 0.7, "integers"),
    (lambda y: y * 0.5, "integers"),
    (lambda y: np.array(["0"] * len(y)), "integers"),
    (lambda y: np.where(y == 2, np.nan, y), "integers"),
], ids=["one_label", "column", "negative", "beyond_classes", "fractional",
        "halved", "numeric_strings", "nan"])
def test_labels_must_be_one_class_per_sample(iris_forest, labels, message):
    """Labels that broadcast against the predictions, are not integers or
    fall outside [0, n_classes) are rejected by ``evaluate_accuracy`` and
    ``sweep`` alike, with and without vote noise, instead of scoring
    (after truncation) or failing on an index."""
    forest, X, y = iris_forest
    bad = labels(y)
    with pytest.raises(DataError, match=message):
        evaluate_accuracy(program_forest(forest), X, bad)
    for vote_sigma in (0.0, 0.3):
        with pytest.raises(DataError, match=message):
            sweep(forest, X, bad, "sigma", [0.0], trials=2, seed=0,
                  config=ArchConfig(vote_sigma=vote_sigma), workers=1)


@pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf, None])
def test_sigma_must_be_finite_non_negative(iris_forest, sigma):
    """Programming noise is a finite number >= 0 wherever it is given:
    ``program``'s ``sigma_rel``, a sigma sweep's grid point and the fixed
    ``sigma_rel`` of another variable's sweep."""
    forest, X, y = iris_forest
    plan = compile_forest(forest, 16, 16)
    with pytest.raises(ConfigError, match="sigma_rel must be non-negative"):
        program(plan, D, ArchConfig(), forest.feature_bounds,
                forest.n_classes, sigma_rel=sigma)
    runs = [dict(variable="n_bits", grid=[4], sigma_rel=sigma)]
    if sigma is not None:
        runs.append(dict(variable="sigma", grid=[0.0, sigma]))
    for run in runs:
        with pytest.raises(ConfigError, match="sigma_rel must be non-negative"):
            sweep(forest, X, y, trials=2, seed=0, workers=1, **run)


def test_noise_is_recorded_on_the_program_only(iris_forest):
    """A noisy program leaves the device it was given unchanged: the noise
    level lives in ``sigma_rel`` of the programmed architecture alone."""
    forest, _, _ = iris_forest
    device = DeviceModel()
    arch = program_forest(forest, device, sigma_rel=0.3, seed=1)
    assert arch.device is device and device == DeviceModel()
    assert "sigma_rel" not in {f.name for f in fields(DeviceModel)}
    assert arch.sigma_rel == 0.3
    assert program_forest(forest, device).sigma_rel == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_rejected(bad):
    # A NaN row matches no row and would silently vote for class 0.
    _, arch, X, y = _iris_tree_arch()
    Xb = X[:5].copy()
    Xb[2, 1] = bad
    with pytest.raises(DataError, match="NaN or infinite"):
        infer_batch(arch, Xb)
    with pytest.raises(DataError, match="NaN or infinite"):
        infer(arch, Xb[2])
    with pytest.raises(DataError, match="NaN or infinite"):
        evaluate_accuracy(arch, Xb, y[:5])


@pytest.mark.parametrize("bound", [(1.0, 1.0), (2.0, 1.0), (0.0, np.inf),
                                   (np.nan, 1.0)])
def test_program_rejects_bad_feature_bounds(bound):
    X, y = load_iris()
    model = train_tree(X, y, max_depth=3)
    bounds = list(model.feature_bounds)
    bounds[2] = bound
    with pytest.raises(DataError, match="feature bounds"):
        program(compile_forest(model, 16, 16), D, ArchConfig(), bounds,
                model.n_classes)


@pytest.mark.parametrize("label", [-1, 3])
def test_program_rejects_labels_outside_classes(label):
    X, y = load_iris()
    model = train_tree(X, y, max_depth=3)
    plan = compile_forest(model, 16, 16)
    rows = list(plan.tmap.rows)
    rows[1] = replace(rows[1], class_label=label)
    bad = pack_tiles(ThresholdMap(tuple(rows), plan.tmap.n_features), 16, 16,
                     plan.col_perm)
    with pytest.raises(DataError, match="row class"):
        program(bad, D, ArchConfig(), model.feature_bounds, model.n_classes)


def test_leaf_only_forest_programs_no_tiles():
    # Every tree is a single leaf: no row is written into any tile and the
    # kernel has no match line to evaluate.
    X = np.random.default_rng(0).random((20, 3))
    forest = train_forest(X, np.zeros(20, dtype=int), n_trees=2, max_depth=3)
    arch = program_forest(forest)
    assert arch.plan.n_tiles == 0
    assert np.array_equal(infer_batch(arch, X), forest.predict(X))
    assert infer(arch, X[0]).ml_voltages == {}


def test_sweep_single_point_equals_direct_evaluation():
    X, y = load_iris()
    forest = train_forest(X, y, n_trees=5, max_depth=3, seed=4)
    res = sweep(forest, X, y, "sigma", [0.0], trials=1, seed=0, workers=1)
    arch = program_forest(forest, sigma_rel=0.0, seed=[0, 0, 0])
    acc, _ = evaluate_accuracy(arch, X, y)
    assert res.rows == ((0.0, 0, acc),)
    assert res.summary[0][1] == acc


def test_sweep_deterministic_and_scheduling_independent():
    X, y = load_iris()
    forest = train_forest(X, y, n_trees=5, max_depth=3, seed=4)
    kw = dict(variable="sigma", grid=[0.0, 0.05, 0.10], trials=5, seed=11)
    serial = sweep(forest, X, y, **kw, workers=1)
    threaded = sweep(forest, X, y, **kw, workers=8)
    assert serial.rows == threaded.rows
    assert serial.summary == threaded.summary


@pytest.fixture(scope="module")
def iris_forest():
    X, y = load_iris()
    return train_forest(X, y, n_trees=15, max_depth=4, seed=2), X, y


def _replay_sweep(forest, X, y, variable, grid, trials, seed, config,
                  sigma_rel=None):
    """``sweep`` rows rebuilt trial by trial through ``program`` and
    ``evaluate_accuracy``, with each grid point's kernel terms per trial as
    sets of (cell, is lower branch)."""
    rows, terms = [], []
    for i, value in enumerate(grid):
        h = int(value) if variable == "tile_h" else 16
        w = int(value) if variable == "tile_w" else 16
        nb = int(value) if variable == "n_bits" else None
        sg = float(value) if variable == "sigma" else sigma_rel
        t_eval = float(value) if variable == "t_clk" else None
        plan = compile_forest(forest, h, w)
        terms.append([])
        for trial in range(trials):
            arch = program(plan, D, config, forest.feature_bounds,
                           forest.n_classes, nb, sg, seed=[seed, i, trial])
            rng = (np.random.default_rng([seed, i, trial, 1])
                   if config.vote_sigma > 0 else None)
            acc, _ = evaluate_accuracy(arch, X, y, t_clk=t_eval, rng=rng)
            rows.append((float(value), trial, acc))
            terms[-1].append({(int(arch.active_cell[c]), not upper)
                              for c, upper in zip(arch.term_cell,
                                                  arch.term_upper)})
    return tuple(rows), terms


@pytest.mark.parametrize("n_eval", [12, 150])
@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("vote_sigma", [0.0, 0.3])
@pytest.mark.parametrize("variable", SWEEP_VARIABLES)
def test_sweep_rows_equal_per_trial_replay(variable, vote_sigma, workers,
                                           n_eval, iris_forest, monkeypatch):
    forest, X, y = iris_forest
    rng = np.random.default_rng([SWEEP_VARIABLES.index(variable),
                                 int(10 * vote_sigma), workers, n_eval])
    pick = rng.permutation(len(y))[:n_eval]
    X, y = X[pick], y[pick]
    sigma = float(rng.uniform(0.02, 0.2))
    seed = int(rng.integers(1 << 30))
    grid = {"sigma": [0.0, sigma, 0.8], "n_bits": [2, 3, 6],
            "t_clk": [1e-6, 2e-8, 5e-6], "tile_h": [4, 16],
            "tile_w": [3, 16]}[variable]
    noise = {} if variable == "sigma" else {"sigma_rel": sigma}
    config = ArchConfig(vote_sigma=vote_sigma)
    calls = []  # (programs, samples) per kernel chunk

    def recorded(arch, v_in, t, thresholds, programs, samples):
        calls.append((programs.stop - programs.start,
                      samples.stop - samples.start))
        return _sensed_words(arch, v_in, t, thresholds, programs, samples)

    monkeypatch.setattr("camforest.arch._sensed_words", recorded)
    res = sweep(forest, X, y, variable, grid, trials=4, seed=seed,
                config=config, workers=workers, **noise)
    monkeypatch.undo()
    rows, terms = _replay_sweep(forest, X, y, variable, grid, 4, seed,
                                config, **noise)
    assert res.rows == rows
    # Each point's trials and samples are one kernel chunk.
    assert all(n == n_eval for _, n in calls)
    if variable == "sigma":
        # At sigma = 0 the four trials are one program, evaluated once; at
        # 0.8 some trial's terms are a strict subset of the union's.
        assert sorted(p for p, _ in calls) == [1, 4, 4]
        assert any(own < set.union(*terms[2]) for own in terms[2])
    else:
        assert [p for p, _ in calls] == [4] * len(grid)


def _lines(arch, v_in, t):
    """(programs, samples, slots with terms) sensed bits of the kernel."""
    out = np.empty((arch.term_g.shape[1], v_in.shape[1],
                    arch.term_slots.size), dtype=bool)
    thresholds = _row_thresholds(arch, t)
    for programs, samples in _chunks(arch, v_in.shape[1]):
        lines = _unpack(_sensed_words(arch, v_in, t,
                                      thresholds[:, :, programs], programs,
                                      samples),
                        samples.stop - samples.start)
        out[programs, samples] = lines.transpose(1, 2, 0)
    return out


def test_draw_is_group_by_group_inject_noise(iris_forest):
    """One draw for all groups gives the bits of ``inject_noise`` called
    group by group on one stream, m1 before m2."""
    forest, _, _ = iris_forest
    plan = compile_forest(forest, 8, 2)
    enc = _encode(plan, D, ArchConfig(), forest.feature_bounds,
                  forest.n_classes, None)
    assert len(enc.groups) == 2
    for sigma in (0.0, 0.05, 0.8):
        m1, m2 = _draw(enc, sigma, [7, 2, 1])
        rng = np.random.default_rng([7, 2, 1])
        for cells in enc.groups:
            assert np.array_equal(m1[cells],
                                  inject_noise(enc.m1[cells], sigma, D, rng))
            assert np.array_equal(m2[cells],
                                  inject_noise(enc.m2[cells], sigma, D, rng))
        assert sigma == 0.0 or not np.array_equal(m1, enc.m1)


@pytest.mark.parametrize("t_scale", [1.0, 1e-3, 1e-5])
def test_batched_lines_bit_identical_to_replay(iris_forest, t_scale):
    """Each trial of a batch, classified on its own thresholds over the
    union of the trials' terms, senses every line, row and vote current as
    its own program does, although some union terms draw nothing in it."""
    forest, X, _ = iris_forest
    plan = compile_forest(forest, 16, 16)
    cfg = ArchConfig()
    t = cfg.t_clk * t_scale
    enc = _encode(plan, D, cfg, forest.feature_bounds, forest.n_classes, None)
    seeds = [[5, 1, trial] for trial in range(6)]
    batch = _program_trials(enc, 0.8, seeds)
    v_in = _input_voltages(batch, X)
    batched = _lines(batch, v_in, t)
    matches, currents = _evaluate_programs(batch, v_in, t, keep_matches=True)
    skipped = 0
    for trial, seed in enumerate(seeds):
        arch = program(plan, D, cfg, forest.feature_bounds, forest.n_classes,
                       sigma_rel=0.8, seed=seed)
        own = _lines(arch, v_in, t)[0]
        # Slots holding terms of other trials only match in this one.
        held = np.isin(batch.term_slots, arch.term_slots)
        assert np.all(batched[trial][:, ~held])
        assert np.array_equal(batched[trial][:, held], own)
        own_matches, own_currents, _ = _evaluate(arch, X, t_clk=t)
        assert np.array_equal(matches[trial], own_matches)
        assert np.array_equal(currents[trial].view(np.int64),
                              own_currents.view(np.int64))
        skipped += batch.term_cell.size - arch.term_cell.size
    assert skipped > 0


def _assert_same(a, b):
    """``a`` and ``b`` hold the same values: arrays bit for bit, tuples
    element by element."""
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    elif isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        assert a is b or a == b


def test_program_is_the_one_seed_program_trials(iris_forest):
    """``program`` is ``_program_trials`` of its encoding on its one seed,
    field for field."""
    forest, _, _ = iris_forest
    plan = compile_forest(forest, 8, 2)
    cfg = ArchConfig()
    arch = program(plan, D, cfg, forest.feature_bounds, forest.n_classes,
                   n_bits=5, sigma_rel=0.3, seed=[2, 5])
    enc = _encode(plan, D, cfg, forest.feature_bounds, forest.n_classes, 5)
    trials = _program_trials(enc, 0.3, [[2, 5]])
    assert type(arch) is type(trials) is ProgrammedArchitecture
    assert arch.sigma_rel == 0.3 and arch.term_g.shape[1] == 1
    for field in fields(ProgrammedArchitecture):
        _assert_same(getattr(arch, field.name), getattr(trials, field.name))


def test_noisy_cells_are_the_draw_regrouped(iris_forest):
    """A noisy program's per-group cell grids are its trial's flat draw,
    cut at the group slices and laid out (tiles, H, W)."""
    forest, _, _ = iris_forest
    plan = compile_forest(forest, 8, 2)
    assert plan.n_groups > 1
    cfg = ArchConfig()
    arch = program(plan, D, cfg, forest.feature_bounds, forest.n_classes,
                   sigma_rel=0.3, seed=[2, 5])
    enc = _encode(plan, D, cfg, forest.feature_bounds, forest.n_classes, None)
    m1, m2 = _draw(enc, 0.3, [2, 5])
    assert not np.array_equal(m1, enc.m1)
    for cells_m, flat in ((arch.cells_m1, m1), (arch.cells_m2, m2)):
        assert len(cells_m) == plan.n_groups
        for tiles, cells, grid in zip(plan.groups, enc.groups, cells_m):
            assert grid.shape == (len(tiles), 8, 2)
            _assert_same(grid, flat[cells].reshape(-1, 8, 2))


def test_sweep_point_batch_is_a_programmed_architecture(iris_forest,
                                                         monkeypatch):
    """A sweep point evaluates one ``ProgrammedArchitecture`` holding a
    term_g column per trial; a noise-free point is one program."""
    forest, X, y = iris_forest
    batches = []

    def recorded(arch, v_in, t, keep_matches=False):
        batches.append(arch)
        return _evaluate_programs(arch, v_in, t, keep_matches)

    monkeypatch.setattr("camforest.arch._evaluate_programs", recorded)
    sweep(forest, X, y, "sigma", [0.0, 0.2], trials=3, seed=1, workers=1)
    assert all(type(b) is ProgrammedArchitecture for b in batches)
    assert [b.term_g.shape[1] for b in batches] == [1, 3]
    assert [b.sigma_rel for b in batches] == [0.0, 0.2]


def test_sweep_noise_trials_vary():
    X, y = load_iris()
    forest = train_forest(X, y, n_trees=9, max_depth=4, seed=4)
    res = sweep(forest, X, y, "sigma", [0.15], trials=8, seed=3, workers=4)
    accs = [r[2] for r in res.rows]
    assert len(set(accs)) > 1


def test_sweep_validations():
    X, y = load_iris()
    forest = train_forest(X, y, n_trees=3, max_depth=3, seed=0)
    with pytest.raises(ConfigError):
        sweep(forest, X, y, "voltage", [1], trials=1, seed=0)
    with pytest.raises(ConfigError):
        sweep(forest, X, y, "sigma", [], trials=1, seed=0)
    with pytest.raises(ConfigError):
        sweep(forest, X, y, "sigma", [0.0], trials=0, seed=0)
    for variable, value in (("sigma", math.nan), ("sigma", math.inf),
                            ("t_clk", math.nan), ("t_clk", math.inf),
                            ("tile_h", math.nan), ("n_bits", 2.5),
                            ("tile_w", math.inf)):
        with pytest.raises(ConfigError):
            sweep(forest, X, y, variable, [value], trials=1, seed=0)
    assert set(SWEEP_VARIABLES) == {"sigma", "n_bits", "t_clk", "tile_h",
                                    "tile_w"}


@pytest.mark.parametrize("name, value", [
    ("workers", -2), ("workers", 0), ("workers", 2.5), ("workers", True),
    ("trials", 2.5), ("trials", True), ("trials", np.float64(3.0))])
def test_sweep_rejects_counts_it_cannot_honour(name, value):
    """Workers and trials are integers >= 1 (workers None: one per CPU); a
    negative, zero, fractional or bool count is a configuration error, not
    a serial run, a run on every CPU or a bare TypeError."""
    X, y = load_iris()
    forest = train_forest(X, y, n_trees=3, max_depth=3, seed=0)
    kw = dict(trials=2, workers=1) | {name: value}
    with pytest.raises(ConfigError, match="must be an integer >= 1"):
        sweep(forest, X, y, "sigma", [0.0, 0.1], seed=0, **kw)
    assert sweep(forest, X, y, "sigma", [0.0, 0.1], trials=np.int64(2),
                 seed=0, workers=None).rows == sweep(
        forest, X, y, "sigma", [0.0, 0.1], trials=2, seed=0,
        workers=np.int64(2)).rows


def test_n_bits_runs_to_the_last_float_half_lsb(iris_forest):
    """Half an LSB is the range over 2**(n_bits + 1), a float up to n_bits
    1022; above it programming is a configuration error, not an
    OverflowError, in ``program`` and in an n_bits sweep grid."""
    forest, X, y = iris_forest
    plan = compile_forest(forest, 16, 16)
    fine = program(plan, D, ArchConfig(), forest.feature_bounds,
                   forest.n_classes, n_bits=1022)
    assert np.array_equal(infer_batch(fine, X), forest.predict(X))
    for n_bits in (1023, 1100, 10**30):
        with pytest.raises(ConfigError, match=r"n_bits must be in \[1, 1022\]"):
            program(plan, D, ArchConfig(), forest.feature_bounds,
                    forest.n_classes, n_bits=n_bits)
    with pytest.raises(ConfigError, match="n_bits"):
        sweep(forest, X, y, "n_bits", [4, 1100], trials=1, seed=0)


def test_arch_config_validation():
    with pytest.raises(ConfigError):
        ArchConfig(t_clk=0.0)
    with pytest.raises(ConfigError):
        ArchConfig(v_sa=0.9)
    with pytest.raises(ConfigError):
        ArchConfig(vote_sigma=-1.0)
    for bad in (dict(t_clk=math.nan), dict(t_clk=math.inf),
                dict(vote_sigma=math.nan), dict(vote_sigma=math.inf)):
        with pytest.raises(ConfigError):
            ArchConfig(**bad)


def test_vote_noise_requires_rng_and_perturbs():
    X, y = load_iris()
    model = train_tree(X, y, max_depth=3)
    noisy_cfg = ArchConfig(vote_sigma=0.3)
    arch = program_forest(model, config=noisy_cfg)
    with pytest.raises(ConfigError):
        infer_batch(arch, X[:5])
    rng = np.random.default_rng(0)
    out = infer_batch(arch, X, rng=rng)
    assert out.shape == (150,)


def test_multi_group_equivalence():
    # Features spread over several W-wide groups must AND correctly.
    Xg, yg = grid_classification(300, 15, 3, seed=8)
    forest = train_forest(Xg, yg, n_trees=6, max_depth=5, seed=8)
    for w in (4, 7):
        arch = program_forest(forest, tile_h=6, tile_w=w)
        assert arch.n_active_arrays > 1
        # An empty batch gives empty results, as Forest.predict does.
        for Xe in (off_grid_inputs(120, 15, seed=9), np.empty((0, 15))):
            assert np.array_equal(infer_batch(arch, Xe), forest.predict(Xe))
            matches, currents, _ = _evaluate(arch, Xe)
            assert currents.shape == (len(Xe), forest.n_classes)
