"""Path extraction, reordering, tile packing, and schedule semantics."""

import json
import math

import numpy as np
import pytest

from camforest.datasets import (
    gaussian_blobs,
    load_iris,
    sparse_informative,
    train_test_split,
)
from camforest.device import ThresholdRange
from camforest.errors import InvariantError, ModelFormatError
from camforest.forest import Forest, Tree, to_json, train_forest, train_tree
from camforest.mapper import (
    MapRow,
    ThresholdMap,
    apply_permutations,
    compile_forest,
    extract_paths,
    map_matches,
    map_predict,
    pack_tiles,
    plan_from_json,
    plan_to_json,
    raw_cells,
    reorder,
)

INF = math.inf


def _row(ranges, label=0, tree=0):
    return MapRow(tuple(ranges), label, tree)


def _wild():
    return ThresholdRange()


def test_stump_extraction():
    stump = Forest(
        trees=(Tree.from_obj({"feature": 1, "threshold": 0.4,
                              "left": {"label": 0}, "right": {"label": 2}}),),
        n_features=3, n_classes=3,
        feature_bounds=((0, 1), (0, 1), (0, 1)),
    )
    tmap = extract_paths(stump)
    assert len(tmap.rows) == 2
    left, right = tmap.rows
    assert left.ranges[1] == ThresholdRange(-INF, 0.4) and left.class_label == 0
    assert right.ranges[1] == ThresholdRange(0.4, INF) and right.class_label == 2
    for row in tmap.rows:
        assert row.ranges[0].wildcard and row.ranges[2].wildcard


def test_iris_tree_row_count_and_two_sided_range():
    X, y = load_iris()
    model = train_tree(X, y, max_depth=4)
    tmap = extract_paths(model)
    assert len(tmap.rows) == model.trees[0].n_leaves()
    two_sided = [
        r for row in tmap.rows for r in row.ranges
        if math.isfinite(r.lo) and math.isfinite(r.hi)
    ]
    # A feature reused along one path yields a bounded two-sided range.
    assert two_sided
    for r in two_sided:
        assert r.lo < r.hi


def test_matching_rows_are_one_per_tree_with_tree_class():
    rng = np.random.default_rng(17)
    for seed in range(5):
        X = rng.uniform(0, 1, size=(120, 5))
        y = rng.integers(0, 3, size=120)
        forest = train_forest(X, y, n_trees=6, max_depth=4, seed=seed)
        tmap = extract_paths(forest)
        samples = rng.uniform(0, 1, size=(100, 5))
        matched = map_matches(tmap, samples)
        tree_idx = np.array([row.tree_index for row in tmap.rows])
        labels = np.array([row.class_label for row in tmap.rows])
        for s in range(samples.shape[0]):
            hit = np.nonzero(matched[s])[0]
            assert np.array_equal(np.sort(tree_idx[hit]),
                                  np.arange(len(forest.trees)))
            for t, tree in enumerate(forest.trees):
                k = hit[tree_idx[hit] == t][0]
                assert labels[k] == tree.predict(samples[s:s + 1])[0]


def test_map_predict_equals_forest_predict():
    rng = np.random.default_rng(23)
    X = rng.uniform(0, 1, size=(150, 4))
    y = rng.integers(0, 3, size=150)
    forest = train_forest(X, y, n_trees=9, max_depth=5, seed=3)
    tmap = extract_paths(forest)
    samples = rng.uniform(0, 1, size=(400, 4))
    assert np.array_equal(map_predict(tmap, samples, 3),
                          forest.predict(samples))


def test_contradictory_path_rejected():
    bad = Forest(
        trees=(Tree.from_obj(
            {"feature": 0, "threshold": 0.5,
             "left": {"feature": 0, "threshold": 0.8,
                      "left": {"label": 0}, "right": {"label": 1}},
             "right": {"label": 1}}),),
        n_features=1, n_classes=2, feature_bounds=((0, 1),),
    )
    with pytest.raises(InvariantError):
        extract_paths(bad)


def _random_tree_obj(rng, n_features, n_classes, depth, grid):
    """Random model-format tree; each feature draws its thresholds from
    three grid values, so one feature repeats thresholds along a path."""
    if depth == 0 or rng.random() < 0.3:
        return {"label": int(rng.integers(n_classes))}
    f = int(rng.integers(n_features))
    return {"feature": f, "threshold": float(rng.choice(grid[f])),
            "left": _random_tree_obj(rng, n_features, n_classes, depth - 1,
                                     grid),
            "right": _random_tree_obj(rng, n_features, n_classes, depth - 1,
                                      grid)}


def _leaf_paths(node, path=()):
    """Recursive reference: (path, class) per leaf, left to right; a path
    lists (feature, threshold, went_left) per split."""
    if "label" in node:
        return [(path, node["label"])]
    f, th = node["feature"], node["threshold"]
    return (_leaf_paths(node["left"], path + ((f, th, True),))
            + _leaf_paths(node["right"], path + ((f, th, False),)))


def test_extract_paths_matches_recursive_reference_on_random_forests():
    rng = np.random.default_rng(31)
    seen = {"leaf_only": 0, "single_split": 0, "repeat": 0, "bad": 0}
    for _ in range(300):
        n_features = int(rng.integers(1, 4))
        grid = [np.round(rng.uniform(-1, 1, 3), 2) for _ in range(n_features)]
        objs = [_random_tree_obj(rng, n_features, 3, int(rng.integers(0, 5)),
                                 grid)
                for _ in range(int(rng.integers(1, 4)))]
        forest = Forest(trees=tuple(Tree.from_obj(o) for o in objs),
                        n_features=n_features, n_classes=3,
                        feature_bounds=((-1.0, 1.0),) * n_features)
        paths = [(path, label, t) for t, obj in enumerate(objs)
                 for path, label in _leaf_paths(obj)]
        # Each path's range is the tightest of its ancestors' thresholds:
        # the largest one turned right from, the smallest one turned left.
        lo = [[max([th for g, th, left in path if g == f and not left],
                   default=-math.inf) for f in range(n_features)]
              for path, _, _ in paths]
        hi = [[min([th for g, th, left in path if g == f and left],
                   default=math.inf) for f in range(n_features)]
              for path, _, _ in paths]
        if not np.all(np.array(lo) < np.array(hi)):
            seen["bad"] += 1
            with pytest.raises(InvariantError):
                extract_paths(forest)
            continue
        tmap = extract_paths(forest)
        assert tmap.lo.tolist() == lo and tmap.hi.tolist() == hi
        assert tmap.labels.tolist() == [label for _, label, _ in paths]
        assert [row.tree_index for row in tmap.rows] == \
            [t for _, _, t in paths]
        seen["leaf_only"] += sum("label" in obj for obj in objs)
        for path, _, _ in paths:
            features = [f for f, _, _ in path]
            seen["single_split"] += len(path) == 1
            seen["repeat"] += len(set(features)) < len(features)
    assert min(seen.values()) > 0, seen


def _benchmark_forest(name):
    """The forests of the benchmark's three workloads."""
    if name == "iris":
        return train_forest(*load_iris(), n_trees=15, max_depth=4, seed=0)
    F = int(name[-2:])
    X, y, _, _ = train_test_split(*gaussian_blobs(7000, F, 4, 0),
                                  test_fraction=5 / 7, seed=0)
    return train_forest(X, y, n_trees=32 if F == 16 else 64,
                        max_depth=6 if F == 16 else 8, seed=0)


@pytest.mark.parametrize("name", ["iris", "blobs16", "wide64"])
def test_array_map_equals_row_map_and_round_trips(name):
    """extract_paths and apply_permutations build arrays only; their maps
    equal maps built from MapRows of the recursive reference, and their
    lazily built rows are those rows."""
    forest = _benchmark_forest(name)
    n_features = forest.n_features
    rows = []
    for t, obj in enumerate(json.loads(to_json(forest))["trees"]):
        for path, label in _leaf_paths(obj):
            ranges = []
            for f in range(n_features):
                lo = max([th for g, th, left in path if g == f and not left],
                         default=-INF)
                hi = min([th for g, th, left in path if g == f and left],
                         default=INF)
                ranges.append(ThresholdRange(lo, hi))
            rows.append(MapRow(tuple(ranges), label, t))
    reference = ThresholdMap(rows, n_features)
    tmap = extract_paths(forest)
    assert tmap == reference and tmap.rows == reference.rows
    assert tmap.n_rows == len(rows) and tmap.trees.tolist() == [
        row.tree_index for row in rows]
    col_perm, row_perm, new = reorder(tmap, group_width=16)
    permuted = ThresholdMap(
        [MapRow(tuple(rows[r].ranges[c] for c in col_perm),
                rows[r].class_label, rows[r].tree_index) for r in row_perm],
        n_features)
    assert new == permuted and new.rows == permuted.rows
    assert np.array_equal(new.occupied, permuted.occupied)
    plan = pack_tiles(new, 16, 16, col_perm)
    text = plan_to_json(plan, feature_bounds=forest.feature_bounds)
    back, _ = plan_from_json(text)
    assert back == plan and plan_to_json(back, forest.feature_bounds) == text


def test_reorder_untouched_feature_lands_rightmost():
    rows = (
        _row([ThresholdRange(0.1, 0.5), _wild(), ThresholdRange(hi=0.7)]),
        _row([ThresholdRange(hi=0.3), _wild(), _wild()]),
    )
    tmap = ThresholdMap(rows, 3)
    col_perm, _, new = reorder(tmap)
    assert col_perm[-1] == 1
    assert new.occupancy()[-1] == 0


def test_reorder_identity_when_occupancy_equal():
    rows = (
        _row([ThresholdRange(hi=0.5), ThresholdRange(hi=0.5)]),
        _row([ThresholdRange(0.5, INF), ThresholdRange(0.5, INF)]),
    )
    tmap = ThresholdMap(rows, 2)
    col_perm, row_perm, new = reorder(tmap)
    assert list(col_perm) == [0, 1]
    assert list(row_perm) == [0, 1]
    assert new == tmap


def test_reorder_column_occupancy_non_increasing_on_wide_map():
    X, y = sparse_informative(300, 64, 6, 3, seed=1)
    forest = train_forest(X, y, n_trees=8, max_depth=6, seed=1)
    tmap = extract_paths(forest)
    _, _, new = reorder(tmap, group_width=16)
    counts = new.occupancy()
    assert np.all(np.diff(counts) <= 0)


def test_reorder_round_trips_through_inverse_permutations():
    rng = np.random.default_rng(8)
    X = rng.uniform(0, 1, size=(80, 6))
    y = rng.integers(0, 3, size=80)
    tmap = extract_paths(train_forest(X, y, n_trees=4, max_depth=4, seed=2))
    col_perm, row_perm, new = reorder(tmap, group_width=2)
    restored = apply_permutations(new, np.argsort(col_perm),
                                  np.argsort(row_perm))
    assert restored == tmap


def test_pack_single_full_tile():
    rows = tuple(
        _row([ThresholdRange(0.1 * i, 0.1 * i + 0.5) for _ in range(4)])
        for i in range(1, 5)
    )
    plan = pack_tiles(ThresholdMap(rows, 4), tile_h=4, tile_w=4)
    assert plan.n_tiles == 1
    assert plan.memory_cells == 16
    assert plan.groups[0][0] == (0, 1, 2, 3)


def test_pack_skips_rows_without_occupied_cells_in_group():
    rows = (
        _row([ThresholdRange(hi=0.5), _wild()]),
        _row([_wild(), ThresholdRange(0.5, INF)]),
        _row([ThresholdRange(0.2, INF), _wild()]),
    )
    plan = pack_tiles(ThresholdMap(rows, 2), tile_h=2, tile_w=1)
    assert plan.groups[0] == ((0, 2),)
    assert plan.groups[1] == ((1,),)
    assert plan.memory_cells == 2 * 2 * 1


def test_pack_counts_padding_in_memory_cells():
    rows = tuple(_row([ThresholdRange(hi=0.5)]) for _ in range(5))
    plan = pack_tiles(ThresholdMap(rows, 1), tile_h=4, tile_w=1)
    assert plan.n_tiles == 2          # 4 + 1 rows
    assert plan.memory_cells == 8     # second tile padded to full height


def test_raw_cell_count_formula():
    rows = tuple(_row([_wild()] * 256) for _ in range(2000))
    assert raw_cells(ThresholdMap(rows, 256)) == 2000 * 256 == 512_000


def test_reordered_packing_never_larger_unreordered():
    rng = np.random.default_rng(31)
    for seed in range(4):
        X = rng.uniform(0, 1, size=(150, 12))
        y = rng.integers(0, 3, size=150)
        forest = train_forest(X, y, n_trees=6, max_depth=5, seed=seed)
        tmap = extract_paths(forest)
        for h, w in ((4, 4), (8, 4), (6, 3)):
            plain = pack_tiles(tmap, h, w)
            col_perm, _, newmap = reorder(tmap, group_width=w)
            packed = pack_tiles(newmap, h, w, col_perm)
            assert packed.memory_cells <= plain.memory_cells


def _random_map(rng, n_rows, n_features):
    """Random ranges: wildcard, lower-only, upper-only or two-sided cells,
    with a share of fully wildcard rows."""
    rows = []
    for r in range(n_rows):
        p_wild = 1.0 if rng.random() < 0.2 else rng.uniform(0.2, 0.9)
        ranges = []
        for _ in range(n_features):
            lo, hi = np.sort(rng.uniform(0, 1, 2))
            kind = 0 if rng.random() < p_wild else int(rng.integers(1, 4))
            ranges.append(ThresholdRange(lo if kind & 1 else -INF,
                                         hi if kind & 2 else INF))
        rows.append(_row(ranges, int(rng.integers(0, 3)), r % 4))
    return ThresholdMap(tuple(rows), n_features)


def _reorder_oracle(occ, n_features, w):
    """Documented sort keys, in plain Python: columns by descending
    occupancy (stable); rows by leftmost occupied group (fully wildcard
    rows last), then descending occupied count, then index."""
    counts = [sum(row[c] for row in occ) for c in range(n_features)]
    col_perm = sorted(range(n_features), key=lambda c: -counts[c])
    keys = []
    for i, row in enumerate(occ):
        hits = [j for j, c in enumerate(col_perm) if row[c]]
        group = hits[0] // w if hits else math.ceil(n_features / w)
        keys.append((group, -len(hits), i))
    return col_perm, [k[2] for k in sorted(keys)]


def _pack_oracle(occ, n_features, h, w):
    """Greedy top-to-bottom sweep, in plain Python."""
    groups = []
    for start in range(0, n_features, w):
        tiles, current = [], []
        for r, row in enumerate(occ):
            if any(row[start:start + w]):
                current.append(r)
                if len(current) == h:
                    tiles.append(tuple(current))
                    current = []
        if current:
            tiles.append(tuple(current))
        groups.append(tuple(tiles))
    return tuple(groups)


def test_reorder_and_pack_match_plain_python_oracle():
    rng = np.random.default_rng(61)
    shapes = [(0, 5, 2, 3), (4, 7, 1, 3), (6, 5, 3, 5), (12, 10, 2, 4)]
    shapes += [(int(rng.integers(0, 25)), int(rng.integers(1, 14)),
                int(rng.integers(1, 5)), int(rng.integers(1, 6)))
               for _ in range(150)]
    for n_rows, n_features, h, w in shapes:
        tmap = _random_map(rng, n_rows, n_features)
        occ = [[not r.wildcard for r in row.ranges] for row in tmap.rows]
        assert tmap.occupied.tolist() == [row.occupied().tolist()
                                          for row in tmap.rows] == occ
        col_perm, row_perm, new = reorder(tmap, group_width=w)
        want_cols, want_rows = _reorder_oracle(occ, n_features, w)
        assert col_perm.tolist() == want_cols
        assert row_perm.tolist() == want_rows
        new_occ = [[occ[r][c] for c in want_cols] for r in want_rows]
        assert new.occupied.tolist() == new_occ
        assert pack_tiles(new, h, w, col_perm).groups == \
            _pack_oracle(new_occ, n_features, h, w)
        assert pack_tiles(tmap, h, w).groups == \
            _pack_oracle(occ, n_features, h, w)


def test_removing_wildcard_row_or_column_never_increases_cells():
    rng = np.random.default_rng(41)
    X = rng.uniform(0, 1, size=(100, 6))
    y = rng.integers(0, 2, size=100)
    tmap = extract_paths(train_forest(X, y, n_trees=4, max_depth=3, seed=1))
    # Append a fully wildcard row and an untouched column.
    rows = tmap.rows + (_row([_wild()] * 6, label=0, tree=99),)
    wide_rows = tuple(
        MapRow(r.ranges + (_wild(),), r.class_label, r.tree_index)
        for r in rows
    )
    big = ThresholdMap(wide_rows, 7)

    def packed_cells(m, w=3, h=4):
        cp, _, nm = reorder(m, group_width=w)
        return pack_tiles(nm, h, w, cp).memory_cells

    no_row = ThresholdMap(wide_rows[:-1], 7)
    no_col = ThresholdMap(rows, 6)
    assert packed_cells(no_row) <= packed_cells(big)
    assert packed_cells(no_col) <= packed_cells(big)


def test_schedule_and_evaluation_matches_untiled_oracle():
    rng = np.random.default_rng(53)
    X = rng.uniform(0, 1, size=(200, 7))
    y = rng.integers(0, 3, size=200)
    forest = train_forest(X, y, n_trees=5, max_depth=5, seed=4)
    plan = compile_forest(forest, tile_h=4, tile_w=3)
    # The groups holding each row, read from the packed layout; a row
    # matches implicitly in every other group.
    row_groups = [[] for _ in plan.tmap.rows]
    for g, tiles in enumerate(plan.groups):
        for tile in tiles:
            for r in tile:
                row_groups[r].append(g)
    samples = rng.uniform(-0.1, 1.1, size=(500, 7))

    # Ideal per-slot evaluation: a tile slot matches iff every cell of that
    # row accepts the (permuted) input restricted to the group's columns.
    lo, hi = plan.tmap.lo, plan.tmap.hi
    perm_x = samples[:, list(plan.col_perm)]
    cell_ok = (perm_x[:, None, :] > lo) & (perm_x[:, None, :] <= hi)

    def slot_matches(s, g, r):
        cols = plan.group_columns(g)
        return bool(np.all(cell_ok[s, r, cols.start:cols.stop]))

    direct = map_matches(plan.tmap, perm_x)
    for s in range(0, 500, 7):
        for r, groups in enumerate(row_groups):
            via_tiles = all(slot_matches(s, g, r) for g in groups)
            assert via_tiles == direct[s, r]


def test_plan_json_round_trip():
    X, y = load_iris()
    forest = train_forest(X, y, n_trees=3, max_depth=3, seed=0)
    plan = compile_forest(forest, tile_h=8, tile_w=4)
    text = plan_to_json(plan, feature_bounds=forest.feature_bounds)
    back, bounds = plan_from_json(text)
    assert back == plan
    assert bounds == forest.feature_bounds
    assert plan_to_json(back, feature_bounds=bounds) == text


def test_plan_json_rejects_malformed():
    X, y = load_iris()
    plan = compile_forest(train_tree(X, y, max_depth=2), 4, 4)
    text = plan_to_json(plan)
    with pytest.raises(ModelFormatError):
        plan_from_json("{}")
    with pytest.raises(ModelFormatError, match="nested"):
        plan_from_json("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ModelFormatError):
        plan_from_json(text.replace('"version": 1', '"version": 5'))
    with pytest.raises(ModelFormatError):
        plan_from_json(text.replace('"memory_cells": ', '"memory_cells": 1'))


@pytest.mark.parametrize("field, value, message", [
    ("rows", [], "no rows"), ("class", -1, "non-negative"),
    ("tree", -2, "non-negative"), ("class", 1.9, "class must be an integer"),
    ("class", True, "class must be an integer"),
    ("tree", 0.0, "tree must be an integer"),
    ("tree", "0", "tree must be an integer"),
    ("n_features", 4.0, "n_features must be an integer"),
    ("tile_h", 16.7, "tile_h must be an integer"),
    ("tile_w", True, "tile_w must be an integer"),
    ("col_perm", [0.0, 1, 2, 3], "col_perm entry must be an integer")])
def test_plan_json_rejects_bad_rows(field, value, message):
    X, y = load_iris()
    obj = json.loads(plan_to_json(compile_forest(train_tree(X, y, max_depth=2),
                                                 4, 4)))
    if field == "rows":
        # An empty map with a layout that agrees with it.
        obj["rows"], obj["memory_cells"] = value, 0
        obj["groups"] = [[] for _ in obj["groups"]]
    elif field in obj:
        obj[field] = value
    else:
        obj["rows"][-1][field] = value
    with pytest.raises(ModelFormatError, match=message):
        plan_from_json(json.dumps(obj))


@pytest.mark.parametrize("bound", [[1.0, 1.0], [2.0, 1.0], [0.0, math.inf],
                                   [-math.inf, 1.0], [math.nan, 1.0], None,
                                   ["0", "1"], [True, 2.0]])
def test_plan_json_rejects_bad_feature_bounds(bound):
    X, y = load_iris()
    forest = train_forest(X, y, n_trees=3, max_depth=3, seed=0)
    plan = compile_forest(forest, tile_h=8, tile_w=4)
    obj = json.loads(plan_to_json(plan, feature_bounds=forest.feature_bounds))
    if bound is None:
        del obj["feature_bounds"][1]
    else:
        obj["feature_bounds"][1] = bound
    with pytest.raises(ModelFormatError, match="feature_bounds"):
        plan_from_json(json.dumps(obj))


def test_pack_rejects_bad_col_perm():
    rows = (_row([_wild(), ThresholdRange(hi=1.0)]),)
    with pytest.raises(InvariantError):
        pack_tiles(ThresholdMap(rows, 2), 2, 2, col_perm=(0, 0))
