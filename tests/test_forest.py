"""Trainer, prediction, and serialization of trees and forests."""

import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from camforest import forest as forest_module
from camforest.datasets import gaussian_blobs, load_iris, train_test_split
from camforest.errors import ConfigError, DataError, ModelFormatError
from camforest.forest import (
    MAX_DEPTH,
    Forest,
    Tree,
    from_json,
    to_json,
    train_forest,
    train_tree,
)


def _tree_objs(forest):
    """Model-format tree objects, read back from the serialised model."""
    return json.loads(to_json(forest))["trees"]


def _traverse(node, x):
    """Independent reference for tree prediction over a tree object."""
    while "label" not in node:
        node = node["left" if x[node["feature"]] <= node["threshold"]
                    else "right"]
    return node["label"]


def _reference_votes(objs, n_classes, x):
    votes = [0] * n_classes
    for obj in objs:
        votes[_traverse(obj, x)] += 1
    return votes


def _forest_reference(forest, X):
    objs = _tree_objs(forest)
    preds = []
    for x in X:
        votes = _reference_votes(objs, forest.n_classes, x)
        preds.append(votes.index(max(votes)))
    return np.array(preds)


def _recursive_depth(node):
    if "label" in node:
        return 0
    return 1 + max(_recursive_depth(node["left"]),
                   _recursive_depth(node["right"]))


def _recursive_leaves(node):
    if "label" in node:
        return 1
    return _recursive_leaves(node["left"]) + _recursive_leaves(node["right"])


def _random_obj(rng, n_features, n_classes, depth, grid):
    """Random tree object; thresholds come from a small per-feature grid,
    so splits repeat values and inputs can sit exactly on them."""
    if depth == 0 or rng.random() < 0.2:
        return {"label": int(rng.integers(n_classes))}
    f = int(rng.integers(n_features))
    return {"feature": f, "threshold": float(rng.choice(grid[f])),
            "left": _random_obj(rng, n_features, n_classes, depth - 1, grid),
            "right": _random_obj(rng, n_features, n_classes, depth - 1, grid)}


def _assert_same_tables(a, b):
    for name in ("feature", "left", "right", "label"):
        assert getattr(a, name).dtype == getattr(b, name).dtype
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.threshold.dtype == b.threshold.dtype == float
    assert np.array_equal(a.threshold.view(np.int64),
                          b.threshold.view(np.int64))
    assert a.n_levels == b.n_levels


def _brute_force_stump(X, y, n_classes):
    """Exhaustive best (weighted Gini) over all features and midpoints."""
    n = len(y)
    best = math.inf
    for f in range(X.shape[1]):
        vals = np.unique(X[:, f])
        for a, b in zip(vals[:-1], vals[1:]):
            th = 0.5 * (a + b)
            mask = X[:, f] <= th
            g = 0.0
            for part in (y[mask], y[~mask]):
                counts = np.bincount(part, minlength=n_classes)
                p = counts / len(part)
                g += len(part) / n * (1.0 - np.sum(p * p))
            best = min(best, g)
    return best


def _weighted_gini(X, y, node, n_classes):
    mask = X[:, node["feature"]] <= node["threshold"]
    g = 0.0
    for part in (y[mask], y[~mask]):
        counts = np.bincount(part, minlength=n_classes)
        p = counts / len(part)
        g += len(part) / len(y) * (1.0 - np.sum(p * p))
    return g


def test_stump_matches_brute_force_split():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, size=(40, 3))
        y = rng.integers(0, 3, size=40)
        model = train_tree(X, y, max_depth=1, n_classes=3)
        root = _tree_objs(model)[0]
        if "label" in root:
            # Degenerate: no split can improve; brute force must agree.
            counts = np.bincount(y, minlength=3)
            p = counts / 40
            assert _brute_force_stump(X, y, 3) >= 1 - np.sum(p * p) - 1e-12
            continue
        assert _weighted_gini(X, y, root, 3) == pytest.approx(
            _brute_force_stump(X, y, 3), abs=1e-12)


def test_separable_stump_threshold_between_clusters():
    X = np.array([[0.1], [0.2], [0.3], [0.7], [0.8], [0.9]])
    y = np.array([0, 0, 0, 1, 1, 1])
    model = train_tree(X, y, max_depth=1)
    root = _tree_objs(model)[0]
    assert "label" not in root
    assert 0.3 < root["threshold"] < 0.7
    assert root["left"] == {"label": 0} and root["right"] == {"label": 1}


def test_deep_tree_fits_training_data():
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 1, size=(60, 4))
    y = rng.integers(0, 3, size=60)
    model = train_tree(X, y, max_depth=30)
    assert np.array_equal(model.predict(X), y)


def test_max_depth_respected():
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 1, size=(200, 5))
    y = rng.integers(0, 4, size=200)
    for depth in (1, 2, 3):
        model = train_tree(X, y, max_depth=depth)
        assert model.trees[0].depth() <= depth
    forest = train_forest(X, y, n_trees=5, max_depth=3, seed=0)
    assert all(t.depth() <= 3 for t in forest.trees)


def test_max_depth_cap_trains_and_round_trips():
    """A tree at the depth cap trains, serialises and parses back under the
    default recursion limit; one level more is a configuration error."""
    X = np.arange(1500.0)[:, None]
    y = np.zeros(1500, dtype=int)
    y[::3] = 1
    model = train_tree(X, y, max_depth=MAX_DEPTH)
    assert model.trees[0].depth() == MAX_DEPTH
    back = from_json(to_json(model))
    assert back.trees[0].depth() == MAX_DEPTH
    assert np.array_equal(back.predict(X), model.predict(X))
    for train in (train_tree, train_forest):
        with pytest.raises(ConfigError, match="max_depth"):
            train(X, y, max_depth=MAX_DEPTH + 1)


def test_split_midpoint_of_huge_values_stays_finite():
    """Where a + b overflows, the split lies at 0.5 * a + 0.5 * b (pytest
    turns an overflow warning into an error)."""
    for X, y in (([[1.0e308], [1.7e308]], [0, 1]),
                 ([[-1.7e308], [-1.0e308]], [1, 0])):
        model = train_tree(X, y)
        assert model.trees[0].threshold[0] == 0.5 * X[0][0] + 0.5 * X[1][0]
        assert np.array_equal(model.predict(X), y)
        assert np.array_equal(from_json(to_json(model)).predict(X), y)


@pytest.mark.parametrize("max_depth", [1, 2, 3])
@pytest.mark.parametrize("low", [123.456, 1.0], ids=["odd", "even"])
def test_adjacent_float_split_leaves_no_empty_child(low, max_depth):
    """The midpoint of two adjacent floats rounds onto the upper one when
    the lower's last mantissa bit is odd (123.456), else onto the lower
    (1.0). Either way the split's threshold is the lower value, so each
    child holds one of the two."""
    high = float(np.nextafter(low, np.inf))
    assert (0.5 * (low + high) == high) == (low == 123.456)
    X, y = np.array([[low], [high]]), np.array([0, 1])
    tree = train_tree(X, y, max_depth=max_depth)
    assert tree.trees[0].threshold[0] == low
    assert np.array_equal(tree.predict(X), y)
    assert to_json(tree) == _oracle_json(tree, X, y, max_depth)
    for seed in range(5):
        model = train_forest(X, y, n_trees=6, max_depth=max_depth, seed=seed)
        assert to_json(model) == _oracle_json(model, X, y, max_depth, 6, seed)


def test_single_sample_gives_leaf():
    model = train_forest(np.array([[1.0, 2.0]]), np.array([1]),
                         n_trees=3, max_depth=4, n_classes=2)
    for obj in _tree_objs(model):
        assert obj == {"label": 1}


def test_constant_labels_give_single_leaf():
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 1, size=(30, 3))
    model = train_tree(X, np.full(30, 2), max_depth=5)
    assert _tree_objs(model) == [{"label": 2}]


def test_iris_tree_accuracy():
    X, y = load_iris()
    model = train_tree(X, y, max_depth=3)
    acc = float(np.mean(model.predict(X) == y))
    assert acc >= 0.9


def test_iris_forest_close_to_reference_trainer():
    sklearn = pytest.importorskip("sklearn.ensemble")
    X, y = load_iris()
    X_tr, y_tr, X_te, y_te = train_test_split(X, y, 0.25, seed=5)
    ours = train_forest(X_tr, y_tr, n_trees=15, max_depth=4, seed=7)
    acc = float(np.mean(ours.predict(X_te) == y_te))
    ref = sklearn.RandomForestClassifier(
        n_estimators=15, max_depth=4, random_state=7).fit(X_tr, y_tr)
    ref_acc = float(np.mean(ref.predict(X_te) == y_te))
    assert abs(acc - ref_acc) <= 0.08
    assert acc >= 0.85


def test_forest_prediction_matches_reference_traversal():
    rng = np.random.default_rng(9)
    for seed in range(5):
        X = rng.uniform(0, 1, size=(80, 6))
        y = rng.integers(0, 3, size=80)
        forest = train_forest(X, y, n_trees=7, max_depth=4, seed=seed)
        X_eval = rng.uniform(-0.2, 1.2, size=(250, 6))
        assert np.array_equal(forest.predict(X_eval),
                              _forest_reference(forest, X_eval))


def test_table_walk_matches_recursive_reference_on_random_forests():
    rng = np.random.default_rng(21)
    ties = on_threshold = leaf_only = 0
    for case in range(60):
        n_features = int(rng.integers(1, 6))
        n_classes = int(rng.integers(1, 4))
        grid = [np.round(rng.uniform(-1, 1, 4), 2) for _ in range(n_features)]
        # Single trees, leaf-only trees (depth 0) and even tree counts,
        # whose votes can tie.
        n_trees = 1 if case % 3 == 0 else int(rng.integers(2, 7))
        objs = [_random_obj(rng, n_features, n_classes,
                            int(rng.integers(0, 7)), grid)
                for _ in range(n_trees)]
        trees = tuple(Tree.from_obj(obj) for obj in objs)
        forest = Forest(trees=trees, n_features=n_features,
                        n_classes=n_classes,
                        feature_bounds=((-1.0, 1.0),) * n_features)
        # Every split threshold, one ulp either side of it, and values
        # between: the threshold itself must go left.
        columns = []
        for g in grid:
            values = np.concatenate([g, np.nextafter(g, -np.inf),
                                     np.nextafter(g, np.inf),
                                     rng.uniform(-1.2, 1.2, 4)])
            columns.append(rng.choice(values, size=300))
        X = np.stack(columns, axis=1)
        for t, obj in zip(trees, objs):
            leaf_only += "label" in obj
            assert t.to_obj() == obj
            assert t.depth() == _recursive_depth(obj)
            assert t.n_leaves() == _recursive_leaves(obj)
            assert np.array_equal(t.predict(X),
                                  [_traverse(obj, x) for x in X])
        for a, b in zip(trees, from_json(to_json(forest)).trees):
            _assert_same_tables(a, b)
        votes = forest.votes(X)
        reference = [_reference_votes(objs, n_classes, x) for x in X]
        assert np.array_equal(votes, reference)
        assert np.array_equal(forest.predict(X), _forest_reference(forest, X))
        ties += sum(sorted(v)[-2:] == [max(v)] * 2 for v in reference
                    if len(v) > 1)
        on_threshold += int(np.isin(X, np.concatenate(grid)).any(1).sum())
    assert ties > 0 and on_threshold > 0 and leaf_only > 0


def _oracle_best_split(X, y, feat_ids, n_classes):
    """The trainer's split search before features were ranked once: one
    stable float argsort per candidate feature, scanned feature by
    feature. Returns (feature, threshold, weighted_gini) or None."""
    n = y.size
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    best = None
    for f in feat_ids:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        prefix = np.cumsum(onehot[order], axis=0)
        cut = np.nonzero(xs[:-1] < xs[1:])[0]
        if cut.size == 0:
            continue
        left = prefix[cut]
        right = prefix[-1] - left
        n_l = cut + 1.0
        n_r = n - n_l
        g_l = 1.0 - np.sum((left / n_l[:, None]) ** 2, axis=1)
        g_r = 1.0 - np.sum((right / n_r[:, None]) ** 2, axis=1)
        weighted = (n_l * g_l + n_r * g_r) / n
        k = int(np.argmin(weighted))
        if best is None or weighted[k] < best[2] - 1e-15:
            th = 0.5 * (xs[cut[k]] + xs[cut[k] + 1])
            if th >= xs[cut[k] + 1]:
                th = xs[cut[k]]     # a midpoint rounded onto the upper value
            best = (int(f), float(th), float(weighted[k]))
    return best


def _oracle_grow(X, y, depth, max_depth, n_classes, max_features, rng):
    """Model-format subtree grown on copies of the node's rows."""
    counts = np.bincount(y, minlength=n_classes)
    p = counts / max(y.size, 1)
    node_gini = float(1.0 - np.sum(p * p)) if y.size else 0.0
    leaf = {"label": int(np.argmax(counts))}
    if depth >= max_depth or node_gini == 0.0 or y.size < 2:
        return leaf
    n_feat = X.shape[1]
    if max_features < n_feat:
        feat_ids = np.sort(rng.choice(n_feat, size=max_features, replace=False))
    else:
        feat_ids = np.arange(n_feat)
    best = _oracle_best_split(X, y, feat_ids, n_classes)
    if best is None or best[2] >= node_gini - 1e-15:
        return leaf
    f, th, _ = best
    mask = X[:, f] <= th
    return {"feature": f, "threshold": th,
            "left": _oracle_grow(X[mask], y[mask], depth + 1, max_depth,
                                 n_classes, max_features, rng),
            "right": _oracle_grow(X[~mask], y[~mask], depth + 1, max_depth,
                                  n_classes, max_features, rng)}


def _oracle_json(model, X, y, max_depth, n_trees=None, seed=0):
    """to_json of the oracle's forest (``n_trees`` None: ``train_tree``)."""
    k = model.n_classes
    if n_trees is None:
        roots = [_oracle_grow(X, y, 0, max_depth, k, X.shape[1], None)]
    else:
        m = max(1, math.isqrt(X.shape[1]))
        roots = []
        for t in range(n_trees):
            rng = np.random.default_rng([seed, t])
            idx = rng.integers(0, X.shape[0], size=X.shape[0])
            roots.append(_oracle_grow(X[idx], y[idx], 0, max_depth, k, m, rng))
    return to_json(Forest(trees=tuple(Tree.from_obj(r) for r in roots),
                          n_features=X.shape[1], n_classes=k,
                          feature_bounds=model.feature_bounds))


def _tie_heavy_data(rng, n, n_features, n_classes):
    """Rows drawn with replacement from a small base, so rows repeat; each
    feature is constant, 1-5 integer levels, two adjacent floats (their
    midpoint rounds onto one of them) or continuous."""
    base = max(1, int(rng.integers(1, n + 1)) // 2)
    columns = []
    for _ in range(n_features):
        kind = int(rng.integers(4))
        if kind == 0:
            col = np.full(base, float(rng.integers(-3, 4)))
        elif kind == 1:
            col = rng.integers(0, int(rng.integers(1, 6)), base).astype(float)
        elif kind == 2:
            v = rng.uniform(-2, 2)
            col = rng.choice([v, np.nextafter(v, np.inf)], base)
        else:
            col = np.round(rng.normal(size=base), 3)
        columns.append(col)
    Xb = np.stack(columns, axis=1)
    yb = rng.integers(0, n_classes, base)
    pick = rng.integers(0, base, n)
    return Xb[pick], yb[pick]


def test_ranked_trainer_matches_oracle_byte_for_byte():
    rng = np.random.default_rng(2024)
    ties = duplicates = wide_class_splits = extra_classes = 0
    for case in range(90):
        n = 1 if case % 15 == 0 else int(rng.integers(2, 160))
        n_features = int(rng.integers(1, 7))
        n_classes = int(rng.integers(2, 13))
        X, y = _tie_heavy_data(rng, n, n_features, n_classes)
        ties += any(np.unique(X[:, f]).size < n for f in range(n_features))
        duplicates += np.unique(X, axis=0).shape[0] < n
        explicit = None  # or a class count up to 2 above the labels seen
        if case % 4 == 0:
            explicit = int(y.max()) + 1 + int(rng.integers(0, 3))
            extra_classes += explicit > y.max() + 1
        max_depth = int(rng.integers(1, 9))
        tree = train_tree(X, y, max_depth=max_depth, n_classes=explicit)
        assert to_json(tree) == _oracle_json(tree, X, y, max_depth)
        seed = int(rng.integers(1000))
        n_trees = int(rng.integers(1, 4))
        forest = train_forest(X, y, n_trees=n_trees, max_depth=max_depth,
                              seed=seed, n_classes=explicit)
        assert to_json(forest) == _oracle_json(forest, X, y, max_depth,
                                               n_trees, seed)
        if forest.n_classes >= 8:
            wide_class_splits += sum(t.n_leaves() - 1 for t in forest.trees)
    assert ties and duplicates and extra_classes and wide_class_splits


def test_ranked_trainer_matches_oracle_on_mirrored_gini_ties():
    # Labels h, then h reversed under a class swap π with π(π(c)) = c: the
    # cut after row p and the one after row n - p have equal Gini in exact
    # arithmetic, and the class sum's rounding decides between them. With
    # 8 or more classes numpy sums each row pairwise, so a class-major sum
    # would choose differently.
    rng = np.random.default_rng(11)
    second_half_wins = 0
    for _ in range(300):
        n_classes = int(rng.integers(2, 13))
        swap = rng.permutation(n_classes)
        pi = np.arange(n_classes)
        pi[swap[0:-1:2]], pi[swap[1::2]] = swap[1::2], swap[0:-1:2]
        h = rng.integers(0, n_classes, int(rng.integers(4, 30)))
        y = np.concatenate([h, pi[h][::-1]])
        X = np.arange(y.size, dtype=float)[:, None]
        for max_depth in (1, 2):
            tree = train_tree(X, y, max_depth=max_depth, n_classes=n_classes)
            assert to_json(tree) == _oracle_json(tree, X, y, max_depth)
        root = _tree_objs(tree)[0]
        second_half_wins += root.get("threshold", 0) > h.size
    assert second_half_wins > 0


def test_later_feature_must_beat_the_best_split_by_1e_15():
    # Exactly, feature 0's best cut (after 2 rows) and feature 2's (after
    # 6) both score 1/3; in floats feature 2's is one ulp lower.
    y = np.array([1, 0, 1, 0, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0])
    X = np.array([
        [11, 17, 2, 0, 9, 5, 8, 7, 16, 3, 4, 10, 15, 12, 13, 14, 1, 6],
        [4, 1, 9, 10, 17, 8, 5, 16, 12, 11, 3, 7, 6, 2, 13, 0, 14, 15],
        [1, 4, 15, 2, 16, 14, 3, 10, 13, 11, 12, 8, 9, 7, 0, 6, 17, 5],
    ], dtype=float).T
    tree = train_tree(X, y, max_depth=1)
    assert _tree_objs(tree)[0]["feature"] == 0
    assert to_json(tree) == _oracle_json(tree, X, y, 1)


def test_ranked_trainer_matches_oracle_above_16_bit_ranks():
    rng = np.random.default_rng(5)
    n = 70_000
    X = rng.normal(size=(n, 1))
    y = (X[:, 0] + rng.normal(scale=0.5, size=n) > 0).astype(int)
    assert np.unique(X).size > 65_536
    tree = train_tree(X, y, max_depth=2)
    assert to_json(tree) == _oracle_json(tree, X, y, 2)
    forest = train_forest(X, y, n_trees=1, max_depth=2, seed=3)
    assert to_json(forest) == _oracle_json(forest, X, y, 2, 1, 3)


def _spy_searches(monkeypatch):
    """Record every block the trainer searches as (nodes, features, widest
    node's distinct rows), and each split's two children as (rows,
    weights)."""
    blocks, children = [], []
    search = forest_module._search

    def spy(data, nodes, feats):
        found = search(data, nodes, feats)
        blocks.append((len(nodes), feats.shape[1], nodes[0][0].size))
        children.extend(child[:2] for split in found if split is not None
                        for child in split[2:])
        return found

    monkeypatch.setattr(forest_module, "_search", spy)
    return blocks, children


def test_lockstep_forest_matches_oracle_across_search_blocks(monkeypatch):
    """24 trees on 600 rows with a 600-element block: each root search
    (2 features x about 380 distinct rows) has a block of its own, small
    nodes share blocks, four trees grow at once and trees finish in
    different rounds."""
    rng = np.random.default_rng(31)
    X, y = _tie_heavy_data(rng, 600, 4, 4)
    X[:, 0] = rng.normal(size=600)  # at least one many-valued feature
    reference = None
    for limit in (forest_module.SPLIT_BLOCK, 600, 1):
        monkeypatch.setattr(forest_module, "SPLIT_BLOCK", limit)
        blocks, _ = _spy_searches(monkeypatch)
        model = train_forest(X, y, n_trees=24, max_depth=7, seed=5)
        reference = reference or _oracle_json(model, X, y, 7, 24, 5)
        assert to_json(model) == reference
        if limit == 600:
            assert any(k == 1 and m * n > limit for k, m, n in blocks)
            assert max(k for k, _, _ in blocks) >= 4
            assert all(k * m * n <= limit for k, m, n in blocks if k > 1)
    # One search per tree and round: trees of different sizes finish in
    # different rounds.
    assert len({t.n_leaves() for t in model.trees}) > 1


def test_padding_row_may_share_the_largest_rank(monkeypatch):
    """At N = 256 ranks are uint8 and the padding row's rank, 255, is also
    the largest real value's: a stable sort must still leave the padding
    after every real row of a node."""
    rng = np.random.default_rng(36)
    X = rng.normal(size=(256, 3))
    y = (X[:, 0] + rng.normal(scale=0.7, size=256) > 0).astype(int)
    monkeypatch.setattr(forest_module, "SPLIT_BLOCK", 512)
    blocks, _ = _spy_searches(monkeypatch)
    model = train_forest(X, y, n_trees=8, max_depth=6, seed=2)
    assert to_json(model) == _oracle_json(model, X, y, 6, 8, 2)
    assert forest_module._Training.of(X, y, 2).rank.dtype == np.uint8
    assert any(k > 1 for k, _, _ in blocks)  # padded blocks ran


def test_lockstep_tree_with_all_features_matches_oracle(monkeypatch):
    """``train_tree`` offers every row once: each weight is 1."""
    rng = np.random.default_rng(32)
    for case in range(6):
        X, y = _tie_heavy_data(rng, int(rng.integers(50, 400)), 5, 3)
        X[:, case % 5] = rng.normal(size=y.size)
        for limit in (forest_module.SPLIT_BLOCK, 256):
            monkeypatch.setattr(forest_module, "SPLIT_BLOCK", limit)
            blocks, children = _spy_searches(monkeypatch)
            tree = train_tree(X, y, max_depth=9)
            assert to_json(tree) == _oracle_json(tree, X, y, 9)
            assert all(m == 5 for _, m, _ in blocks)
            assert children and all(np.all(w == 1) for _, w in children)


def test_trainer_matches_oracle_with_many_classes_some_absent():
    """12 classes, half of them with no sample: class sums of 8 or more
    terms go pairwise, and empty classes still count in every sum."""
    rng = np.random.default_rng(33)
    present = np.array([0, 2, 5, 7, 8, 11])
    for case in range(8):
        n = int(rng.integers(40, 300))
        X = np.round(rng.normal(size=(n, 4)), 1 + case % 3)
        y = present[rng.integers(0, present.size, n)]
        tree = train_tree(X, y, max_depth=6, n_classes=12)
        assert to_json(tree) == _oracle_json(tree, X, y, 6)
        model = train_forest(X, y, n_trees=5, max_depth=6, seed=case,
                             n_classes=12)
        assert model.n_classes == 12
        assert to_json(model) == _oracle_json(model, X, y, 6, 5, case)


def test_trainer_takes_labels_far_above_the_sample_count():
    """Three rows labelled up to 70000: the split search scatters each
    row's weight into its class, so its class counts grow with the class
    count, not with its square (a table of every (label, weight) pair
    would ask for about 36.5 GiB), and models stay the oracle's."""
    X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
    y = np.array([70000, 3, 70000])
    tracemalloc.start()
    tree = train_tree(X, y, max_depth=3)
    model = train_forest(X, y, n_trees=4, max_depth=3, seed=1)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert tree.n_classes == model.n_classes == 70001
    assert peak < 128 << 20
    assert to_json(tree) == _oracle_json(tree, X, y, 3)
    assert to_json(model) == _oracle_json(model, X, y, 3, 4, 1)
    assert np.array_equal(tree.predict(X), y)


def _screen_and_float_winners(x, y, n_classes):
    """First cut (index into the distinct-value cuts of feature ``x``) of
    the integer screen's largest score and of the float Gini's first
    minimum, the two expressions the trainer uses."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    left = np.cumsum(np.eye(n_classes, dtype=np.int64)[y[order]], axis=0)
    cut = np.flatnonzero(xs[:-1] < xs[1:])
    left = left[cut]
    right = np.bincount(y, minlength=n_classes) - left
    n_l = cut + 1.0
    n_r = y.size - n_l
    score = (left * left).sum(1) / n_l + (right * right).sum(1) / n_r
    g_l = 1.0 - np.sum((left / n_l[:, None]) ** 2, axis=1)
    g_r = 1.0 - np.sum((right / n_r[:, None]) ** 2, axis=1)
    weighted = (n_l * g_l + n_r * g_r) / y.size
    return int(np.argmax(score)), int(np.argmin(weighted))


def test_trainer_keeps_float_winners_the_screen_ranks_below_its_top():
    # Mirrored labels give cuts of exactly equal Gini; on such ties the
    # screen's rounding and the float Gini's can rank cuts differently.
    # The trainer must still choose the float expression's first minimum.
    rng = np.random.default_rng(34)
    differ = 0
    for _ in range(400):
        n_classes = int(rng.integers(2, 13))
        swap = rng.permutation(n_classes)
        pi = np.arange(n_classes)
        pi[swap[0:-1:2]], pi[swap[1::2]] = swap[1::2], swap[0:-1:2]
        h = rng.integers(0, n_classes, int(rng.integers(4, 40)))
        y = np.concatenate([h, pi[h][::-1]])
        X = np.arange(y.size, dtype=float)[:, None]
        top, winner = _screen_and_float_winners(X[:, 0], y, n_classes)
        if top == winner:
            continue
        differ += 1
        tree = train_tree(X, y, max_depth=1, n_classes=n_classes)
        assert to_json(tree) == _oracle_json(tree, X, y, 1)
    assert differ > 0


def test_split_children_own_their_rows(monkeypatch):
    """A child's rows and weights are copies, not views that would keep
    its search block's sorted arrays alive while the child waits on its
    tree's stack."""
    _, children = _spy_searches(monkeypatch)
    X, y = load_iris()
    train_forest(X, y, n_trees=6, max_depth=5, seed=1)
    assert children and all(rows.base is None and weights.base is None
                            and rows.shape == weights.shape
                            and weights.min() >= 1
                            for rows, weights in children)


def test_heavily_duplicated_bootstraps_match_oracle():
    """A node is its distinct rows with their multiplicities: tiny sets
    (2-5 rows, where bootstraps repeat most rows) and larger ones grown
    into many trees, where some rows are drawn more than five times."""
    rng = np.random.default_rng(37)
    most = 0
    for case in range(24):
        n = int(rng.integers(2, 6)) if case % 2 == 0 else int(
            rng.integers(100, 160))
        X, y = _tie_heavy_data(rng, n, int(rng.integers(1, 4)),
                               int(rng.integers(2, 5)))
        n_trees, seed = 40, int(rng.integers(1000))
        model = train_forest(X, y, n_trees=n_trees, max_depth=6, seed=seed)
        assert to_json(model) == _oracle_json(model, X, y, 6, n_trees, seed)
        for t in range(n_trees):
            sample = np.random.default_rng([seed, t]).integers(0, n, size=n)
            most = max(most, int(np.bincount(sample).max()))
    assert most > 5


def test_two_distinct_rows_with_equal_values_stay_a_leaf(monkeypatch):
    """Rows 1 and 2 share their value but not their label: their node is
    searched, finds no cut and stays a leaf of the lower label."""
    blocks, _ = _spy_searches(monkeypatch)
    X = np.array([[0.0], [1.0], [1.0]])
    y = np.array([0, 0, 1])
    tree = train_tree(X, y, max_depth=3)
    assert to_json(tree) == _oracle_json(tree, X, y, 3)
    assert _tree_objs(tree)[0] == {"feature": 0, "threshold": 0.5,
                                   "left": {"label": 0},
                                   "right": {"label": 0}}
    assert (1, 1, 2) in blocks
    for seed in range(20):
        model = train_forest(X, y, n_trees=4, max_depth=3, seed=seed)
        assert to_json(model) == _oracle_json(model, X, y, 3, 4, seed)


def test_training_memory_does_not_grow_with_the_tree_count():
    """Trees in growth hold their bootstrap rows, so only a bounded number
    grow at once: thirty trees peak at about the memory of three."""
    rng = np.random.default_rng(35)
    X = rng.normal(size=(40_000, 2))
    y = (X[:, 0] + rng.normal(scale=0.5, size=40_000) > 0).astype(int)
    peaks = []
    for n_trees in (3, 30):
        tracemalloc.start()
        train_forest(X, y, n_trees=n_trees, max_depth=2, seed=0)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]


# sha256 of each trained model's to_json text; the node table must leave
# training and serialisation byte-identical.
_MODEL_DIGESTS = {
    "iris": "6c365cd37a16d507b8dafdbd34aad8252d7b4eee970c1a23dfeae9370efcecd5",
    "blobs16": "48c4eba3a589e4791cc70e493ac4b2b655ae8121a5bfe3eb0cc3b39492a455af",
    "wide64": "084b15859cc73136a9f53550491cd3633342d849957f977cd7f09bc0f7f27241",
}


@pytest.mark.parametrize("name, n_trees, max_depth", [
    ("iris", 15, 4), ("blobs16", 32, 6), ("wide64", 64, 8)])
def test_trained_model_json_is_unchanged(name, n_trees, max_depth):
    if name == "iris":
        X, y = load_iris()
    else:
        F = int(name[-2:])
        X, y, _, _ = train_test_split(*gaussian_blobs(7000, F, 4, 0),
                                      test_fraction=5 / 7, seed=0)
    text = to_json(train_forest(X, y, n_trees=n_trees, max_depth=max_depth,
                                seed=0))
    assert hashlib.sha256(text.encode()).hexdigest() == _MODEL_DIGESTS[name]


def test_votes_reject_samples_outside_the_contract():
    X, y = load_iris()
    forest = train_forest(X, y, n_trees=3, max_depth=3, seed=0)
    for bad in (X[0],                      # 1-D
                X[None],                   # 3-D
                X[:, :3],                  # a feature too few
                np.hstack([X, X[:, :1]]),  # a feature too many
                np.where(np.arange(4) == 2, np.nan, X),
                np.where(np.arange(4) == 0, -np.inf, X)):
        with pytest.raises(DataError):
            forest.votes(bad)
        with pytest.raises(DataError):
            forest.predict(bad)


def test_vote_tie_breaks_to_lowest_label():
    t0 = Tree.from_obj({"label": 2})
    t1 = Tree.from_obj({"label": 1})
    forest = Forest(trees=(t0, t1), n_features=1, n_classes=3,
                    feature_bounds=((0.0, 1.0),))
    assert forest.predict(np.array([[0.5]]))[0] == 1
    assert np.array_equal(forest.votes(np.array([[0.5]]))[0], [0, 1, 1])


def test_forest_rejects_leaf_labels_outside_its_classes():
    for label in (-1, 3):
        with pytest.raises(ModelFormatError):
            Forest(trees=(Tree.from_obj({"label": label}),), n_features=1,
                   n_classes=3, feature_bounds=((0.0, 1.0),))


def test_forest_rejects_split_features_outside_its_inputs():
    for feature in (-1, 1, 3):
        stump = {"feature": feature, "threshold": 0.5,
                 "left": {"label": 0}, "right": {"label": 1}}
        with pytest.raises(ModelFormatError):
            Forest(trees=(Tree.from_obj(stump),), n_features=1, n_classes=2,
                   feature_bounds=((0.0, 1.0),))


def test_training_is_deterministic():
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, size=(100, 4))
    y = rng.integers(0, 3, size=100)
    a = to_json(train_forest(X, y, n_trees=5, max_depth=4, seed=11))
    b = to_json(train_forest(X, y, n_trees=5, max_depth=4, seed=11))
    c = to_json(train_forest(X, y, n_trees=5, max_depth=4, seed=12))
    assert a == b
    assert a != c


def test_bootstrap_trees_differ():
    rng = np.random.default_rng(6)
    X = rng.uniform(0, 1, size=(100, 4))
    y = rng.integers(0, 3, size=100)
    forest = train_forest(X, y, n_trees=6, max_depth=4, seed=0)
    roots = {(obj["feature"], round(obj["threshold"], 9))
             for obj in _tree_objs(forest) if "label" not in obj}
    assert len(roots) > 1


def test_json_round_trip():
    X, y = load_iris()
    forest = train_forest(X, y, n_trees=4, max_depth=3, seed=2)
    text = to_json(forest)
    back = from_json(text)
    assert to_json(back) == text
    for a, b in zip(forest.trees, back.trees):
        _assert_same_tables(a, b)
    X_eval = np.random.default_rng(0).uniform(0, 8, size=(100, 4))
    assert np.array_equal(back.predict(X_eval), forest.predict(X_eval))


def test_handwritten_stump_document():
    text = """
    {"format": "camforest-model", "version": 1,
     "n_features": 2, "n_classes": 2,
     "feature_bounds": [[0, 1], [0, 1]],
     "trees": [{"feature": 0, "threshold": 0.5,
                "left": {"label": 0}, "right": {"label": 1}}]}
    """
    model = from_json(text)
    assert np.array_equal(model.predict([[0.4, 0.9], [0.6, 0.1]]), [0, 1])
    # Boundary input goes left: split keeps f <= threshold.
    assert model.predict([[0.5, 0.0]])[0] == 0


def test_from_json_rejects_malformed():
    good = to_json(train_tree(np.array([[0.0], [1.0]]), np.array([0, 1])))
    with pytest.raises(ModelFormatError):
        from_json("not json at all {")
    with pytest.raises(ModelFormatError, match="nested"):
        from_json('{"trees": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(ModelFormatError):
        from_json("{}")
    with pytest.raises(ModelFormatError):
        from_json(good.replace('"version": 1', '"version": 99'))
    with pytest.raises(ModelFormatError):
        from_json(good.replace('"n_classes": 2', '"n_classes": 1'))
    for old, new in (('"n_classes": 2', '"n_classes": 2.5'),
                     ('"n_classes": 2', '"n_classes": "2"'),
                     ('"n_features": 1', '"n_features": 1.7')):
        with pytest.raises(ModelFormatError, match="integers"):
            from_json(good.replace(old, new))
    bad_feature = """
    {"format": "camforest-model", "version": 1,
     "n_features": 1, "n_classes": 2, "feature_bounds": [[0, 1]],
     "trees": [{"feature": 3, "threshold": 0.5,
                "left": {"label": 0}, "right": {"label": 1}}]}
    """
    with pytest.raises(ModelFormatError):
        from_json(bad_feature)
    leaf = {"label": 0}
    for bad_tree in ([leaf], {"feature": 0, "threshold": 0.5, "left": leaf},
                     {"feature": 0, "threshold": math.inf, "left": leaf,
                      "right": leaf},
                     {"feature": 0.0, "threshold": 0.5, "left": leaf,
                      "right": leaf},
                     {"label": 0.5}, {"label": 2 ** 70}):
        doc = json.loads(good)
        doc["trees"] = [bad_tree]
        with pytest.raises(ModelFormatError):
            from_json(json.dumps(doc))


def test_from_json_rejects_booleans_as_numbers():
    """JSON true and false are Python ints, but no field of the model
    format takes them: not as a split feature, a threshold, a leaf label or
    a feature bound (true would load as feature 1, [false, true] as the
    bounds (0.0, 1.0))."""
    good = json.loads(to_json(train_tree(np.array([[0.0], [1.0]]),
                                         np.array([0, 1]))))
    assert good["trees"][0]["feature"] == 0
    from_json(json.dumps(good))
    leaf = {"label": 0}
    for tree in ({"feature": True, "threshold": 0.5, "left": leaf,
                  "right": leaf},
                 {"feature": 0, "threshold": False, "left": leaf,
                  "right": leaf},
                 {"feature": 0, "threshold": 0.5, "left": {"label": True},
                  "right": leaf}):
        doc = dict(good, trees=[tree])
        with pytest.raises(ModelFormatError, match="must be"):
            from_json(json.dumps(doc))
    for bound in ([False, True], [0.0, True]):
        doc = dict(good, feature_bounds=[bound])
        with pytest.raises(ModelFormatError, match="feature bound"):
            from_json(json.dumps(doc))


def test_invalid_training_inputs():
    with pytest.raises(DataError):
        train_tree(np.empty((0, 2)), np.empty(0, dtype=int))
    with pytest.raises(DataError):
        train_tree(np.ones((3, 2)), np.array([0, 1]))
    with pytest.raises(DataError):
        train_tree(np.ones((2, 2)), np.array([0.5, 1.0]))
    with pytest.raises(DataError):
        train_tree(np.ones((2, 2)), np.array([0, 2]), n_classes=2)
    # Tree counts and depths are configuration values, not data.
    with pytest.raises(ConfigError):
        train_forest(np.ones((2, 2)), np.array([0, 1]), n_trees=0)
    with pytest.raises(ConfigError):
        train_forest(np.ones((2, 2)), np.array([0, 1]), max_depth=0)
    with pytest.raises(ConfigError):
        train_tree(np.ones((2, 2)), np.array([0, 1]), max_depth=0)
    with pytest.raises(DataError):
        train_tree(np.array([[np.nan], [1.0]]), np.array([0, 1]))


def test_negative_labels_are_data_errors():
    for train in (train_tree, train_forest):
        with pytest.raises(DataError, match="non-negative"):
            train(np.ones((2, 2)), np.array([0, -1]))


def test_exactly_one_leaf_reached_per_tree():
    # Every sample lands on exactly one leaf: label sets partition inputs.
    rng = np.random.default_rng(13)
    X = rng.uniform(0, 1, size=(50, 3))
    y = rng.integers(0, 2, size=50)
    model = train_tree(X, y, max_depth=4)
    tree = model.trees[0]

    leaves = []

    def collect(node, path):
        if "label" in node:
            leaves.append(path)
            return
        f, th = node["feature"], node["threshold"]
        collect(node["left"], path + [(f, th, True)])
        collect(node["right"], path + [(f, th, False)])

    collect(_tree_objs(model)[0], [])
    assert len(leaves) == tree.n_leaves()
    for x in rng.uniform(0, 1, size=(200, 3)):
        hits = sum(
            all((x[f] <= th) == le for f, th, le in path) for path in leaves
        )
        assert hits == 1
