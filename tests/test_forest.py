"""Trainer, prediction, and serialization of trees and forests."""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from camforest.datasets import gaussian_blobs, load_iris, train_test_split
from camforest.errors import DataError, ModelFormatError
from camforest.forest import (
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
    with pytest.raises(ModelFormatError):
        from_json("{}")
    with pytest.raises(ModelFormatError):
        from_json(good.replace('"version": 1', '"version": 99'))
    with pytest.raises(ModelFormatError):
        from_json(good.replace('"n_classes": 2', '"n_classes": 1'))
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


def test_invalid_training_inputs():
    with pytest.raises(DataError):
        train_tree(np.empty((0, 2)), np.empty(0, dtype=int))
    with pytest.raises(DataError):
        train_tree(np.ones((3, 2)), np.array([0, 1]))
    with pytest.raises(DataError):
        train_tree(np.ones((2, 2)), np.array([0.5, 1.0]))
    with pytest.raises(DataError):
        train_forest(np.ones((2, 2)), np.array([0, 1]), n_trees=0)
    with pytest.raises(DataError):
        train_tree(np.array([[np.nan], [1.0]]), np.array([0, 1]))


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
