"""Decision-tree and random-forest training on numeric features.

Plain CART with Gini impurity: axis-aligned splits at midpoints between
distinct sorted values, majority-label leaves. A forest bootstraps the rows
and draws floor(sqrt(F)) candidate features per split. Split semantics are
half-open: the left child keeps x <= threshold.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ModelFormatError

MODEL_FORMAT = "camforest-model"
MODEL_VERSION = 1


@dataclass(frozen=True, eq=False)
class Tree:
    """A tree as a read-only node table; build it with ``Tree.from_obj``.

    Nodes are numbered in preorder from the root (0): parents come before
    children, and leaves run left to right. ``feature``, ``threshold``,
    ``left`` and ``right`` hold each split; a leaf points back to itself
    and carries its class in ``label`` (-1 at splits), so a walk of
    ``n_levels`` (the depth) steps needs no leaf test.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    label: np.ndarray
    n_levels: int

    @classmethod
    def from_obj(cls, obj) -> "Tree":
        """Table of a model-format tree: ``{"feature", "threshold", "left",
        "right"}`` splits and ``{"label"}`` leaves, nested."""
        table, n_levels = [], 0
        stack = [(obj, 0, None)]  # (node, level, parent if a right child)
        while stack:
            node, level, parent = stack.pop()
            i = len(table)
            if parent is not None:
                table[parent][3] = i
            n_levels = max(n_levels, level)
            if not isinstance(node, dict):
                raise ModelFormatError("node must be an object")
            if "label" in node:
                if not isinstance(node["label"], int):
                    raise ModelFormatError("leaf label must be an integer")
                table.append([0, 0.0, i, i, node["label"]])
                continue
            try:
                f, th = node["feature"], node["threshold"]
                stack += [(node["right"], level + 1, i),
                          (node["left"], level + 1, None)]
            except KeyError as exc:
                raise ModelFormatError(
                    f"split node missing key {exc}") from None
            if not isinstance(f, int):
                raise ModelFormatError("split feature must be an integer")
            if not isinstance(th, (int, float)) or not math.isfinite(th):
                raise ModelFormatError("split threshold must be finite")
            table.append([f, float(th), i + 1, None, -1])
        try:
            columns = [np.array(column, dtype=dtype) for column, dtype in zip(
                zip(*table), (np.intp, float, np.intp, np.intp, np.intp))]
        except OverflowError:
            raise ModelFormatError(
                "split feature or leaf label too large") from None
        for column in columns:
            column.setflags(write=False)
        return cls(*columns, n_levels=n_levels)

    def to_obj(self) -> dict:
        """The model-format object of this tree (inverse of ``from_obj``)."""
        feature, threshold, left, right, label = (
            a.tolist() for a in (self.feature, self.threshold, self.left,
                                 self.right, self.label))
        objs = [None] * len(label)
        # Children follow their parent in preorder, so a backward pass
        # finds both of a split's subtrees already built.
        for i in reversed(range(len(label))):
            if left[i] == i:
                objs[i] = {"label": label[i]}
            else:
                objs[i] = {"feature": feature[i], "threshold": threshold[i],
                           "left": objs[left[i]], "right": objs[right[i]]}
        return objs[0]

    def predict(self, X) -> np.ndarray:
        """Leaf label per sample; ``X`` is a finite (samples, F) array."""
        X = np.asarray(X, dtype=float)
        rows = np.arange(X.shape[0])
        node = np.zeros(X.shape[0], dtype=np.intp)
        for _ in range(self.n_levels):
            node = np.where(X[rows, self.feature[node]] <= self.threshold[node],
                            self.left[node], self.right[node])
        return self.label[node]

    def depth(self) -> int:
        return self.n_levels

    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.left == np.arange(self.left.size)))


@dataclass(frozen=True)
class Forest:
    """Trained model: trees vote, ties resolve to the lowest label."""

    trees: tuple
    n_features: int
    n_classes: int
    feature_bounds: tuple  # per-feature (min, max) seen at training time

    def __post_init__(self):
        for tree in self.trees:
            leaf = tree.left == np.arange(tree.left.size)
            labels, features = tree.label[leaf], tree.feature[~leaf]
            if not np.all((labels >= 0) & (labels < self.n_classes)):
                raise ModelFormatError(
                    f"leaf label outside [0, {self.n_classes})")
            if not np.all((features >= 0) & (features < self.n_features)):
                raise ModelFormatError(
                    f"split feature outside [0, {self.n_features})")

    def votes(self, X) -> np.ndarray:
        """Per-class vote counts, shape (n_samples, n_classes).

        ``X`` must be a finite 2-D array with one column per feature."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DataError(f"samples must be a 2-D array with "
                            f"{self.n_features} features")
        if not np.all(np.isfinite(X)):
            raise DataError("samples contain NaN or infinite features")
        counts = np.zeros((X.shape[0], self.n_classes), dtype=int)
        rows = np.arange(X.shape[0])
        for tree in self.trees:
            counts[rows, tree.predict(X)] += 1
        return counts

    def predict(self, X) -> np.ndarray:
        return np.argmax(self.votes(X), axis=1)


def _gini(counts) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - np.sum(p * p))


def _best_split(X, y, feat_ids, n_classes):
    """Lowest weighted Gini over midpoint thresholds of the given features.

    Returns (feature, threshold, weighted_gini) or None when no feature
    admits a split. Scanning order (sorted features, ascending thresholds)
    fixes tie-breaks.
    """
    n = y.size
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    best = None
    for f in feat_ids:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        prefix = np.cumsum(onehot[order], axis=0)
        # Splittable positions: between distinct consecutive values.
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
            best = (int(f), float(th), float(weighted[k]))
    return best


def _majority(y, n_classes) -> int:
    return int(np.argmax(np.bincount(y, minlength=n_classes)))


def _grow(X, y, depth, max_depth, n_classes, max_features, rng) -> dict:
    """Model-format object of the CART subtree grown on (X, y)."""
    counts = np.bincount(y, minlength=n_classes)
    node_gini = _gini(counts)
    if depth >= max_depth or node_gini == 0.0 or y.size < 2:
        return {"label": _majority(y, n_classes)}
    n_feat = X.shape[1]
    if max_features < n_feat:
        feat_ids = np.sort(rng.choice(n_feat, size=max_features, replace=False))
    else:
        feat_ids = np.arange(n_feat)
    best = _best_split(X, y, feat_ids, n_classes)
    if best is None or best[2] >= node_gini - 1e-15:
        return {"label": _majority(y, n_classes)}
    f, th, _ = best
    mask = X[:, f] <= th
    left = _grow(X[mask], y[mask], depth + 1, max_depth, n_classes,
                 max_features, rng)
    right = _grow(X[~mask], y[~mask], depth + 1, max_depth, n_classes,
                  max_features, rng)
    return {"feature": f, "threshold": th, "left": left, "right": right}


def _check_data(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("X must be a non-empty 2-D array")
    if y.shape != (X.shape[0],):
        raise DataError("y must be 1-D with one label per row of X")
    if not np.issubdtype(y.dtype, np.integer):
        if not np.all(y == y.astype(int)):
            raise DataError("labels must be integers")
        y = y.astype(int)
    if np.any(y < 0):
        raise DataError("labels must be non-negative")
    if not np.all(np.isfinite(X)):
        raise DataError("X contains non-finite values")
    return X, y.astype(int)


def _bounds(X) -> tuple:
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    flat = hi <= lo
    lo = np.where(flat, lo - 0.5, lo)
    hi = np.where(flat, hi + 0.5, hi)
    return tuple((float(a), float(b)) for a, b in zip(lo, hi))


def train_tree(X, y, max_depth: int = 6, n_classes: int | None = None) -> Forest:
    """Single deterministic tree on all rows and features."""
    X, y = _check_data(X, y)
    if max_depth < 1:
        raise DataError("max_depth must be at least 1")
    k = n_classes if n_classes is not None else int(y.max()) + 1
    # Every feature is offered at every split, so _grow draws nothing.
    root = _grow(X, y, 0, max_depth, k, X.shape[1], None)
    return Forest(trees=(Tree.from_obj(root),), n_features=X.shape[1],
                  n_classes=k, feature_bounds=_bounds(X))


def train_forest(X, y, n_trees: int = 15, max_depth: int = 6, seed: int = 0,
                 n_classes: int | None = None) -> Forest:
    """Bootstrap forest; each split draws floor(sqrt(F)) candidate features."""
    X, y = _check_data(X, y)
    if n_trees < 1:
        raise DataError("n_trees must be at least 1")
    if max_depth < 1:
        raise DataError("max_depth must be at least 1")
    k = n_classes if n_classes is not None else int(y.max()) + 1
    m = max(1, int(math.isqrt(X.shape[1])))
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        idx = rng.integers(0, X.shape[0], size=X.shape[0])
        root = _grow(X[idx], y[idx], 0, max_depth, k, m, rng)
        trees.append(Tree.from_obj(root))
    return Forest(trees=tuple(trees), n_features=X.shape[1], n_classes=k,
                  feature_bounds=_bounds(X))


def to_json(forest: Forest) -> str:
    obj = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "n_features": forest.n_features,
        "n_classes": forest.n_classes,
        "feature_bounds": [list(b) for b in forest.feature_bounds],
        "trees": [t.to_obj() for t in forest.trees],
    }
    return json.dumps(obj, sort_keys=True, indent=1)


def from_json(text: str) -> Forest:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or obj.get("format") != MODEL_FORMAT:
        raise ModelFormatError("missing model format tag")
    if obj.get("version") != MODEL_VERSION:
        raise ModelFormatError(f"unsupported model version {obj.get('version')!r}")
    try:
        n_features = obj["n_features"]
        n_classes = obj["n_classes"]
        bounds = obj["feature_bounds"]
        tree_objs = obj["trees"]
    except KeyError as exc:
        raise ModelFormatError(f"missing key {exc}") from None
    if not all(isinstance(n, int) and not isinstance(n, bool)
               for n in (n_features, n_classes)):
        raise ModelFormatError("n_features and n_classes must be integers")
    if n_features < 1 or n_classes < 1:
        raise ModelFormatError("n_features and n_classes must be positive")
    if not isinstance(bounds, list) or len(bounds) != n_features:
        raise ModelFormatError("feature_bounds must list one bound per feature")
    fb = []
    for b in bounds:
        if not (isinstance(b, list) and len(b) == 2
                and all(isinstance(v, (int, float)) for v in b)
                and b[0] < b[1]):
            raise ModelFormatError("each feature bound must be (min, max)")
        fb.append((float(b[0]), float(b[1])))
    if not isinstance(tree_objs, list) or not tree_objs:
        raise ModelFormatError("model needs a non-empty list of trees")
    return Forest(trees=tuple(Tree.from_obj(t) for t in tree_objs),
                  n_features=n_features, n_classes=n_classes,
                  feature_bounds=tuple(fb))
