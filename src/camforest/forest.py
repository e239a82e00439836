"""Decision-tree and random-forest training on numeric features.

Plain CART with Gini impurity: axis-aligned splits at midpoints between
distinct sorted values, majority-label leaves. A forest bootstraps the rows
and draws floor(sqrt(F)) candidate features per split. Split semantics are
half-open: the left child keeps x <= threshold.

Each training call ranks every feature once (one stable argsort). A node is
an index array into the training rows, bootstrap duplicates included, and
its split search sorts all candidate features' ranks in one stable argsort,
which numpy radix-sorts while ranks fit in 16 bits. The models are byte for
byte those of a per-feature float sort at every node.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ModelFormatError

MODEL_FORMAT = "camforest-model"
MODEL_VERSION = 1
# Deepest tree the trainers grow. Growing (one call per level) and the
# model JSON (one nesting level per tree level) both recurse, so the cap
# stays at half of Python's default recursion limit of 1000.
MAX_DEPTH = 500


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


@dataclass(frozen=True)
class _Training:
    """Training rows as a split search reads them, built once per call.

    ``xT`` holds each feature's values as one contiguous row, and ``rank``
    each value's dense rank within its feature (equal values share one):
    sorting a node's rows by rank sorts them by value. Ranks take the
    smallest unsigned dtype that holds N - 1, so for N <= 65,536 numpy's
    stable sort radix-sorts them.
    """

    xT: np.ndarray     # (F, N) float
    rank: np.ndarray   # (F, N) unsigned
    y: np.ndarray      # (N,) int
    n_classes: int

    @classmethod
    def of(cls, X, y, n_classes) -> "_Training":
        xT = np.ascontiguousarray(X.T)
        order = np.argsort(xT, axis=1, kind="stable")
        xs = np.take_along_axis(xT, order, axis=1)
        dense = np.zeros(xT.shape, dtype=np.min_scalar_type(X.shape[0] - 1))
        np.cumsum(xs[:, 1:] > xs[:, :-1], axis=1, dtype=dense.dtype,
                  out=dense[:, 1:])
        rank = np.empty_like(dense)
        np.put_along_axis(rank, order, dense, axis=1)
        return cls(xT, rank, y, n_classes)


def _best_split(data, idx, counts, feat_ids):
    """Lowest weighted Gini over midpoint thresholds of the given features,
    on the node holding training rows ``idx`` (duplicates allowed) with
    class counts ``counts``.

    Returns (feature, threshold, weighted_gini, left_idx, right_idx) or
    None when no feature admits a split. Scanning order (sorted features,
    ascending thresholds) fixes tie-breaks. Every cut's class counts and
    midpoint are the same whatever order tied values sort in.
    """
    m, n = feat_ids.size, idx.size
    ranks = data.rank[feat_ids[:, None], idx]
    order = np.argsort(ranks, axis=1, kind="stable")
    rows = idx[order]
    # Sorted ranks by a flat take, far cheaper than take_along_axis here.
    ranks = np.take(ranks, order + np.arange(0, m * n, n)[:, None])
    # Splittable positions, between distinct consecutive values, as flat
    # (feature, cut) indices into the (m, n) block.
    step = np.zeros((m, n), dtype=bool)
    np.less(ranks[:, :-1], ranks[:, 1:], out=step[:, :-1])
    at = np.flatnonzero(step)
    if at.size == 0:
        return None
    fi, cut = np.divmod(at, n)
    onehot = data.y[rows][:, :, None] == np.arange(counts.size)
    left = np.take(np.cumsum(onehot, axis=1).reshape(m * n, -1), at, axis=0)
    right = counts - left  # each feature's block holds the whole node
    n_l = cut + 1.0
    n_r = n - n_l
    # A C-contiguous (cuts, classes) sum: numpy adds 8 or more terms
    # pairwise, so summing class-major would change bits.
    g_l = 1.0 - np.sum((left / n_l[:, None]) ** 2, axis=1)
    g_r = 1.0 - np.sum((right / n_r[:, None]) ** 2, axis=1)
    weighted = (n_l * g_l + n_r * g_r) / n
    # Each feature's first minimum, then the 1e-15 rule across features.
    starts = np.flatnonzero(np.diff(fi, prepend=-1))
    best = None
    for s, w in enumerate(np.minimum.reduceat(weighted, starts).tolist()):
        if best is None or w < best[1] - 1e-15:
            best = (s, w)
    s, w = best
    end = starts[s + 1] if s + 1 < starts.size else weighted.size
    k = starts[s] + int(np.argmin(weighted[starts[s]:end]))
    j, c = fi[k], cut[k]
    f = int(feat_ids[j])
    xs = data.xT[f, rows[j]]
    x0, x1 = float(xs[c]), float(xs[c + 1])
    th = 0.5 * (x0 + x1)
    if not math.isfinite(th):
        # The sum overflowed; halving first cannot. Only such pairs take
        # this path, so every other threshold keeps its bits.
        th = 0.5 * x0 + 0.5 * x1
    # Rows are sorted by value, so the left child (x <= th) is a prefix.
    n_left = int(np.searchsorted(xs, th, side="right"))
    return f, th, w, rows[j, :n_left], rows[j, n_left:]


def _grow(data, idx, depth, max_depth, max_features, rng) -> dict:
    """Model-format object of the CART subtree grown on training rows
    ``idx``; ``rng`` draws each split's candidate features in preorder."""
    counts = np.bincount(data.y[idx], minlength=data.n_classes)
    node_gini = _gini(counts)
    if depth >= max_depth or node_gini == 0.0 or idx.size < 2:
        return {"label": int(np.argmax(counts))}
    n_feat = data.xT.shape[0]
    if max_features < n_feat:
        feat_ids = np.sort(rng.choice(n_feat, size=max_features, replace=False))
    else:
        feat_ids = np.arange(n_feat)
    best = _best_split(data, idx, counts, feat_ids)
    if best is None or best[2] >= node_gini - 1e-15:
        return {"label": int(np.argmax(counts))}
    f, th, _, left, right = best
    return {"feature": f, "threshold": th,
            "left": _grow(data, left, depth + 1, max_depth, max_features, rng),
            "right": _grow(data, right, depth + 1, max_depth, max_features,
                           rng)}


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


def _class_count(y, n_classes) -> int:
    seen = int(y.max()) + 1
    if n_classes is None:
        return seen
    if n_classes < seen:
        raise DataError(f"labels must be below n_classes = {n_classes}")
    return n_classes


def _check_depth(max_depth: int) -> None:
    if not 1 <= max_depth <= MAX_DEPTH:
        raise ConfigError(f"max_depth must be in [1, {MAX_DEPTH}]")


def train_tree(X, y, max_depth: int = 6, n_classes: int | None = None) -> Forest:
    """Single deterministic tree on all rows and features."""
    X, y = _check_data(X, y)
    _check_depth(max_depth)
    k = _class_count(y, n_classes)
    # Every feature is offered at every split, so _grow draws nothing.
    root = _grow(_Training.of(X, y, k), np.arange(X.shape[0]), 0, max_depth,
                 X.shape[1], None)
    return Forest(trees=(Tree.from_obj(root),), n_features=X.shape[1],
                  n_classes=k, feature_bounds=_bounds(X))


def train_forest(X, y, n_trees: int = 15, max_depth: int = 6, seed: int = 0,
                 n_classes: int | None = None) -> Forest:
    """Bootstrap forest; each split draws floor(sqrt(F)) candidate features."""
    X, y = _check_data(X, y)
    if n_trees < 1:
        raise ConfigError("n_trees must be at least 1")
    _check_depth(max_depth)
    k = _class_count(y, n_classes)
    m = max(1, int(math.isqrt(X.shape[1])))
    data = _Training.of(X, y, k)
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        idx = rng.integers(0, X.shape[0], size=X.shape[0])
        trees.append(Tree.from_obj(_grow(data, idx, 0, max_depth, m, rng)))
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
    except RecursionError:
        raise ModelFormatError("JSON nested too deeply") from None
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
