"""Decision-tree and random-forest training on numeric features.

Plain CART with Gini impurity: axis-aligned splits at midpoints between
distinct sorted values (at the lower value where the midpoint rounds onto
the upper), majority-label leaves. A forest bootstraps the rows and draws
floor(sqrt(F)) candidate features per split. Split semantics are
half-open: the left child keeps x <= threshold.

Each training call ranks every feature once (one stable argsort). A node is
its distinct training rows, each weighted by its multiplicity in the
bootstrap, so a split search sorts and counts each row once. All trees
grow in lockstep, one split search per tree and round, and each round's
searches run as padded blocks: one stable argsort of all candidate
features' ranks, which numpy radix-sorts while ranks fit in 16 bits, then
an exact integer screen of every cut, and the float Gini of the few cuts
the screen cannot rule out. The models are byte for byte those of a
recursive grower with a per-feature float sort at every node.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ModelFormatError

MODEL_FORMAT = "camforest-model"
MODEL_VERSION = 1
# Deepest tree the trainers grow. Growing keeps explicit stacks, but the
# model JSON nests one level per tree level and json recurses on it, so
# the cap stays at half of Python's default recursion limit of 1000.
MAX_DEPTH = 500
# Element budget of one batched split search: nodes x candidate features
# x rows of a padded block (see ``_grow``).
SPLIT_BLOCK = 1 << 14


def _integer(v) -> bool:
    """A JSON integer; ``bool`` subclasses ``int``, but true and false are
    not numbers of the model format."""
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v) -> bool:
    """A JSON number (integer or float), not a boolean."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


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
                if not _integer(node["label"]):
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
            if not _integer(f):
                raise ModelFormatError("split feature must be an integer")
            if not _number(th) or not math.isfinite(th):
                raise ModelFormatError("split threshold must be finite")
            table.append([f, float(th), i + 1, None, -1])
        return cls._of_table(table, n_levels)

    @classmethod
    def _of_table(cls, table, n_levels: int) -> "Tree":
        """Tree of preorder rows [feature, threshold, left, right, label]."""
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


def _impurity(counts) -> tuple:
    """(Gini impurity, majority label) of each row of (nodes, classes)
    counts. A row sums pairwise in numpy's order as a 1-D sum would, so
    the bits are those of a per-node ``1 - sum(p * p)``."""
    n = counts.sum(axis=1)
    p = counts / np.maximum(n, 1)[:, None]  # an empty node is a leaf anyway
    return 1.0 - np.sum(p * p, axis=1), np.argmax(counts, axis=1)


@dataclass(frozen=True)
class _Training:
    """Training rows as a split search reads them, built once per call.

    ``X`` is the caller's (N, F) float array, not a copy; ``rank`` holds
    each value's dense rank within its feature (equal values share one),
    one contiguous row per feature: sorting a node's rows by rank sorts
    them by value. Ranks take the smallest unsigned dtype that holds
    N - 1, so for N <= 65,536 numpy's stable sort radix-sorts them. Row N
    pads search blocks: its rank is the dtype's largest, so a stable sort
    leaves it after every real row, and it weighs 0 wherever it pads, so
    its label, 0, counts in no class.
    """

    X: np.ndarray      # (N, F) float
    rank: np.ndarray   # (F, N + 1) unsigned
    y: np.ndarray      # (N + 1,) intp
    n_classes: int

    @classmethod
    def of(cls, X, y, n_classes) -> "_Training":
        n = X.shape[0]
        dtype = np.min_scalar_type(n - 1)
        rank = np.full((X.shape[1], n + 1), np.iinfo(dtype).max, dtype=dtype)
        dense = np.zeros(n, dtype=dtype)
        # One feature at a time, so only (N,) temporaries sit beside X.
        for f in range(X.shape[1]):
            order = np.argsort(X[:, f], kind="stable")
            xs = X[order, f]
            np.cumsum(xs[1:] > xs[:-1], dtype=dtype, out=dense[1:])
            rank[f, order] = dense
        y = np.append(y, 0).astype(np.intp)
        return cls(X, rank, y, n_classes)


def _search(data, nodes, feats) -> list:
    """Splits of one block of nodes, searched together.

    ``nodes`` lists (rows, weights, class counts, Gini, majority label) per
    node, largest first: rows are distinct indices into the training rows,
    each weighted by its multiplicity in the node, and ``feats`` (nodes, m)
    holds each node's sorted candidate features. Returns per node None when
    no cut lowers its Gini by more than 1e-15, else (feature, threshold,
    left, right), each child a node. Scanning order (sorted features,
    ascending thresholds) fixes tie-breaks. Every cut's class counts and
    midpoint are the same whatever order tied values sort in, and the same
    as those of the node with each row repeated by its weight.
    """
    k, m = feats.shape
    c = data.n_classes
    sizes = np.array([node[0].size for node in nodes])
    n = int(sizes[0])
    # Each node's rows padded with the padding row (weight 0) to the
    # block's width; a (node, feature) pair is one line of the block.
    pad = np.full((k, n), data.X.shape[0], dtype=nodes[0][0].dtype)
    weight = np.zeros((k, n), dtype=nodes[0][1].dtype)
    for i, node in enumerate(nodes):
        pad[i, :node[0].size] = node[0]
        weight[i, :node[0].size] = node[1]
    ranks = np.take(data.rank, (feats * data.rank.shape[1])[:, :, None]
                    + pad[:, None, :]).reshape(k * m, n)
    # Sorted ranks, rows and weights by flat takes, far cheaper than
    # take_along_axis.
    line = np.arange(k * m)[:, None]
    at = np.argsort(ranks, axis=1, kind="stable")
    at += line * n
    ranks = np.take(ranks, at)
    at -= (line - line // m) * n
    rows = np.take(pad, at)
    weights = np.take(weight, at)
    del at
    # Splittable positions, between distinct consecutive values of a node's
    # own rows.
    size = np.repeat(sizes, m)
    step = np.zeros((k * m, n), dtype=bool)
    np.less(ranks[:, :-1], ranks[:, 1:], out=step[:, :-1])
    step[line[:, 0], size - 1] = False
    # Class counts of each position's left side: each row's weight
    # scattered into its class (the padding row's is 0), summed along the
    # line in place.
    below = np.zeros((k * m, n, c), dtype=np.intp)
    at = np.arange(0, below.size, c).reshape(k * m, n)
    at += data.y[rows]
    below.reshape(-1)[at] = weights
    del at
    np.cumsum(below, axis=1, out=below)
    n_l = np.cumsum(weights, axis=1, dtype=np.intp)
    total = np.repeat(np.array([node[2] for node in nodes]), m, axis=0)
    count = total.sum(axis=1)
    # Screen: n (1 - weighted Gini) = sum(l_c^2) / n_l + sum(r_c^2) / n_r.
    # Its sums are exact integers, so only its two divisions and one add
    # round: with u = eps / 2 it errs by at most 3u n (conversions of sums
    # above 2**53 included). The float weighted Gini below errs by at most
    # (C + 6) u: C + 2 from the squared quotients and their sum, 1 from
    # 1 - s, 1 from the n_l and n_r products, 1 from their add and 1 from
    # the division by n. So a cut whose float Gini is at or below that of
    # the screen's best cut scores within 2 (n (C + 6) u + 3u n) =
    # n (C + 9) eps of the best's score. Finalists are the cuts within
    # twice that, which also covers second-order terms; only they run the
    # float expression, so each feature's float first minimum is kept.
    left_sq = np.einsum("lnc,lnc->ln", below, below)
    right_sq = np.einsum("lnc,lc->ln", below, -2 * total)
    right_sq += left_sq
    right_sq += np.einsum("lc,lc->l", total, total)[:, None]
    score = left_sq / n_l
    del left_sq
    score += right_sq / np.maximum(count[:, None] - n_l, 1)
    del right_sq
    # Every cut scores above 0, so zeroing the other positions leaves each
    # line's best cut its maximum.
    score *= step
    top = score.max(axis=1) - 2 * (c + 9) * np.finfo(float).eps * count
    fin = np.flatnonzero(step & (score >= top[:, None]))
    if fin.size == 0:
        return [None] * k
    group, cut = np.divmod(fin, n)
    count = count[group]
    left = np.take(below.reshape(-1, c), fin, axis=0)
    right = total[group] - left
    n_l = np.take(n_l, fin).astype(float)
    n_r = count - n_l
    # A C-contiguous (cuts, classes) sum: numpy adds 8 or more terms
    # pairwise, so summing class-major would change bits.
    g_l = 1.0 - np.sum((left / n_l[:, None]) ** 2, axis=1)
    g_r = 1.0 - np.sum((right / n_r[:, None]) ** 2, axis=1)
    weighted = (n_l * g_l + n_r * g_r) / count
    # Each feature's first minimum, then the 1e-15 rule across features.
    low = {}
    for j, (g, w) in enumerate(zip(group.tolist(), weighted.tolist())):
        if g not in low or w < low[g][0]:
            low[g] = (w, j)
    best = {}
    for g, (w, j) in low.items():
        if g // m not in best or w < best[g // m][0] - 1e-15:
            best[g // m] = (w, j)
    split = [i for i, (w, _) in best.items() if w < nodes[i][3] - 1e-15]
    if not split:
        return [None] * k
    j = np.array([best[i][1] for i in split])
    line, cut = group[j], cut[j]
    f = feats.reshape(-1)[line]
    x0 = data.X[rows[line, cut], f].tolist()
    x1 = data.X[rows[line, cut + 1], f].tolist()
    thresholds = []
    for a, b in zip(x0, x1):
        th = 0.5 * (a + b)
        if not math.isfinite(th):
            # The sum overflowed; halving first cannot. Only such pairs take
            # this path, so every other threshold keeps its bits.
            th = 0.5 * a + 0.5 * b
        # A midpoint rounded onto the upper value would send it left too:
        # the lower value keeps the left child the scored prefix.
        thresholds.append(a if th >= b else th)
    # Rows are sorted by value, so each left child (x <= th) is the prefix
    # up to its cut.
    lc = below.reshape(-1, c)[line * n + cut]
    child_counts = np.concatenate([lc, total[line] - lc])
    gini, label = _impurity(child_counts)
    gini, label = gini.tolist(), label.tolist()
    out = [None] * k
    for s, i in enumerate(split):
        a, b, r = cut[s] + 1, nodes[i][0].size, len(split) + s
        out[i] = (int(f[s]), thresholds[s],
                  (rows[line[s], :a].copy(), weights[line[s], :a].copy(),
                   child_counts[s], gini[s], label[s]),
                  (rows[line[s], a:b].copy(), weights[line[s], a:b].copy(),
                   child_counts[r], gini[r], label[r]))
    return out


class _Growth:
    """One tree in growth: its rng, its preorder stack of pending nodes and
    its node table so far, in ``Tree.from_obj``'s row layout."""

    def __init__(self, data, rng, sample):
        # The sample's distinct rows and their multiplicities, in the
        # smallest dtype that holds the padding row's index.
        dtype = np.min_scalar_type(data.X.shape[0])
        weights = np.bincount(sample, minlength=data.X.shape[0])
        rows = np.flatnonzero(weights)
        counts = np.bincount(data.y[sample], minlength=data.n_classes)
        gini, label = _impurity(counts[None])
        node = (rows.astype(dtype), weights[rows].astype(dtype), counts,
                float(gini[0]), int(label[0]))
        self.rng = rng
        # (depth, parent if a right child, node), a node as _search takes it
        self.stack = [(0, None, node)]
        self.table = []
        self.n_levels = 0

    def next_split(self, max_depth: int):
        """Pop nodes in preorder, entering each in the table as a leaf, up
        to the first that needs a split search: its (table row, depth,
        node), or None once the tree is complete. A node of one distinct
        row has one label, so Gini 0."""
        while self.stack:
            depth, parent, node = self.stack.pop()
            i = len(self.table)
            if parent is not None:
                self.table[parent][3] = i
            self.n_levels = max(self.n_levels, depth)
            self.table.append([0, 0.0, i, i, node[4]])
            if depth < max_depth and node[3] != 0.0:
                return i, depth, node
        return None

    def place(self, i: int, depth: int, split) -> None:
        """Make table row ``i`` a split with its children pending, unless
        the search found none (``split`` None)."""
        if split is not None:
            f, th, left, right = split
            self.table[i] = [f, th, i + 1, None, -1]
            self.stack.append((depth + 1, i, right))
            self.stack.append((depth + 1, None, left))


def _grow(data, roots, max_depth, max_features) -> list:
    """Trees grown in lockstep on the (rng, training sample) pairs of
    ``roots``, as ``Tree`` node tables in root order.

    Each round, every tree in growth pops nodes off its preorder stack
    until it reaches one that needs a split, and draws that node's
    candidate features from its own rng, so each tree draws in the same
    order as a recursive grower. The round's searches then run together,
    largest node (in distinct rows) first, in padded blocks of at most
    ``SPLIT_BLOCK`` (nodes x features x rows) elements; a larger node has
    a block of its own. The pending nodes of a tree hold at most its N
    sample rows' distinct rows and their weights, so new trees start only
    while the rows of the trees in growth fit in the bytes of one block's
    int64 array (one tree at least): memory does not grow with the number
    of trees.
    """
    n_rows, n_feat = data.X.shape
    m = min(max_features, n_feat)
    in_flight = max(1, 8 * SPLIT_BLOCK // (
        n_rows * np.min_scalar_type(n_rows).itemsize))
    roots = enumerate(roots)
    tables, growing = {}, {}
    while True:
        for t, root in itertools.islice(roots, in_flight - len(growing)):
            growing[t] = _Growth(data, *root)
        if not growing:
            return [tables[t] for t in sorted(tables)]
        searches = []  # (distinct rows, tree, table row, depth, node, feats)
        for t, tree in list(growing.items()):
            found = tree.next_split(max_depth)
            if found is None:
                tables[t] = Tree._of_table(tree.table, tree.n_levels)
                del growing[t]
                continue
            feats = (np.sort(tree.rng.choice(n_feat, size=m, replace=False))
                     if m < n_feat else np.arange(n_feat))
            searches.append((found[2][0].size, tree) + found + (feats,))
        searches.sort(key=lambda search: -search[0])
        while searches:
            width = max(1, SPLIT_BLOCK // (m * searches[0][0]))
            block, searches = searches[:width], searches[width:]
            splits = _search(data, [b[4] for b in block],
                             np.array([b[5] for b in block]))
            for (_, tree, i, depth, _, _), split in zip(block, splits):
                tree.place(i, depth, split)


def _check_data(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("X must be a non-empty 2-D array")
    if y.shape != (X.shape[0],):
        raise DataError("y must be 1-D with one label per row of X")
    y = _integer_labels(y)
    if np.any(y < 0):
        raise DataError("labels must be non-negative")
    if not np.all(np.isfinite(X)):
        raise DataError("X contains non-finite values")
    return X, y


def _integer_labels(y) -> np.ndarray:
    """``y`` as ints; DataError unless it holds bools, integers or floats
    equal to their integer cast (numeric strings are not labels)."""
    y = np.asarray(y)
    with np.errstate(invalid="ignore"):     # NaN and inf fail the compare
        if y.dtype.kind not in "biuf" or not np.all(y == y.astype(int)):
            raise DataError("labels must be integers")
    return y.astype(int)


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
    trees = _grow(_Training.of(X, y, k), [(None, np.arange(X.shape[0]))],
                  max_depth, X.shape[1])
    return Forest(trees=tuple(trees), n_features=X.shape[1], n_classes=k,
                  feature_bounds=_bounds(X))


def train_forest(X, y, n_trees: int = 15, max_depth: int = 6, seed: int = 0,
                 n_classes: int | None = None) -> Forest:
    """Bootstrap forest; each split draws floor(sqrt(F)) candidate features."""
    X, y = _check_data(X, y)
    if n_trees < 1:
        raise ConfigError("n_trees must be at least 1")
    _check_depth(max_depth)
    k = _class_count(y, n_classes)
    m = max(1, int(math.isqrt(X.shape[1])))

    def roots():
        for t in range(n_trees):
            rng = np.random.default_rng([seed, t])
            yield rng, rng.integers(0, X.shape[0], size=X.shape[0])

    trees = _grow(_Training.of(X, y, k), roots(), max_depth, m)
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


def _loads(text: str):
    """The JSON value of an artifact's ``text``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ModelFormatError("JSON nested too deeply") from None


def from_json(text: str) -> Forest:
    return _from_obj(_loads(text))


def _from_obj(obj) -> Forest:
    """The forest of a parsed model artifact."""
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
    if not (_integer(n_features) and _integer(n_classes)):
        raise ModelFormatError("n_features and n_classes must be integers")
    if n_features < 1 or n_classes < 1:
        raise ModelFormatError("n_features and n_classes must be positive")
    if not isinstance(bounds, list) or len(bounds) != n_features:
        raise ModelFormatError("feature_bounds must list one bound per feature")
    fb = []
    for b in bounds:
        if not (isinstance(b, list) and len(b) == 2
                and all(_number(v) for v in b)
                and b[0] < b[1]):
            raise ModelFormatError("each feature bound must be (min, max)")
        fb.append((float(b[0]), float(b[1])))
    if not isinstance(tree_objs, list) or not tree_objs:
        raise ModelFormatError("model needs a non-empty list of trees")
    return Forest(trees=tuple(Tree.from_obj(t) for t in tree_objs),
                  n_features=n_features, n_classes=n_classes,
                  feature_bounds=tuple(fb))
