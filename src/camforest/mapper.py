"""Compile a trained forest into stored-range rows and packed tiles.

Each root-to-leaf path becomes one row of per-feature acceptance ranges
(wildcards where the path never tests a feature). Columns and rows can be
reordered to concentrate occupied cells, then the map is packed into H x W
tiles per feature group; a row is written into a group's tiles only where
it has at least one occupied cell, and matches implicitly elsewhere.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .device import ThresholdRange
from .errors import ConfigError, InvariantError, ModelFormatError
from .forest import Forest, _integer, _loads, _number

PLAN_FORMAT = "camforest-plan"
PLAN_VERSION = 1
# The one wildcard range that extracted rows share (ranges are immutable).
_WILDCARD = ThresholdRange()


@dataclass(frozen=True)
class MapRow:
    """One root-to-leaf path: acceptance ranges, its class, its tree."""

    ranges: tuple
    class_label: int
    tree_index: int

    def occupied(self) -> np.ndarray:
        return np.array([not r.wildcard for r in self.ranges])


class ThresholdMap:
    """Stored-range rows as read-only arrays: ``lo``/``hi`` (rows, F)
    bounds with infinities at wildcards, ``labels`` and ``trees`` (rows,)
    each row's class and tree, and ``occupied`` (rows, F) non-wildcard
    cells. ``ThresholdMap(rows, F)`` builds a map from ``MapRow``s;
    ``ThresholdMap.of_arrays`` takes the arrays, and its ``rows`` are
    built from them on first use. Maps are equal when their arrays are.
    """

    def __init__(self, rows, n_features: int):
        rows = tuple(rows)
        for row in rows:
            if len(row.ranges) != n_features:
                raise InvariantError("row length differs from n_features")
        # Flat float lists: no per-cell containers for the collector to track.
        cells = [r for row in rows for r in row.ranges]
        shape = (len(rows), n_features)
        self._set(np.array([r.lo for r in cells], dtype=float).reshape(shape),
                  np.array([r.hi for r in cells], dtype=float).reshape(shape),
                  np.array([row.class_label for row in rows], dtype=np.intp),
                  np.array([row.tree_index for row in rows], dtype=np.intp),
                  n_features, rows)

    @classmethod
    def of_arrays(cls, lo, hi, labels, trees,
                  n_features: int) -> "ThresholdMap":
        """The map of (rows, F) ``lo``/``hi`` bounds and (rows,) ``labels``
        and ``trees``; the arrays become the map's, read-only."""
        if lo.shape != (labels.size, n_features) or hi.shape != lo.shape:
            raise InvariantError("row length differs from n_features")
        tmap = cls.__new__(cls)
        tmap._set(lo, hi, labels.astype(np.intp, copy=False),
                  trees.astype(np.intp, copy=False), n_features, None)
        return tmap

    def _set(self, lo, hi, labels, trees, n_features, rows) -> None:
        occupied = ~(np.isinf(lo) & np.isinf(hi))
        for value in (lo, hi, labels, trees, occupied):
            value.setflags(write=False)
        for name, value in (("lo", lo), ("hi", hi), ("labels", labels),
                            ("trees", trees), ("occupied", occupied),
                            ("n_features", n_features), ("_rows", rows)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("ThresholdMap is read-only")

    def __eq__(self, other):
        if not isinstance(other, ThresholdMap):
            return NotImplemented
        return self.n_features == other.n_features and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("lo", "hi", "labels", "trees"))

    @property
    def n_rows(self) -> int:
        return self.labels.size

    @property
    def rows(self) -> tuple:
        """The map's ``MapRow``s (for plan JSON and reports), built once."""
        if self._rows is None:
            # Only cells with a finite bound get a range object of their own.
            ranges = [[_WILDCARD] * self.n_features for _ in self.labels]
            cell = np.nonzero((self.lo > -math.inf) | (self.hi < math.inf))
            for r, f, a, b in zip(*(axis.tolist() for axis in cell),
                                  self.lo[cell].tolist(),
                                  self.hi[cell].tolist()):
                ranges[r][f] = ThresholdRange(a, b)
            rows = tuple(MapRow(tuple(cells), label, tree)
                         for cells, label, tree in zip(ranges,
                                                       self.labels.tolist(),
                                                       self.trees.tolist()))
            object.__setattr__(self, "_rows", rows)
        return self._rows

    def occupancy(self) -> np.ndarray:
        """Count of non-wildcard cells per column."""
        return self.occupied.sum(axis=0)


def extract_paths(forest: Forest) -> ThresholdMap:
    """One map row per leaf, tree by tree and in preorder (left to right)
    within a tree; a left branch tightens its child's hi, a right branch
    its child's lo.

    The trees' node tables are joined into one, and each level's splits
    hand their paths' bounds to their children at once."""
    trees, n_features = forest.trees, forest.n_features
    base = np.cumsum([0] + [tree.label.size for tree in trees])
    feature, threshold, label = (np.concatenate([getattr(tree, name)
                                                 for tree in trees])
                                 for name in ("feature", "threshold", "label"))
    left, right = (np.concatenate([getattr(tree, name) + b
                                   for tree, b in zip(trees, base)])
                   for name in ("left", "right"))
    is_split = left != np.arange(base[-1])
    lo = np.full((base[-1], n_features), -math.inf)
    hi = np.full((base[-1], n_features), math.inf)
    bad = []
    node = base[:-1]
    while node.size:
        node = node[is_split[node]]
        f, th = feature[node], threshold[node]
        # Both children's ranges are non-empty iff th lies strictly
        # inside the path's range; it then tightens one side of each.
        bad.append(node[~((lo[node, f] < th) & (th < hi[node, f]))])
        a, b = left[node], right[node]
        lo[a] = lo[b] = lo[node]
        hi[a] = hi[b] = hi[node]
        hi[a, f] = th
        lo[b, f] = th
        node = np.concatenate([a, b])
    bad = np.concatenate(bad)
    if bad.size:
        i = bad.min()  # the first in tree order, then in preorder
        raise InvariantError(
            f"tree {np.searchsorted(base, i, side='right') - 1}: "
            f"contradictory path on feature {feature[i]}")
    leaf = np.flatnonzero(~is_split)
    tree_of = np.repeat(np.arange(len(trees)), np.diff(base))
    return ThresholdMap.of_arrays(lo[leaf], hi[leaf], label[leaf],
                                  tree_of[leaf], n_features)


def map_matches(tmap: ThresholdMap, X) -> np.ndarray:
    """Ideal range semantics: (samples, rows) boolean match matrix."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] != tmap.n_features:
        raise ValueError(f"samples must have {tmap.n_features} features")
    lo, hi = tmap.lo, tmap.hi
    matched = np.ones((len(X), tmap.n_rows), dtype=bool)
    for f in range(tmap.n_features):   # no (samples, rows, F) temporary
        matched &= (X[:, f, None] > lo[:, f]) & (X[:, f, None] <= hi[:, f])
    return matched


def map_predict(tmap: ThresholdMap, X, n_classes: int) -> np.ndarray:
    """Software evaluation of the map itself (used as the semantic oracle)."""
    matched = map_matches(tmap, X)
    onehot = np.zeros((tmap.n_rows, n_classes), dtype=int)
    onehot[np.arange(tmap.n_rows), tmap.labels] = 1
    return np.argmax(matched.astype(int) @ onehot, axis=1)


def reorder(tmap: ThresholdMap, group_width: int | None = None) -> tuple:
    """Concentrate occupied cells: returns (col_perm, row_perm, new map).

    Columns sort by descending occupancy (stable). Rows then sort by the
    leftmost feature group holding an occupied cell, ties by descending
    occupancy, then by original index. col_perm[i] is the original feature
    shown in column i, so inference permutes its inputs the same way.
    """
    col_perm = np.argsort(-tmap.occupancy(), kind="stable")
    w = group_width if group_width is not None else 1
    if w < 1:
        raise ConfigError("group width must be positive")
    occ = tmap.occupied[:, col_perm]
    # Fully wildcard rows take group ceil(F / w), past every real group.
    n_groups = math.ceil(tmap.n_features / w)
    leftmost = np.where(occ, np.arange(tmap.n_features) // w, n_groups).min(
        axis=1, initial=n_groups)
    row_perm = np.lexsort((-occ.sum(axis=1), leftmost))
    return col_perm, row_perm, apply_permutations(tmap, col_perm, row_perm)


def apply_permutations(tmap: ThresholdMap, col_perm, row_perm) -> ThresholdMap:
    """Rebuild a map under explicit permutations (inverses undo reorder)."""
    rows = np.asarray(row_perm, dtype=np.intp)
    cols = np.ix_(rows, np.asarray(col_perm, dtype=np.intp))
    return ThresholdMap.of_arrays(tmap.lo[cols], tmap.hi[cols],
                                  tmap.labels[rows], tmap.trees[rows],
                                  tmap.n_features)


def raw_cells(tmap: ThresholdMap) -> int:
    """Cell count of the unpacked map: rows times features."""
    return tmap.n_rows * tmap.n_features


@dataclass(frozen=True)
class TiledPlan:
    """Packed layout: per feature group, tiles listing map-row ids."""

    tmap: ThresholdMap          # column-permuted map the tiles index into
    tile_h: int
    tile_w: int
    col_perm: tuple             # column -> original feature index
    groups: tuple               # groups[g] = tuple of tiles; tile = row ids

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_tiles(self) -> int:
        return sum(len(g) for g in self.groups)

    @property
    def n_active_groups(self) -> int:
        """Groups with at least one tile; the others match implicitly."""
        return sum(1 for tiles in self.groups if tiles)

    @property
    def memory_cells(self) -> int:
        return self.n_tiles * self.tile_h * self.tile_w

    def group_columns(self, g: int) -> range:
        start = g * self.tile_w
        return range(start, min(start + self.tile_w, self.tmap.n_features))


def pack_tiles(tmap: ThresholdMap, tile_h: int, tile_w: int,
               col_perm=None) -> TiledPlan:
    """Greedy top-to-bottom sweep: a row joins a group's current tile iff
    it has an occupied cell in that group's columns."""
    if tile_h < 1 or tile_w < 1:
        raise ConfigError("tile dimensions must be positive")
    if col_perm is None:
        col_perm = tuple(range(tmap.n_features))
    else:
        col_perm = tuple(int(c) for c in col_perm)
        if sorted(col_perm) != list(range(tmap.n_features)):
            raise InvariantError("col_perm is not a permutation")
    groups = []
    for start in range(0, tmap.n_features, tile_w):
        rows = np.flatnonzero(
            tmap.occupied[:, start:start + tile_w].any(axis=1)).tolist()
        groups.append(tuple(tuple(rows[i:i + tile_h])
                            for i in range(0, len(rows), tile_h)))
    return TiledPlan(tmap=tmap, tile_h=tile_h, tile_w=tile_w,
                     col_perm=col_perm, groups=tuple(groups))


def plan_to_json(plan: TiledPlan, feature_bounds=None, programming=None) -> str:
    """Serialize a plan; optionally embed bounds and encoded conductances."""
    tmap = plan.tmap
    obj = {
        "format": PLAN_FORMAT,
        "version": PLAN_VERSION,
        "tile_h": plan.tile_h,
        "tile_w": plan.tile_w,
        "n_features": tmap.n_features,
        "col_perm": list(plan.col_perm),
        "rows": [  # an open side of a range is null
            {"ranges": [{"lo": None if math.isinf(a) else a,
                         "hi": None if math.isinf(b) else b}
                        for a, b in zip(row_lo, row_hi)],
             "class": label, "tree": tree}
            for row_lo, row_hi, label, tree in zip(
                tmap.lo.tolist(), tmap.hi.tolist(), tmap.labels.tolist(),
                tmap.trees.tolist())
        ],
        "groups": [[list(tile) for tile in tiles] for tiles in plan.groups],
        "memory_cells": plan.memory_cells,
    }
    if feature_bounds is not None:
        obj["feature_bounds"] = [list(map(float, b)) for b in feature_bounds]
    if programming is not None:
        obj["programming"] = programming
    return json.dumps(obj, sort_keys=True, indent=1)


def _range_bounds(obj) -> tuple:
    """A stored range's (lo, hi): null opens a side, and a bound must be a
    finite JSON number (what ``float`` cannot read fails there first)."""
    try:
        lo, hi = obj["lo"], obj["hi"]
    except (TypeError, KeyError):
        raise ModelFormatError("range must carry lo and hi") from None
    pair = (-math.inf if lo is None else float(lo),
            math.inf if hi is None else float(hi))
    if not all(v is None or _number(v) and math.isfinite(v) for v in (lo, hi)):
        raise ModelFormatError("plan range bounds must be finite numbers "
                               "or null")
    if pair[0] > pair[1]:
        raise ValueError("range lower bound exceeds upper bound")
    return pair


def plan_from_json(text: str) -> tuple:
    """Returns (TiledPlan, feature_bounds or None)."""
    return _plan_from_obj(_loads(text))


def _plan_from_obj(obj) -> tuple:
    """``plan_from_json`` of a parsed plan artifact."""
    if not isinstance(obj, dict) or obj.get("format") != PLAN_FORMAT:
        raise ModelFormatError("missing plan format tag")
    if obj.get("version") != PLAN_VERSION:
        raise ModelFormatError(f"unsupported plan version {obj.get('version')!r}")
    try:
        n_features = obj["n_features"]
        if not _integer(n_features):
            raise ModelFormatError("plan n_features must be an integer")
        ranges, labels, trees = [], [], []
        for row in obj["rows"]:
            ranges.append([_range_bounds(r) for r in row["ranges"]])
            for key, values in (("class", labels), ("tree", trees)):
                if not _integer(row[key]):
                    raise ModelFormatError(f"plan row {key} must be an integer")
                values.append(row[key])
        if not labels:
            raise ModelFormatError("plan has no rows")
        if min(labels) < 0 or min(trees) < 0:
            raise ModelFormatError("row class and tree must be non-negative")
        if any(len(row) != n_features for row in ranges):
            raise ModelFormatError("row ranges must hold one range per feature")
        lo, hi = np.array(ranges, dtype=float).reshape(
            len(labels), n_features, 2).transpose(2, 0, 1).copy()
        tmap = ThresholdMap.of_arrays(lo, hi, np.array(labels),
                                      np.array(trees), n_features)
        for key in ("tile_h", "tile_w"):
            if not _integer(obj[key]):
                raise ModelFormatError(f"plan {key} must be an integer")
        if not all(map(_integer, obj["col_perm"])):
            raise ModelFormatError("plan col_perm entry must be an integer")
        plan = pack_tiles(tmap, obj["tile_h"], obj["tile_w"], obj["col_perm"])
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise ModelFormatError(f"malformed plan: {exc!r}") from None
    if [[list(t) for t in g] for g in plan.groups] != obj["groups"]:
        raise ModelFormatError("stored tile layout disagrees with packing")
    if plan.memory_cells != obj.get("memory_cells"):
        raise ModelFormatError("stored memory_cells disagrees with packing")
    fb = obj.get("feature_bounds")
    if not fb:
        return plan, None
    try:
        bounds = tuple((float(a), float(b)) for a, b in fb)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed feature_bounds: {exc!r}") from None
    # ``float`` also reads numeric strings and booleans; the bounds must
    # already be JSON numbers.
    if len(bounds) != n_features or not all(
            _number(v) for pair in fb for v in pair) or not all(
            math.isfinite(a) and math.isfinite(b) and a < b for a, b in bounds):
        raise ModelFormatError("feature_bounds must hold one finite (min, max) "
                               "pair with min < max per feature")
    return plan, bounds


def compile_forest(forest: Forest, tile_h: int, tile_w: int,
                   reorder_map: bool = True) -> TiledPlan:
    """extract_paths + optional reorder + pack_tiles in one call."""
    tmap = extract_paths(forest)
    if reorder_map:
        col_perm, _, tmap = reorder(tmap, group_width=tile_w)
        return pack_tiles(tmap, tile_h, tile_w, col_perm)
    return pack_tiles(tmap, tile_h, tile_w)
