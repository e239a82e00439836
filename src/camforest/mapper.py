"""Compile a trained forest into stored-range rows and packed tiles.

Each root-to-leaf path becomes one row of per-feature acceptance ranges
(wildcards where the path never tests a feature). Columns and rows can be
reordered to concentrate occupied cells, then the map is packed into H x W
tiles per feature group; a row is written into a group's tiles only where
it has at least one occupied cell, and matches implicitly elsewhere.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .device import ThresholdRange
from .errors import ConfigError, InvariantError, ModelFormatError
from .forest import Forest

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


@dataclass(frozen=True)
class ThresholdMap:
    """Map rows plus their read-only arrays, built once: ``lo``/``hi``
    (rows, F) bounds with infinities at wildcards, ``labels`` (rows,)
    classes and ``occupied`` (rows, F) non-wildcard cells."""

    rows: tuple
    n_features: int
    lo: np.ndarray = field(init=False, repr=False, compare=False)
    hi: np.ndarray = field(init=False, repr=False, compare=False)
    labels: np.ndarray = field(init=False, repr=False, compare=False)
    occupied: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for row in self.rows:
            if len(row.ranges) != self.n_features:
                raise InvariantError("row length differs from n_features")
        # Flat float lists: no per-cell containers for the collector to track.
        cells = [r for row in self.rows for r in row.ranges]
        shape = (len(self.rows), self.n_features)
        lo = np.array([r.lo for r in cells], dtype=float).reshape(shape)
        hi = np.array([r.hi for r in cells], dtype=float).reshape(shape)
        labels = np.array([row.class_label for row in self.rows], dtype=np.intp)
        for name, value in (("lo", lo), ("hi", hi), ("labels", labels),
                            ("occupied", ~(np.isinf(lo) & np.isinf(hi)))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def occupancy(self) -> np.ndarray:
        """Count of non-wildcard cells per column."""
        return self.occupied.sum(axis=0)

    def bound_arrays(self) -> tuple:
        """(lo, hi) arrays of shape (rows, F) with infinities at wildcards."""
        return self.lo, self.hi


def extract_paths(forest: Forest) -> ThresholdMap:
    """One map row per leaf, in preorder (left to right); a left branch
    tightens its child's hi, a right branch its child's lo."""
    rows = []
    inf = math.inf
    for t_idx, tree in enumerate(forest.trees):
        feature, threshold, left, right, label = (
            a.tolist() for a in (tree.feature, tree.threshold, tree.left,
                                 tree.right, tree.label))
        # bounds[i] = (lo, hi) lists of node i's path; parents come first.
        bounds = [None] * len(label)
        bounds[0] = ([-inf] * forest.n_features, [inf] * forest.n_features)
        for i, (lo, hi) in enumerate(bounds):
            if left[i] == i:
                ranges = tuple(ThresholdRange(a, b) if a > -inf or b < inf
                               else _WILDCARD for a, b in zip(lo, hi))
                rows.append(MapRow(ranges, label[i], t_idx))
                continue
            f, th = feature[i], threshold[i]
            # Both children's ranges are non-empty iff th lies strictly
            # inside the path's range; it then tightens one side of each.
            if not lo[f] < th < hi[f]:
                raise InvariantError(
                    f"tree {t_idx}: contradictory path on feature {f}")
            bounds[left[i]] = (lo, hi[:f] + [th] + hi[f + 1:])
            bounds[right[i]] = (lo[:f] + [th] + lo[f + 1:], hi)
    return ThresholdMap(rows=tuple(rows), n_features=forest.n_features)


def map_matches(tmap: ThresholdMap, X) -> np.ndarray:
    """Ideal range semantics: (samples, rows) boolean match matrix."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    lo, hi = tmap.bound_arrays()
    return np.all((X[:, None, :] > lo) & (X[:, None, :] <= hi), axis=2)


def map_votes(tmap: ThresholdMap, matched: np.ndarray, n_classes: int) -> np.ndarray:
    onehot = np.zeros((len(tmap.rows), n_classes), dtype=int)
    onehot[np.arange(len(tmap.rows)), tmap.labels] = 1
    return matched.astype(int) @ onehot


def map_predict(tmap: ThresholdMap, X, n_classes: int) -> np.ndarray:
    """Software evaluation of the map itself (used as the semantic oracle)."""
    return np.argmax(map_votes(tmap, map_matches(tmap, X), n_classes), axis=1)


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
    new_rows = tuple(
        MapRow(
            ranges=tuple(tmap.rows[r].ranges[c] for c in col_perm),
            class_label=tmap.rows[r].class_label,
            tree_index=tmap.rows[r].tree_index,
        )
        for r in row_perm
    )
    return ThresholdMap(new_rows, tmap.n_features)


def raw_cells(tmap: ThresholdMap) -> int:
    """Cell count of the unpacked map: rows times features."""
    return len(tmap.rows) * tmap.n_features


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


def _range_to_obj(r: ThresholdRange):
    return {"lo": None if math.isinf(r.lo) else r.lo,
            "hi": None if math.isinf(r.hi) else r.hi}


def _range_from_obj(obj) -> ThresholdRange:
    try:
        lo, hi = obj["lo"], obj["hi"]
    except (TypeError, KeyError):
        raise ModelFormatError("range must carry lo and hi") from None
    return ThresholdRange(-math.inf if lo is None else float(lo),
                          math.inf if hi is None else float(hi))


def plan_to_json(plan: TiledPlan, feature_bounds=None, programming=None) -> str:
    """Serialize a plan; optionally embed bounds and encoded conductances."""
    obj = {
        "format": PLAN_FORMAT,
        "version": PLAN_VERSION,
        "tile_h": plan.tile_h,
        "tile_w": plan.tile_w,
        "n_features": plan.tmap.n_features,
        "col_perm": list(plan.col_perm),
        "rows": [
            {
                "ranges": [_range_to_obj(r) for r in row.ranges],
                "class": row.class_label,
                "tree": row.tree_index,
            }
            for row in plan.tmap.rows
        ],
        "groups": [[list(tile) for tile in tiles] for tiles in plan.groups],
        "memory_cells": plan.memory_cells,
    }
    if feature_bounds is not None:
        obj["feature_bounds"] = [list(map(float, b)) for b in feature_bounds]
    if programming is not None:
        obj["programming"] = programming
    return json.dumps(obj, sort_keys=True, indent=1)


def plan_from_json(text: str) -> tuple:
    """Returns (TiledPlan, feature_bounds or None)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or obj.get("format") != PLAN_FORMAT:
        raise ModelFormatError("missing plan format tag")
    if obj.get("version") != PLAN_VERSION:
        raise ModelFormatError(f"unsupported plan version {obj.get('version')!r}")
    try:
        n_features = int(obj["n_features"])
        rows = tuple(
            MapRow(
                ranges=tuple(_range_from_obj(r) for r in row["ranges"]),
                class_label=int(row["class"]),
                tree_index=int(row["tree"]),
            )
            for row in obj["rows"]
        )
        if not rows:
            raise ModelFormatError("plan has no rows")
        if any(row.class_label < 0 or row.tree_index < 0 for row in rows):
            raise ModelFormatError("row class and tree must be non-negative")
        if any(len(row.ranges) != n_features for row in rows):
            raise ModelFormatError("row ranges must hold one range per feature")
        tmap = ThresholdMap(rows, n_features)
        plan = pack_tiles(tmap, int(obj["tile_h"]), int(obj["tile_w"]),
                          obj["col_perm"])
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
    if len(bounds) != n_features or not all(
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
