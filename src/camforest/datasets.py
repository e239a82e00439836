"""Dataset loading and synthetic benchmark generators.

CSV layout: header ``f0,...,f{F-1},label``, float features, integer label
in the last column.
"""

import csv
import io
from importlib import resources

import numpy as np

from .errors import DataError


def load_csv(path) -> tuple:
    """Read a feature/label CSV; returns (X, y)."""
    with open(path, "r", newline="") as fh:
        return _parse_csv(fh, str(path))


def loads_csv(text: str) -> tuple:
    return _parse_csv(io.StringIO(text), "<string>")


def _parse_csv(fh, name):
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{name}: empty file") from None
    if len(header) < 2 or header[-1].strip() != "label":
        raise DataError(f"{name}: header must end with a 'label' column")
    n_cols = len(header)
    feats, labels = [], []
    for i, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != n_cols:
            raise DataError(f"{name}: line {i} has {len(row)} fields, "
                            f"expected {n_cols}")
        try:
            feats.append([float(v) for v in row[:-1]])
            lab = float(row[-1])
        except ValueError as exc:
            raise DataError(f"{name}: line {i}: {exc}") from None
        if not (0 <= lab < 2**63 and lab == int(lab)):
            raise DataError(f"{name}: line {i}: label must be a "
                            "non-negative integer below 2**63")
        labels.append(int(lab))
    if not feats:
        raise DataError(f"{name}: no data rows")
    return np.asarray(feats, dtype=float), np.asarray(labels, dtype=int)


def save_csv(path, X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"f{j}" for j in range(X.shape[1])] + ["label"])
        for xi, yi in zip(X, y):
            w.writerow([repr(float(v)) for v in xi] + [int(yi)])


def load_iris() -> tuple:
    """Bundled 150x4 three-class flower measurements."""
    text = resources.files("camforest.data").joinpath("iris.csv").read_text()
    return loads_csv(text)


def train_test_split(X, y, test_fraction: float = 0.25, seed: int = 0) -> tuple:
    """Deterministic shuffled split: (X_tr, y_tr, X_te, y_te)."""
    if not 0 < test_fraction < 1:
        raise DataError("test_fraction must be in (0, 1)")
    n = X.shape[0]
    idx = np.random.default_rng(seed).permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    te, tr = idx[:n_test], idx[n_test:]
    return X[tr], y[tr], X[te], y[te]


def grid_classification(n_samples: int, n_features: int, n_classes: int,
                        seed: int, grid: int = 16) -> tuple:
    """Training set whose feature values all sit on an i/grid lattice.

    Every learnable threshold is then a lattice midpoint (k + 1/2)/grid or a
    coarser lattice fraction, so off-lattice evaluation inputs keep a known
    minimum distance from every decision boundary. Labels follow a random
    linear rule so trees have structure to fit. The first two rows pin the
    0 and 1 corners, fixing the per-feature bounds at (0, 1).
    """
    rng = np.random.default_rng(seed)
    X = rng.integers(0, grid + 1, size=(n_samples, n_features)) / grid
    X[0] = 0.0
    X[1] = 1.0
    w = rng.normal(size=n_features)
    score = X @ w
    edges = np.quantile(score, np.linspace(0, 1, n_classes + 1)[1:-1])
    y = np.digitize(score, edges)
    return X, y.astype(int)


def off_grid_inputs(n_samples: int, n_features: int, seed: int,
                    grid: int = 16, offset: float = 0.02) -> np.ndarray:
    """Evaluation inputs at lattice points shifted by a fixed offset.

    With offset strictly inside (0, 1/(2*grid)), every input stays at least
    min(offset, 1/(2*grid) - offset) away from any half-lattice threshold.
    """
    if not 0 < offset < 0.5 / grid:
        raise DataError("offset must lie strictly inside (0, 1/(2*grid))")
    rng = np.random.default_rng(seed)
    base = rng.integers(0, grid, size=(n_samples, n_features)) / grid
    return base + offset


def gaussian_blobs(n_samples: int, n_features: int, n_classes: int,
                   seed: int, spread: float = 0.08) -> tuple:
    """Isotropic class clusters with centers spread inside the unit cube."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.15, 0.85, size=(n_classes, n_features))
    y = rng.integers(0, n_classes, size=n_samples)
    X = centers[y] + rng.normal(0.0, spread, size=(n_samples, n_features))
    return np.clip(X, 0.0, 1.0), y.astype(int)


def _rule_tree(rng, n_dims: int, depth: int, lo: np.ndarray, hi: np.ndarray,
               value: float, scale: float, decay: float = 0.8):
    """Random hierarchical piecewise-constant function on the unit box.

    Each split hands its children value +- an independent increment whose
    scale shrinks geometrically with depth, so the function carries signal
    at every resolution rather than only at the leaves. Returned as nested
    (feature, threshold, left, right) tuples with float leaf values.
    Thresholds stay in the middle band of each cell so no branch collapses
    onto a sliver.
    """
    if depth == 0:
        return value
    j = int(np.argmax((hi - lo) * rng.uniform(0.5, 1.0, size=n_dims)))
    if hi[j] - lo[j] < 0.02:
        return value
    t = lo[j] + (hi[j] - lo[j]) * rng.uniform(0.3, 0.7)
    hi_l, lo_r = hi.copy(), lo.copy()
    hi_l[j] = t
    lo_r[j] = t
    delta = rng.normal(0.0, scale)
    left = _rule_tree(rng, n_dims, depth - 1, lo, hi_l,
                      value + delta, scale * decay, decay)
    right = _rule_tree(rng, n_dims, depth - 1, lo_r, hi,
                       value - delta, scale * decay, decay)
    return (j, t, left, right)


def _rule_values(rule, X: np.ndarray) -> np.ndarray:
    v = np.empty(len(X))
    stack = [(rule, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if isinstance(node, float):
            v[idx] = node
            continue
        j, t, left, right = node
        mask = X[idx, j] <= t
        stack.append((left, idx[mask]))
        stack.append((right, idx[~mask]))
    return v


def sparse_informative(n_samples: int, n_features: int, n_informative: int,
                       n_classes: int, seed: int) -> tuple:
    """Wide dataset where only the first n_informative features carry signal.

    Models a bank of redundant sensors: every informative column is a
    lightly jittered copy of one latent variable, and the label digitizes
    a hidden multi-scale staircase of that latent (a depth-14 random
    cascade, far finer than any practical tree can resolve). Redundancy
    means nearly every random feature draw contains a useful column, and
    the staircase keeps impurity gain alive at every depth, so trained
    trees concentrate their occupied cells into the informative block.
    The remaining columns are uniform noise.
    """
    if n_informative > n_features:
        raise DataError("n_informative exceeds n_features")
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.0, 1.0, size=(n_samples, 1))
    rule = _rule_tree(rng, 1, 14, np.zeros(1), np.ones(1), 0.0, 1.0)
    v = _rule_values(rule, z)
    edges = np.quantile(v, np.linspace(0, 1, n_classes + 1)[1:-1])
    y = np.digitize(v, edges)
    X = rng.uniform(0.0, 1.0, size=(n_samples, n_features))
    jitter = rng.normal(0.0, 0.002, size=(n_samples, n_informative))
    X[:, :n_informative] = np.clip(z + jitter, 0.0, 1.0)
    return X, y.astype(int)
