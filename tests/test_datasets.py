"""Loaders and synthetic generators."""

import numpy as np
import pytest

from camforest.datasets import (
    gaussian_blobs,
    grid_classification,
    load_csv,
    load_iris,
    loads_csv,
    off_grid_inputs,
    save_csv,
    sparse_informative,
    train_test_split,
)
from camforest.errors import DataError


def test_iris_shape_and_classes():
    X, y = load_iris()
    assert X.shape == (150, 4)
    assert np.array_equal(np.bincount(y), [50, 50, 50])
    assert X.min() > 0


def test_csv_round_trip(tmp_path):
    X = np.array([[0.125, 3.5], [1.0, -2.25]])
    y = np.array([0, 2])
    path = tmp_path / "d.csv"
    save_csv(path, X, y)
    X2, y2 = load_csv(path)
    assert np.array_equal(X, X2)
    assert np.array_equal(y, y2)


def test_csv_rejects_malformed():
    with pytest.raises(DataError):
        loads_csv("")
    with pytest.raises(DataError):
        loads_csv("f0,f1\n1,2\n")           # no label column
    with pytest.raises(DataError):
        loads_csv("f0,label\n1\n")           # short row
    with pytest.raises(DataError):
        loads_csv("f0,label\n1,x\n")         # non-numeric label
    with pytest.raises(DataError):
        loads_csv("f0,label\n1,1.5\n")       # fractional label
    with pytest.raises(DataError):
        loads_csv("f0,label\n")              # no data rows
    for label in ("nan", "inf", "1e400",     # non-finite label
                  "1e300", str(2**63)):      # past int64
        with pytest.raises(DataError, match="line 3: label must be a "
                           "non-negative integer"):
            loads_csv(f"f0,label\n1,0\n2,{label}\n")


def test_train_test_split_partitions():
    X, y = load_iris()
    X_tr, y_tr, X_te, y_te = train_test_split(X, y, 0.2, seed=3)
    assert len(X_tr) + len(X_te) == 150
    assert len(X_te) == 30
    a = train_test_split(X, y, 0.2, seed=3)
    assert np.array_equal(a[2], X_te)


def test_grid_classification_values_on_lattice():
    X, y = grid_classification(300, 8, 3, seed=5, grid=16)
    assert np.all(np.abs(X * 16 - np.round(X * 16)) < 1e-12)
    assert X.min() == 0.0 and X.max() == 1.0
    assert np.all(X[0] == 0.0) and np.all(X[1] == 1.0)
    assert set(np.unique(y)) <= {0, 1, 2}
    assert len(np.unique(y)) == 3


def test_off_grid_inputs_keep_margin_from_half_lattice():
    Xe = off_grid_inputs(200, 8, seed=6, grid=16, offset=0.02)
    # Distance to every k/32 threshold candidate is at least 0.01125.
    d = np.abs(Xe * 32 - np.round(Xe * 32)) / 32
    assert d.min() >= 0.01125 - 1e-12
    with pytest.raises(DataError):
        off_grid_inputs(10, 2, seed=0, grid=16, offset=0.04)


def test_gaussian_blobs_learnable():
    from camforest.forest import train_forest

    X, y = gaussian_blobs(400, 4, 3, seed=7)
    assert X.shape == (400, 4) and X.min() >= 0 and X.max() <= 1
    model = train_forest(X, y, n_trees=5, max_depth=5, seed=0)
    assert np.mean(model.predict(X) == y) > 0.9


def test_sparse_informative_concentrates_signal():
    from camforest.forest import train_forest
    from camforest.mapper import extract_paths

    X, y = sparse_informative(400, 64, 4, 3, seed=9)
    forest = train_forest(X, y, n_trees=6, max_depth=6, seed=0)
    counts = extract_paths(forest).occupancy()
    assert counts[:4].mean() > 3 * counts[4:].mean()
    with pytest.raises(DataError):
        sparse_informative(10, 4, 8, 2, seed=0)
