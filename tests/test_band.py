"""Exactness outside the band, over drawn forests, operating points and
inputs.

Inside each stored bound a branch's current falls from the sense current
to exactly 0.0 over a band of width delta (``BandEdges.widths_v``). An
input farther than delta from every stored bound puts every cell either at
exactly 0.0 A or above the sense current on its own, so the hardware must
then decide exactly as the software forest does. Inputs inside some band
are counted, not asserted: two or more in-band cells of one row can sum
past the sense current and drop the row.
"""

import numpy as np
import pytest

from camforest.arch import ArchConfig, infer_batch, program
from camforest.datasets import gaussian_blobs
from camforest.device import (
    V_DL_MAX,
    V_DL_MIN,
    DeviceModel,
    band_edges,
    reference_current,
)
from camforest.forest import train_forest
from camforest.mapper import compile_forest, extract_paths, map_predict


def _band_width(config: ArchConfig, tile_w: int, feature_bounds):
    """(F,) widest band of either branch in feature units."""
    i_ref = reference_current(config.parasitics.ml_capacitance(tile_w),
                              config.v_ml0, config.v_sa, config.t_clk)
    delta_v = max(band_edges(config.params, i_ref).widths_v(config.params))
    b = np.asarray(feature_bounds)
    return delta_v * (b[:, 1] - b[:, 0]) / (V_DL_MAX - V_DL_MIN)


def _inputs(rng, tmap, feature_bounds, delta, n: int):
    """Uniform samples, then samples with one to three features moved onto
    a stored bound, or 0.5, 1.5 or 4 band widths to either side of it."""
    b = np.asarray(feature_bounds)
    X = rng.uniform(b[:, 0], b[:, 1], (n, len(b)))
    bounds = [np.unique(np.concatenate([tmap.lo[:, f], tmap.hi[:, f]]))
              for f in range(len(b))]
    bounds = [v[np.isfinite(v)] for v in bounds]
    features = [f for f in range(len(b)) if bounds[f].size]
    for x in X[n // 4:]:
        for f in rng.choice(features, size=rng.integers(1, 4)):
            shift = rng.choice([0.0, 0.5, 1.5, 4.0]) * rng.choice([-1, 1])
            x[f] = rng.choice(bounds[f]) + shift * delta[f]
    return X


def _in_band(X, tmap, feature_bounds, delta):
    """(samples,) True where some clipped feature lies within its band
    width of a stored bound."""
    b = np.asarray(feature_bounds)
    Xc = np.clip(X, b[:, 0], b[:, 1])
    near = np.zeros(len(X), dtype=bool)
    for f in range(X.shape[1]):
        stored = np.concatenate([tmap.lo[:, f], tmap.hi[:, f]])
        stored = np.unique(stored[np.isfinite(stored)])
        if stored.size:
            gap = np.abs(Xc[:, f, None] - stored).min(axis=1)
            near |= gap <= delta[f]
    return near


@pytest.mark.parametrize("draw", range(12))
def test_decisions_exact_outside_the_band(draw):
    rng = np.random.default_rng([2026, draw])
    n_features = int(rng.choice([3, 8, 20]))
    X_tr, y_tr = gaussian_blobs(300, n_features, 3, seed=draw)
    forest = train_forest(X_tr, y_tr, n_trees=int(rng.integers(2, 10)),
                          max_depth=int(rng.integers(2, 7)), seed=draw)
    config = ArchConfig(t_clk=float(10 ** rng.uniform(-6.3, -5.7)),
                        v_sa=float(rng.uniform(0.3, 0.5)))
    tile = int(rng.choice([8, 16]))
    arch = program(compile_forest(forest, tile, tile), DeviceModel(), config,
                   forest.feature_bounds, forest.n_classes)
    tmap = extract_paths(forest)
    delta = _band_width(config, tile, forest.feature_bounds)
    X = _inputs(rng, tmap, forest.feature_bounds, delta, 400)
    near = _in_band(X, tmap, forest.feature_bounds, delta)
    far = ~near
    hardware = infer_batch(arch, X)
    software = forest.predict(X)
    assert np.array_equal(hardware[far], software[far])
    assert np.array_equal(map_predict(tmap, X[far], forest.n_classes),
                          software[far])
    # The draw reaches into the bands, and asserts on inputs within two
    # band widths of a stored bound.
    assert near.any()
    assert np.any(far & _in_band(X, tmap, forest.feature_bounds, 2 * delta))
    print(f"draw {draw}: {near.sum()} of {len(X)} inputs in a band, "
          f"{int(np.sum(hardware[near] != software[near]))} of them "
          "decided otherwise")
