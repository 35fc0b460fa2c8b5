import math

import numpy as np
import pytest

from smalltime.paths import (BrownianBundle, BundleSpec, ForwardChunk, TimeGrid,
                             ergodic_grid, geometric_grid, refine_bisect,
                             sample_bundle, time_blocks, uniform_grid)


def _increment_variance_zscore(bundle: BrownianBundle) -> float:
    """z-score of the pooled variance of normalized increments.

    Increments over disjoint intervals, divided by sqrt(dt), should be
    standard normal; the pooled squared mean has standard error sqrt(2/n).
    """
    origin = {} if bundle.grid.points[0] == 0.0 else {"prepend": 0.0}
    dt = np.diff(bundle.grid.points, **origin)
    z = np.diff(bundle.paths, axis=2, **origin) / np.sqrt(dt)
    s2 = float(np.mean(z * z))
    return (s2 - 1.0) / math.sqrt(2.0 / z.size)


# --------------------------------------------------------------------- grids

def test_uniform_grid_points():
    g = uniform_grid(1.0, 4)
    assert np.allclose(g.points, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.kind == "uniform"


def test_geometric_grid_points():
    g = geometric_grid(1e-2, 0.5, 2)
    assert np.allclose(g.points, [0.0025, 0.005, 0.01], rtol=1e-14)
    assert g.points[0] > 0.0


def test_geometric_grid_rejects_bad_theta():
    with pytest.raises(ValueError):
        geometric_grid(1e-2, 1.5, 2)
    with pytest.raises(ValueError):
        geometric_grid(1e-2, 1.0, 2)


def test_geometric_grid_deep_levels_no_underflow():
    g = geometric_grid(1e-2, 0.5, 940)
    assert g.points[0] > 0.0
    with pytest.raises(ValueError):
        geometric_grid(1e-2, 0.5, 2000)  # below the 1e-300 floor


def test_grid_invariants():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 0.5]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([-1.0, 0.5]))
    # a NaN difference compares false against 0 and a last time of inf still
    # increases strictly, so finiteness is a check of its own
    for points in ([0.0, math.nan], [0.0, 1.0, math.inf], [math.nan, math.inf]):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(np.array(points))
    with pytest.raises(ValueError, match="horizon"):
        uniform_grid(math.inf, 4)
    with pytest.raises(ValueError, match="t0"):
        geometric_grid(math.inf, 0.5, 3)


def test_ergodic_grid_times():
    g = ergodic_grid(5)
    assert np.allclose(g.points, np.exp(-np.arange(5, 0, -1)), rtol=1e-12)


# ------------------------------------------------------------------ sampling

def test_bundle_starts_at_zero_and_is_deterministic():
    g = uniform_grid(1.0, 10)
    b1 = sample_bundle(2, g, 7, seed=123)
    b2 = sample_bundle(2, g, 7, seed=123)
    assert np.array_equal(b1.paths, b2.paths)
    assert np.all(b1.paths[:, :, 0] == 0.0)
    b3 = sample_bundle(2, g, 7, seed=124)
    assert not np.array_equal(b1.paths, b3.paths)


def test_bundle_chunking_matches_global_indexing():
    g = uniform_grid(0.5, 8)
    full = sample_bundle(3, g, 10, seed=9)
    part = sample_bundle(3, g, 4, seed=9, first_path=6)
    assert np.array_equal(full.paths[6:], part.paths)
    # a forward grid's chunks are drawn: read each whole in one time block
    spec = BundleSpec(3, g, 10, seed=9, chunk_size=3)
    chunks = [realise() for realise in spec.chunks()]
    assert all(isinstance(c, ForwardChunk) for c in chunks)
    assert [(c.first_path, c.path_count) for c in chunks] == [(0, 3), (3, 3), (6, 3), (9, 1)]
    glued = np.concatenate([next(time_blocks(c, 8)).transpose(1, 2, 0) for c in chunks])
    assert np.array_equal(full.paths, glued)


def test_bundle_spec_names_a_size_below_one():
    g = uniform_grid(0.5, 8)
    for fields in ({"dim": 0}, {"path_count": 0}, {"chunk_size": 0}, {"chunk_size": -3}):
        args = {"dim": 1, "grid": g, "path_count": 10, "seed": 9, **fields}
        with pytest.raises(ValueError, match=f"{next(iter(fields))} >= 1"):
            BundleSpec(**args)


def test_gaussian_statistics():
    g = uniform_grid(1.0, 1)
    b = sample_bundle(1, g, 100_000, seed=2024)
    w1 = b.paths[:, 0, -1]
    n = w1.size
    assert abs(w1.mean()) < 4.0 / math.sqrt(n)
    s2 = w1.var(ddof=1)
    assert abs(s2 - 1.0) < 5.0 * math.sqrt(2.0 / n)


def test_increment_sanity_zscore():
    b = sample_bundle(2, uniform_grid(1.0, 50), 2000, seed=5)
    assert abs(_increment_variance_zscore(b)) < 5.0


def test_geometric_bundle_statistics_and_nesting():
    g_small = geometric_grid(1e-2, 0.5, 10)
    g_big = geometric_grid(1e-2, 0.5, 25)
    a = sample_bundle(1, g_small, 500, seed=31)
    b = sample_bundle(1, g_big, 500, seed=31)
    # coarsest-first bridge: extending the grid extends the paths
    assert np.array_equal(a.paths, b.paths[:, :, 15:])
    assert abs(_increment_variance_zscore(b)) < 5.0


def test_self_similarity_spot_check():
    b = sample_bundle(1, ergodic_grid(40), 4000, seed=17)
    t = b.grid.points
    for idx in (0, 20, 39):
        n = 40 - idx
        x = math.exp(0.5 * n) * b.paths[:, 0, idx]
        s2 = x.var(ddof=1)
        assert abs(s2 - 1.0) < 5.0 * math.sqrt(2.0 / x.size)


# ---------------------------------------------------------------- refinement

def test_refine_bisect_couples_shared_times():
    b = sample_bundle(1, uniform_grid(1.0, 8), 200, seed=40)
    fine = refine_bisect(b)
    assert fine.grid.points.size == 17
    assert np.array_equal(fine.paths[:, :, ::2], b.paths)
    finer = refine_bisect(fine)
    assert np.array_equal(finer.paths[:, :, ::4], b.paths)
    # refinement draws fresh increments each level, and stays Brownian
    assert abs(_increment_variance_zscore(finer)) < 5.0


def test_refine_bisect_deterministic():
    b = sample_bundle(1, uniform_grid(1.0, 4), 10, seed=3)
    f1 = refine_bisect(b)
    f2 = refine_bisect(sample_bundle(1, uniform_grid(1.0, 4), 10, seed=3))
    assert np.array_equal(f1.paths, f2.paths)

