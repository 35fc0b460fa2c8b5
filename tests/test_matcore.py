import math

import numpy as np
import pytest

from smalltime.matcore import (DomainError, GammaBand, SymMatrix,
                               dpe_operator_f, dpe_operator_fhat,
                               lil_normalizer, operator_norm)


# ---------------------------------------------------------------- normalizer

def test_normalizer_at_exp_minus_e():
    # loglog(1/t) collapses to 1
    assert lil_normalizer(math.exp(-math.e)) == pytest.approx(2 * math.exp(-math.e), rel=1e-14)


def test_normalizer_at_exp_minus_e_squared():
    assert lil_normalizer(math.exp(-math.e ** 2)) == pytest.approx(4 * math.exp(-math.e ** 2), rel=1e-14)


@pytest.mark.parametrize("t", [0.5, math.exp(-1.0), 1.0, 0.0, -1.0])
def test_normalizer_domain_errors(t):
    with pytest.raises(DomainError):
        lil_normalizer(t)


def test_normalizer_tiny_times_finite():
    vals = lil_normalizer(np.array([1e-300, 1e-100, 1e-12]))
    assert np.all(np.isfinite(vals)) and np.all(vals > 0)


# ------------------------------------------------------------------ symmetric

def test_symmatrix_symmetrizes_exactly():
    s = SymMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
    assert s.entries[0, 1] == s.entries[1, 0] == 1.0
    with pytest.raises(ValueError):
        SymMatrix(np.ones((2, 3)))


# ------------------------------------------------------------- operator norm

def test_operator_norm_identity():
    assert operator_norm(np.eye(4)) == pytest.approx(1.0)


def test_operator_norm_symmetric():
    assert operator_norm(np.diag([-3.0, 1.0])) == pytest.approx(3.0)


def test_operator_norm_nonsymmetric_vs_mesh():
    m = np.array([[0.0, 2.0], [0.0, 0.0]])
    # mesh search over unit vectors
    ang = np.linspace(0, 2 * np.pi, 100_000)
    y = np.stack([np.cos(ang), np.sin(ang)])
    ref = np.linalg.norm(m @ y, axis=0).max()
    assert operator_norm(m) == pytest.approx(2.0, abs=1e-12)
    assert operator_norm(m) == pytest.approx(ref, abs=1e-8)


def test_gamma_band_validation():
    with pytest.raises(ValueError):
        GammaBand(1.0, 1.0)
    with pytest.raises(ValueError):
        GammaBand(2.0, -1.0)
    b = GammaBand.upper_only(0.5)
    assert not b.has_lower and b.has_upper


# ------------------------------------------------------------- DPE operators

SIGMA = 0.2
BAND = GammaBand(-1.0, 1.0)


def test_operator_f_examples():
    assert dpe_operator_f(-0.02, 1.0, SIGMA, BAND) == pytest.approx(0.0)
    assert dpe_operator_f(0.0, 2.0, SIGMA, BAND) == pytest.approx(-1.0)
    assert dpe_operator_f(0.1, 0.0, SIGMA, BAND) == pytest.approx(-0.1)


def test_operator_f_infinite_bounds_drop_out():
    assert dpe_operator_f(0.0, 5.0, SIGMA, GammaBand.unbounded()) == pytest.approx(-0.1)
    assert dpe_operator_f(0.0, -50.0, SIGMA, GammaBand.upper_only(1.0)) == pytest.approx(1.0)


def _fhat_grid_oracle(p, a, sigma, band, beta_max=10.0, step=1e-4):
    betas = np.arange(0.0, beta_max + step, step)
    return float(np.max(dpe_operator_f(p, a + betas, sigma, band)))


def test_operator_fhat_grid_example_low_curvature():
    # optimum at a + beta = -1
    val = dpe_operator_fhat(0.02, -3.0, SIGMA, BAND)
    assert val == pytest.approx(0.0, abs=1e-12)
    assert val == pytest.approx(_fhat_grid_oracle(0.02, -3.0, SIGMA, BAND), abs=1e-3)


def test_operator_fhat_grid_example_first_branch():
    val = dpe_operator_fhat(1.0, 0.0, SIGMA, BAND)
    assert val == pytest.approx(-1.0, abs=1e-12)
    assert val == pytest.approx(_fhat_grid_oracle(1.0, 0.0, SIGMA, BAND), abs=1e-3)


def test_operator_fhat_beta_zero_when_first_branch_binds():
    # a >= lower and F's first branch binding: increasing beta only hurts
    p, a = 0.05, 0.3
    assert dpe_operator_fhat(p, a, SIGMA, BAND) == dpe_operator_f(p, a, SIGMA, BAND)


def test_operator_fhat_vs_grid_oracle_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = rng.uniform(-2, 2)
        a = rng.uniform(-6, 6)
        lo = rng.uniform(-3, 0.5)
        hi = lo + rng.uniform(0.2, 4.0)
        band = GammaBand(lo, hi)
        got = dpe_operator_fhat(p, a, SIGMA, band)
        ref = _fhat_grid_oracle(p, a, SIGMA, band, beta_max=15.0)
        assert got >= ref - 1e-12
        assert got == pytest.approx(ref, abs=2e-4)


def test_operator_fhat_dominates_f():
    rng = np.random.default_rng(6)
    for _ in range(200):
        p = rng.uniform(-2, 2)
        a = rng.uniform(-6, 6)
        assert dpe_operator_fhat(p, a, SIGMA, BAND) >= dpe_operator_f(p, a, SIGMA, BAND) - 1e-15


def test_operator_fhat_no_lower_bound_is_f():
    band = GammaBand.upper_only(1.0)
    for p, a in [(0.3, -2.0), (-0.5, 0.7), (0.0, 3.0)]:
        assert dpe_operator_fhat(p, a, SIGMA, band) == dpe_operator_f(p, a, SIGMA, band)


def test_operator_fhat_nonincreasing_in_a_where_first_branch_binds():
    # verified against the grid-search oracle on random points
    rng = np.random.default_rng(8)
    hits = 0
    for _ in range(300):
        p = rng.uniform(-2, 2)
        a = rng.uniform(BAND.lower, 6.0)
        val = dpe_operator_fhat(p, a, SIGMA, BAND)
        first = -p - 0.5 * SIGMA ** 2 * a
        if a >= BAND.lower and val == pytest.approx(first, abs=1e-12):
            hits += 1
            bumped = dpe_operator_fhat(p, a + 0.1, SIGMA, BAND)
            assert bumped <= val + 1e-12
            assert bumped == pytest.approx(
                _fhat_grid_oracle(p, a + 0.1, SIGMA, BAND, beta_max=15.0), abs=2e-4)
    assert hits > 20  # the regime must actually be exercised


def test_operators_on_arrays_match_scalar_calls():
    rng = np.random.default_rng(9)
    p = rng.uniform(-2, 2, 400)
    a = rng.uniform(-6, 6, 400)
    for band in (BAND, GammaBand.upper_only(1.0), GammaBand.lower_only(-1.0),
                 GammaBand.unbounded()):
        for op in (dpe_operator_f, dpe_operator_fhat):
            got = op(p, a, SIGMA, band)
            ref = np.array([op(pi, ai, SIGMA, band) for pi, ai in zip(p, a)])
            assert got.tobytes() == ref.tobytes()
            assert type(op(0.1, 0.2, SIGMA, band)) is float
