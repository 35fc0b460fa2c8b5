import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from smalltime.matcore import (DomainError, GammaBand, SymMatrix,
                               dpe_operator_f, dpe_operator_fhat,
                               eigen_extremes, lil_normalizer,
                               operator_norm, support_function)


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


# --------------------------------------------------------------------- eigen

def _mesh_extremes(m, n=200_000):
    """Brute-force min/max of y^T m y over a fine mesh of unit vectors (d=2)."""
    ang = np.linspace(0.0, np.pi, n)
    y = np.stack([np.cos(ang), np.sin(ang)])
    q = np.einsum("in,ij,jn->n", y, m, y)
    return q.min(), q.max()


def test_eigen_diagonal():
    lmin, lmax, _ = eigen_extremes(np.diag([2.0, -1.0]))
    assert (lmin, lmax) == (-1.0, 2.0)


def test_eigen_identity():
    lmin, lmax, _ = eigen_extremes(np.eye(3))
    assert lmin == pytest.approx(1.0) and lmax == pytest.approx(1.0)


def test_eigen_offdiagonal_vs_mesh():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    lmin, lmax, _ = eigen_extremes(m)
    mesh_min, mesh_max = _mesh_extremes(m)
    assert lmin == pytest.approx(1.0, abs=1e-9)
    assert lmax == pytest.approx(3.0, abs=1e-9)
    assert lmin == pytest.approx(mesh_min, abs=1e-6)
    assert lmax == pytest.approx(mesh_max, abs=1e-6)


def test_eigen_diagonalizes_and_is_orthogonal():
    rng = np.random.default_rng(7)
    for d in (2, 3, 5, 8):
        m = rng.normal(size=(d, d))
        m = 0.5 * (m + m.T)
        scale = operator_norm(m)
        _, _, u = eigen_extremes(m)
        diag = u @ m @ u.T
        off = diag - np.diag(np.diag(diag))
        assert np.abs(off).max() <= 1e-12 * max(scale, 1e-12)
        assert np.abs(u @ u.T - np.eye(d)).max() <= 1e-12


def test_eigen_matches_lapack():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = rng.integers(1, 7)
        m = rng.normal(size=(d, d))
        m = 0.5 * (m + m.T)
        lmin, lmax, u = eigen_extremes(m)
        ref = np.linalg.eigvalsh(m)[::-1]
        # rows of U are eigenvectors, ordered by descending eigenvalue
        assert np.allclose(np.diag(u @ m @ u.T), ref, atol=1e-10)
        assert np.allclose([lmin, lmax], [ref[-1], ref[0]], atol=1e-10)


def test_eigen_quadratic_form_bounds():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(4, 4))
    m = 0.5 * (m + m.T)
    lmin, lmax, _ = eigen_extremes(m)
    y = rng.normal(size=(100, 4))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    q = np.einsum("ni,ij,nj->n", y, m, y)
    assert np.all(q >= lmin - 1e-10) and np.all(q <= lmax + 1e-10)


@given(c=hst.floats(min_value=-5, max_value=5, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_eigen_shift_equivariance(c):
    m = np.array([[1.0, 0.3, -0.2], [0.3, -0.7, 0.5], [-0.2, 0.5, 2.0]])
    lmin0, lmax0, _ = eigen_extremes(m)
    lmin1, lmax1, _ = eigen_extremes(m + c * np.eye(3))
    assert lmax1 == pytest.approx(lmax0 + c, abs=1e-9)
    assert lmin1 == pytest.approx(lmin0 + c, abs=1e-9)


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


# ----------------------------------------------------------- support function

def test_support_function_examples():
    band = GammaBand(-1.0, 3.0)
    assert support_function(2.0, band) == 6.0
    assert support_function(-2.0, band) == 2.0
    assert support_function(0.0, GammaBand.unbounded()) == 0.0


def test_support_function_infinite_bound_errors():
    with pytest.raises(ValueError):
        support_function(1.0, GammaBand.lower_only(0.0))
    with pytest.raises(ValueError):
        support_function(-1.0, GammaBand.upper_only(0.0))


@given(u=hst.floats(min_value=-10, max_value=10, allow_nan=False),
       a=hst.floats(min_value=0, max_value=10, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_support_function_positive_homogeneity(u, a):
    band = GammaBand(-1.5, 2.5)
    assert support_function(a * u, band) == pytest.approx(a * support_function(u, band), abs=1e-9)


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
