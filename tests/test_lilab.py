import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chdtr
from scipy.stats import chi2

from smalltime.lilab import (GridMismatchError, ergodic_liminf, example36_diag,
                             example36_rate_fn, moment_dominance,
                             moment_identity, optimal_tail_lambda, ratio_sup,
                             tail_bound_check, tail_bound_value, tail_bounds,
                             window_maxima, window_medians)
from smalltime.matcore import DomainError, lil_normalizer
from smalltime.paths import (BundleSpec, ergodic_grid, geometric_grid,
                             refine_bisect, sample_bundle, uniform_grid)
from smalltime.stochint import (IntegrandSpec, VectorSpec, _lll_inverse,
                                catalog_integrand, closed_form_trace,
                                drift_integral, integrate_double)


# ------------------------------------------------------------------ ratio sup

def test_ratio_sup_zero_integrand():
    b = sample_bundle(1, geometric_grid(1e-2, 0.5, 10), 20, seed=1)
    tr = integrate_double(b, catalog_integrand("zero", 1))
    est = ratio_sup(tr, kind="h")
    assert np.all(est.per_path_sup == 0.0)


def test_ratio_sup_negative_unit_never_exceeds_one():
    # 2V(t) = t - W(t)^2 exactly, so 2V/t = 1 - W^2/t <= 1 on every path
    b = sample_bundle(1, geometric_grid(1e-2, 0.5, 40), 2000, seed=2)
    tr = closed_form_trace(b, [[-1.0]])
    est = ratio_sup(tr, kind="t")
    assert np.all(est.per_path_sup <= 1.0)
    # chi-square level-crossing: P[W^2/t <= 0.1] per level ~ 0.248, and over
    # 41 nearly independent levels nearly every path dips below
    frac = float(np.mean(est.per_path_sup >= 0.9))
    assert frac > 0.99


def test_ratio_sup_scaling_by_two_exact():
    b = sample_bundle(1, geometric_grid(1e-2, 0.5, 20), 100, seed=3)
    t1 = integrate_double(b, IntegrandSpec.constant([[0.5]]))
    t2 = integrate_double(b, IntegrandSpec.constant([[1.0]]))
    e1 = ratio_sup(t1, kind="h")
    e2 = ratio_sup(t2, kind="h")
    # doubling the integrand is exact in floating point
    assert np.array_equal(2.0 * e1.per_path_sup, e2.per_path_sup)


def test_ratio_sup_monotone_under_grid_extension():
    b_small = sample_bundle(1, geometric_grid(1e-2, 0.5, 20), 200, seed=4)
    b_big = sample_bundle(1, geometric_grid(1e-2, 0.5, 30), 200, seed=4)
    s_small = ratio_sup(closed_form_trace(b_small, [[1.0]]), kind="h").per_path_sup
    s_big = ratio_sup(closed_form_trace(b_big, [[1.0]]), kind="h").per_path_sup
    assert np.all(s_big >= s_small - 1e-15)


def test_ratio_sup_needs_geometric_grid():
    b = sample_bundle(1, uniform_grid(0.2, 8), 5, seed=5)
    tr = integrate_double(b, catalog_integrand("identity", 1))
    with pytest.raises(GridMismatchError):
        ratio_sup(tr, kind="h")


def test_ratio_sup_domain_check():
    # h-rate needs t < 1/e; a grid touching 0.5 must be rejected
    b = sample_bundle(1, geometric_grid(0.5, 0.5, 6), 5, seed=6)
    tr = integrate_double(b, catalog_integrand("identity", 1))
    with pytest.raises(DomainError):
        ratio_sup(tr, kind="h")


def test_lil_ordering_and_envelope():
    # larger top eigenvalue pushes the normalized sup up, on identical paths
    b = sample_bundle(2, geometric_grid(1e-2, 0.5, 34), 2000, seed=7)
    sup1 = ratio_sup(closed_form_trace(b, np.diag([1.0, -1.0])), kind="h").summary
    sup2 = ratio_sup(closed_form_trace(b, np.diag([2.0, -1.0])), kind="h").summary
    assert sup2["median"] > sup1["median"]
    # envelope (1+eta)^2/theta with eta=0.3, theta=0.5
    est = ratio_sup(closed_form_trace(b, np.diag([1.0, -1.0])), kind="h", absolute=True)
    assert float(np.mean(est.per_path_sup > 3.38)) < 0.01


# ------------------------------------------------------------ moment identity

def test_moment_identity_values():
    assert moment_identity(1e-12, 0.5, 1) == pytest.approx(1.0, abs=1e-9)
    val = moment_identity(0.5, 0.5, 1)
    assert val == pytest.approx(math.exp(-0.25) * math.sqrt(2.0), rel=1e-14)
    assert val == pytest.approx(1.10136, abs=5e-5)
    with pytest.raises(ValueError):
        moment_identity(1.0, 0.5, 1)


def test_moment_dominance_identity_matches_closed_form():
    spec = BundleSpec(1, uniform_grid(0.5, 200), 40_000, seed=9, chunk_size=10_000)
    rep = moment_dominance(spec, catalog_integrand("identity", 1), 0.5, 0.5)
    assert abs(rep.mc_mean - rep.closed_form) < 3.0 * rep.std_err + 5e-3


def test_moment_dominance_zero_integrand_exact():
    spec = BundleSpec(1, uniform_grid(0.5, 50), 500, seed=10)
    rep = moment_dominance(spec, catalog_integrand("zero", 1), 0.5, 0.5)
    assert rep.mc_mean == 1.0 and rep.std_err == 0.0


def test_moment_dominance_rotation_margin():
    spec = BundleSpec(2, uniform_grid(0.4, 200), 40_000, seed=11, chunk_size=10_000)
    rep = moment_dominance(spec, catalog_integrand("rotation", 2), 0.5, 0.4)
    assert rep.dominance_margin >= -2.0


def test_moment_dominance_validates_bound_and_hypothesis():
    spec = BundleSpec(1, uniform_grid(0.5, 10), 10, seed=12)
    with pytest.raises(ValueError):
        moment_dominance(spec, catalog_integrand("linear_time", 1), 0.5, 0.5)
    with pytest.raises(ValueError):
        moment_dominance(spec, catalog_integrand("identity", 1), 1.0, 0.5)


def test_moment_dominance_workers_do_not_change_result():
    spec = BundleSpec(1, uniform_grid(0.5, 100), 5000, seed=13, chunk_size=1000)
    r1 = moment_dominance(spec, catalog_integrand("identity", 1), 0.5, 0.5, workers=1)
    r2 = moment_dominance(spec, catalog_integrand("identity", 1), 0.5, 0.5, workers=3)
    assert r1.mc_mean == r2.mc_mean and r1.std_err == r2.std_err


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(["identity", "rotation", "tanh_w", "clamp_w", "zero"]),
       d=st.integers(1, 3), paths=st.integers(2, 40), chunk=st.integers(1, 40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_moment_and_tail_reductions_ignore_chunking_and_workers(name, d, paths,
                                                                chunk, seed):
    d = max(d, 2) if name == "rotation" else d
    b = catalog_integrand(name, d)
    grid = uniform_grid(0.2, 10)
    alphas = [0.0, 0.05, 0.2, 1.0]
    whole = BundleSpec(d, grid, paths, seed, chunk_size=paths)
    ref_moment = moment_dominance(whole, b, 0.5, 0.2)
    ref_tail = tail_bound_check(whole, b, 0.2, alphas)
    chunked = BundleSpec(d, grid, paths, seed, chunk_size=chunk)
    runs = [(moment_dominance(chunked, b, 0.5, 0.2, workers=w),
             tail_bound_check(chunked, b, 0.2, alphas, workers=w)) for w in (1, 2, 3)]
    for moment, tail in runs:
        assert moment == runs[0][0]
        assert tail == ref_tail
    # per-path values do not depend on the chunking (test_stochint), and the
    # moment sums them exactly rounded, so its mean has the same bits too
    assert runs[0][0] == ref_moment
    assert runs[0][0].n_paths == ref_moment.n_paths == paths


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["identity", "tanh_w", "clamp_w"]),
       d=st.integers(1, 3), paths=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1))
def test_moment_statistics_are_bit_identical_for_chunk_sizes_one_to_seven(name, d,
                                                                         paths, seed):
    b = catalog_integrand(name, d)
    grid = uniform_grid(0.4, 8)
    reports = [moment_dominance(BundleSpec(d, grid, paths, seed, chunk_size=c), b, 0.5, 0.4)
               for c in range(1, 8)]
    for rep in reports[1:]:
        assert (rep.mc_mean, rep.std_err) == (reports[0].mc_mean, reports[0].std_err)
        assert rep == reports[0]


# ----------------------------------------------------------------- tail bound

def test_optimal_lambda_matches_stationarity_condition():
    # d/dlam of the log bound vanishes at lam = alpha / (2T(alpha + dT));
    # golden section hits the flat-minimum noise floor around 1e-8
    for alpha, horizon, d in [(0.5, 0.1, 1), (2.0, 0.1, 1), (1.0, 0.25, 3)]:
        got = optimal_tail_lambda(alpha, horizon, d)
        ref = alpha / (2.0 * horizon * (alpha + d * horizon))
        assert got == pytest.approx(ref, abs=1e-6)
        assert tail_bound_value(alpha, got, horizon, d) == pytest.approx(
            tail_bound_value(alpha, ref, horizon, d), rel=1e-12)


def test_tail_bound_zero_integrand():
    spec = BundleSpec(1, uniform_grid(0.1, 50), 2000, seed=14)
    rep = tail_bound_check(spec, catalog_integrand("zero", 1), 0.1, [0.5, 1.0])
    for row in rep.rows:
        assert row.empirical == 0.0 and not row.violation


def test_tail_bound_alpha_zero_reports_both():
    spec = BundleSpec(1, uniform_grid(0.1, 50), 2000, seed=15)
    rep = tail_bound_check(spec, catalog_integrand("identity", 1), 0.1, [0.0])
    row = rep.rows[0]
    assert row.bound >= 1.0 - 1e-9  # the analytic bound cannot dip below 1 at alpha 0
    assert row.empirical <= 1.0 and not row.violation


def test_tail_bound_identity_small():
    spec = BundleSpec(1, uniform_grid(0.1, 100), 20_000, seed=16, chunk_size=10_000)
    rep = tail_bound_check(spec, catalog_integrand("identity", 1), 0.1,
                           [0.5, 1.0, 2.0], rule="optimized")
    assert not rep.any_violation
    fixed = tail_bound_check(spec, catalog_integrand("identity", 1), 0.1,
                             [0.5, 1.0, 2.0], rule="fixed", eta=0.1)
    assert not fixed.any_violation
    # the optimized bound is at least as sharp as the fixed-lambda one
    for ro, rf in zip(rep.rows, fixed.rows):
        assert ro.bound <= rf.bound + 1e-12


def test_tail_bound_value_validation():
    with pytest.raises(ValueError):
        tail_bound_value(1.0, 6.0, 0.1, 1)  # 2 lam T >= 1
    for lam, horizon in ((0.5, math.nan), (math.nan, 0.1), (0.0, 0.1)):
        with pytest.raises(ValueError):
            tail_bound_value(1.0, lam, horizon, 1)


def test_fixed_lambda_rule_needs_positive_eta():
    """eta <= 0 puts lam = 1/(2T(1+eta)) at or past 1/(2T), or divides by
    zero; it is rejected before any sampling."""
    spec = BundleSpec(1, uniform_grid(0.1, 10), 5, seed=3)
    for eta in (-2.0, -1.0, -0.5, 0.0):
        with pytest.raises(ValueError, match="eta > 0"):
            tail_bounds([1.0], 0.1, 1, rule="fixed", eta=eta)
        with pytest.raises(ValueError, match="eta > 0"):
            tail_bound_check(spec, catalog_integrand("identity", 1), 0.1, [1.0],
                             rule="fixed", eta=eta)
    lams, bounds = tail_bounds([1.0, 2.0], 0.1, 1, rule="fixed", eta=0.1)
    assert lams == [1.0 / (2.0 * 0.1 * 1.1)] * 2
    assert bounds == [tail_bound_value(a, lams[0], 0.1, 1) for a in (1.0, 2.0)]


# -------------------------------------------------------------------- ergodic

def test_ergodic_zero_matrix():
    b = sample_bundle(1, ergodic_grid(10), 50, seed=17)
    rep = ergodic_liminf(b, [[0.0]], delta=0.1)
    assert np.all(rep.freq_by_n == 1.0) and rep.reference == 1.0


def test_ergodic_chi_square_limit():
    b = sample_bundle(1, ergodic_grid(60), 10_000, seed=18)
    rep = ergodic_liminf(b, [[1.0]], delta=0.1)
    assert rep.reference == pytest.approx(chi2.cdf(0.1, df=1), rel=1e-12)
    assert rep.reference == pytest.approx(0.2482, abs=2e-4)
    assert abs(rep.final_freq - rep.reference) <= 0.02


@pytest.mark.parametrize("d,c", [(2, 1.0), (3, 1.0), (2, -0.5), (4, 2.5)])
def test_ergodic_reference_is_the_chi_square_law_for_equal_eigenvalues(d, c):
    b = sample_bundle(d, ergodic_grid(5), 20, seed=21)
    rep = ergodic_liminf(b, c * np.eye(d), delta=0.1)
    assert rep.reference == chdtr(d, 0.1 / abs(c))
    assert rep.reference == pytest.approx(chi2.cdf(0.1 / abs(c), df=d), rel=1e-12)
    if d == 2:  # P[chi2_2 <= x] = 1 - exp(-x/2)
        assert rep.reference == pytest.approx(-math.expm1(-0.05 / abs(c)), rel=1e-12)
    assert ergodic_liminf(b, np.zeros((d, d)), delta=0.1).reference == 1.0


def test_ergodic_reference_samples_unequal_eigenvalues():
    b = sample_bundle(2, ergodic_grid(5), 20, seed=22)
    beta = np.array([[1.0, 0.0], [0.0, 3.0]])
    rep = ergodic_liminf(b, beta, delta=0.5)
    # P[z1^2 + 3 z2^2 <= 0.5] = 0.1330245 (quadrature of the chi-square
    # density against its cdf); the 2M-draw sample has standard error 2.4e-4
    assert abs(rep.reference - 0.1330245) < 5 * 2.4e-4


def test_ergodic_per_path_minimum():
    b = sample_bundle(1, ergodic_grid(60), 10_000, seed=19)
    rep = ergodic_liminf(b, [[1.0]], delta=0.1)
    # independence oracle: P[min > 0.05] ~ (1 - chi2.cdf(0.05,1))^60 ~ 1e-5
    assert float(np.mean(rep.per_path_min < 0.05)) >= 0.99


def test_ergodic_needs_positive_delta():
    b = sample_bundle(1, ergodic_grid(5), 5, seed=20)
    for delta in (-1.0, 0.0):
        with pytest.raises(ValueError, match="delta > 0"):
            ergodic_liminf(b, [[1.0]], delta=delta)


def test_ergodic_grid_mismatch():
    b = sample_bundle(1, geometric_grid(1e-2, 0.5, 10), 5, seed=20)
    with pytest.raises(GridMismatchError):
        ergodic_liminf(b, [[1.0]], delta=0.1)


# ------------------------------------------------------------------ example36

def test_example36_rate_fn_domain():
    with pytest.raises(DomainError):
        example36_rate_fn(math.exp(-math.e))
    v = example36_rate_fn(1e-10)
    t = 1e-10
    l1 = -math.log(t)
    assert v == pytest.approx(t * math.log(l1) / math.log(math.log(l1)), rel=1e-12)


def test_example36_diag_runs_and_sups_align():
    grid = geometric_grid(1e-2, 0.5, 94)  # t_min ~ 5e-31
    b = sample_bundle(1, grid, 2000, seed=21)
    rep = example36_diag(b)
    assert rep.t_min < 1e-29
    assert np.all(rep.proxy_sup > 0.0)
    # the h-to-rate factor h b / (2 rate) is identically one for this
    # integrand at every refined time, so the proxy (1/2) W^2 b / rate is
    # W^2 / h level by level
    refined = b
    for _ in range(4):
        refined = refine_bisect(refined)
    t = refined.grid.points
    assert t[0] == rep.t_min
    factor = (lil_normalizer(t) * np.array([_lll_inverse(tk) for tk in t])
              / (2.0 * example36_rate_fn(t)))
    np.testing.assert_allclose(factor, 1.0, rtol=1e-12)
    # full vs proxy: each level carries a -1/(2 loglog(1/t)) term in the
    # full ratio (about 0.12 at these depths), so the honest relative gap
    # between the two sups sits near 0.17; see the report docstring
    assert rep.consistency_median <= 0.25


# ------------------------------------------------------------------- prop39

def test_window_medians_are_disjoint_window_medians():
    b = sample_bundle(1, geometric_grid(1e-4, 0.5, 12), 7, seed=29)
    tr = drift_integral(b, VectorSpec.constant([1.0]),
                        catalog_integrand("identity", 1), eps=0.5)
    stat = np.abs(tr.scaled)
    for w in (1, 4, 5, 13):
        rep = window_medians(tr.times, w, window_maxima(tr, w))
        # a plain loop over the disjoint windows, a last partial one dropped
        t_hi, medians, lo = [], [], 0
        while lo + w <= tr.times.size:
            t_hi.append(float(tr.times[lo + w - 1]))
            medians.append(float(np.median(stat[:, lo:lo + w].max(axis=1))))
            lo += w
        assert rep.csv_table() == (["t_hi", "median"], t_hi, medians)
    for w in (0, 14):
        with pytest.raises(ValueError, match="window"):
            window_maxima(tr, w)
