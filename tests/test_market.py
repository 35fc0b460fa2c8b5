import math

import numpy as np
import pytest
from scipy.integrate import quad

from smalltime.market import (MarketParams, bs_price, call, face_lift,
                              piecewise_linear, put, simulate_gbm, tabulated)
from smalltime.matcore import GammaBand
from smalltime.paths import sample_bundle, uniform_grid

PARAMS = MarketParams(sigma=0.2, horizon=1.0)


# -------------------------------------------------------------------- payoffs

def test_call_put_values():
    c, p = call(100.0), put(100.0)
    s = np.array([50.0, 100.0, 150.0])
    assert np.allclose(c(s), [0.0, 0.0, 50.0])
    assert np.allclose(p(s), [50.0, 0.0, 0.0])
    assert c.value_at_zero() == 0.0 and p.value_at_zero() == 100.0
    assert c.terminal_slope() == 1.0 and p.terminal_slope() == 0.0


def test_piecewise_linear_payoff():
    # a call spread: slope 1 on [90, 110], flat above
    g = piecewise_linear([90.0, 110.0], [1.0, 0.0])
    s = np.array([50.0, 90.0, 100.0, 110.0, 200.0])
    assert np.allclose(g(s), [0.0, 0.0, 10.0, 20.0, 20.0])
    with pytest.raises(ValueError):
        piecewise_linear([90.0, 110.0], [-1.0, 0.0])  # would go negative
    with pytest.raises(ValueError, match="would go negative"):
        piecewise_linear([90.0, 110.0], [-0.5, 1.0], value_at_first=9.99)
    # the same payoff from a level of 10 reaches exactly 0 at 110
    touching = piecewise_linear([90.0, 110.0], [-0.5, 1.0], value_at_first=10.0)
    assert touching(np.array([50.0, 100.0, 110.0, 130.0])).tolist() == [10.0, 5.0, 0.0, 20.0]


def test_tabulated_payoff_interp_and_extension():
    g = tabulated([1.0, math.e], [2.0, 3.0])
    # linear in log s between nodes
    assert g(math.exp(0.5)) == pytest.approx(2.5)
    # linear in s outside
    slope = (3.0 - 2.0) / (math.e - 1.0)
    assert g(4.0) == pytest.approx(3.0 + slope * (4.0 - math.e))
    # a steep left slope extrapolates below zero and is floored
    steep = tabulated([1.0, math.e], [0.1, 3.0])
    assert steep(1e-9) == 0.0
    with pytest.raises(ValueError):
        tabulated([1.0, 0.5], [1.0, 1.0])


@pytest.mark.parametrize("payoff, at_zero, slope", [
    (piecewise_linear([80.0, 100.0, 120.0], [1.0, -0.5, 0.25], value_at_first=2.0), 2.0, 0.25),
    (tabulated([1.0, math.e], [2.0, 3.0]), 1.4180232931306735, 0.5819767068693265),
    # left piece floored at zero; the right piece's slope before flooring
    (tabulated([1.0, math.e], [0.1, 3.0]), 0.0, 1.6877324499210467),
    (tabulated([50.0, 100.0], [50.0, 0.0]), 100.0, -1.0),
    (tabulated([1.0, 2.0], [5.0, 1.0]), 9.0, -4.0),
], ids=["piecewise", "tabulated", "tabulated-floored-left", "tabulated-floored-right",
        "tabulated-decreasing"])
def test_value_at_zero_and_terminal_slope_are_pinned(payoff, at_zero, slope):
    assert payoff.value_at_zero() == at_zero
    assert payoff.terminal_slope() == slope


@pytest.mark.parametrize("payoff", [
    piecewise_linear([80.0, 100.0, 120.0], [1.0, -0.5, 0.25], value_at_first=2.0),
    piecewise_linear([90.0, 110.0], [-0.5, 1.0], value_at_first=10.0),
    tabulated([50.0, 60.0, 100.0], [10.0, 3.0, 7.0]),
    tabulated([1.0, math.e], [0.1, 3.0]),
    tabulated([50.0, 100.0], [50.0, 0.0]),
], ids=["piecewise", "piecewise-touching-zero", "tabulated", "tabulated-floored-left",
        "tabulated-floored-right"])
def test_evaluation_reads_the_pricing_table(payoff):
    """Outside a tabulated payoff's nodes, the value is its piece of the
    table bs_price integrates, floored at 0; at and between the nodes it is
    np.interp in log s, exact at each node."""
    s = np.concatenate((np.linspace(0.05, 400.0, 10_001), [80.0, 90.0, 110.0, 120.0]))
    lo, hi, a, b, c = payoff.table
    j = np.searchsorted(lo, s, side="right") - 1  # the segment with lo <= s < hi
    on = j >= 0
    expected = np.zeros(s.size)
    expected[on] = np.maximum(a[j[on]] + b[j[on]] * s[on] + c[j[on]] * np.log(s[on]), 0.0)
    if payoff.kind == "tabulated":
        nodes = hi[:-1]
        inside = (s >= nodes[0]) & (s <= nodes[-1])
        expected[inside] = np.interp(np.log(s[inside]), np.log(nodes), payoff.values)
        assert payoff(nodes).tolist() == payoff.values.tolist()
    assert payoff(s).tolist() == expected.tolist()


def test_market_params_validation():
    with pytest.raises(ValueError):
        MarketParams(sigma=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        MarketParams(sigma=0.2, horizon=-1.0)


# ------------------------------------------------------------------------ gbm

def test_gbm_exact_exponential_on_zero_path():
    t = uniform_grid(1.0, 4).points
    s = simulate_gbm(np.zeros(t.size), t, 10.0, PARAMS)
    assert np.allclose(s, 10.0 * np.exp(-0.5 * 0.04 * t))


def test_gbm_terminal_mean_is_spot():
    b = sample_bundle(1, uniform_grid(1.0, 1), 100_000, seed=2)
    s_t = simulate_gbm(b.paths[:, 0, -1], 1.0, 100.0, PARAMS)
    se = float(np.std(s_t, ddof=1)) / math.sqrt(s_t.size)
    assert abs(float(np.mean(s_t)) - 100.0) < 4.0 * se


def test_gbm_maps_each_value_at_its_time():
    """Any block of path values and their times gives the bits of the whole
    array's map."""
    b = sample_bundle(1, uniform_grid(1.0, 9), 5, seed=3)
    w, t = b.paths[:, 0, :].T, b.grid.points[:, None]
    whole = simulate_gbm(w, t, 100.0, PARAMS)
    for rows in (slice(0, 4), slice(3, 10), slice(9, 10)):
        assert np.array_equal(simulate_gbm(w[rows], t[rows], 100.0, PARAMS), whole[rows])


def test_gbm_needs_positive_spot_and_1d():
    # the map takes path values, not a bundle: hedging checks the dimension
    # (test_chunk_pool's hedge_two_dimensional case)
    w, t = np.zeros(3), uniform_grid(1.0, 2).points
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            simulate_gbm(w, t, bad, PARAMS)


# ------------------------------------------------------------------- pricing

def test_bs_price_at_horizon_is_payoff():
    assert bs_price(call(100.0), 120.0, 1.0, PARAMS) == 20.0


def test_bs_price_atm_call_value():
    # zero-rate closed form: d1 = sigma sqrt(T) / 2
    price = bs_price(call(100.0), 100.0, 0.0, PARAMS)
    assert price == pytest.approx(7.9656, abs=5e-4)


def test_bs_price_constant_payoff():
    g = piecewise_linear([1.0], [0.0], value_at_first=3.0)
    assert bs_price(g, 50.0, 0.0, PARAMS) == pytest.approx(3.0, rel=1e-9)


def test_bs_price_put_call_parity():
    c = bs_price(call(100.0), 110.0, 0.0, PARAMS)
    p = bs_price(put(100.0), 110.0, 0.0, PARAMS)
    assert c - p == pytest.approx(10.0, abs=1e-10)


def test_bs_price_of_tabulated_call_matches_closed_form():
    # the tabulated call interpolates linearly in log s, which puts it
    # 9.1e-6 relative above the call's price
    sg = np.exp(np.linspace(math.log(20.0), math.log(500.0), 801))
    tab = tabulated(sg, call(100.0)(sg))
    q = bs_price(tab, 100.0, 0.0, PARAMS)
    assert q == pytest.approx(bs_price(call(100.0), 100.0, 0.0, PARAMS), rel=2e-5)


def _kink_split_price(payoff, s, t, kinks):
    """E[g(S(T)) | S(t) = s] by adaptive quadrature over the standard normal
    on [-40, 40], split wherever S(T) crosses a kink of g."""
    v = PARAMS.sigma * math.sqrt(PARAMS.horizon - t)
    m = math.log(s) - 0.5 * v * v

    def integrand(z):
        return payoff(math.exp(m + v * z)) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    cuts = sorted(z for z in ((math.log(k) - m) / v for k in kinks) if -40.0 < z < 40.0)
    edges = [-40.0, *cuts, 40.0]
    return sum(quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(edges, edges[1:]))


@pytest.mark.parametrize("t", [0.0, 0.999, 1.0 - 1e-9], ids=["t0", "t0.999", "t-near-horizon"])
@pytest.mark.parametrize("payoff, kinks", [
    (piecewise_linear([80.0, 100.0, 120.0], [1.0, -0.5, 0.25], value_at_first=2.0),
     [80.0, 100.0, 120.0]),
    (tabulated([60.0, 90.0, 100.0, 130.0], [10.0, 3.0, 4.0, 30.0]), [60.0, 90.0, 100.0, 130.0]),
    # the left piece reaches 0 at 1 - 0.1 (e - 1) / 2.9
    (tabulated([1.0, math.e], [0.1, 3.0]), [1.0 - 0.1 * (math.e - 1.0) / 2.9, 1.0, math.e]),
    # the right piece reaches 0 at the last node
    (tabulated([50.0, 100.0], [50.0, 0.0]), [50.0, 100.0]),
], ids=["piecewise", "tabulated", "tabulated-floored-left", "tabulated-floored-right"])
def test_bs_price_is_exact_against_kink_split_quadrature(payoff, kinks, t):
    spots = np.array([0.5, 2.0, 70.0, 100.0, 140.0])
    prices = bs_price(payoff, spots, t, PARAMS)
    expected = [_kink_split_price(payoff, s, t, kinks) for s in spots]
    assert prices == pytest.approx(expected, rel=1e-12)


def test_bs_price_monotone_in_payoff():
    sg = np.exp(np.linspace(math.log(20.0), math.log(500.0), 201))
    g1 = tabulated(sg, call(100.0)(sg))
    g2 = tabulated(sg, call(100.0)(sg) + 1.0)
    assert bs_price(g1, 80.0, 0.0, PARAMS) <= bs_price(g2, 80.0, 0.0, PARAMS)


def test_bs_price_vs_monte_carlo():
    total, total_sq, n = 0.0, 0.0, 0
    for first in (0, 100_000):
        w_t = sample_bundle(1, uniform_grid(1.0, 1), 100_000, seed=4, first_path=first)
        pay = call(100.0)(simulate_gbm(w_t.paths[:, 0, -1], 1.0, 100.0, PARAMS))
        total += float(pay.sum())
        total_sq += float((pay * pay).sum())
        n += pay.size
    mean = total / n
    se = math.sqrt((total_sq / n - mean * mean) / n)
    assert abs(mean - bs_price(call(100.0), 100.0, 0.0, PARAMS)) < 3.0 * se


def test_bs_price_time_validation():
    with pytest.raises(ValueError):
        bs_price(call(100.0), 100.0, 2.0, PARAMS)


# ------------------------------------------------------------------ face lift

S_GRID = np.exp(np.linspace(math.log(0.2), math.log(5.0), 241))


def test_face_lift_unbounded_returns_payoff():
    g = call(1.0)
    assert face_lift(g, GammaBand.unbounded(), S_GRID) is g


def test_face_lift_keeps_compliant_payoffs():
    # globally linear payoff (kink parked far below the grid): concave, so
    # any nonnegative upper bound keeps it
    # the constant stretch below the parked kink is a convex wrinkle of
    # size slope * 1e-5, which bounds any residual lift
    lin = piecewise_linear([1e-5], [1.2], value_at_first=0.3 + 1.2e-5)
    lifted = face_lift(lin, GammaBand.upper_only(0.0), S_GRID)
    assert np.allclose(lifted(S_GRID), lin(S_GRID), atol=2e-5)
    # concave kink (capped linear) is also compliant
    capped = piecewise_linear([1e-5, 2.0], [1.0, 0.0], value_at_first=1e-5)
    lifted2 = face_lift(capped, GammaBand.upper_only(0.0), S_GRID)
    assert np.allclose(lifted2(S_GRID), capped(S_GRID), atol=2e-5)


def test_face_lift_call_zero_bound_is_identity_line():
    lifted = face_lift(call(1.0), GammaBand.upper_only(0.0), S_GRID)
    assert np.abs(lifted(S_GRID) - S_GRID).max() < 1e-8


def test_face_lift_put_zero_bound_is_strike():
    lifted = face_lift(put(1.0), GammaBand.upper_only(0.0), S_GRID)
    assert np.abs(lifted(S_GRID) - 1.0).max() < 1e-8


def test_face_lift_call_against_smooth_pasting_oracle():
    # closed-form lift of a call under upper bound G: h = D + C s - G ln s
    # pasted tangentially to 0 at s1 = G (1 - exp(-K/G)) and to s - K far out
    gu, k = 0.5, 100.0
    s1 = gu * (1.0 - math.exp(-k / gu))
    sg = np.exp(np.linspace(math.log(30.0), math.log(330.0), 401))
    lifted = face_lift(call(k), GammaBand.upper_only(gu), sg)
    oracle = gu * (np.log(s1 / sg) + sg / s1 - 1.0)
    assert np.abs(lifted(sg) - oracle).max() < 1e-6


def test_face_lift_dominates_and_is_idempotent():
    gu = 1.0
    band = GammaBand.upper_only(gu)
    lifted = face_lift(call(1.0), band, S_GRID)
    assert np.all(lifted(S_GRID) >= call(1.0)(S_GRID))
    again = face_lift(lifted, band, S_GRID)
    assert np.abs(again(S_GRID) - lifted(S_GRID)).max() < 1e-12


def test_face_lift_monotone_in_upper_bound():
    prev = None
    for gu in (0.0, 1.0, 5.0):
        lifted = face_lift(call(1.0), GammaBand.upper_only(gu), S_GRID)(S_GRID)
        if prev is not None:
            assert np.all(lifted <= prev + 1e-10)
        prev = lifted


def _discrete_cash_gamma(s_nodes, values):
    """Second-difference cash gamma g_xx - g_x on a log grid, interior nodes."""
    x = np.log(np.asarray(s_nodes, dtype=float))
    v = np.asarray(values, dtype=float)
    dxl = x[1:-1] - x[:-2]
    dxr = x[2:] - x[1:-1]
    vxx = 2.0 * (v[:-2] / (dxl * (dxl + dxr)) - v[1:-1] / (dxl * dxr)
                 + v[2:] / (dxr * (dxl + dxr)))
    vx = (v[2:] - v[:-2]) / (dxl + dxr)
    return vxx - vx


def test_face_lift_discrete_cash_gamma_bound():
    gu = 0.5
    lifted = face_lift(call(1.0), GammaBand.upper_only(gu), S_GRID)
    cg = _discrete_cash_gamma(S_GRID, lifted(S_GRID))
    dx = float(np.diff(np.log(S_GRID)).mean())
    assert cg.max() <= gu + 5.0 * dx


def test_face_lift_lower_bound_does_not_enter():
    a = face_lift(call(1.0), GammaBand(-5.0, 0.5), S_GRID)
    b = face_lift(call(1.0), GammaBand.upper_only(0.5), S_GRID)
    assert np.array_equal(a(S_GRID), b(S_GRID))
