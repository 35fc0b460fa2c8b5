import math

import numpy as np
import pytest

from smalltime.dpe import (ACTIVE_LOWER, ACTIVE_UPPER, OutOfGridError, PdeGrid,
                           StabilityError, _space_operators, greeks,
                           solve_dpe)
from smalltime.market import MarketParams, bs_price, call, face_lift, tabulated
from smalltime.matcore import GammaBand, dpe_operator_fhat
from smalltime.market import piecewise_linear
from smalltime.reports import write_csv

PARAMS = MarketParams(sigma=0.2, horizon=1.0)
FREE = GammaBand.unbounded()


def _grid(nx=200):
    return PdeGrid.around_spot(100.0, PARAMS, nx=nx)


# ----------------------------------------------------------------- grid rules

def test_grid_invariants():
    with pytest.raises(ValueError):
        PdeGrid(0.0, 1.0, nx=8, nt=10)   # too few nodes
    with pytest.raises(ValueError):
        PdeGrid(1.0, 0.0, nx=32, nt=10)


def test_around_spot_obeys_stability():
    g = _grid()
    dt = PARAMS.horizon / g.nt
    assert dt <= g.dx ** 2 / PARAMS.sigma ** 2


def test_stability_violation_raises():
    g = _grid()
    bad = PdeGrid(g.x_min, g.x_max, nx=g.nx, nt=max(1, g.nt // 4))
    with pytest.raises(StabilityError):
        solve_dpe(call(100.0), FREE, PARAMS, bad)


def test_narrow_grid_warns():
    half = 2.0 * PARAMS.sigma  # only 2 sigma sqrt(T) per side
    x0 = math.log(100.0)
    narrow = PdeGrid(x0 - half, x0 + half, nx=64,
                     nt=int(PARAMS.horizon / (0.9 * (2 * half / 63) ** 2 / 0.04)) + 1)
    with pytest.warns(UserWarning):
        solve_dpe(call(100.0), FREE, PARAMS, narrow)


# --------------------------------------------------------------------- oracle

def test_unconstrained_call_matches_black_scholes():
    sol = solve_dpe(call(100.0), FREE, PARAMS, _grid(nx=400))
    s_mid = sol.s_nodes[(sol.s_nodes > 55.0) & (sol.s_nodes < 180.0)]
    v0 = sol.interp(sol.v, 0.0, s_mid)
    ref = bs_price(call(100.0), s_mid, 0.0, PARAMS)
    rel = np.abs(v0 - ref) / np.maximum(ref, 0.05)
    assert rel.max() < 5e-3


def test_constant_payoff_is_invariant():
    g = piecewise_linear([1.0], [0.0], value_at_first=4.0)
    sol = solve_dpe(g, GammaBand(-1.0, 1.0), PARAMS, _grid())
    assert np.abs(sol.v - 4.0).max() < 1e-12


def test_lifted_call_zero_upper_bound_prices_spot():
    sol = solve_dpe(call(100.0), GammaBand.upper_only(0.0), PARAMS, _grid())
    s_mid = sol.s_nodes[(sol.s_nodes > 50.0) & (sol.s_nodes < 200.0)]
    v0 = sol.interp(sol.v, 0.0, s_mid)
    assert np.abs(v0 / s_mid - 1.0).max() < 0.01


def test_upper_constraint_matches_lifted_bs_price():
    band = GammaBand.upper_only(0.5)
    sol = solve_dpe(call(100.0), band, PARAMS, _grid(nx=400))
    inner = (sol.s_nodes > 40.0) & (sol.s_nodes < 250.0)
    s_in = sol.s_nodes[inner]
    lifted = face_lift(call(100.0), band, sol.s_nodes)
    ref = bs_price(lifted, s_in, 0.0, PARAMS)
    v0 = sol.v[0, inner]
    assert np.abs(v0 - ref).max() / np.abs(ref).min() < 0.01


def test_solution_dominates_bs_and_gap_at_strike():
    band = GammaBand.upper_only(0.5)
    sol = solve_dpe(call(100.0), band, PARAMS, _grid(nx=400))
    inner = slice(5, -5)
    ref = bs_price(call(100.0), sol.s_nodes[inner], 0.0, PARAMS)
    assert np.all(sol.v[0, inner] >= ref - 1e-6)
    v_k = float(sol.interp(sol.v, 0.0, 100.0))
    bs_k = bs_price(call(100.0), 100.0, 0.0, PARAMS)
    assert (v_k - bs_k) / bs_k > 0.01


def test_monotonicity_in_payoff():
    band = GammaBand(-1.0, 1.0)
    g1 = call(110.0)
    g2 = call(90.0)  # pointwise larger
    s1 = solve_dpe(g1, band, PARAMS, _grid())
    s2 = solve_dpe(g2, band, PARAMS, _grid())
    assert np.all(s2.v >= s1.v - 1e-12)


def test_time_monotonicity_for_convex_payoff():
    sol = solve_dpe(call(100.0), FREE, PARAMS, _grid())
    mid = sol.x_nodes.size // 2
    # value grows with time to maturity (time index runs forward)
    col = sol.v[:, mid]
    assert np.all(np.diff(col) <= 1e-12)


def test_grid_convergence_first_order():
    band = FREE
    vals = []
    for nx in (100, 200, 400):
        sol = solve_dpe(call(100.0), band, PARAMS,
                        PdeGrid.around_spot(100.0, PARAMS, nx=nx))
        vals.append(float(sol.interp(sol.v, 0.0, 100.0)))
    err1 = abs(vals[1] - vals[0])
    err2 = abs(vals[2] - vals[1])
    assert err2 < 4.0 * err1 and err2 < err1


def test_terminal_slice_is_lifted_payoff():
    band = GammaBand.upper_only(0.5)
    sol = solve_dpe(call(100.0), band, PARAMS, _grid())
    lifted = face_lift(call(100.0), band, sol.s_nodes)
    assert np.allclose(sol.v[-1], lifted(sol.s_nodes))
    assert np.all(sol.v >= -1e-12)


def test_linear_growth_rejection():
    bad = tabulated([1.0, 2.0], [5.0, 1.0])
    # terminal_slope is the last piece's slope before the floor, -4 here,
    # and the solver refuses a negative one
    with pytest.raises(ValueError):
        solve_dpe(bad, FREE, PARAMS, _grid())


# --------------------------------------------------------------------- greeks

def test_greeks_at_nodes_and_interpolation():
    sol = solve_dpe(call(100.0), FREE, PARAMS, _grid(nx=400))
    i = 200
    t_node = float(sol.t_nodes[3])
    s_node = float(sol.s_nodes[i])
    v, d, g = greeks(sol, t_node, s_node)
    assert v == pytest.approx(sol.v[3, i], abs=1e-12)
    assert d == pytest.approx(sol.delta[3, i], abs=1e-12)
    assert g == pytest.approx(sol.cash_gamma[3, i], abs=1e-12)


def test_greeks_deep_itm_delta_near_one():
    # deep in the money but inside the clean middle half of the grid (the
    # spec's linear-in-x boundary pollutes a few diffusion lengths inward)
    sol = solve_dpe(call(100.0), FREE, PARAMS, _grid(nx=400))
    _, delta, _ = greeks(sol, 0.0, 175.0)
    assert abs(delta - 1.0) < 0.05


def test_greeks_cash_gamma_within_band():
    band = GammaBand(-0.5, 0.5)
    sol = solve_dpe(call(100.0), band, PARAMS, _grid(nx=400))
    dt = sol.t_nodes[1] - sol.t_nodes[0]
    dx = sol.x_nodes[1] - sol.x_nodes[0]
    tol = 5.0 * (dx + dt) * PARAMS.sigma ** 2
    interior = sol.cash_gamma[:, 2:-2]
    assert interior.max() <= band.upper + tol
    assert interior.min() >= band.lower - tol


def test_greeks_out_of_grid():
    sol = solve_dpe(call(100.0), FREE, PARAMS, _grid())
    with pytest.raises(OutOfGridError):
        greeks(sol, 0.0, 1e9)
    with pytest.raises(OutOfGridError):
        greeks(sol, 5.0, 100.0)


def _ref_interp(sol, f, t, s):
    """The lookup as one out-of-place expression on the whole surface, as
    it was before its values were formed in place."""
    tn, xn = sol.t_nodes, sol.x_nodes
    x = np.log(s)
    dx, dt = xn[1] - xn[0], tn[1] - tn[0]
    ix = np.clip(((x - xn[0]) / dx).astype(int), 0, xn.size - 2)
    wx = np.clip((x - xn[ix]) / dx, 0.0, 1.0)
    it = np.clip(((t - tn[0]) / dt).astype(int), 0, tn.size - 2)
    wt = np.clip((t - tn[it]) / dt, 0.0, 1.0)
    i00 = it * xn.size + ix
    ux, ut = 1 - wx, 1 - wt
    return (ut * (ux * f.take(i00) + wx * f.take(i00 + 1))
            + wt * (ux * f.take(i00 + xn.size) + wx * f.take(i00 + xn.size + 1)))


def test_lookups_on_row_windows_keep_the_bits_of_the_whole_surface():
    """interp forms each value in place, on the whole surface or on a
    window of its rows with the same time locator: the bits of the
    out-of-place expression either way.  A window short of the rows the
    lookup reads is rejected."""
    sol = solve_dpe(call(100.0), GammaBand(-0.5, 0.5), PARAMS, _grid(64))
    rng = np.random.default_rng(5)
    t, s = rng.uniform(0.2, 0.4, (30, 1)), rng.uniform(60.0, 160.0, (30, 7))
    rows = sol.time_rows(t)
    assert 2 < rows.stop - rows.start < sol.t_nodes.size
    g, delta = sol.cash_gamma, sol.delta
    assert _same_bits(sol.interp(g, t, s), _ref_interp(sol, g, t, s))
    got = sol.interp((g[rows], sol.delta_of(sol.v[rows])), t, s, row0=rows.start)
    assert _same_bits(got[0], _ref_interp(sol, g, t, s))
    assert _same_bits(got[1], _ref_interp(sol, delta, t, s))
    for short in (slice(rows.start + 1, rows.stop), slice(rows.start, rows.stop - 1)):
        with pytest.raises(ValueError, match="rows the lookup reads"):
            sol.interp(g[short], t, s, row0=short.start)


@pytest.mark.parametrize("t, s", [(0.0, math.nan), (math.nan, 100.0),
                                  (0.5, [100.0, math.nan]), ([0.0, math.nan], 100.0)],
                         ids=["nan-s", "nan-t", "nan-in-s-array", "nan-in-t-array"])
def test_greeks_at_a_nan_query_is_out_of_grid(t, s):
    """NaN compares False with every bound, so a check for points below or
    above the grid would pass it and interpolate NaN."""
    sol = solve_dpe(call(100.0), FREE, PARAMS, _grid(64))
    with pytest.raises(OutOfGridError):
        greeks(sol, t, s)


def test_active_flags_and_csv(tmp_path):
    band = GammaBand(0.2, 1.0)  # forces the lower branch on flat regions
    sol = solve_dpe(call(100.0), band, PARAMS, _grid())
    assert (sol.active == 1).any()
    f = tmp_path / "surf.csv"
    write_csv(f, *sol.csv_table(t_stride=max(1, (sol.t_nodes.size - 1) // 4)))
    head = f.read_text().splitlines()[0]
    assert head == "t,s,v,v_s,s2_v_ss,active_constraint"


def test_breach_reporting_fields():
    sol = solve_dpe(call(100.0), GammaBand.upper_only(0.5), PARAMS, _grid())
    assert sol.breach_count >= 0
    assert sol.residual_max >= 0.0


@pytest.mark.parametrize("band", [FREE, GammaBand.lower_only(0.2),
                                  GammaBand(-0.5, 0.5)])
def test_solver_step_solves_the_pricing_operator(band):
    """F-hat(v_t, A) = 0 wherever the measured cash gamma A is at most the
    upper bound: the step's clamp is F-hat's optimizer, and the solved
    surface's time differences are the step's time derivative."""
    sigma = PARAMS.sigma
    sol = solve_dpe(call(100.0), band, PARAMS, _grid())
    dx, dt = sol.meta["dx"], sol.meta["dt"]
    tol = 16 * np.finfo(float).eps * np.abs(sol.v).max() / dt
    checked = 0
    for m in range(sol.t_nodes.size - 1):
        _, a = _space_operators(sol.v[m + 1], dx)
        below = a <= band.upper
        step = dpe_operator_fhat(-0.5 * sigma ** 2 * band.clamp(a), a, sigma, band)
        assert np.abs(step[below]).max() <= 1e-12 * max(1.0, np.abs(a).max())
        # boundary nodes are extrapolated, not stepped
        v_t = (sol.v[m + 1, 1:-1] - sol.v[m, 1:-1]) / dt
        surface = dpe_operator_fhat(v_t, a[1:-1], sigma, band)
        assert np.abs(surface[below[1:-1]]).max() <= tol
        checked += int(below.sum())
    assert checked > 0.99 * (sol.t_nodes.size - 1) * sol.x_nodes.size


def _same_bits(x, y) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _assert_operators_pinned(sol, band):
    """The loop stores each row's cash gamma inline; every row must hold the
    bits _space_operators gives it, delta (derived from v) its v_x over s,
    and active the codes of the masked assignments."""
    dx, s = sol.meta["dx"], sol.s_nodes
    for m in range(sol.t_nodes.size):
        vx, a = _space_operators(sol.v[m], dx)
        assert _same_bits(a, sol.cash_gamma[m])
        assert _same_bits(vx / s, sol.delta[m])
    active = np.zeros(sol.v.shape, dtype=np.int8)
    if band.has_lower:
        active[sol.cash_gamma < band.lower] = ACTIVE_LOWER
    if band.has_upper:
        active[sol.cash_gamma > band.upper] = ACTIVE_UPPER
    assert _same_bits(sol.active, active)


@pytest.mark.parametrize("nx", [16, 64, 400])
@pytest.mark.parametrize("band", [FREE, GammaBand.lower_only(0.2),
                                  GammaBand.upper_only(0.5), GammaBand(-0.5, 0.5)],
                         ids=["free", "lower", "upper", "both"])
def test_stored_operators_are_the_space_operators_row_by_row(band, nx):
    _assert_operators_pinned(solve_dpe(call(100.0), band, PARAMS, _grid(nx)), band)


def _ref_backward(terminal, band, grid):
    """The backward loop one step at a time, on whole rows: the surface v,
    the breach count and the largest residual, plus per step the number of
    breaching nodes and whether the measured cash gamma held a NaN."""
    sigma = PARAMS.sigma
    dx, dt = grid.dx, PARAMS.horizon / grid.nt
    half_sig2 = 0.5 * sigma * sigma
    tol = 5.0 * (dx + dt) * sigma ** 2
    v = np.empty((grid.nt + 1, terminal.size))
    v[grid.nt] = terminal
    count, resid, steps = 0, 0.0, []
    for m in range(grid.nt - 1, -1, -1):
        w = v[m + 1]
        a = np.empty_like(w)
        a[1:-1] = ((w[2:] - 2.0 * w[1:-1] + w[:-2]) / (dx * dx)
                   - (w[2:] - w[:-2]) / (2.0 * dx))
        a[0] = -((w[1] - w[0]) / dx)
        a[-1] = -((w[-1] - w[-2]) / dx)
        over = a - band.upper
        n_over = int(np.sum(over > tol))
        if n_over:
            count += n_over
            resid = max(resid, half_sig2 * float(over.max()))
        steps.append((n_over, bool(np.isnan(a).any())))
        v[m] = w + dt * half_sig2 * np.minimum(band.upper, np.maximum(band.lower, a))
        v[m, 0] = 2.0 * v[m, 1] - v[m, 2]
        v[m, -1] = 2.0 * v[m, -2] - v[m, -3]
    return v, count, resid, steps


@pytest.mark.parametrize("nx", [16, 64, 400])
@pytest.mark.parametrize("band", [FREE, GammaBand.lower_only(0.2),
                                  GammaBand.upper_only(0.5), GammaBand(-0.5, 0.5)],
                         ids=["free", "lower", "upper", "both"])
def test_every_row_of_the_surface_matches_the_per_step_loop(band, nx):
    """The loop skips a clamp side at +-inf and steps only the interior;
    each band shape takes its own branch, and every row keeps the bits of
    the whole-row step."""
    grid = _grid(nx)
    sol = solve_dpe(call(100.0), band, PARAMS, grid)
    terminal = face_lift(call(100.0), band, sol.s_nodes)(sol.s_nodes)
    v, count, resid, _ = _ref_backward(terminal, band, grid)
    assert _same_bits(sol.v, v)
    assert sol.breach_count == count
    assert repr(sol.residual_max) == repr(resid)


def _unlifted(nan_node=None):
    """face_lift stand-in that keeps the raw payoff, optionally with a NaN
    at one node, so the upper bound is breached near the kink."""
    def lift(payoff, band, s):
        def lifted(x):
            g = payoff(x)
            if nan_node is not None:
                g[nan_node] = np.nan
            return g
        return lifted
    return lift


def test_breaches_of_raw_payoffs_match_the_per_step_loop(monkeypatch):
    from smalltime import dpe
    monkeypatch.setattr(dpe, "face_lift", _unlifted())
    band, grid = GammaBand.upper_only(0.5), _grid()
    outcomes = set()
    # the call's kink breaches at every step; the shallow kink smooths out
    for payoff in (call(100.0), piecewise_linear([100.0], [0.001])):
        sol = solve_dpe(payoff, band, PARAMS, grid)
        v, count, resid, steps = _ref_backward(payoff(sol.s_nodes), band, grid)
        assert _same_bits(sol.v, v)
        assert sol.breach_count == count > 0
        assert repr(sol.residual_max) == repr(resid)
        outcomes |= {n > 0 for n, _ in steps}
    # both outcomes of the check on the largest node occur
    assert outcomes == {True, False}


def test_breach_count_skips_nan_nodes_as_the_per_step_loop_does(monkeypatch):
    from smalltime import dpe
    monkeypatch.setattr(dpe, "face_lift", _unlifted(nan_node=5))
    band, grid = GammaBand.upper_only(0.5), _grid()
    sol = solve_dpe(call(100.0), band, PARAMS, grid)
    terminal = _unlifted(nan_node=5)(call(100.0), band, None)(sol.s_nodes)
    v, count, resid, steps = _ref_backward(terminal, band, grid)
    # steps whose cash gamma holds a NaN and still breaches elsewhere: a
    # check on the maximum alone (NaN) would miss their counts
    assert any(n > 0 and has_nan for n, has_nan in steps)
    assert _same_bits(sol.v, v)
    assert sol.breach_count == count
    assert repr(sol.residual_max) == repr(resid)


def test_stored_operators_of_a_breaching_surface_row_by_row(monkeypatch):
    """The raw call breaches the upper bound, so both codes of active occur."""
    from smalltime import dpe
    monkeypatch.setattr(dpe, "face_lift", _unlifted())
    band = GammaBand(-0.5, 0.5)
    sol = solve_dpe(call(100.0), band, PARAMS, _grid(64))
    assert {ACTIVE_LOWER, ACTIVE_UPPER} <= set(np.unique(sol.active).tolist())
    _assert_operators_pinned(sol, band)
