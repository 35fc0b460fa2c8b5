"""The time-blocked strategy simulation against a plain per-step loop, byte
for byte: wealth, shortfall, clamp and off-surface counts, and the largest
drift, for both strategy kinds, one and two fundings, and uniform and
non-uniform grids; and the row-blocked surface drift field and strategy
bounds against their whole-surface and out-of-place expressions."""

import dataclasses

import numpy as np
import pytest

from smalltime import hedge
from smalltime.dpe import PdeGrid, _central_diff, solve_dpe
from smalltime.hedge import StrategySpec, _simulate_fundings
from smalltime.market import MarketParams, call, simulate_gbm
from smalltime.matcore import GammaBand
from smalltime.paths import TimeGrid, sample_bundle, uniform_grid

PARAMS = MarketParams(sigma=0.2, horizon=1.0)
BAND = GammaBand(-0.5, 0.5)
PAYOFF = call(100.0)


# ------------------------------------------------- the per-step reference

def _ref_interp(sol, arr, t, s):
    """Bilinear interpolation of one field at a scalar time, as a separate
    lookup per field."""
    tn, xn = sol.t_nodes, sol.x_nodes
    x = np.log(np.asarray(s, dtype=float))
    dt = tn[1] - tn[0]
    dx = xn[1] - xn[0]
    it = np.clip(((t - tn[0]) / dt).astype(int), 0, tn.size - 2)
    ix = np.clip(((x - xn[0]) / dx).astype(int), 0, xn.size - 2)
    wt = np.clip((t - tn[it]) / dt, 0.0, 1.0)
    wx = np.clip((x - xn[ix]) / dx, 0.0, 1.0)
    return ((1 - wt) * ((1 - wx) * arr[it, ix] + wx * arr[it, ix + 1])
            + wt * ((1 - wx) * arr[it + 1, ix] + wx * arr[it + 1, ix + 1]))


def _ref_simulate(bundle, s0, x0s, strategy, band):
    """One step at a time: X += Y dS, then Y += alpha dt + gamma dS."""
    sol = strategy.solution
    t = bundle.grid.points
    s_paths = simulate_gbm(bundle, s0, PARAMS)
    p = s_paths.shape[0]
    y0 = strategy.y0 if strategy.y0 is not None else _ref_interp(sol, sol.delta, 0.0, s0)
    y = np.full(p, float(y0))
    x = np.repeat(np.array(x0s, dtype=float)[:, None], p, axis=1)
    clamps = off = 0
    a_max = 0.0
    for k in range(t.size - 1):
        t_k = t[k]
        dt = t[k + 1] - t[k]
        s_k = s_paths[:, k]
        ds = s_paths[:, k + 1] - s_k
        if strategy.kind == "dpe":
            s_lo, s_hi = sol.s_nodes[0], sol.s_nodes[-1]
            s_q = np.clip(s_k, s_lo, s_hi)
            off += int(np.sum(s_q != s_k))
            cash = _ref_interp(sol, sol.cash_gamma, t_k, s_q)
            alpha = _ref_interp(sol, strategy._drift_field, t_k, s_q)
        else:
            cash = strategy.gamma_value * s_k * s_k
            alpha = np.full(p, strategy.alpha_value)
        clamps += int(np.sum((cash < band.lower) | (cash > band.upper)))
        gamma = np.clip(cash, band.lower, band.upper) / (s_k * s_k)
        x = x + y * ds
        y = y + alpha * dt + gamma * ds
        a_max = max(a_max, float(np.max(np.abs(alpha))))
    return {"x_terminal": x, "shortfall": x - PAYOFF(s_paths[:, -1]),
            "clamp_events": clamps, "off_surface": off, "alpha_max": a_max}


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ------------------------------------------------------------------ cases

N_STEPS = 37  # blocks of 32 steps at 500 paths: one full block and a short one


def _grid(kind):
    if kind == "uniform":
        return uniform_grid(PARAMS.horizon, N_STEPS)
    # denser near both ends, with the exact end points 0 and T
    u = np.linspace(0.0, 1.0, N_STEPS + 1)
    pts = PARAMS.horizon * (0.5 - 0.5 * np.cos(np.pi * u))
    pts[0], pts[-1] = 0.0, PARAMS.horizon
    return TimeGrid(pts)


@pytest.fixture(scope="module")
def strategies():
    sol = solve_dpe(PAYOFF, BAND, PARAMS, PdeGrid.around_spot(100.0, PARAMS, nx=64))
    return {"constant": StrategySpec.constant(y0=0.3, alpha=0.05, gamma=4e-5),
            "dpe": StrategySpec.from_dpe(sol)}


@pytest.fixture(params=[None, 1, 3], ids=["budget-default", "budget-1", "budget-3"])
def block_values(request, monkeypatch):
    """Run with the simulation's block budget, and with budgets that cut
    even one path into blocks of one to three steps."""
    if request.param is not None:
        monkeypatch.setattr(hedge, "_BLOCK_VALUES", request.param)


@pytest.mark.parametrize("x0s", [(5.0,), (5.0, 3.25)], ids=["one-funding", "two-fundings"])
@pytest.mark.parametrize("grid_kind", ["uniform", "nonuniform"])
@pytest.mark.parametrize("kind", ["constant", "dpe"])
@pytest.mark.parametrize("p", [1, 2, 7, 500])
def test_blocked_simulation_matches_per_step_loop(p, kind, grid_kind, x0s,
                                                  strategies, block_values):
    bundle = sample_bundle(1, _grid(grid_kind), p, seed=100 + p)
    strategy = strategies[kind]
    ref = _ref_simulate(bundle, 100.0, x0s, strategy, BAND)
    reports = _simulate_fundings(bundle, 100.0, x0s, strategy, PAYOFF, BAND,
                                 PARAMS, 1)
    assert len(reports) == len(x0s)
    for row, rep in enumerate(reports):
        assert _same_bytes(rep.x_terminal, ref["x_terminal"][row])
        assert _same_bytes(rep.shortfall, ref["shortfall"][row])
        assert rep.clamp_events == ref["clamp_events"]
        assert rep.off_surface == ref["off_surface"]
        assert repr(rep.alpha_max) == repr(ref["alpha_max"])


# ---------------------------------------------------- the surface drift field

def _ref_drift(sol):
    """The drift field as out-of-place expressions."""
    delta, g = sol.delta, sol.cash_gamma
    t, x = sol.t_nodes, sol.x_nodes
    s = np.exp(x)
    out = np.empty_like(delta)
    out[:-1] = (delta[1:] - delta[:-1]) / (t[1] - t[0])
    out[-1] = out[-2]
    gx = _central_diff(g, x[1] - x[0])
    out += 0.5 * sol.params.sigma ** 2 * (gx - 2.0 * g) / s[None, :]
    return out


@pytest.mark.parametrize("band", [BAND, GammaBand(-np.inf, np.inf)],
                         ids=["banded", "unbanded"])
def test_drift_field_and_bounds_match_the_out_of_place_expressions(band):
    sol = solve_dpe(PAYOFF, band, PARAMS, PdeGrid.around_spot(100.0, PARAMS, nx=64))
    want = _ref_drift(sol)
    assert _same_bytes(hedge._dpe_drift_field(sol), want)
    spec = StrategySpec.from_dpe(sol)
    s = sol.s_nodes
    assert repr(spec.alpha_bound) == repr(float(np.max(np.abs(want))))
    assert repr(spec.gamma_bound) == repr(float(np.max(
        np.abs(sol.cash_gamma) / (s * s)[None, :])))


def _ref_drift_unblocked(sol):
    """The drift field as whole surfaces, before it was formed in row
    blocks: the same in-place operations on two full-size arrays."""
    delta, g = sol.delta, sol.cash_gamma
    t, x = sol.t_nodes, sol.x_nodes
    gx = _central_diff(g, x[1] - x[0])
    out = np.multiply(g, 2.0)
    gx -= out
    gx *= 0.5 * sol.params.sigma ** 2
    gx /= np.exp(x)
    np.subtract(delta[1:], delta[:-1], out=out[:-1])
    out[:-1] /= t[1] - t[0]
    out[-1] = out[-2]
    out += gx
    return out


@pytest.mark.parametrize("rows", [None, 1, 7, -1],
                         ids=["budget-default", "one-row", "seven-rows", "last-row-alone"])
@pytest.mark.parametrize("nx", [64, 400])
@pytest.mark.parametrize("band", [BAND, GammaBand(-np.inf, np.inf)],
                         ids=["banded", "unbanded"])
def test_blocked_drift_field_matches_the_whole_surface_pass(band, nx, rows, monkeypatch):
    """Blocks of one row, of a non-divisor of the nt + 1 rows, of nt rows
    (the last row alone in the second block, its time difference taken
    from the row before) and of the default budget (one block at nx = 64,
    31 at nx = 400)."""
    sol = solve_dpe(PAYOFF, band, PARAMS, PdeGrid.around_spot(100.0, PARAMS, nx=nx))
    nt = sol.t_nodes.size - 1
    assert (nt + 1) % 7
    if rows is not None:
        monkeypatch.setattr(hedge, "_DRIFT_VALUES", (nt if rows == -1 else rows) * nx)
    assert _same_bytes(hedge._dpe_drift_field(sol), _ref_drift_unblocked(sol))


def test_a_surface_drift_that_is_not_finite_is_rejected():
    sol = solve_dpe(PAYOFF, BAND, PARAMS, PdeGrid.around_spot(100.0, PARAMS, nx=64))
    for bad in (np.nan, np.inf, -np.inf):
        delta = sol.delta.copy()
        delta[3, 5] = bad
        with pytest.raises(ValueError, match="not finite"):
            StrategySpec.from_dpe(dataclasses.replace(sol, delta=delta))
