"""Simulation of gamma-constrained trading strategies and super-replication
shortfall analysis.

Wealth and share count follow the discrete left-point updates
X += Y dS and Y += alpha dt + gamma dS, with the cash gamma S^2 gamma
clamped into the band before use (clamp events are counted).  The surface-
driven strategy reads delta and cash gamma off a solved value surface; its
drift is the discrete time derivative of the delta field plus the
curvature correction needed for the share count to track the delta along
the simulated path, and its boundedness on the grid is checked, not
assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dpe import DpeSolution, PdeGrid, _central_diff, greeks, solve_dpe
from .market import MarketParams, Payoff, bs_price, simulate_gbm
from .matcore import GammaBand
from .paths import as_chunks, map_chunks_ordered
from .stochint import _running


# surface values per row block of the drift field
_DRIFT_VALUES = 1 << 14


def _dpe_drift_field(sol: DpeSolution) -> np.ndarray:
    """Drift alpha(t, x) = d(delta)/dt + sigma^2/2 * s^2 * v_sss.

    The third derivative comes from the stored cash gamma G = s^2 v_ss via
    sigma^2/2 * (G_x - 2 G) / s.  The surface needs two time rows; the
    last one keeps the time difference of the row before it.  Rows go in
    blocks of about _DRIFT_VALUES values through one block of scratch.
    """
    delta, g = sol.delta, sol.cash_gamma
    t, x = sol.t_nodes, sol.x_nodes
    dx, s = x[1] - x[0], np.exp(x)
    half_sig2 = 0.5 * sol.params.sigma ** 2
    last = t.size - 1
    out = np.empty_like(g)
    rows = max(1, _DRIFT_VALUES // x.size)
    scratch = np.empty((min(rows, t.size), x.size))
    for r0 in range(0, t.size, rows):
        r1 = min(r0 + rows, t.size)
        # the curvature term, in place in gx; blk holds 2 G until the time
        # difference overwrites it
        gx = _central_diff(g[r0:r1], dx, out=scratch[:r1 - r0])
        blk = np.multiply(g[r0:r1], 2.0, out=out[r0:r1])
        gx -= blk
        gx *= half_sig2
        gx /= s
        k1 = min(r1, last)
        np.subtract(delta[r0 + 1:k1 + 1], delta[r0:k1], out=blk[:k1 - r0])
        if r1 > last:
            np.subtract(delta[last], delta[last - 1], out=blk[-1])
        blk /= t[1] - t[0]
        blk += gx
    return out


@dataclass
class StrategySpec:
    """Trading strategy: initial shares plus drift and gamma sources.

    kind "constant" uses fixed alpha and gamma values; kind "dpe" reads
    them off the attached value surface.  Declared bounds must be finite
    (admissibility); for surface strategies they are measured on the grid.
    """

    kind: str
    y0: float | None = None
    alpha_value: float = 0.0
    gamma_value: float = 0.0
    solution: DpeSolution | None = None
    alpha_bound: float = 0.0
    gamma_bound: float = 0.0
    name: str = "constant"
    _drift_field: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.alpha_bound) and math.isfinite(self.gamma_bound)):
            raise ValueError("declared strategy bounds must be finite")

    @classmethod
    def constant(cls, y0: float, alpha: float = 0.0, gamma: float = 0.0,
                 name: str = "constant") -> "StrategySpec":
        return cls(kind="constant", y0=y0, alpha_value=alpha, gamma_value=gamma,
                   alpha_bound=abs(alpha), gamma_bound=abs(gamma), name=name)

    @classmethod
    def from_dpe(cls, solution: DpeSolution, name: str = "dpe_tracker") -> "StrategySpec":
        drift = _dpe_drift_field(solution)
        # max |f| is the larger of |max f| and |min f|, and a NaN or an
        # infinity shows in one of them; dividing a column by its s^2 > 0
        # keeps the order of its entries
        alpha_bound = max(abs(drift.max()), abs(drift.min()))
        if not math.isfinite(alpha_bound):
            raise ValueError("surface drift is not finite on the grid")
        g, s = solution.cash_gamma, solution.s_nodes
        g_abs = np.maximum(np.abs(g.max(axis=0)), np.abs(g.min(axis=0)))
        spec = cls(kind="dpe", y0=None, solution=solution,
                   alpha_bound=float(alpha_bound),
                   gamma_bound=float(np.max(g_abs / (s * s))), name=name)
        spec._drift_field = drift
        return spec


STRATEGY_CATALOG = {
    "zero": "hold nothing; terminal wealth equals the initial capital",
    "buy_and_hold": "constant share count, no rebalancing; wealth moves "
                    "one-for-one with the underlying",
    "constant_gamma": "fixed gamma with zero drift, clamped into the band",
    "dpe_tracker": "delta, gamma and drift read off the solved value "
                   "surface; the super-replication strategy",
}


@dataclass
class HedgeReport:
    """Terminal shortfall distribution of a simulated strategy.

    off_surface counts the surface queries whose price lay outside the
    solved grid and was clamped into it.
    """

    shortfall: np.ndarray
    s_terminal: np.ndarray
    x_terminal: np.ndarray
    x0: float
    y0: float
    clamp_events: int
    clamp_rate: float
    alpha_max: float
    off_surface: int
    quantiles: dict

    @property
    def frac_nonnegative(self) -> float:
        return float(np.mean(self.shortfall >= 0.0))

    @property
    def frac_negative(self) -> float:
        return float(np.mean(self.shortfall < 0.0))

    def csv_table(self):
        return (["path", "S_T", "X_T", "shortfall"], np.arange(self.shortfall.size),
                self.s_terminal, self.x_terminal, self.shortfall)


def _summary_quantiles(shortfall: np.ndarray) -> dict:
    return {
        "q01": float(np.quantile(shortfall, 0.01)),
        "q05": float(np.quantile(shortfall, 0.05)),
        "q25": float(np.quantile(shortfall, 0.25)),
        "median": float(np.median(shortfall)),
        "mean": float(np.mean(shortfall)),
        "frac_nonnegative": float(np.mean(shortfall >= 0.0)),
    }


def simulate_hedge(source, s0: float, x0: float, strategy: StrategySpec,
                   payoff: Payoff, band: GammaBand, params: MarketParams,
                   workers: int = 1) -> HedgeReport:
    """Run the strategy over the bundle and report terminal shortfalls.

    The bundle must be one-dimensional on a grid starting at 0 and ending
    at the horizon.  Queries off the solved surface clamp the price into
    the surface's range; off_surface counts them (exits are vanishingly
    rare on the default grids).
    """
    return _simulate_fundings(source, s0, (x0,), strategy, payoff, band,
                              params, workers)[0]


# path-values per time block of the strategy simulation
_BLOCK_VALUES = 1 << 14


def _simulate_fundings(source, s0, x0s, strategy, payoff, band, params,
                       workers) -> list:
    """simulate_hedge for several initial capitals in one pass: holdings do
    not depend on the capital, so each capital's wealth is one row of a
    (len(x0s), P) array, with the bits a run of that capital alone gives.

    Time is walked in blocks of B steps (B from _BLOCK_VALUES).  A block
    locates its B x P query points on the surface once for both fields,
    forms the share counts with one running sum over the interleaved
    increments alpha dt and gamma dS, which adds them in the order of the
    step-by-step update (Y + alpha dt) + gamma dS, and the wealths with
    one running sum of Y dS."""
    if source.dim != 1:
        raise ValueError("hedging needs a one-dimensional bundle")
    t = source.grid.points
    if t[0] != 0.0 or abs(t[-1] - params.horizon) > 1e-12 * max(1.0, params.horizon):
        raise ValueError("hedging grid must span [0, horizon]")
    sol = strategy.solution
    if strategy.y0 is not None:
        y0_used = float(strategy.y0)
    else:
        y0_used = float(greeks(sol, 0.0, s0)[1])
    if sol is not None:
        fields = (sol.cash_gamma, strategy._drift_field)
        s_lo, s_hi = float(sol.s_nodes[0]), float(sol.s_nodes[-1])
    x0_col = np.array(x0s, dtype=float)[:, None]

    def one(chunk):
        s_paths = simulate_gbm(chunk, s0, params)
        p = s_paths.shape[0]
        y = np.full(p, y0_used)
        x = np.repeat(x0_col, p, axis=1)
        clamps = off = 0
        a_max = 0.0
        size = max(1, _BLOCK_VALUES // p)
        for k0 in range(0, t.size - 1, size):
            k1 = min(k0 + size, t.size - 1)
            s = s_paths[:, k0:k1 + 1].T
            s_k = s[:-1]
            ds = s[1:] - s_k
            t_k = t[k0:k1, None]
            dt = t[k0 + 1:k1 + 1, None] - t_k
            if strategy.kind == "dpe":
                off += int(np.count_nonzero(s_k < s_lo) + np.count_nonzero(s_k > s_hi))
                cash, alpha = sol.interp(fields, t_k, np.clip(s_k, s_lo, s_hi))
            else:
                cash = strategy.gamma_value * s_k * s_k
                alpha = np.full(t_k.shape, strategy.alpha_value)
            clamps += int(np.count_nonzero((cash < band.lower) | (cash > band.upper)))
            gamma = band.clamp(cash) / (s_k * s_k)
            inc = np.empty((2 * (k1 - k0), p))
            np.multiply(alpha, dt, out=inc[0::2])
            np.multiply(gamma, ds, out=inc[1::2])
            ys = _running(y, inc)[::2]  # Y before each step, and after the block
            _running(x, (ys[:-1] * ds)[:, None, :])
            # the largest |alpha| of each step; a step holding a NaN is skipped
            a_max = float(np.fmax.reduce(np.abs(alpha).max(axis=1), initial=a_max))
        s_t = s_paths[:, -1]
        return x - payoff(s_t), s_t, x, clamps, off, a_max

    shortfalls, s_terms, x_terms, clamps, offs, a_maxes = zip(
        *map_chunks_ordered(one, as_chunks(source), workers))
    s_terminal = np.concatenate(s_terms)
    clamp_events = sum(clamps)
    total_steps = s_terminal.size * (t.size - 1)
    return [HedgeReport(shortfall=sf, s_terminal=s_terminal, x_terminal=x_t,
                        x0=float(x0), y0=y0_used,
                        clamp_events=clamp_events,
                        clamp_rate=clamp_events / max(total_steps, 1),
                        alpha_max=max(0.0, *a_maxes), off_surface=sum(offs),
                        quantiles=_summary_quantiles(sf))
            for x0, sf, x_t in zip(x0s, np.concatenate(shortfalls, axis=1),
                                   np.concatenate(x_terms, axis=1))]


@dataclass
class GapReport:
    """Price gap between the constrained and unconstrained prices, with the
    shortfall distributions of the surface strategy under both fundings."""

    price_gap: float
    constrained_price: float
    bs_price: float
    run_constrained: HedgeReport
    run_bs_funded: HedgeReport


def replication_gap(payoff: Payoff, band: GammaBand, params: MarketParams,
                    s0: float, source, grid: PdeGrid | None = None,
                    workers: int = 1) -> GapReport:
    """Simulate the surface strategy funded at the constrained price and at
    the unconstrained lognormal price, and report both shortfall
    distributions together with the price gap.  Both fundings share one
    simulation."""
    if grid is None:
        grid = PdeGrid.around_spot(s0, params)
    sol = solve_dpe(payoff, band, params, grid)
    v0 = float(greeks(sol, 0.0, s0)[0])
    bs0 = float(bs_price(payoff, s0, 0.0, params))
    strategy = StrategySpec.from_dpe(sol)
    run_v, run_bs = _simulate_fundings(source, s0, (v0, bs0), strategy, payoff,
                                       band, params, workers)
    return GapReport(price_gap=v0 - bs0, constrained_price=v0, bs_price=bs0,
                     run_constrained=run_v, run_bs_funded=run_bs)
