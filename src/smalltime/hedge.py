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
from dataclasses import dataclass

import numpy as np

from .dpe import DpeSolution, PdeGrid, _central_diff, greeks, solve_dpe
from .market import MarketParams, Payoff, bs_price, simulate_gbm
from .matcore import GammaBand
from .paths import as_chunks, draw_bytes, map_chunks_ordered, time_blocks
from .stochint import _running


# surface values per row window of the drift: StrategySpec.from_dpe's
# blocks, and the most rows a time block of the simulation reads unless a
# single step spans more (it then reads two)
_WINDOW_VALUES = 1 << 16


def _drift_rows(sol: DpeSolution, rows: slice) -> np.ndarray:
    """Drift alpha(t, x) = d(delta)/dt + sigma^2/2 * s^2 * v_sss on rows
    rows.start to rows.stop - 1 of the surface.

    delta comes from rows of v (DpeSolution.delta_of), one row beyond the
    window for the time difference; the last row of the surface keeps the
    time difference of the row before it.  The third derivative comes from
    the cash gamma G = s^2 v_ss via sigma^2/2 * (G_x - 2 G) / s.
    """
    r0, r1 = rows.start, rows.stop
    t, x = sol.t_nodes, sol.x_nodes
    last = t.size - 1
    d0, k1 = min(r0, last - 1), min(r1, last)
    delta = sol.delta_of(sol.v[d0:k1 + 1])
    out = np.empty((r1 - r0, x.size))
    np.subtract(delta[r0 - d0 + 1:], delta[r0 - d0:k1 - d0], out=out[:k1 - r0])
    if r1 > last:
        np.subtract(delta[-1], delta[-2], out=out[-1])
    out /= t[1] - t[0]
    # the curvature term, in delta's rows
    g = sol.cash_gamma[rows]
    gx = _central_diff(g, x[1] - x[0], out=delta[:r1 - r0])
    gx -= np.multiply(g, 2.0)
    gx *= 0.5 * sol.params.sigma ** 2
    gx /= sol.s_nodes
    out += gx
    return out


def window_bytes(grid: PdeGrid) -> int:
    """Bytes _drift_rows holds for the largest window a time block reads on
    a surface of grid's size (StrategySpec.from_dpe's blocks are no
    larger): the window, its delta rows (one more) and the 2 G temporary."""
    rows = min(max(2, _WINDOW_VALUES // grid.nx), grid.nt + 1)
    return 8 * grid.nx * (3 * rows + 1)


@dataclass
class StrategySpec:
    """Trading strategy: initial shares plus drift and gamma sources.

    kind "constant" uses fixed alpha and gamma values; kind "dpe" reads
    them off the attached value surface.  The drift bound and the gamma
    value must be finite (admissibility); for surface strategies the bound
    is measured on the grid.
    """

    kind: str
    y0: float | None = None
    alpha_value: float = 0.0
    gamma_value: float = 0.0
    solution: DpeSolution | None = None
    alpha_bound: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha_bound) and math.isfinite(self.gamma_value)):
            raise ValueError("strategy drift bound and gamma must be finite")

    @classmethod
    def constant(cls, y0: float, alpha: float = 0.0,
                 gamma: float = 0.0) -> "StrategySpec":
        return cls(kind="constant", y0=y0, alpha_value=alpha, gamma_value=gamma,
                   alpha_bound=abs(alpha))

    @classmethod
    def from_dpe(cls, solution: DpeSolution) -> "StrategySpec":
        """The surface strategy, with its drift bound measured over every
        row of the drift, formed in row blocks and kept nowhere (the
        simulation forms the rows each time block reads)."""
        n = solution.t_nodes.size
        size = max(1, _WINDOW_VALUES // solution.x_nodes.size)
        tops, bottoms = [], []
        for r in range(0, n, size):
            blk = _drift_rows(solution, slice(r, min(r + size, n)))
            tops.append(blk.max())
            bottoms.append(blk.min())
            del blk  # before the next block is formed
        # max |f| is the larger of |max f| and |min f|, and a NaN or an
        # infinity shows in one of them; a value of v or of the cash gamma
        # that is not finite makes the drift near its node so
        alpha_bound = max(abs(np.max(tops)), abs(np.min(bottoms)))
        if not math.isfinite(alpha_bound):
            raise ValueError("surface drift is not finite on the grid")
        return cls(kind="dpe", y0=None, solution=solution, alpha_bound=float(alpha_bound))


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
        return self.quantiles["frac_nonnegative"]

    @property
    def frac_negative(self) -> float:
        return float(np.mean(self.shortfall < 0.0))

    def csv_table(self):
        # a range: the table holds no path column beside the results
        return (["path", "S_T", "X_T", "shortfall"], range(self.shortfall.size),
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


def simulate_bytes(size: int, chunk: int, fundings: int, grid: PdeGrid) -> tuple:
    """(matrices, chunk, path, after) bytes of _simulate_fundings with the
    surface strategy on size times and a surface on grid: no (d, d)
    matrices; a chunk's draw prefix (paths.draw_bytes), Y, wealths and
    terminal prices, the values a chunk before returned, a block at its
    largest and the drift window (window_bytes); per path the terminal
    price and the values the pass fills in, and after it the copy of a
    shortfall each quantile takes."""
    steps = min(max(1, _BLOCK_VALUES // chunk), size - 1)
    prefix, _ = draw_bytes(1, steps, chunk)
    path = 8 * (2 * fundings + 1)
    # the buffer and prices (B + 1 rows each) at the step's running sums:
    # dS, the cash gamma, alpha, gamma, the interleaved increments (2B) and
    # their sums (2B + 1), Y dS (B) and the wealths' sums (B + 1 a
    # funding); the surface lookup before them holds dS, the clipped
    # prices, 5 arrays of scratch and its 2 fields
    rows = fundings + 2 + 2 * (steps + 1) + 9 * steps + 1 + fundings * (steps + 1)
    return 0, prefix + 8 * chunk * rows + window_bytes(grid) + chunk * path, path, 8


def _simulate_fundings(source, s0, x0s, strategy, payoff, band, params,
                       workers) -> list:
    """simulate_hedge for several initial capitals in one pass: holdings do
    not depend on the capital, so each capital's wealth is one row of a
    (len(x0s), P) array, with the bits a run of that capital alone gives.

    Time is walked in the blocks of B steps (B from _BLOCK_VALUES) that
    paths.time_blocks reads or draws, each mapped to prices with
    simulate_gbm.  A block locates its B x P query points on the surface
    once for both fields, forms the share counts with one running sum over
    the interleaved increments alpha dt and gamma dS, which adds them in
    the order of the step-by-step update (Y + alpha dt) + gamma dS, and the
    wealths with one running sum of Y dS.  Each chunk's terminal values go
    straight into arrays of every path."""
    if source.dim != 1:
        raise ValueError("hedging needs a one-dimensional bundle")
    if not 0.0 < s0 < math.inf:
        raise ValueError("initial price must be positive and finite")
    t = source.grid.points
    if t[0] != 0.0 or abs(t[-1] - params.horizon) > 1e-12 * max(1.0, params.horizon):
        raise ValueError("hedging grid must span [0, horizon]")
    sol = strategy.solution
    if strategy.y0 is not None:
        y0_used = float(strategy.y0)
    else:
        y0_used = float(greeks(sol, 0.0, s0)[1])
    window_steps = t.size
    if sol is not None:
        s_lo, s_hi = float(sol.s_nodes[0]), float(sol.s_nodes[-1])
        # b steps read at most (b - 1) hop + 2 surface rows, hop being the
        # most rows one step moves on; at most _WINDOW_VALUES values, or
        # two rows
        it, _ = sol._time_cells(t[:-1])
        hop = max(1, int(np.diff(it).max(initial=0)))
        window_steps = max(0, _WINDOW_VALUES // sol.x_nodes.size - 2) // hop + 1
    x0_col = np.array(x0s, dtype=float)[:, None]

    def step_block(w, k0, y, x, s_end):
        """Y, X and the end prices over a block of path values from step k0,
        in place; its clamps, off-surface queries and largest |alpha| (a
        step holding a NaN is skipped)."""
        k1 = k0 + len(w) - 1
        s = simulate_gbm(w[:, :, 0], t[k0:k1 + 1, None], s0, params)
        s_k = s[:-1]
        ds = s[1:] - s_k
        t_k = t[k0:k1, None]
        dt = t[k0 + 1:k1 + 1, None] - t_k
        off = 0
        if strategy.kind == "dpe":
            off = int(np.count_nonzero(s_k < s_lo) + np.count_nonzero(s_k > s_hi))
            # the cash gamma's window is a view; the drift's is formed here
            rows = sol.time_rows(t_k)
            cash, alpha = sol.interp((sol.cash_gamma[rows], _drift_rows(sol, rows)),
                                     t_k, np.clip(s_k, s_lo, s_hi), row0=rows.start)
        else:
            cash = strategy.gamma_value * s_k * s_k
            alpha = np.full(t_k.shape, strategy.alpha_value)
        clamps = int(np.count_nonzero((cash < band.lower) | (cash > band.upper)))
        gamma = band.clamp(cash) / (s_k * s_k)
        inc = np.empty((2 * (k1 - k0), y.size))
        np.multiply(alpha, dt, out=inc[0::2])
        np.multiply(gamma, ds, out=inc[1::2])
        ys = _running(y, inc)[::2]  # Y before each step, and after the block
        _running(x, (ys[:-1] * ds)[:, None, :])
        s_end[:] = s[-1]
        return clamps, off, float(np.fmax.reduce(np.abs(alpha).max(axis=1), initial=0.0))

    def one(chunk):
        p = chunk.path_count
        y, x, s_t = np.full(p, y0_used), np.repeat(x0_col, p, axis=1), np.empty(p)
        size = min(max(1, _BLOCK_VALUES // p), window_steps)
        clamps, off, a_max = zip(*[step_block(w, k0, y, x, s_t) for k0, w in zip(
            range(0, t.size - 1, size), time_blocks(chunk, size))])
        return x - payoff(s_t), s_t, x, sum(clamps), sum(off), max(a_max)

    n = source.path_count
    s_terminal, shortfall, x_terminal = np.empty(n), np.empty((len(x0s), n)), np.empty((len(x0s), n))
    clamp_events = off_surface = first = 0
    alpha_max = 0.0
    for sf, s_t, x, clamps, off, a_max in map_chunks_ordered(one, as_chunks(source), workers):
        cols = slice(first, first + s_t.size)
        shortfall[:, cols], s_terminal[cols], x_terminal[:, cols] = sf, s_t, x
        clamp_events += clamps
        off_surface += off
        alpha_max = max(alpha_max, a_max)
        first = cols.stop
    return [HedgeReport(shortfall=sf, s_terminal=s_terminal, x_terminal=x_t,
                        x0=float(x0), y0=y0_used,
                        clamp_events=clamp_events,
                        clamp_rate=clamp_events / max(n * (t.size - 1), 1),
                        alpha_max=alpha_max, off_surface=off_surface,
                        quantiles=_summary_quantiles(sf))
            for x0, sf, x_t in zip(x0s, shortfall, x_terminal)]


def surface_strategy(payoff: Payoff, band: GammaBand, params: MarketParams,
                     s0: float, grid: PdeGrid | None = None) -> tuple:
    """(strategy, v0, bs0): the surface strategy of the constrained value
    surface solved on grid (PdeGrid.around_spot at s0 by default), the
    constrained price v0 and the lognormal price bs0 at (0, s0)."""
    if grid is None:
        grid = PdeGrid.around_spot(s0, params)
    sol = solve_dpe(payoff, band, params, grid)
    v0 = float(greeks(sol, 0.0, s0)[0])
    bs0 = float(bs_price(payoff, s0, 0.0, params))
    return StrategySpec.from_dpe(sol), v0, bs0


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
    strategy, v0, bs0 = surface_strategy(payoff, band, params, s0, grid)
    run_v, run_bs = _simulate_fundings(source, s0, (v0, bs0), strategy, payoff,
                                       band, params, workers)
    return GapReport(price_gap=v0 - bs0, constrained_price=v0, bs_price=bs0,
                     run_constrained=run_v, run_bs_funded=run_bs)
