"""Explicit finite-difference solver for the gamma-constrained pricing
equation on a log-price grid.

The lower bound enters the stepping operator (the clamp A -> max(A, lower)
is the closed-form optimizer of the sup over added curvature); the upper
bound enters through the face-lifted terminal condition plus a clamp
min(., upper) in the step.  The clamp alone is not a proof-grade treatment
of the upper constraint: nodes where the measured cash gamma exceeds the
bound are flagged and reported, and correctness is established against the
face-lift pricing oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .market import MarketParams, Payoff, face_lift
from .matcore import GammaBand

ACTIVE_NONE, ACTIVE_LOWER, ACTIVE_UPPER = 0, 1, 2


class StabilityError(ValueError):
    """The grid violates the explicit-scheme stability bound."""


class OutOfGridError(ValueError):
    """A query point lies outside the solved surface."""


@dataclass
class PdeGrid:
    """Log-price grid bounds and resolution.

    The explicit scheme needs dt <= dx^2 / sigma^2 (diffusion number at
    most one half with the sigma^2/2 coefficient); solve_dpe enforces it.
    """

    x_min: float
    x_max: float
    nx: int
    nt: int

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.nx < 16:
            raise ValueError("need at least 16 space nodes")
        if self.nt < 1:
            raise ValueError("need at least one time step")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def x_nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @classmethod
    def around_spot(cls, s0: float, params: MarketParams, nx: int = 400) -> "PdeGrid":
        """Grid of nx nodes spanning +/- 6 sigma sqrt(T) around log s0, with
        nt chosen so that dt is at most 0.9 times the stability bound."""
        if not 0.0 < s0 < math.inf:
            raise ValueError("spot s0 must be positive and finite")
        half = 6.0 * params.sigma * math.sqrt(params.horizon)
        x0 = math.log(s0)
        dx = 2.0 * half / (nx - 1)
        dt_max = 0.9 * dx * dx / params.sigma ** 2
        nt = max(1, int(math.ceil(params.horizon / dt_max)))
        return cls(x_min=x0 - half, x_max=x0 + half, nx=nx, nt=nt)


@dataclass
class DpeSolution:
    """Value surface v(t, s) with discrete derivatives and constraint flags.

    Arrays are indexed [time, space] with time ascending from 0 to the
    horizon.  delta holds dv/ds, cash_gamma holds s^2 v_ss = v_xx - v_x.
    active marks which clamp branch bound at each node; breach_count and
    residual_max report where the measured cash gamma exceeded the upper
    bound (see the module docstring).
    """

    t_nodes: np.ndarray
    x_nodes: np.ndarray
    v: np.ndarray
    delta: np.ndarray
    cash_gamma: np.ndarray
    active: np.ndarray
    params: MarketParams
    residual_max: float
    breach_count: int
    meta: dict = field(default_factory=dict)

    @property
    def s_nodes(self) -> np.ndarray:
        return np.exp(self.x_nodes)

    def interp(self, arr, t, s):
        """Bilinear interpolation of a stored [time, space] field at (t, s),
        or of each field of a tuple of them (returned as a tuple) with one
        location of the query points; t and s broadcast against each other."""
        t_arr = np.asarray(t, dtype=float)
        s_arr = np.asarray(s, dtype=float)
        x_arr = np.log(s_arr)
        tn, xn = self.t_nodes, self.x_nodes
        eps_t = 1e-9 * max(1.0, tn[-1])
        eps_x = 1e-12 * max(1.0, abs(xn[-1]), abs(xn[0]))
        # written so that a NaN, which compares False, fails the check
        if not (np.all(t_arr >= tn[0] - eps_t) and np.all(t_arr <= tn[-1] + eps_t)
                and np.all(x_arr >= xn[0] - eps_x) and np.all(x_arr <= xn[-1] + eps_x)):
            raise OutOfGridError("query point outside the solved surface")
        dx = xn[1] - xn[0]
        ix = np.clip(((x_arr - xn[0]) / dx).astype(int), 0, xn.size - 2)
        wx = np.clip((x_arr - xn[ix]) / dx, 0.0, 1.0)
        if tn.size > 1:
            dt = tn[1] - tn[0]
            it = np.clip(((t_arr - tn[0]) / dt).astype(int), 0, tn.size - 2)
            wt = np.clip((t_arr - tn[it]) / dt, 0.0, 1.0)
            i00, row = it * xn.size + ix, xn.size
        else:
            wt, i00, row = 0.0, ix, 0
        # flat indices of the four corners, shared by every field
        i01, i10 = i00 + 1, i00 + row
        i11 = i10 + 1
        ux, ut = 1 - wx, 1 - wt
        out = tuple(ut * (ux * f.take(i00) + wx * f.take(i01))
                    + wt * (ux * f.take(i10) + wx * f.take(i11))
                    for f in (arr if isinstance(arr, tuple) else (arr,)))
        return out if isinstance(arr, tuple) else out[0]

    def csv_table(self, t_stride: int = 1):
        """(header, *columns) of the surface on every t_stride-th time and
        every space node, time-major; active_constraint holds the integer
        codes ACTIVE_NONE, ACTIVE_LOWER and ACTIVE_UPPER."""
        t, s = self.t_nodes[::t_stride], self.s_nodes
        return (["t", "s", "v", "v_s", "s2_v_ss", "active_constraint"],
                np.repeat(t, s.size), np.tile(s, t.size),
                *(f[::t_stride].ravel() for f in (self.v, self.delta,
                                                  self.cash_gamma, self.active)))


def _central_diff(f: np.ndarray, dx: float, out=None) -> np.ndarray:
    """d/dx along the last axis (at least four nodes): central differences
    inside, one-sided at the two end nodes."""
    out = np.empty_like(f) if out is None else out
    np.subtract(f[..., 2:], f[..., :-2], out=out[..., 1:-1])
    np.divide(out[..., 1:-1], 2.0 * dx, out=out[..., 1:-1])
    _end_diff(f, dx, out)
    return out


def _end_diff(f: np.ndarray, dx: float, out: np.ndarray) -> np.ndarray:
    """One-sided d/dx at the two end nodes along the last axis, f[1] - f[0]
    and f[n-1] - f[n-2] over dx, into (and returned as) out[..., ::n-1]."""
    n = f.shape[-1]
    ends = out[..., ::n - 1]
    np.subtract(f[..., 1::n - 2], f[..., ::n - 2], out=ends)
    return np.divide(ends, dx, out=ends)


def _space_operators(v: np.ndarray, dx: float, out=None):
    """Central v_x and the cash gamma v_xx - v_x along the last axis, into
    the pair out = (vx, a) when given; linear extrapolation (v_xx = 0) at
    the two end nodes."""
    vx, a = (np.empty_like(v), np.empty_like(v)) if out is None else out
    _central_diff(v, dx, out=vx)
    inner = a[..., 1:-1]
    np.multiply(v[..., 1:-1], 2.0, out=inner)
    np.subtract(v[..., 2:], inner, out=inner)
    np.add(inner, v[..., :-2], out=inner)
    np.divide(inner, dx * dx, out=inner)
    np.subtract(inner, vx[..., 1:-1], out=inner)
    n = v.shape[-1]
    np.negative(vx[..., ::n - 1], out=a[..., ::n - 1])
    return vx, a


def solve_dpe(payoff: Payoff, band: GammaBand, params: MarketParams,
              grid: PdeGrid) -> DpeSolution:
    """Backward explicit solve of the constrained pricing equation.

    Terminal data is the face-lifted payoff (a band with no upper bound
    leaves the payoff unchanged).  Each step measures A = v_xx - v_x by
    central differences, clamps it into the band, min(max(A, lower), upper),
    and advances v by dt * sigma^2/2 times the result.
    Boundary nodes extrapolate linearly in x.
    """
    sigma = params.sigma
    dx = grid.dx
    dt = params.horizon / grid.nt
    if dt > dx * dx / sigma ** 2 * (1.0 + 1e-9):
        raise StabilityError(
            f"dt={dt:.3e} exceeds the stability bound dx^2/sigma^2={dx * dx / sigma ** 2:.3e}")
    if grid.x_max - grid.x_min < 8.0 * sigma * math.sqrt(params.horizon):
        warnings.warn("log grid narrower than 4 sigma sqrt(T) on each side of "
                      "its center; boundary effects may pollute the interior",
                      stacklevel=2)
    if payoff.terminal_slope() < 0.0 or not math.isfinite(payoff.terminal_slope()):
        raise ValueError("payoff must grow at most linearly in s")

    x = grid.x_nodes
    s = np.exp(x)
    lifted = face_lift(payoff, band, s)
    g_t = lifted(s)

    nt = grid.nt
    v = np.empty((nt + 1, grid.nx))
    v[nt] = g_t
    delta = np.empty_like(v)
    cash_gamma = np.empty_like(v)
    t_nodes = np.linspace(0.0, params.horizon, nt + 1)
    half_sig2 = 0.5 * sigma * sigma
    coef = dt * half_sig2
    tol = 5.0 * (dx + dt) * sigma ** 2
    n = grid.nx
    # the loop walks rows nt..1 of the interior views (row k is final, its
    # operators are stored as they are used) and writes rows nt-1..0 of v
    rows = zip(v[:0:-1, :-2], v[:0:-1, 1:-1], v[:0:-1, 2:], delta[:0:-1, 1:-1],
               cash_gamma[:0:-1, 1:-1], v[-2::-1, 1:-1], v[-2::-1])
    step = np.empty(n - 2)
    # 0-d operands: a Python float is converted again on every ufunc call
    two_dx, dx2, two, coef_0d = (np.array(f) for f in (2.0 * dx, dx * dx, 2.0, coef))
    # a side at +-inf returns A itself, NaN included, so it is skipped
    lo = np.array(band.lower) if band.has_lower else None
    up = np.array(band.upper) if band.has_upper else None
    for v0, v1, v2, vx, a, inner, row in rows:
        # the operation order of _space_operators (delta holds v_x until the
        # division by s below)
        np.subtract(v2, v0, vx)
        np.divide(vx, two_dx, vx)
        np.multiply(v1, two, a)
        np.subtract(v2, a, a)
        np.add(a, v0, a)
        np.divide(a, dx2, a)
        np.subtract(a, vx, a)
        # GammaBand.clamp of A, min(max(A, lower), upper), times dt sigma^2/2
        clamped = a
        if lo is not None:
            clamped = np.maximum(lo, clamped, out=step)
        if up is not None:
            clamped = np.minimum(up, clamped, out=step)
        np.multiply(clamped, coef_0d, step)
        np.add(v1, step, inner)
        # both end nodes extrapolate linearly: 2 v[1] - v[2], 2 v[n-2] - v[n-3]
        row[0] = 2.0 * row[1] - row[2]
        row[-1] = 2.0 * row[-2] - row[-3]
    _space_operators(v[0], dx, out=(delta[0], cash_gamma[0]))
    # the end columns of rows 1..nt, one-sided as _space_operators sets them
    np.negative(_end_diff(v[1:], dx, delta[1:]), out=cash_gamma[1:, ::n - 1])
    np.divide(delta, s, out=delta)

    lower, upper = band.lower, band.upper
    breach_count = 0
    residual_max = 0.0
    if band.has_upper:
        # rounding is monotone, so no node of a row exceeds the tolerance
        # unless its largest does; a NaN maximum takes the full count, which
        # skips NaN nodes.  Rows go in the loop's order, nt down to 1.
        tops = cash_gamma[1:].max(axis=1)
        for k in np.flatnonzero((tops - upper > tol) | np.isnan(tops))[::-1] + 1:
            over = cash_gamma[k] - upper
            n_over = int(np.sum(over > tol))
            if n_over:
                breach_count += n_over
                residual_max = max(residual_max, half_sig2 * float(over.max()))
    # the two branches exclude each other and a NaN binds neither, so their
    # codes add; a true bool viewed as int8 is ACTIVE_LOWER
    active = np.less(cash_gamma, lower).view(np.int8)
    active += ACTIVE_UPPER * np.greater(cash_gamma, upper).view(np.int8)

    return DpeSolution(t_nodes=t_nodes, x_nodes=x, v=v, delta=delta,
                       cash_gamma=cash_gamma, active=active, params=params,
                       residual_max=residual_max, breach_count=breach_count,
                       meta={"nx": grid.nx, "nt": nt, "dx": dx, "dt": dt})


def greeks(sol: DpeSolution, t, s):
    """Bilinear interpolation of (v, dv/ds, s^2 v_ss) at (t, s)."""
    return sol.interp((sol.v, sol.delta, sol.cash_gamma), t, s)
