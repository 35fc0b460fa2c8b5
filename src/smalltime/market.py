"""Zero-rate market model: geometric Brownian motion, payoffs, lognormal
pricing, and payoff face-lifting for the upper gamma bound."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, roots_hermite

from .matcore import GammaBand


@dataclass
class MarketParams:
    """Volatility and horizon; the drift is normalized away."""

    sigma: float
    horizon: float

    def __post_init__(self):
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")


@dataclass
class Payoff:
    """Nonnegative terminal payoff g(S(T)).

    Variants: call, put, piecewise linear (constant left of the first
    breakpoint, last slope extends to infinity), and tabulated values that
    interpolate linearly in log s between nodes and extend linearly in s
    outside them (floored at zero).
    """

    kind: str
    strike: float = 0.0
    breakpoints: np.ndarray | None = None
    slopes: np.ndarray | None = None
    value_at_first: float = 0.0
    s_nodes: np.ndarray | None = None
    values: np.ndarray | None = None

    def __call__(self, s):
        s_arr = np.asarray(s, dtype=float)
        scalar = np.ndim(s) == 0
        out = self._eval(np.atleast_1d(s_arr))
        return float(out[0]) if scalar else out

    def _eval(self, s):
        if self.kind == "call":
            return np.maximum(s - self.strike, 0.0)
        if self.kind == "put":
            return np.maximum(self.strike - s, 0.0)
        if self.kind == "piecewise":
            bp, sl = self.breakpoints, self.slopes
            vals = np.full(s.shape, self.value_at_first)
            for i in range(bp.size):
                right = bp[i + 1] if i + 1 < bp.size else math.inf
                seg = np.clip(s, bp[i], right) - bp[i]
                vals = vals + sl[i] * seg
            return vals
        x = np.log(s)
        xn = np.log(self.s_nodes)
        inside = np.interp(x, xn, self.values)
        out = inside
        lo_slope = (self.values[1] - self.values[0]) / (self.s_nodes[1] - self.s_nodes[0])
        hi_slope = (self.values[-1] - self.values[-2]) / (self.s_nodes[-1] - self.s_nodes[-2])
        below = s < self.s_nodes[0]
        above = s > self.s_nodes[-1]
        out = np.where(below, self.values[0] + lo_slope * (s - self.s_nodes[0]), out)
        out = np.where(above, self.values[-1] + hi_slope * (s - self.s_nodes[-1]), out)
        return np.maximum(out, 0.0)

    def value_at_zero(self) -> float:
        """Limit of the payoff as s -> 0+."""
        if self.kind == "call":
            return 0.0
        if self.kind == "put":
            return self.strike
        if self.kind == "piecewise":
            return self.value_at_first
        lo_slope = (self.values[1] - self.values[0]) / (self.s_nodes[1] - self.s_nodes[0])
        return max(0.0, float(self.values[0] - lo_slope * self.s_nodes[0]))

    def terminal_slope(self) -> float:
        """Asymptotic slope in s for large s."""
        if self.kind == "call":
            return 1.0
        if self.kind == "put":
            return 0.0
        if self.kind == "piecewise":
            return float(self.slopes[-1])
        return float((self.values[-1] - self.values[-2])
                     / (self.s_nodes[-1] - self.s_nodes[-2]))


def call(strike: float) -> Payoff:
    if not 0.0 < strike < math.inf:
        raise ValueError("strike must be positive and finite")
    return Payoff(kind="call", strike=float(strike))


def put(strike: float) -> Payoff:
    if not 0.0 < strike < math.inf:
        raise ValueError("strike must be positive and finite")
    return Payoff(kind="put", strike=float(strike))


def piecewise_linear(breakpoints, slopes, value_at_first: float = 0.0) -> Payoff:
    bp = np.asarray(breakpoints, dtype=float)
    sl = np.asarray(slopes, dtype=float)
    if bp.size != sl.size or bp.size < 1:
        raise ValueError("need one slope per breakpoint")
    if np.any(np.diff(bp) <= 0.0) or bp[0] <= 0.0:
        raise ValueError("breakpoints must be positive and increasing")
    if not np.all(np.isfinite(sl)):
        raise ValueError("slopes must be finite")
    if value_at_first < 0.0 or sl[-1] < 0.0:
        raise ValueError("payoff would go negative")
    level = value_at_first
    for i in range(bp.size - 1):
        level += sl[i] * (bp[i + 1] - bp[i])
        if level < 0.0:
            raise ValueError("payoff would go negative")
    return Payoff(kind="piecewise", breakpoints=bp, slopes=sl,
                  value_at_first=float(value_at_first))


def tabulated(s_nodes, values) -> Payoff:
    s = np.asarray(s_nodes, dtype=float)
    v = np.asarray(values, dtype=float)
    if s.size != v.size or s.size < 2:
        raise ValueError("need at least two (s, value) nodes")
    if s[0] <= 0.0 or np.any(np.diff(s) <= 0.0):
        raise ValueError("s nodes must be positive and increasing")
    if np.any(v < 0.0):
        raise ValueError("payoff values must be nonnegative")
    return Payoff(kind="tabulated", s_nodes=s, values=v)


def simulate_gbm(w, t, s0: float, params: MarketParams) -> np.ndarray:
    """Exact zero-drift GBM prices S(t) = s0 exp(sigma W(t) - sigma^2 t / 2)
    of path values w at times t, element by element (w and t broadcast)."""
    if not 0.0 < s0 < math.inf:
        raise ValueError("initial price must be positive and finite")
    return s0 * np.exp(params.sigma * w - 0.5 * params.sigma ** 2 * t)


def _bs_call(s, k, sig_sqrt_tau):
    d1 = (np.log(s / k) + 0.5 * sig_sqrt_tau ** 2) / sig_sqrt_tau
    d2 = d1 - sig_sqrt_tau
    return s * ndtr(d1) - k * ndtr(d2)


def bs_price(payoff: Payoff, s, t: float, params: MarketParams):
    """Zero-rate lognormal price E[g(S(T)) | S(t) = s].

    Calls and puts use the closed form; other payoffs go through
    Gauss-Hermite quadrature over the lognormal density, with the node
    count doubled from 64 until two successive levels agree to within
    1e-8 (1 + |price|).  If they still disagree at 2048 nodes, the
    2048-node estimate is returned as it is, with no warning.
    """
    if not -math.inf < t <= params.horizon:
        raise ValueError("valuation time t must be finite and at most the horizon")
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s_arr <= 0.0):
        raise ValueError("spot s must be positive")
    tau = params.horizon - t
    if tau == 0.0:
        out = payoff(s_arr)
    elif payoff.kind == "call":
        out = _bs_call(s_arr, payoff.strike, params.sigma * math.sqrt(tau))
    elif payoff.kind == "put":
        # parity with zero rates: put = call - s + k
        out = _bs_call(s_arr, payoff.strike, params.sigma * math.sqrt(tau)) - s_arr + payoff.strike
    else:
        out = _quad_price(payoff, s_arr, tau, params.sigma)
    return float(out[0]) if np.ndim(s) == 0 else out


def _quad_price(payoff, s_arr, tau, sigma, rel_tol=1e-8, max_nodes=2048):
    prev = None
    n = 64
    while n <= max_nodes:
        x, wts = roots_hermite(n)
        z = math.sqrt(2.0) * x
        st = s_arr[:, None] * np.exp(sigma * math.sqrt(tau) * z[None, :]
                                     - 0.5 * sigma ** 2 * tau)
        vals = payoff(st.ravel()).reshape(st.shape)
        est = (vals * wts[None, :]).sum(axis=1) / math.sqrt(math.pi)
        if prev is not None and np.all(np.abs(est - prev) <= rel_tol * (1.0 + np.abs(est))):
            return est
        prev = est
        n *= 2
    return prev


def _upper_hull(points):
    """Upper concave hull of (x, y) points sorted by increasing x."""
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep slopes strictly decreasing; pop when the middle point sags
            if (y2 - y1) * (pt[0] - x2) <= (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        if hull and pt[0] == hull[-1][0]:
            if pt[1] > hull[-1][1]:
                hull[-1] = pt
            continue
        hull.append(pt)
    return hull


# bytes face_lift holds per node of its extended grid: four float64 arrays
# (a side's new nodes, the grid, its prices and the combined values), the
# two lists of Python floats (32 bytes a value) and the 2-tuple (56 bytes)
# each hull candidate is built from, and the candidates' list with growth
_LIFT_NODE_BYTES = 4 * 8 + 2 * 32 + 56 + 16


def face_lift_bytes(band: GammaBand, nodes: int, dx: float) -> int:
    """Bytes face_lift holds on a log grid of nodes nodes dx apart: none
    without an upper bound, else _LIFT_NODE_BYTES a node of the grid with
    ceil(3 ln 10 / dx) nodes more on each side."""
    if not band.has_upper:
        return 0
    return _LIFT_NODE_BYTES * (nodes + 2 * math.ceil(3.0 * math.log(10.0) / dx))


def face_lift(payoff: Payoff, band: GammaBand, s_grid) -> Payoff:
    """Smallest payoff majorant compatible with the upper gamma bound.

    The cash-gamma constraint s^2 g_ss <= G_up is concavity of
    g(s) + G_up * log s as a function of s, so the lift is the upper
    concave hull of that combination, evaluated on the grid and taken back.
    The hull runs over a grid extended three decades beyond the user's
    range on each side (envelopes are nonlocal), with the exact tail
    behavior appended: the asymptotic chord slope on the right and, when
    G_up = 0, the payoff's limit point at s = 0.  The lower bound of the
    band never enters.  A band with no upper bound returns the payoff
    unchanged.
    """
    if not band.has_upper:
        return payoff
    gu = band.upper
    s_user = np.asarray(s_grid, dtype=float)
    if s_user.ndim != 1 or s_user.size < 2 or s_user[0] <= 0.0 or np.any(np.diff(s_user) <= 0.0):
        raise ValueError("s_grid must be increasing and positive")
    x_user = np.log(s_user)
    dx = float(np.median(np.diff(x_user)))
    # face_lift_bytes counts the extended grid and its hull candidates
    n_ext = int(math.ceil(3.0 * math.log(10.0) / dx))
    left = x_user[0] - dx * np.arange(n_ext, 0, -1)
    right = x_user[-1] + dx * np.arange(1, n_ext + 1)
    x_ext = np.concatenate((left, x_user, right))
    s_ext = np.exp(x_ext)
    combined = payoff(s_ext) + gu * np.log(s_ext)

    points = []
    if gu == 0.0:
        points.append((0.0, payoff.value_at_zero()))
    points.extend(zip(s_ext.tolist(), combined.tolist()))
    hull = _upper_hull(points)
    # a chord to ever larger s approaches the asymptotic payoff slope; pop
    # hull points that the limiting ray would cut above
    ray_slope = payoff.terminal_slope()
    while len(hull) >= 2:
        (x1, y1), (x2, y2) = hull[-2], hull[-1]
        if (y2 - y1) <= ray_slope * (x2 - x1):
            hull.pop()
        else:
            break

    hx = np.array([p[0] for p in hull])
    hy = np.array([p[1] for p in hull])
    lifted = np.empty(s_user.size)
    inside = s_user <= hx[-1]
    lifted[inside] = np.interp(s_user[inside], hx, hy)
    lifted[~inside] = hy[-1] + ray_slope * (s_user[~inside] - hx[-1])
    lifted -= gu * np.log(s_user)
    lifted = np.maximum(lifted, payoff(s_user))  # dominance, exactly
    return tabulated(s_user, lifted)

