"""Zero-rate market model: geometric Brownian motion, payoffs, exact
lognormal pricing, and payoff face-lifting for the upper gamma bound."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

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
    """Nonnegative terminal payoff g(S(T)), held as its segment table.

    table has rows lo, hi, a, b, c and a column per segment in increasing
    s: on lo < s < hi the payoff is a + b s + c log s, outside all segments
    0.  Evaluation, value_at_zero, terminal_slope and bs_price read it.
    Variants: call and put (evaluated and priced by their closed forms at
    strike), piecewise linear (constant left of the first breakpoint, last
    slope extends to infinity), and tabulated node values that interpolate
    linearly in log s between nodes and extend linearly in s outside them
    (floored at zero).
    """

    kind: str
    table: np.ndarray
    strike: float = 0.0
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
        # c is 0 on every piece this reads outside a tabulated payoff's nodes
        lo, hi, a, b, _ = self.table
        i = np.maximum(np.searchsorted(lo, s, side="right") - 1, 0)
        out = a[i] + b[i] * s
        if self.values is not None:
            # np.interp in log s gives the node values exactly
            nodes = hi[:-1]
            inside = (s >= nodes[0]) & (s <= nodes[-1])
            out[inside] = np.interp(np.log(s[inside]), np.log(nodes), self.values)
        return np.maximum(out, 0.0)

    def value_at_zero(self) -> float:
        """Limit of the payoff as s -> 0+: its first piece, floored at zero."""
        return max(0.0, float(self.table[2, 0]))

    def terminal_slope(self) -> float:
        """Slope in s of the last piece, before a tabulated payoff's floor."""
        return float(self.table[3, -1])


def call(strike: float) -> Payoff:
    if not 0.0 < strike < math.inf:
        raise ValueError("strike must be positive and finite")
    k = float(strike)
    return Payoff("call", np.array([[0.0, k], [k, math.inf], [0.0, -k], [0.0, 1.0], [0.0, 0.0]]),
                  strike=k)


def put(strike: float) -> Payoff:
    if not 0.0 < strike < math.inf:
        raise ValueError("strike must be positive and finite")
    k = float(strike)
    return Payoff("put", np.array([[0.0, k], [k, math.inf], [k, 0.0], [-1.0, 0.0], [0.0, 0.0]]),
                  strike=k)


def piecewise_linear(breakpoints, slopes, value_at_first: float = 0.0) -> Payoff:
    bp = np.asarray(breakpoints, dtype=float)
    sl = np.asarray(slopes, dtype=float)
    if bp.size != sl.size or bp.size < 1:
        raise ValueError("need one slope per breakpoint")
    if np.any(np.diff(bp) <= 0.0) or bp[0] <= 0.0:
        raise ValueError("breakpoints must be positive and increasing")
    if not np.all(np.isfinite(sl)):
        raise ValueError("slopes must be finite")
    # segment 0 is the constant left of the first breakpoint
    bp, sl = np.append(0.0, bp), np.append(0.0, sl)
    a = float(value_at_first) + np.append(0.0, np.cumsum(sl[:-1] * np.diff(bp))) - sl * bp
    # each piece's level at its left edge, and the last slope, decide the sign
    if sl[-1] < 0.0 or np.any(a + sl * bp < 0.0):
        raise ValueError("payoff would go negative")
    return Payoff("piecewise", np.array([bp, np.append(bp[1:], math.inf), a, sl,
                                         np.zeros(bp.size)]))


def tabulated(s_nodes, values) -> Payoff:
    """One segment per node interval, affine in log s, and two outer pieces
    affine in s, each cut where it reaches zero."""
    s = np.asarray(s_nodes, dtype=float)
    v = np.asarray(values, dtype=float)
    if s.size != v.size or s.size < 2:
        raise ValueError("need at least two (s, value) nodes")
    if s[0] <= 0.0 or np.any(np.diff(s) <= 0.0):
        raise ValueError("s nodes must be positive and increasing")
    if np.any(v < 0.0):
        raise ValueError("payoff values must be nonnegative")
    x = np.log(s)
    lo_slope = (v[1] - v[0]) / (s[1] - s[0])
    hi_slope = (v[-1] - v[-2]) / (s[-1] - s[-2])
    cut_lo = max(0.0, s[0] - v[0] / lo_slope) if lo_slope > 0.0 else 0.0
    cut_hi = s[-1] - v[-1] / hi_slope if hi_slope < 0.0 else math.inf
    c = np.diff(v) / np.diff(x)
    table = np.array([np.append(cut_lo, s), np.append(s, cut_hi),
                      np.concatenate(([v[0] - lo_slope * s[0]], v[:-1] - c * x[:-1],
                                      [v[-1] - hi_slope * s[-1]])),
                      np.concatenate(([lo_slope], np.zeros(c.size), [hi_slope])),
                      np.concatenate(([0.0], c, [0.0]))])
    return Payoff("tabulated", table, values=v)


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

    Calls and puts use the closed form and parity; every other payoff sums
    the closed forms of its segments.  With v = sigma sqrt(T - t),
    m = log s - v^2 / 2 and z = (log edge - m) / v, segment a + b s + c log s
    adds a dN(-z) + b s dN(v - z) + c (m dN(-z) + v dphi(z)), d taking the
    value at its lower edge less the value at its upper edge.
    """
    if not -math.inf < t <= params.horizon:
        raise ValueError("valuation time t must be finite and at most the horizon")
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s_arr <= 0.0):
        raise ValueError("spot s must be positive")
    tau = params.horizon - t
    v = params.sigma * math.sqrt(tau)
    if tau == 0.0:
        out = payoff(s_arr)
    elif payoff.kind == "call":
        out = _bs_call(s_arr, payoff.strike, v)
    elif payoff.kind == "put":
        # parity with zero rates: put = call - s + k
        out = _bs_call(s_arr, payoff.strike, v) - s_arr + payoff.strike
    else:
        lo, hi, a, b, c = payoff.table
        m = np.log(s_arr)[:, None] - 0.5 * v * v
        with np.errstate(divide="ignore", over="ignore"):
            z_lo, z_hi = (np.log(lo) - m) / v, (np.log(hi) - m) / v
            dphi = np.exp(-0.5 * z_lo * z_lo) - np.exp(-0.5 * z_hi * z_hi)
        dn = ndtr(-z_lo) - ndtr(-z_hi)
        out = (a * dn + b * s_arr[:, None] * (ndtr(v - z_lo) - ndtr(v - z_hi))
               + c * (m * dn + v * dphi / math.sqrt(2.0 * math.pi))).sum(axis=1)
    return float(out[0]) if np.ndim(s) == 0 else out


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

