"""Statistical verification of the small-time laws.

All liminf/limsup claims are verified as trends on nested geometric grids
plus golden-interval regressions from fixed-seed calibration runs, never as
absolute convergence to the analytic constants: the loglog rate is
unobservably slow at desk scale, so the honest statements are orderings,
envelopes, and calibration stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtr

from .matcore import DomainError, lil_normalizer
from .paths import BrownianBundle, as_chunks, map_chunks_ordered
from .stochint import (EXP_MINUS_E, DoubleIntegralTrace, DriftIntegralTrace,
                       IntegrandSpec, _lll_inverse, catalog_integrand,
                       integrate_double)


class GridMismatchError(ValueError):
    """The bundle's grid does not have the structure a diagnostic needs."""


def example36_rate_fn(t):
    """Anomalous normalizer t * loglog(1/t) / logloglog(1/t), t < e^-e."""
    arr = np.asarray(t, dtype=float)
    if arr.size and (np.any(arr <= 0.0) or np.any(arr >= EXP_MINUS_E)):
        raise DomainError("custom rate requires 0 < t < e^-e")
    l1 = -np.log(arr)
    l2 = np.log(l1)
    l3 = np.log(l2)
    out = arr * l2 / l3
    return float(out) if np.ndim(t) == 0 else out


# kind -> (rate function, numerator factor on V, domain description)
_RATE_KINDS = {
    "h": (lil_normalizer, 2.0, "0 < t < 1/e"),
    "t": (lambda t: np.asarray(t, dtype=float), 2.0, "t > 0"),
    "example36": (example36_rate_fn, 1.0, "0 < t < e^-e"),
}


@dataclass
class LilEstimate:
    """Per-path sup of the normalized outer integral plus summary stats."""

    per_path_sup: np.ndarray
    summary: dict

    def csv_table(self):
        return ["path", "sup"], np.arange(self.per_path_sup.size), self.per_path_sup


def _summarize(values: np.ndarray) -> dict:
    return {
        "median": float(np.median(values)),
        "mean": float(np.mean(values)),
        "q05": float(np.quantile(values, 0.05)),
        "q95": float(np.quantile(values, 0.95)),
        "q99": float(np.quantile(values, 0.99)),
    }


def ratio_sup(trace: DoubleIntegralTrace, kind: str, absolute: bool = False) -> LilEstimate:
    """Per-path sup over the grid of the rate-normalized outer integral.

    kind "h" and "t" normalize 2V by 2t loglog(1/t) and by t; the
    "example36" kind normalizes V itself by the anomalous rate, matching
    the statement it checks.  The trace must come from a geometric grid
    whose times all lie in the rate's domain.
    """
    if trace.grid_meta.get("kind") != "geometric":
        raise GridMismatchError("ratio diagnostics need a geometric grid")
    try:
        rate_fn, factor, domain = _RATE_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown ratio kind {kind!r}") from None
    t = trace.times
    if np.any(t <= 0.0):
        raise DomainError(f"ratio kind {kind!r} requires {domain}")
    rate = rate_fn(t)
    num = factor * trace.outer
    if absolute:
        num = np.abs(num)
    ratios = num / rate[None, :]
    sup = ratios.max(axis=1)
    if not np.all(np.isfinite(sup)):
        raise ValueError("non-finite ratio sup; check grid and integrand domains")
    return LilEstimate(per_path_sup=sup, summary=_summarize(sup))


def moment_identity(lam: float, horizon: float, dim: int) -> float:
    """Closed form exp(-lam*d*T) * (1 - 2*lam*T)^(-d/2) for the identity integrand."""
    if lam < 0.0:
        raise ValueError("moment closed form needs lam >= 0")
    if not 0.0 < horizon < math.inf:
        raise ValueError("moment closed form needs a finite horizon > 0")
    if dim < 1:
        raise ValueError("moment closed form needs dim >= 1")
    if not 2.0 * lam * horizon < 1.0:
        raise ValueError("hypothesis 2*lam*T < 1 violated")
    return math.exp(-lam * dim * horizon) * (1.0 - 2.0 * lam * horizon) ** (-dim / 2.0)


def conditional_moment_fn(t, y, z, lam: float, horizon: float):
    """The conditional expectation function f(t, y, z).

    f(t,y,z) = mu^(d/2) exp[2 lam z - d lam (T-t) + 2 mu lam^2 (T-t) |y|^2]
    with mu = 1/(1 - 2 lam (T-t)); its composition with the inner and outer
    integrals of the identity integrand is a martingale.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    z = np.asarray(z, dtype=float)
    tau = horizon - t
    if tau < 0.0 or 2.0 * lam * tau >= 1.0:
        raise ValueError("need 0 <= T - t and 2*lam*(T-t) < 1")
    d = y.shape[-1]
    mu = 1.0 / (1.0 - 2.0 * lam * tau)
    ysq = (y * y).sum(axis=-1)
    out = mu ** (d / 2.0) * np.exp(2.0 * lam * z - d * lam * tau
                                   + 2.0 * mu * lam * lam * tau * ysq)
    return float(out[0]) if out.size == 1 and np.ndim(z) == 0 else out


@dataclass
class MomentReport:
    """Monte Carlo exponential moment against the identity-integrand closed form."""

    lam: float
    horizon: float
    dim: int
    n_paths: int
    mc_mean: float
    std_err: float
    closed_form: float
    dominance_margin: float  # (closed_form - mc_mean) in SE units

    def csv_table(self):
        return (["d", "lam", "horizon", "mc_mean", "std_err", "closed_form",
                 "dominance_margin"],
                [self.dim], [self.lam], [self.horizon], [self.mc_mean],
                [self.std_err], [self.closed_form], [self.dominance_margin])


def _forward_pass(source, b: IntegrandSpec, horizon: float, workers: int):
    """V^b(T) and sup_t V^b of every path of the source, in path order.

    Checks once, before any chunk is sampled, that b declares a bound of at
    most 1 and that the source grid ends at the horizon.
    """
    if not b.unit_bounded:
        raise ValueError("integrand must declare a bound <= 1")
    if abs(source.grid.horizon - horizon) > 1e-12 * max(1.0, horizon):
        raise ValueError("bundle grid must end at the horizon")

    def one(chunk):
        trace = integrate_double(chunk, b, keep="last")
        return trace.final_outer(), trace.outer_sup

    finals, sups = zip(*map_chunks_ordered(one, as_chunks(source), workers))
    return np.concatenate(finals), np.concatenate(sups)


def moment_dominance(source, b: IntegrandSpec, lam: float, horizon: float,
                     workers: int = 1) -> MomentReport:
    """Monte Carlo mean of exp(2 lam V^b(T)) with its standard error.

    Requires the hypotheses of moment_identity, the integrand's declared
    bound to be at most 1 and the source grid to end at the horizon.
    dominance_margin counts how many standard errors the identity-matrix
    closed form sits above the estimate; the dominance inequality predicts
    a nonnegative margin up to noise.
    """
    closed = moment_identity(lam, horizon, source.dim)
    final, _ = _forward_pass(source, b, horizon, workers)
    x = np.exp(2.0 * lam * final)
    # exactly rounded sums of the per-path values: the same bits however
    # the paths are chunked
    n = x.size
    mean = math.fsum(x.tolist()) / n
    var = max(math.fsum((x * x).tolist()) - n * mean * mean, 0.0) / max(n - 1, 1)
    se = math.sqrt(var / n)
    margin = (closed - mean) / se if se > 0.0 else math.inf
    return MomentReport(lam=lam, horizon=horizon, dim=source.dim, n_paths=n,
                        mc_mean=mean, std_err=se, closed_form=closed,
                        dominance_margin=margin)


def tail_bound_value(alpha: float, lam: float, horizon: float, dim: int) -> float:
    """Analytic tail bound exp(-lam*alpha - lam*d*T) (1 - 2*lam*T)^(-d/2)."""
    if not lam > 0.0:
        raise ValueError("tail bound needs lam > 0")
    return math.exp(-lam * alpha) * moment_identity(lam, horizon, dim)


def optimal_tail_lambda(alpha: float, horizon: float, dim: int,
                        tol: float = 1e-10) -> float:
    """Golden-section minimizer of the tail bound over lam in (0, 1/(2T)).

    The log of the bound is convex in lam, so golden-section search is
    exact up to the interval tolerance.
    """
    def logf(lam):
        return -lam * (alpha + dim * horizon) - 0.5 * dim * math.log(1.0 - 2.0 * lam * horizon)

    lim = 1.0 / (2.0 * horizon)
    lo, hi = 1e-12 * lim, (1.0 - 1e-12) * lim
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, bb = lo, hi
    c = bb - inv_phi * (bb - a)
    d_ = a + inv_phi * (bb - a)
    fc, fd = logf(c), logf(d_)
    while bb - a > tol:
        if fc < fd:
            bb, d_, fd = d_, c, fc
            c = bb - inv_phi * (bb - a)
            fc = logf(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + inv_phi * (bb - a)
            fd = logf(d_)
    return 0.5 * (a + bb)


@dataclass
class TailRow:
    alpha: float
    lam: float
    bound: float
    empirical: float
    std_err: float
    violation: bool


@dataclass
class TailBoundReport:
    horizon: float
    dim: int
    n_paths: int
    rows: list
    any_violation: bool

    def csv_table(self):
        header = ["alpha", "lam", "bound", "empirical", "std_err", "violation"]
        return header, *([getattr(r, key) for r in self.rows] for key in header)


def tail_bounds(alphas, horizon: float, dim: int, rule: str, eta: float):
    """(lams, bounds): the lam of each alpha under the rule and its analytic
    tail bound.  rule "optimized" minimizes the bound over lam per alpha
    (golden section); rule "fixed" uses lam = 1/(2T(1+eta)) for every
    alpha, which needs eta > 0."""
    if rule == "optimized":
        lams = [optimal_tail_lambda(a, horizon, dim) for a in alphas]
    elif rule == "fixed":
        if not eta > 0.0:
            raise ValueError("fixed lambda rule needs eta > 0")
        lams = [1.0 / (2.0 * horizon * (1.0 + eta))] * len(alphas)
    else:
        raise ValueError(f"unknown lambda rule {rule!r}")
    return lams, [tail_bound_value(a, lam, horizon, dim) for a, lam in zip(alphas, lams)]


def tail_bound_check(source, b: IntegrandSpec, horizon: float, alphas,
                     rule: str = "optimized", eta: float = 0.1,
                     workers: int = 1) -> TailBoundReport:
    """Empirical exceedance of sup 2V against the analytic tail bound of
    tail_bounds.  A row is flagged when the empirical frequency exceeds the
    bound by more than three binomial standard errors.
    """
    alphas = [float(a) for a in alphas]
    dim = source.dim
    lams, bounds = tail_bounds(alphas, horizon, dim, rule, eta)
    _, sup = _forward_pass(source, b, horizon, workers)
    sup2v = np.maximum(2.0 * sup, 0.0)
    n = sup2v.size
    rows = []
    any_violation = False
    for a, lam, bound in zip(alphas, lams, bounds):
        emp = np.count_nonzero(sup2v >= a) / n
        se = math.sqrt(emp * (1.0 - emp) / n)
        violation = emp > bound + 3.0 * se
        any_violation |= violation
        rows.append(TailRow(alpha=a, lam=lam, bound=bound, empirical=float(emp),
                            std_err=float(se), violation=bool(violation)))
    return TailBoundReport(horizon=horizon, dim=dim, n_paths=n,
                           rows=rows, any_violation=any_violation)


@dataclass
class ErgodicReport:
    delta: float
    reference: float
    freq_by_n: np.ndarray
    final_freq: float
    per_path_min: np.ndarray

    def csv_table(self):
        return (["path", "min_level_value"], np.arange(self.per_path_min.size),
                self.per_path_min)

    def freq_csv_table(self):
        """(header, *columns) of the bundle-average frequency after n levels."""
        return ["n", "avg_freq"], np.arange(1, self.freq_by_n.size + 1), self.freq_by_n


def ergodic_reference(mat: np.ndarray, delta: float) -> float:
    """The limit frequency P[Y(0) <= delta], Y(0) = |Z^T mat Z| for standard
    normal Z, for delta > 0: exact through the chi-square law when the
    symmetric part of mat is a multiple of the identity, and from a large
    deterministic reference sample otherwise."""
    if not delta > 0.0:
        raise ValueError("ergodic frequency needs delta > 0")
    d = mat.shape[0]
    evals = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    if np.all(evals == evals[0]):  # Y(0) is |b0| times a chi-square with d degrees
        b0 = abs(float(evals[0]))
        return 1.0 if b0 == 0.0 else float(chdtr(d, delta / b0))
    rng = np.random.default_rng(1414213562)
    z = rng.standard_normal((2_000_000, d))
    sample = np.abs((z * z) @ evals)
    return float(np.mean(sample <= delta))


# a row block of the ergodic pass spans about this many path values
# (paths x dimension x levels): few enough that its scratch stays in cache
# and adds little to peak memory
_ERGODIC_VALUES = 1 << 13


def _ergodic_levels(w: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Y(n) = e^n |W(e^-n)^T mat W(e^-n)| of the e^-n grid's paths w, of
    shape (P, d, levels), one column per n = 1..levels.

    One pass over row blocks of paths (about _ERGODIC_VALUES values each)
    forms every level of a block at once: W(e^-n) is scaled by e^(n/2), and
    the quadratic form adds the terms (x_i mat_ij) x_j with i outer and j
    inner, the order and bits of a per-level einsum("pi,ij,pj->p").  The
    block's scratch is freed on return.
    """
    p, d, levels = w.shape
    # grid column k holds W(e^-n) for n = levels - k: the levels run backwards
    scale = np.array([math.exp(0.5 * (levels - k)) for k in range(levels)])
    rows = max(1, _ERGODIC_VALUES // (d * levels))
    x = np.empty((d, min(rows, p), levels))
    term = np.empty((min(rows, p), levels))
    y = np.empty((p, levels))
    for r0 in range(0, p, rows):
        r1 = min(r0 + rows, p)
        xb, tb = x[:, :r1 - r0], term[:r1 - r0]
        qb = y[r0:r1, ::-1]  # the sum is formed in place, in grid order
        np.multiply(w[r0:r1].transpose(1, 0, 2), scale, out=xb)
        # the first term starts the sum (0 + t differs from t only in the
        # sign of a zero, which abs drops) and the others are added in turn
        for n, (i, j) in enumerate(np.ndindex(d, d)):
            out = tb if n else qb
            np.multiply(xb[i], mat[i, j], out=out)
            out *= xb[j]
            if n:
                qb += tb
        np.abs(qb, out=qb)
    return y


def ergodic_liminf(bundle: BrownianBundle, beta, delta: float) -> ErgodicReport:
    """Running frequency of Y(n) <= delta for Y(n) = e^n |W(e^-n)^T beta W(e^-n)|.

    Needs the e^-n grid.  The bundle-average frequency should approach
    ergodic_reference(beta, delta).  Y is formed in one blocked pass over
    the paths (_ergodic_levels), with the bits of one einsum per level.
    """
    meta = bundle.grid.meta
    if (bundle.grid.kind != "geometric"
            or abs(meta.get("theta", 0.0) - math.exp(-1.0)) > 1e-9
            or abs(meta.get("t0", 0.0) - math.exp(-1.0)) > 1e-9):
        raise GridMismatchError("ergodic diagnostics need the e^-n grid (ergodic_grid)")
    mat = np.atleast_2d(np.asarray(beta.entries if hasattr(beta, "entries") else beta,
                                   dtype=float))
    d = bundle.dim
    if mat.shape != (d, d):
        raise ValueError("beta shape must match the bundle dimension")
    reference = ergodic_reference(mat, delta)
    levels = int(meta["levels"]) + 1
    y = _ergodic_levels(bundle.paths, mat)
    # the running frequency of the hits, in place
    freq = (y <= delta).astype(float)
    np.cumsum(freq, axis=1, out=freq)
    freq /= np.arange(1, levels + 1)
    freq_by_n = freq.mean(axis=0)
    return ErgodicReport(delta=float(delta), reference=reference,
                         freq_by_n=freq_by_n, final_freq=float(freq_by_n[-1]),
                         per_path_min=y.min(axis=1))


@dataclass
class Example36Report:
    """Anomalous-rate diagnostics: the full ratio sup and the dominant-term proxy.

    For this integrand the proxy (1/2) W^2 b / rate coincides with W^2 / h
    level by level (the h-to-rate factor h b / (2 rate) is identically one).
    consistency_median tracks the relative gap between the full and proxy
    sups; it cannot vanish at reachable times because the full integral
    carries the deterministic -1/(2 loglog(1/t)) term per level (about 0.12
    at 1e-30).
    """

    full: LilEstimate
    proxy_sup: np.ndarray
    proxy_summary: dict
    consistency_median: float  # median relative gap between the two sups
    t_min: float

    def csv_table(self):
        return (["path", "full_sup", "proxy_sup"], np.arange(self.proxy_sup.size),
                self.full.per_path_sup, self.proxy_sup)


def example36_diag(source, refinements: int = 4) -> Example36Report:
    """Ratio sup for the slowly varying catalog integrand, with the proxy
    statistic (1/2) W(t)^2 b(t) / rate computed on the same paths.

    The double integral is evaluated on a bisection-refined copy of the
    grid: the bare geometric skeleton steps over half of each octave at
    once and loses an O(1) fraction of the within-octave signal, while a
    few bridge refinements bring the left-point sums close to the
    continuous integral.  Ratios are then taken over all refined times.
    """
    from .paths import refine_bisect

    if source.dim != 1:
        raise ValueError("the anomalous-rate diagnostic is one-dimensional")
    example36_rate_fn(source.grid.points)
    b = catalog_integrand("example36", dim=1)

    def one(chunk):
        refined = chunk
        for _ in range(refinements):
            refined = refine_bisect(refined)
        t = refined.grid.points
        trace = integrate_double(refined, b, keep="outer")
        rate = example36_rate_fn(t)
        bvals = np.array([_lll_inverse(tk) for tk in t])
        # in place, in the order of 0.5 * W^2 * b / rate and V / rate (the
        # same bits): one (P, N) array instead of one per operation
        proxy = np.square(refined.paths[:, 0, :])
        proxy *= 0.5
        proxy *= bvals
        proxy /= rate
        trace.outer /= rate
        return trace.outer.max(axis=1), proxy.max(axis=1), refined.grid

    sups_full, sups_proxy, grids = zip(*(one(realise()) for realise in as_chunks(source)))
    grid = grids[0]  # every chunk has the same refined grid
    full_sup = np.concatenate(sups_full)
    proxy_sup = np.concatenate(sups_proxy)
    full = LilEstimate(per_path_sup=full_sup, summary=_summarize(full_sup))
    rel = np.abs(full_sup - proxy_sup) / np.maximum(proxy_sup, 1e-300)
    return Example36Report(full=full, proxy_sup=proxy_sup,
                           proxy_summary=_summarize(proxy_sup),
                           consistency_median=float(np.median(rel)),
                           t_min=float(grid.points[0]))


@dataclass
class WindowMedians:
    """Median over paths of the per-path max of |scaled| within each window
    of consecutive grid times, one row per window, smallest times first."""

    t_hi: list    # the largest time of each window
    medians: list

    def csv_table(self):
        return ["t_hi", "median"], self.t_hi, self.medians


def window_medians(trace: DriftIntegralTrace, window: int) -> WindowMedians:
    """Disjoint windows of `window` grid times from the smallest time up (a
    last partial window is dropped).  "The scaled statistic tends to zero"
    shows as medians that shrink toward the smallest times."""
    t = trace.times
    if not 1 <= window <= t.size:
        raise ValueError(f"window must lie in [1, {t.size}] (the grid size)")
    stat = np.abs(trace.scaled)
    ends = range(window, t.size + 1, window)
    return WindowMedians(
        t_hi=[float(t[hi - 1]) for hi in ends],
        medians=[float(np.median(stat[:, hi - window:hi].max(axis=1)))
                 for hi in ends])
