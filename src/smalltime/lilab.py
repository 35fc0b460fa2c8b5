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
from .paths import (BundleSpec, as_chunks, bundle_bytes, map_chunks_ordered,
                    refine_bytes, sample_bytes)
from .stochint import (EXP_MINUS_E, DoubleIntegralTrace, DriftIntegralTrace,
                       IntegrandSpec, _lll_inverse, catalog_integrand,
                       integrate_double, kernel_bytes)


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

    @property
    def summary(self) -> dict:
        return _summarize(self.per_path_sup)

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


# a chunk of the lil-sup, ergodic and prop39 passes spans about this many
# path values (paths x dimension x times): a memory budget, not a config
# key, so that it enters neither params nor config_hash
_CHUNK_VALUES = 1 << 17


def budget_chunk(dim: int, size: int) -> int:
    """Paths of a chunk of _CHUNK_VALUES path values on size times (one at
    least)."""
    return max(1, _CHUNK_VALUES // (dim * size))


def trace_pass_bytes(name: str, dim: int, size: int, chunk: int,
                     window: int = 0) -> tuple:
    """(matrices, chunk, path, after) bytes of a lil-sup (window 0) or
    prop39 pass: kernel_bytes's matrices; a bundle of chunk paths on size
    times beside the largest of its sampling's scratch, a kernel keeping
    one series, V or drift_integral's x, and what follows its return, the
    series with the ratios of ratio_sup, or x with drift_integral's scaled
    x and the |scaled| of one window of window_maxima, with the chunk's
    results; per path its results, a sup or a max in each window, in one
    array of every path from the first chunk on; and after the pass a copy
    of one row of them (a median's, or the CSV's path column)."""
    mats, arrays = kernel_bytes(name, dim, size, chunk, "outer")
    results = size // window if window else 1
    stage = max(sample_bytes(dim, size, chunk), arrays,
                8 * chunk * (2 * size + window + results))
    return mats, mats + bundle_bytes(dim, size, chunk) + stage, 8 * results, 8


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
    # one array: the product, then abs and the division in place
    ratios = np.multiply(factor, trace.outer)
    if absolute:
        np.abs(ratios, out=ratios)
    ratios /= rate
    sup = ratios.max(axis=1)
    if not np.all(np.isfinite(sup)):
        raise ValueError("non-finite ratio sup; check grid and integrand domains")
    return LilEstimate(per_path_sup=sup)


def moment_identity(lam: float, horizon: float, dim: int) -> float:
    """Closed form exp(-lam*d*T) * (1 - 2*lam*T)^(-d/2) for the identity integrand."""
    if lam < 0.0:
        raise ValueError("moment closed form needs lam >= 0")
    if not 0.0 < horizon < math.inf:
        raise ValueError("moment closed form needs a finite horizon > 0")
    if dim < 1:
        raise ValueError("moment closed form needs dim >= 1")
    if not 2.0 * lam * horizon < 1.0:
        raise ValueError("hypothesis 2*lam*horizon < 1 violated")
    try:
        return math.exp(-lam * dim * horizon) * (1.0 - 2.0 * lam * horizon) ** (-dim / 2.0)
    except OverflowError:
        raise ValueError(f"moment closed form overflows the double range at dimension "
                         f"{dim}") from None


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


def forward_bytes(name: str, dim: int, size: int, chunk: int, moment: bool) -> tuple:
    """(matrices, chunk, path, after) bytes of moment_dominance (moment
    true) or tail_bound_check: kernel_bytes's matrices; a chunk's kernel on
    size times, drawing its paths block by block; per path V(T) and sup V
    of each chunk; and after the pass, per path, one of them joined beside
    the chunks' other, and beside the one of the two the statistic reads:
    for the tail, 2 sup V and its clip at 0, and for the moment,
    exp(2 lam V), its square and a list of Python floats (32 bytes a value)
    for math.fsum."""
    mats, arrays = kernel_bytes(name, dim, size, chunk, "last", drawn=True)
    return mats, mats + arrays, 16, 40 if moment else 8


def _forward_pass(source, b: IntegrandSpec, horizon: float, workers: int):
    """V^b(T) and sup_t V^b of every path of the source, in path order.

    Checks once, before any chunk is sampled, that b declares a bound of at
    most 1 and that the source grid ends at the horizon.  The kernel draws
    a BundleSpec's chunks on a forward grid block by block.
    """
    if not b.unit_bounded:
        raise ValueError("integrand must declare a bound <= 1")
    if abs(source.grid.horizon - horizon) > 1e-12 * max(1.0, horizon):
        raise ValueError("bundle grid must end at the horizon")

    def one(chunk):
        trace = integrate_double(chunk, b, keep="last")
        return trace.final_outer(), trace.outer_sup

    finals, sups = zip(*map_chunks_ordered(one, as_chunks(source), workers))
    # the chunks' V(T) are freed once joined, so that three of the four
    # per-path arrays are held at most
    final = np.concatenate(finals)
    del finals
    return final, np.concatenate(sups)


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
    final = _forward_pass(source, b, horizon, workers)[0]
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


# interval width at which the golden-section search for the tail lambda stops
_LAMBDA_TOL = 1e-10


def optimal_tail_lambda(alpha: float, horizon: float, dim: int) -> float:
    """Golden-section minimizer of the tail bound over lam in (0, 1/(2T)).

    The log of the bound is convex in lam, so golden-section search is
    exact up to the interval tolerance, or up to the spacing of doubles
    near 1/(2T) where that is wider: the search also stops at an interval
    of two adjacent doubles, which no step can narrow.
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
    while bb - a > _LAMBDA_TOL and math.nextafter(a, math.inf) < bb:
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
    lams, bounds = tail_bounds(alphas, horizon, source.dim, rule, eta)
    sup = _forward_pass(source, b, horizon, workers)[1]
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
    return TailBoundReport(n_paths=n, rows=rows, any_violation=any_violation)


@dataclass
class ErgodicReport:
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


# a row block of the ergodic pass and of example36's proxy spans about this
# many values (paths x dimension x levels, or paths x times): few enough
# that its scratch stays in cache and adds little to peak memory
_ROW_VALUES = 1 << 13


def _ergodic_levels(w: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Y(n) = e^n |W(e^-n)^T mat W(e^-n)| of the e^-n grid's paths w, of
    shape (P, d, levels), one column per n = 1..levels.

    One pass over row blocks of paths (about _ROW_VALUES values each)
    forms every level of a block at once: W(e^-n) is scaled by e^(n/2), and
    the quadratic form adds the terms (x_i mat_ij) x_j with i outer and j
    inner, the order and bits of a per-level einsum("pi,ij,pj->p").  The
    block's scratch is freed on return.
    """
    p, d, levels = w.shape
    # grid column k holds W(e^-n) for n = levels - k: the levels run backwards
    scale = np.array([math.exp(0.5 * (levels - k)) for k in range(levels)])
    rows = max(1, _ROW_VALUES // (d * levels))
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


def ergodic_bytes(dim: int, size: int, chunk: int) -> tuple:
    """(matrices, chunk, path, after) bytes of an ergodic pass: beta I with
    SymMatrix's copy and sum of it (eigvalsh's symmetric part and LAPACK's
    copy of it take no more); beta's entries, with a bundle of chunk paths
    on size times beside the larger of its sampling's scratch and its Y,
    whose rows become the running frequencies of the hits; per path its
    minimum; and after the pass a copy of the minima (a quantile's, or the
    CSV's path column)."""
    stage = max(sample_bytes(dim, size, chunk), bundle_bytes(1, size, chunk))
    return 24 * dim * dim, 8 * dim * dim + bundle_bytes(dim, size, chunk) + stage, 8, 8


def ergodic_liminf(source, beta, delta: float) -> ErgodicReport:
    """Running frequency of Y(n) <= delta for Y(n) = e^n |W(e^-n)^T beta W(e^-n)|.

    source is a BrownianBundle or a BundleSpec on the e^-n grid, checked
    before any chunk is sampled; a spec's chunks are walked in turn.  The
    path-average frequency should approach ergodic_reference(beta, delta).
    Y is formed in one blocked pass over a chunk's paths (_ergodic_levels),
    with the bits of one einsum per level.  The paths' running frequencies
    are summed in path order into one column sum, with the bits of a mean
    over all of them at once.
    """
    grid = source.grid
    if (grid.kind != "geometric"
            or abs(grid.meta.get("theta", 0.0) - math.exp(-1.0)) > 1e-9
            or abs(grid.meta.get("t0", 0.0) - math.exp(-1.0)) > 1e-9):
        raise GridMismatchError("ergodic diagnostics need the e^-n grid (ergodic_grid)")
    mat = np.atleast_2d(np.asarray(beta.entries if hasattr(beta, "entries") else beta,
                                   dtype=float))
    d = source.dim
    if mat.shape != (d, d):
        raise ValueError("beta shape must match the bundle dimension")
    reference = ergodic_reference(mat, delta)
    freq_sum = np.zeros(grid.size)
    per_path_min = np.empty(source.path_count)

    def one(chunk, first):
        """Fill the chunk's minima from first on; return the path after them."""
        y = _ergodic_levels(chunk.paths, mat)
        rows = slice(first, first + len(y))
        y.min(axis=1, out=per_path_min[rows])
        # the running frequency of the hits, in place of Y
        hits = np.less_equal(y, delta, out=y)
        np.cumsum(hits, axis=1, out=hits)
        hits /= np.arange(1, grid.size + 1)
        # added in path order, as a mean over every path's rows adds them:
        # the first row takes the sum so far (a + b is b + a, bit for bit)
        # and the rows reduce into it in order
        hits[0] += freq_sum
        np.add.reduce(hits, axis=0, out=freq_sum)
        return rows.stop

    first = 0
    for realise in as_chunks(source):
        first = one(realise(), first)
    freq_by_n = freq_sum / source.path_count
    return ErgodicReport(reference=reference, freq_by_n=freq_by_n,
                         final_freq=float(freq_by_n[-1]), per_path_min=per_path_min)


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


def example36_bytes(size: int, chunk: int, refinements: int) -> tuple:
    """(matrices, chunk, path, after) bytes of example36_diag:
    kernel_bytes's matrices; a chunk on size times beside the larger of its
    last refinement, with the refinement before it (the chunk itself at one
    refinement), and the refined chunk with the kernel keeping the running
    sup of V / rate (the proxy's row blocks then take no more); per path
    the two sups, per chunk and concatenated, and their gap; and nothing
    more after the pass.  Past 2^64 refined times every count is as far
    out of reach."""
    n = size << min(refinements, 64)
    mats, arrays = kernel_bytes("example36", 1, n, chunk, "last")
    last = 0
    if refinements:
        last = bundle_bytes(1, n // 2 if refinements > 1 else 0, chunk) + refine_bytes(
            1, n // 2, chunk)
    kernel = bundle_bytes(1, n if refinements else 0, chunk) + arrays
    return mats, mats + bundle_bytes(1, size, chunk) + max(last, kernel), 48, 0


def _proxy_sup(w: np.ndarray, bvals: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """Per-path max over the grid of 0.5 * W^2 * b / rate, w of shape
    (P, N): formed in place in one row block (about _ROW_VALUES values) at
    a time, in the order of the operations (the same bits)."""
    p, n = w.shape
    rows = max(1, _ROW_VALUES // n)
    buf, sup = np.empty((min(rows, p), n)), np.empty(p)
    for r0 in range(0, p, rows):
        blk = np.square(w[r0:r0 + rows], out=buf[:min(rows, p - r0)])
        blk *= 0.5
        blk *= bvals
        blk /= rate
        blk.max(axis=1, out=sup[r0:r0 + len(blk)])
    return sup


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
    if isinstance(source, BundleSpec) and source.grid.kind != "geometric":
        raise ValueError("a BundleSpec's chunks are refined only on a geometric grid")
    example36_rate_fn(source.grid.points)
    b = catalog_integrand("example36", dim=1)

    def one(chunk):
        refined = chunk
        for _ in range(refinements):
            refined = refine_bisect(refined)
        t = refined.grid.points
        rate = example36_rate_fn(t)
        full = integrate_double(refined, b, keep="last", rate=rate).outer_sup
        bvals = np.array([_lll_inverse(tk) for tk in t])
        return full, _proxy_sup(refined.paths[:, 0, :], bvals, rate), refined.grid

    sups_full, sups_proxy, grids = zip(*(one(realise()) for realise in as_chunks(source)))
    grid = grids[0]  # every chunk has the same refined grid
    full_sup = np.concatenate(sups_full)
    proxy_sup = np.concatenate(sups_proxy)
    full = LilEstimate(per_path_sup=full_sup)
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


def _window_ends(times: np.ndarray, window: int) -> range:
    """The end index of each disjoint window of `window` grid times from the
    smallest time up (a last partial window is dropped)."""
    if not 1 <= window <= times.size:
        raise ValueError(f"window must lie in [1, {times.size}] (the grid size)")
    return range(window, times.size + 1, window)


def window_maxima(trace: DriftIntegralTrace, window: int) -> np.ndarray:
    """The per-path max of |scaled| within each window of _window_ends, one
    row per window: (windows, paths)."""
    ends = _window_ends(trace.times, window)
    out = np.empty((len(ends), trace.scaled.shape[0]))
    for row, hi in zip(out, ends):
        np.abs(trace.scaled[:, hi - window:hi]).max(axis=1, out=row)
    return out


def window_medians(times: np.ndarray, window: int, maxima: np.ndarray) -> WindowMedians:
    """The median over paths of each window's row of window_maxima (of every
    path, its chunks' rows joined).  "The scaled statistic tends to zero"
    shows as medians that shrink toward the smallest times."""
    return WindowMedians(t_hi=[float(times[hi - 1]) for hi in _window_ends(times, window)],
                         medians=[float(np.median(row)) for row in maxima])
