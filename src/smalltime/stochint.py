"""Discrete Ito integration of double stochastic integrals.

Everything is left-point (Ito) Riemann summation on the bundle's grid:
the inner integral advances as Y += b(t_k) dW_k, the outer one as
V += Y_k . dW_k.  Quadratic variation is accumulated from the integrand
(predictable bracket), not from realized squared increments.  The outer
accumulators use compensated summation because small-time diagnostics
divide the results by times as small as 1e-30.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .matcore import DomainError, SymMatrix, operator_norm
from .paths import BrownianBundle, ForwardChunk, _accumulate, draw_bytes, time_blocks

EXP_MINUS_E = math.exp(-math.e)


def _lll_inverse(t: float) -> float:
    """1 / logloglog(1/t) on (0, e^-e), extended by its limit 0 at t = 0."""
    if t == 0.0:
        return 0.0
    l3 = math.log(math.log(-math.log(t)))
    return 1.0 / l3


@dataclass
class IntegrandSpec:
    """The matrix process b = c M: a scalar factor c times a constant
    matrix M (matrix; None is the unit matrix).

    scale is c: a number for kind "constant", scale(t) for "time", and for
    "path" a progressively measurable functional scale(t, w) of the current
    path value only, so lookahead is impossible by construction.  It is
    called on many rows at once: w of shape (R, d), t the rows' times,
    giving (R,).
    """

    kind: str
    dim: int
    name: str = "constant"
    matrix: np.ndarray | None = None
    scale: object = 1.0
    bound: float | None = None
    t_max: float | None = None

    @classmethod
    def constant(cls, matrix, name: str = "constant") -> "IntegrandSpec":
        m = np.atleast_2d(np.asarray(matrix, dtype=float))
        if m.shape[0] != m.shape[1]:
            raise ValueError("constant integrand must be a square matrix")
        return cls(kind="constant", dim=m.shape[0], name=name, matrix=m,
                   bound=operator_norm(m))

    @property
    def unit_bounded(self) -> bool:
        """Whether the declared bound is at most 1 (up to rounding)."""
        return self.bound is not None and self.bound <= 1.0 + 1e-12

    def factor(self, t, w):
        """The factor c at time t given current path values w of shape (R, d)
        (a path functional's t holds the rows' times): a number, or (R,)."""
        if self.kind == "constant":
            return self.scale
        if self.kind == "time":
            if self.t_max is not None and t >= self.t_max:
                raise DomainError(
                    f"integrand {self.name!r} evaluated at t={t!r}, outside its "
                    f"validity window t < {self.t_max!r}")
            return self.scale(t)
        return self.scale(t, w)

    def eval(self, t: float, w: np.ndarray):
        """b at time t given current path values w of shape (P, d), built on
        demand: (d, d), or (P, d, d) for a path functional."""
        m = np.eye(self.dim) if self.matrix is None else self.matrix
        return np.multiply.outer(self.factor(t, w), m)


@dataclass
class VectorSpec:
    """Bounded vector process a(t) for the drift-integral diagnostics."""

    kind: str
    dim: int
    vector: np.ndarray | None = None
    time_fn: object = None

    @classmethod
    def constant(cls, vector) -> "VectorSpec":
        v = np.atleast_1d(np.asarray(vector, dtype=float))
        return cls(kind="constant", dim=v.size, vector=v)

    def eval(self, t: float) -> np.ndarray:
        if self.kind == "constant":
            return self.vector
        return self.time_fn(t)


@dataclass(frozen=True)
class CatalogEntry:
    kind: str
    anchor: str
    build: object  # (name, dim) -> IntegrandSpec
    matrices: int = 0  # (d, d) arrays the built spec holds


def _times_eye(kind: str, c, anchor: str, bound: float | None = None,
               t_max: float | None = None) -> CatalogEntry:
    """The entry whose integrand is c times the unit matrix, for c a
    constant (bounded by |c|), a function c(t) or a function c(W_1) of the
    first path coordinate, as kind says."""
    scale = (lambda t, w: c(w[:, 0])) if kind == "path" else c
    if kind == "constant":
        bound = abs(c)

    def build(name, dim):
        return IntegrandSpec(kind, dim, name, scale=scale, bound=bound, t_max=t_max)

    return CatalogEntry(kind, anchor, build)


def _build_rotation(name, dim):
    """A quarter-pi rotation in the first two coordinates."""
    if dim < 2:
        raise ValueError("rotation integrand needs dim >= 2")
    m = np.eye(dim)
    c, s = math.cos(math.pi / 4.0), math.sin(math.pi / 4.0)
    m[0, 0], m[0, 1], m[1, 0], m[1, 1] = c, -s, s, c
    spec = IntegrandSpec.constant(m, name=name)
    spec.bound = 1.0
    return spec


INTEGRAND_CATALOG = {
    "zero": _times_eye(
        "constant", 0.0,
        "vanishing integrand; the double integral is identically zero"),
    "identity": _times_eye(
        "constant", 1.0,
        "unit-matrix integrand; extreme case of the exponential-moment "
        "comparison, with chi-square closed forms"),
    "sign_flip": _times_eye(
        "constant", -1.0,
        "negated unit matrix; maps liminf statements to limsup statements"),
    "rotation": CatalogEntry(
        "constant",
        "orthogonal nonsymmetric matrix of unit operator norm; stresses the "
        "moment dominance beyond symmetric integrands",
        _build_rotation, matrices=2),  # its own and operator_norm's LAPACK copy
    "scaled_identity": _times_eye(
        "constant", 0.5,
        "c times the unit matrix; exercises linear scaling of the ratio "
        "diagnostics"),
    "example36": _times_eye(
        "time", _lll_inverse,
        "slowly varying scalar integrand 1/logloglog(1/t) with the anomalous "
        "small-time rate t loglog(1/t)/logloglog(1/t)",
        t_max=EXP_MINUS_E),
    "linear_time": _times_eye(
        "time", lambda t: 1.0 + t,
        "(1 + rate*t) times the unit matrix; drives the residual terms of "
        "the martingale-driven decomposition"),
    "tanh_w": _times_eye(
        "path", np.tanh,
        "smooth clamp of the first coordinate; bounded progressively "
        "measurable path functional",
        bound=1.0),
    "clamp_w": _times_eye(
        "path", lambda w: np.clip(w, -1.0, 1.0),
        "hard clamp of the first coordinate; bounded progressively "
        "measurable path functional",
        bound=1.0),
}


def catalog_integrand(name: str, dim: int) -> IntegrandSpec:
    try:
        entry = INTEGRAND_CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown integrand catalog entry {name!r}") from None
    return entry.build(name, dim)


def unit_bound_names(dim: int) -> list:
    """Catalog entries whose declared bound is <= 1 at the given dimension."""
    out = []
    for name in sorted(INTEGRAND_CATALOG):
        if name == "rotation" and dim < 2:
            continue
        if catalog_integrand(name, dim).unit_bounded:
            out.append(name)
    return out


@dataclass
class DoubleIntegralTrace:
    """Per-path inner and outer integral values along the grid.

    qv_inner[j] tracks the bracket of the j-th inner component,
    sum_l b_jl^2 dt; qv_outer tracks |Y|^2 dt.  Traces integrated with
    keep="outer" hold V only; the other fields have no columns.  Traces
    integrated with keep="last" hold V(T) in one column, have times [T],
    and carry outer_sup, the per-path max of V (or of V / rate) over the
    grid.
    """

    times: np.ndarray
    inner: np.ndarray
    outer: np.ndarray
    qv_inner: np.ndarray
    qv_outer: np.ndarray
    grid_meta: dict = field(default_factory=dict)
    outer_sup: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.inner.shape[2]

    def final_outer(self) -> np.ndarray:
        return self.outer[:, -1]


# a block of the left-point kernel spans about this many path values
# (steps x paths x dimension), so each numpy call covers many steps while
# the block's working arrays stay in cache; a drawn chunk samples blocks
# of this size too
_BLOCK_VALUES = 1 << 16


def kernel_bytes(name: str, dim: int, size: int, paths: int, keep: str,
                 drawn: bool = False) -> tuple:
    """(matrices, arrays): bytes integrate_double holds with catalog
    integrand name on paths paths of size times, read from a bundle or
    drawn from a ForwardChunk (drift_integral records as keep="outer"
    does).  The (d, d) matrices are those the catalog entry holds (none for
    c times the unit matrix).  The arrays: the series keep records; per
    path Y, its bracket, the Kahan compensation and its scratch and the
    running max of keep="last"; the block buffer and the Kahan record, of
    B + 1 rows, with dW and the increments, of B; and the larger scratch of
    a block, the callback's (Y's running sum, the scaled dW, a path
    functional's factor) or a drawn chunk's (paths.draw_bytes)."""
    steps = min(max(1, _BLOCK_VALUES // (paths * dim)), size)
    n_sums, series = {"trace": (2, 2 + 2 * dim), "outer": (1, 1), "last": (1, 0)}[keep]
    held = 8 * paths * (series * size + 2 * dim + 2 * n_sums + (keep == "last")
                        + (2 * steps + 1) * (dim + n_sums))
    factor = INTEGRAND_CATALOG[name].kind == "path"
    scratch = 8 * paths * ((2 * steps + 1) * dim + steps * factor)
    if drawn:
        prefix, draw = draw_bytes(dim, steps, paths)
        held, scratch = held + prefix, max(scratch, draw)
    return 8 * dim * dim * INTEGRAND_CATALOG[name].matrices, held + scratch


def _apply(mat, vec):
    """mat @ vec for mat of shape (d, d) and vec of shape (R, d)."""
    if vec.shape[0] == 1:  # a lone row would round as a BLAS vector product
        return (np.repeat(vec, 2, axis=0) @ mat.T)[:1]
    return vec @ mat.T


def _factor_block(spec: IntegrandSpec, t, w):
    """b's factor c at the left points of a block of steps, t of shape (B,),
    w (B, P, d): a number, (B, 1, 1) for a function of time, or (B, P, 1)
    for a path functional, evaluated on all rows at once."""
    if spec.kind == "constant":
        return spec.scale
    if spec.kind == "time":
        return np.array([spec.factor(t_k, None) for t_k in t])[:, None, None]
    n, p, d = w.shape
    return spec.factor(np.repeat(t, p), w.reshape(n * p, d)).reshape(n, p, 1)


def _apply_block(c, mat, v):
    """c M v row by row, v of shape (B, P, d), c from _factor_block and M
    (None for the unit matrix) applied after the factor."""
    v = c * v
    if mat is None:
        return v
    n, p, d = v.shape
    return _apply(mat, v.reshape(n * p, d)).reshape(n, p, d)


def _running(carry, incs):
    """carry followed by its running sums with the B rows of incs, formed by
    the same sequential adds as carry += inc step by step: row k is the
    state before step k, row B the state after the block, which is also
    written back into carry."""
    s = np.empty((len(incs) + 1,) + carry.shape)
    s[0] = carry
    s[1:] = incs
    _accumulate(s)
    carry[...] = s[-1]
    return s


def _left_point(source, block, n_sums: int, keep: str = "trace", rate=None):
    """The left-point stepping kernel behind every integral in this module.

    It reads the path values of a BrownianBundle or ForwardChunk only
    through paths.time_blocks, in time-major blocks of B steps (B from
    _BLOCK_VALUES) from the origin.  For each block it forms all B
    increments dW with one subtraction and calls
    block(cols, t, dt, w, dw, inc): t and dt are the block's left times and
    step lengths, (B,); w the left path values and dw the increments,
    (B, P, d); cols the slice of output columns the block's steps end at.
    The callback writes the n_sums increments of every step into inc,
    (n_sums, B, P), and keeps its own states.  Only the compensated
    (Kahan) summation of those increments steps through time one step at
    a time, writing each step's sums into the block's record.  keep says
    what is returned as (sums, sup), sums of shape (kept, P, columns):
    "trace" every sum at every grid time, "outer" the first sum at every
    grid time, "last" the first sum at T (one column) and its running max
    over the grid, of the sum divided by rate (one value a grid time) when
    a rate is given.
    """
    if keep not in ("trace", "outer", "last"):
        raise ValueError(f"keep must be 'trace', 'outer' or 'last', got {keep!r}")
    t = source.grid.points
    p, d, n_out = source.path_count, source.dim, t.size
    start = 0 if t[0] == 0.0 else 1
    if start:
        t = np.concatenate(([0.0], t))
    dt = np.diff(t)
    # scratch for no more steps than the grid has
    size = max(1, min(_BLOCK_VALUES // (p * d), dt.size))

    comp, adj = np.zeros((n_sums, p)), np.empty((n_sums, p))
    inc = np.empty((size, n_sums, p))
    dw = np.empty((size, p, d))
    # the sums before each step of a block and after its last; row 0
    # carries the sums into the block
    rec = np.zeros((size + 1, n_sums, p))
    kahan = list(zip(inc, rec[:-1], rec[1:]))  # each step's views, made once
    n_series = {"trace": n_sums, "outer": 1}.get(keep, 0)
    series = np.zeros((n_series, p, n_out))
    sup = np.full(p, -np.inf) if keep == "last" else None
    for k0, w in zip(range(0, dt.size, size), time_blocks(source, size)):
        n = len(w) - 1
        cols = slice(k0 + 1 - start, k0 + n + 1 - start)
        np.subtract(w[1:], w[:-1], out=dw[:n])
        block(cols, t[k0:k0 + n], dt[k0:k0 + n], w[:-1], dw[:n],
              inc[:n].transpose(1, 0, 2))
        for inc_k, acc, total in kahan[:n]:
            # adj = inc - comp, acc' = acc + adj, comp' = (acc' - acc) - adj
            np.subtract(inc_k, comp, out=adj)
            np.add(acc, adj, out=total)
            np.subtract(total, acc, out=comp)
            comp -= adj
        if sup is None:
            series[:, :, cols] = rec[1:n + 1, :n_series].transpose(1, 2, 0)
        else:
            sums = rec[1:n + 1, 0]
            if rate is not None:
                sums = sums / rate[cols, None]
            np.maximum(sup, sums.max(axis=0), out=sup)
        rec[0] = rec[n]
    return series if n_series else rec[0, :1, :, None].copy(), sup


def integrate_double(bundle: BrownianBundle | ForwardChunk, b: IntegrandSpec,
                     keep: str = "trace", rate=None) -> DoubleIntegralTrace:
    """Left-point double integral V(t) of (integral of b dW)^T dW, over a
    bundle or a chunk the kernel draws block by block.

    Grids that do not contain 0 get an implicit origin with W(0) = 0 and
    Y(0) = V(0) = 0; output arrays align with the bundle's grid points.
    keep="trace" stores every field at every grid time; "outer" stores V
    at every grid time; "last" stores V(T) and the per-path max of V over
    the grid (outer_sup), or with a rate (one value a grid time) the
    per-path max of V / rate, the bits of (outer / rate).max(axis=1) from
    keep="outer" without the (paths, times) array.  Fields not stored have
    no columns, and stored values are the same bits in every mode.
    """
    if b.dim != bundle.dim:
        raise ValueError("integrand dimension does not match the bundle")
    if rate is not None and (keep != "last" or np.shape(rate) != (bundle.grid.size,)):
        raise ValueError("a rate needs keep='last' and one value a grid time")
    p, d = bundle.path_count, bundle.dim
    full = keep == "trace"
    shape = (p, bundle.grid.size if full else 0, d)
    inner, qv_in = np.zeros(shape), np.zeros(shape)
    y, qi = np.zeros((p, d)), np.zeros((p, d))

    # the inner bracket's rate is c^2 times the row sums of M * M (1 for M = I)
    row_sq = 1.0 if b.matrix is None or not full else (b.matrix * b.matrix).sum(axis=-1)

    def block(cols, t, dt, w, dw, inc):
        c = _factor_block(b, t, w)
        ys = _running(y, _apply_block(c, b.matrix, dw))
        np.einsum("kpi,kpi->kp", ys[:-1], dw, out=inc[0])
        if full:  # brackets: the outer one from Y before its update
            np.multiply((ys[:-1] * ys[:-1]).sum(axis=-1), dt[:, None], out=inc[1])
            qs = _running(qi, c * c * row_sq * dt[:, None, None])
            inner[:, cols] = ys[1:].transpose(1, 0, 2)
            qv_in[:, cols] = qs[1:].transpose(1, 0, 2)

    sums, sup = _left_point(bundle, block, 2 if full else 1, keep, rate)
    outer, qv_out = sums if full else (sums[0], np.empty((p, 0)))
    times = bundle.grid.points[-1:] if keep == "last" else bundle.grid.points
    meta = {"kind": bundle.grid.kind, **bundle.grid.meta}
    return DoubleIntegralTrace(times=times.copy(), inner=inner, outer=outer,
                               qv_inner=qv_in, qv_outer=qv_out,
                               grid_meta=meta, outer_sup=sup)


def closed_form_constant(bundle: BrownianBundle, beta) -> np.ndarray:
    """Exact V(t) = (W(t)^T beta W(t) - Tr[beta] t) / 2 for constant symmetric beta."""
    mat = beta.entries if isinstance(beta, SymMatrix) else np.asarray(beta, dtype=float)
    mat = np.atleast_2d(mat)
    if np.abs(mat - mat.T).max() > 1e-12 * max(1.0, np.abs(mat).max()):
        raise ValueError("closed form requires a symmetric matrix")
    w = bundle.paths
    quad = np.einsum("pin,ij,pjn->pn", w, mat, w)
    return 0.5 * (quad - np.trace(mat) * bundle.grid.points[None, :])


def closed_form_trace(bundle: BrownianBundle, beta) -> DoubleIntegralTrace:
    """Trace built from the constant-integrand closed form.

    V and Y = beta W are exact at grid times; the outer bracket is still
    the discrete left-point accumulation.
    """
    mat = beta.entries if isinstance(beta, SymMatrix) else np.atleast_2d(np.asarray(beta, dtype=float))
    outer = closed_form_constant(bundle, mat)
    inner = np.einsum("ij,pjn->pni", mat, bundle.paths)
    t = bundle.grid.points
    row_sq = (mat * mat).sum(axis=-1)
    qv_in = row_sq[None, None, :] * t[None, :, None]
    y_sq = (inner * inner).sum(axis=2)
    y_prev = np.zeros_like(y_sq)
    y_prev[:, 1:] = y_sq[:, :-1]
    # interval lengths ending at each grid time, from the implicit origin
    qv_out = np.cumsum(y_prev * np.diff(t, prepend=0.0)[None, :], axis=1)
    meta = {"kind": bundle.grid.kind, **bundle.grid.meta}
    return DoubleIntegralTrace(times=t.copy(), inner=inner, outer=outer,
                               qv_inner=np.broadcast_to(qv_in, inner.shape).copy(),
                               qv_outer=qv_out, grid_meta=meta)


@dataclass
class MartingaleDecomposition:
    """X(t) = int (int b dM)^T dM with dM = m dW, plus its split into the
    c-driven double integral and the two residual terms.

    The three pieces sum back to X within accumulation tolerance; the
    maximum relative reconstruction error is reported.
    """

    times: np.ndarray
    x: np.ndarray
    c_piece: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    recon_error: float


def integrate_double_martingale(bundle: BrownianBundle, b: IntegrandSpec,
                                m: IntegrandSpec) -> MartingaleDecomposition:
    """Martingale-driven double integral and its residual decomposition:
    the generalisation from dW to dM = m dW in the paper's introduction.

    With c(t) = m(0)^T b(t) m(0), X splits into the c-driven double
    integral plus R1 (inner integrand b (m - m(0)), outer m(0) dW) and R2
    (inner b m, outer (m - m(0)) dW).
    """
    if b.dim != bundle.dim or m.dim != bundle.dim:
        raise ValueError("integrand dimensions must match the bundle")
    p, d = bundle.path_count, bundle.dim
    m0 = m.eval(0.0, np.zeros((1, d))).reshape(d, d)
    # c(t) = m0^T b(t) m0 is b's factor times this matrix
    k = m0.T @ (np.eye(d) if b.matrix is None else b.matrix) @ m0
    y_x = np.zeros((p, d))      # inner of X: int b m dW
    y_c = np.zeros((p, d))      # inner of the c piece
    y_a = np.zeros((p, d))      # inner of R1: int b (m - m0) dW

    def block(cols, t, dt, w, dw, inc):
        cb = _factor_block(b, t, w)
        dm = _apply_block(_factor_block(m, t, w), m.matrix, dw)
        dm0 = _apply_block(1.0, m0, dw)
        ddev = dm - dm0
        xs = _running(y_x, _apply_block(cb, b.matrix, dm))[:-1]
        cs = _running(y_c, _apply_block(cb, k, dw))[:-1]
        as_ = _running(y_a, _apply_block(cb, b.matrix, ddev))[:-1]
        for row, (ys, dv) in enumerate(((xs, dm), (cs, dw), (as_, dm0), (xs, ddev))):
            np.einsum("kpi,kpi->kp", ys, dv, out=inc[row])

    (x, cpc, r1, r2), _ = _left_point(bundle, block, 4)
    recon = np.abs(x - (cpc + r1 + r2)) / (1.0 + np.abs(x))
    return MartingaleDecomposition(times=bundle.grid.points.copy(), x=x,
                                   c_piece=cpc, r1=r1, r2=r2,
                                   recon_error=float(recon.max()))


@dataclass
class DriftIntegralTrace:
    """X(t) = int (int a du)^T m dW plus the scaled statistic t^(-3/2+eps) X(t)."""

    times: np.ndarray
    x: np.ndarray
    scaled: np.ndarray


def drift_scale(t, eps: float) -> np.ndarray:
    """The factor t^(-3/2+eps) of the scaled drift statistic, 0 at t = 0."""
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t > 0.0, t ** (-1.5 + eps), 0.0)


def drift_integral(bundle: BrownianBundle, a: VectorSpec, m: IntegrandSpec,
                   eps: float = 0.5) -> DriftIntegralTrace:
    t = bundle.grid.points
    power = drift_scale(t, eps)
    if a.dim != bundle.dim or m.dim != bundle.dim:
        raise ValueError("process dimensions must match the bundle")
    # the inner integral of a du is the same on every path: one row, which
    # the product with m dW broadcasts over the paths
    ia = np.zeros((1, bundle.dim))

    def block(cols, t, dt, w, dw, inc):
        da = np.array([a.eval(t_k) for t_k in t]) * dt[:, None]
        ias = _running(ia, da[:, None, :])[:-1]
        dm = _apply_block(_factor_block(m, t, w), m.matrix, dw)
        np.einsum("kpi,kpi->kp", ias, dm, out=inc[0])

    (x,), _ = _left_point(bundle, block, 1)
    scaled = x * power[None, :]
    scaled[:, t == 0.0] = 0.0
    return DriftIntegralTrace(times=t.copy(), x=x, scaled=scaled)
