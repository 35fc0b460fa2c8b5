"""Time grids and reproducible d-dimensional Brownian path generation.

Normal draws come from a stateless counter-based hash of
(seed, path, stream tag, step, coordinate), so a path's values depend only
on its global index and the grid, never on how work was chunked or
parallelized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.special import ndtri

_T_FLOOR = 1e-300

# stream tags keep the draw spaces of the three sampling schemes disjoint
_TAG_FORWARD = 1
_TAG_GEOMETRIC = 2
_TAG_BISECT = 3

# the samplers work through blocks of about this many path values (rows of
# paths, or a forward bundle's time blocks), so hashing, scaling and summing
# a block stay in cache
_SAMPLE_VALUES = 1 << 17

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLD = np.uint64(0x9E3779B97F4A7C15)
_SHIFT30 = np.uint64(30)
_SHIFT27 = np.uint64(27)
_SHIFT31 = np.uint64(31)
_SHIFT11 = np.uint64(11)


def _mix64(z, tmp):
    """The splitmix64 finalizer applied to z in place; tmp is scratch of
    z's shape.  uint64 arithmetic wraps mod 2^64 by design."""
    for shift, mult in ((_SHIFT30, _M1), (_SHIFT27, _M2), (_SHIFT31, None)):
        np.right_shift(z, shift, out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        if mult is not None:
            np.multiply(z, mult, out=z)
    return z


def _path_key(seed, tag, path_idx):
    """The hash of (seed, stream tag, path) that _normals goes on from."""
    h = np.full((), int(seed) & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
    with np.errstate(over="ignore"):
        np.add(h, _GOLD, out=h)
        _mix64(h, np.empty_like(h))
        for word in (tag, path_idx):
            h = np.asarray(h ^ (np.asarray(word, dtype=np.uint64) * _GOLD + _M2))
            _mix64(h, np.empty_like(h))
    return h


def _normals(key, step_idx, coord_idx, out=None):
    """Standard normals keyed by (seed, tag, path, step, coord), the first
    three as their _path_key.

    The component arrays broadcast against each other; the result has the
    broadcast shape and is written into `out` (float64, any strides) when
    given.  The hash runs with the axes along which the coordinate varies
    outermost, so that each of its steps loops over the paths and steps in
    one long contiguous run, and the inverse normal CDF writes the normals
    through that view of `out`; without an `out` they stay in the hash's
    scratch, in its layout.  The CDF is deterministic for a fixed math
    library.
    """
    parts = [np.asarray(c, dtype=np.uint64) for c in (key, step_idx, coord_idx)]
    ndim = max([a.ndim for a in parts])
    parts = [a.reshape((1,) * (ndim - a.ndim) + a.shape) for a in parts]
    order = sorted(range(ndim), key=lambda ax: parts[2].shape[ax] == 1)
    h, *words = [a.transpose(order) for a in parts]
    shape = np.broadcast_shapes(h.shape, *[w.shape for w in words])
    full, tmp = np.empty(shape, dtype=np.uint64), np.empty(shape, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for word in words:
            # the hash grows to the broadcast shape one component at a time
            word = word * _GOLD + _M2
            if np.broadcast_shapes(h.shape, word.shape) == shape:
                h = np.bitwise_xor(h, word, out=full)
            else:
                h = np.asarray(h ^ word)
            _mix64(h, tmp if h is full else np.empty_like(h))
        _mix64(np.add(h, _GOLD, out=full), tmp)
    np.right_shift(full, _SHIFT11, out=full)
    # the uniforms in tmp's place, in the hash's layout
    u = np.add(full, 0.5, out=tmp.view(np.float64))
    u *= 2.0 ** -53
    if out is None:
        out = u.transpose(np.argsort(order))
    ndtri(u, out=out.transpose(order))
    return out


def _accumulate(a):
    """np.add.accumulate(a, axis=0, out=a), by the same adds in the same
    order.  numpy's accumulate runs its inner loop down the time axis, one
    row apart; adding whole rows runs it along a row, but pays one Python
    call a row.  Rows are added whole when a block has no more rows than
    values a row, which holds the loop to the square root of the block's
    values.  The accumulate keeps blocks of one path and d = 1, where a
    row is one value and a row loop would cost some 200 times more (a
    one-path forward block can be 2^17 rows)."""
    if len(a) <= a[0].size:
        for prev, row in zip(a[:-1], a[1:]):
            np.add(prev, row, out=row)
    else:
        np.add.accumulate(a, axis=0, out=a)


@dataclass
class TimeGrid:
    """Strictly increasing evaluation times.

    Uniform grids carry an explicit leading zero; geometric grids hold the
    points t0 * theta^k for k = levels..0 (ascending) and stay strictly
    positive.
    """

    points: np.ndarray
    kind: str = "custom"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("TimeGrid needs a 1-d array of times")
        if not np.all(np.isfinite(pts)):
            raise ValueError("TimeGrid points must be finite")
        if np.any(np.diff(pts) <= 0.0):
            raise ValueError("TimeGrid points must be strictly increasing")
        if pts[0] < 0.0 or (pts.size > 1 and np.any(pts[1:] <= 0.0)):
            raise ValueError("TimeGrid points must be positive apart from a leading 0")
        self.points = pts

    @property
    def size(self) -> int:
        return self.points.size

    @property
    def horizon(self) -> float:
        return float(self.points[-1])


def uniform_grid(horizon: float, steps: int) -> TimeGrid:
    if not 0.0 < horizon < math.inf:
        raise ValueError("uniform grid needs a finite horizon > 0")
    if steps < 1:
        raise ValueError("uniform grid needs steps >= 1")
    pts = np.linspace(0.0, horizon, steps + 1)
    return TimeGrid(pts, kind="uniform", meta={"horizon": float(horizon), "steps": int(steps)})


def geometric_grid(t0: float, theta: float, levels: int) -> TimeGrid:
    """Points t0 * theta^k for k = levels..0, ascending.

    theta must lie in (0, 1).  Points are generated in log space; the
    generator refuses grids that would dip below 1e-300 rather than letting
    times flush to zero, and grids whose Brownian bridge overflows.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("geometric grid needs theta in (0, 1)")
    if not 0.0 < t0 < math.inf:
        raise ValueError("geometric grid needs a finite t0 > 0")
    if levels < 0:
        raise ValueError("geometric grid needs levels >= 0")
    # the smallest point's log, as the array below computes it, before any
    # array is built
    if math.log(t0) + float(levels) * math.log(theta) < math.log(_T_FLOOR):
        raise ValueError(f"geometric grid's smallest time t0 * theta^levels would go "
                         f"below the 1e-300 time floor at {levels} levels")
    ks = np.arange(levels, -1, -1, dtype=float)
    pts = np.exp(math.log(t0) + ks * math.log(theta))
    # the sampler's bridge forms t[k] (t[k+1] - t[k]), largest at the top
    if levels and not math.isfinite(float(pts[-2]) * float(pts[-1] - pts[-2])):
        raise ValueError("geometric grid's bridge product t0 theta * t0 (1 - theta) "
                         "at its top level is not a finite double")
    return TimeGrid(pts, kind="geometric",
                    meta={"t0": float(t0), "theta": float(theta), "levels": int(levels)})


def ergodic_grid(levels: int) -> TimeGrid:
    """Times e^-n for n = 1..levels, the clock of the ergodic diagnostics."""
    if levels < 1:
        raise ValueError("ergodic grid needs at least one level")
    return geometric_grid(t0=math.exp(-1.0), theta=math.exp(-1.0), levels=levels - 1)


@dataclass
class BrownianBundle:
    """A reproducible collection of d-dimensional Brownian paths.

    paths has shape (path_count, dim, len(grid.points)); path i of the
    bundle is the globally indexed path first_path + i for the given seed,
    so chunked generation reproduces exactly the paths of one big call.
    """

    dim: int
    grid: TimeGrid
    paths: np.ndarray
    seed: int
    first_path: int = 0

    @property
    def path_count(self) -> int:
        return self.paths.shape[0]


def bundle_bytes(dim: int, size: int, paths: int) -> int:
    """Bytes of a bundle's float64 values (refine_bisect's is one on its finer grid)."""
    return 8 * paths * dim * size


@dataclass
class ForwardChunk:
    """Paths first_path.. of a BundleSpec on a forward grid, unsampled:
    time_blocks draws them, with the bits sample_bundle gives them."""

    dim: int
    grid: TimeGrid
    path_count: int
    seed: int
    first_path: int = 0


def draw_bytes(dim: int, steps: int, paths: int) -> tuple:
    """(prefix, block) bytes of drawing a ForwardChunk in blocks of steps
    steps: its hash prefix, and _normals' two words a value with, for
    dim > 1, two a step and path before the coordinate joins the hash."""
    return 8 * paths, 8 * steps * paths * (2 * dim + 2 * (dim > 1))


def time_blocks(source, size: int):
    """The path values of a BrownianBundle or ForwardChunk in time-major
    blocks of n <= size steps from the origin: one reused (n + 1, P, d)
    buffer, row 0 the block before's last row (W(0) = 0 first).  A bundle
    copies rows 1..n from its values; a chunk draws them."""
    t = source.grid.points
    start = 0 if t[0] == 0.0 else 1
    n_steps = t.size - 1 + start
    buf = np.zeros((min(size, n_steps) + 1, source.path_count, source.dim))
    drawn = isinstance(source, ForwardChunk)
    if drawn:
        key = _path_key(source.seed, np.uint64(_TAG_FORWARD), np.arange(
            source.first_path, source.first_path + source.path_count, dtype=np.uint64)[:, None])
        steps = np.arange(n_steps, dtype=np.uint64)[:, None, None]
        coords = np.arange(source.dim, dtype=np.uint64)
        sqrt_dt = np.sqrt(np.diff(t, prepend=0.0) if start else np.diff(t))[:, None, None]
    for k0 in range(0, n_steps, size):
        k1 = min(k0 + size, n_steps)
        rows = buf[:k1 - k0 + 1]
        if drawn:
            # the steps' normals, scaled by sqrt(dt) and summed on from row 0
            _normals(key, steps[k0:k1], coords, rows[1:])
            rows[1:] *= sqrt_dt[k0:k1]
            _accumulate(rows)
        else:
            rows[1:] = source.paths[:, :, k0 + 1 - start:k1 + 1 - start].transpose(2, 0, 1)
        yield rows
        buf[0] = rows[-1]


def sample_bundle(dim: int, grid: TimeGrid, path_count: int, seed: int,
                  first_path: int = 0) -> BrownianBundle:
    """Generate Brownian paths on the grid.

    Geometric grids are sampled coarsest-time-first with bridge
    conditioning toward zero, so extending the grid with more levels
    extends existing paths instead of resampling them.  All other grids use
    forward increments.
    """
    if dim < 1 or path_count < 1:
        raise ValueError("need dim >= 1 and path_count >= 1")
    if grid.kind == "geometric":
        pids = np.arange(first_path, first_path + path_count, dtype=np.uint64)
        w = _sample_geometric(dim, grid.points, pids, seed)
    else:
        w = _sample_forward(ForwardChunk(dim, grid, path_count, seed, first_path))
    return BrownianBundle(dim=dim, grid=grid, paths=w, seed=int(seed),
                          first_path=int(first_path))


def _sample_forward(chunk: ForwardChunk):
    """A forward chunk's values, path-major: its time blocks copied in."""
    t = chunk.grid.points
    w = np.zeros((chunk.path_count, chunk.dim, t.size + (t[0] != 0.0)))
    size = max(1, _SAMPLE_VALUES // (chunk.path_count * chunk.dim))
    for k0, rows in zip(range(0, w.shape[2] - 1, size), time_blocks(chunk, size)):
        w[:, :, k0 + 1:k0 + len(rows)] = rows[1:].transpose(1, 2, 0)
    return w if t[0] == 0.0 else w[:, :, 1:]


def _sample_geometric(dim, t, pids, seed):
    # level k corresponds to time t0 * theta^k, i.e. array index n-1-k
    n = t.size
    w = np.empty((pids.size, dim, n))
    levels = np.arange(n - 1, -1, -1, dtype=np.uint64)[:, None, None]
    coords = np.arange(dim, dtype=np.uint64)[None, :, None]
    # bridge from t[idx+1] toward zero: W(t[idx]) = ratio W(t[idx+1]) + std z
    ratio = t[:-1] / t[1:]
    std = np.sqrt(t[:-1] * (t[1:] - t[:-1]) / t[1:])
    rows = _block_rows(dim, n, pids.size)
    for i in range(0, pids.size, rows):
        # every level of a block of paths in one draw, (times, dim, paths)
        # with the paths innermost, then the recurrence coarsest level
        # first, in place along rows of paths, and one copy into the bundle
        blk = w[i:i + rows]
        key = _path_key(seed, np.uint64(_TAG_GEOMETRIC), pids[i:i + rows])
        z = _normals(key, levels, coords)
        z[n - 1] *= math.sqrt(t[n - 1])
        for idx in range(n - 2, -1, -1):
            z[idx] *= std[idx]
            z[idx] += ratio[idx] * z[idx + 1]
        blk[...] = z.transpose(2, 1, 0)
        del z  # the block's scratch goes before the next block's is made
    return w


def refine_bisect(bundle: BrownianBundle) -> BrownianBundle:
    """Insert Brownian-bridge midpoints into every grid interval.

    Values at the original times are reused unchanged, so refined and
    coarse bundles are coupled realizations of the same paths.  Each call
    draws from a fresh bisection stream, making repeated refinement
    deterministic.
    """
    t = bundle.grid.points
    p, dim, _ = bundle.paths.shape
    has_origin = t[0] == 0.0
    t_full = t if has_origin else np.concatenate(([0.0], t))
    depth = int(bundle.grid.meta.get("bisections", 0))
    n_int = t_full.size - 1
    new_t = np.empty(t_full.size + n_int)
    new_t[0::2] = t_full
    new_t[1::2] = 0.5 * (t_full[:-1] + t_full[1:])
    # the coarse values in the even slots (W(0) = 0 in slot 0), the bridge
    # midpoints in the odd ones
    new_w = np.empty((p, dim, new_t.size))
    new_w[:, :, 0] = 0.0
    new_w[:, :, 0 if has_origin else 2::2] = bundle.paths
    pids = np.arange(bundle.first_path, bundle.first_path + p, dtype=np.uint64)
    steps = np.arange(n_int, dtype=np.uint64)[None, None, :]
    coords = np.arange(dim, dtype=np.uint64)[None, :, None]
    mid_std = 0.5 * np.sqrt(np.diff(t_full))
    rows = _block_rows(dim, n_int, p)
    mean = np.empty((rows, dim, n_int))
    for i in range(0, p, rows):
        blk = new_w[i:i + rows]
        mid, m = blk[:, :, 1::2], mean[:len(blk)]
        key = _path_key(bundle.seed, np.uint64(_TAG_BISECT * 1000 + depth),
                        pids[i:i + rows, None, None])
        _normals(key, steps, coords, mid)
        mid *= mid_std
        np.add(blk[:, :, 0:-1:2], blk[:, :, 2::2], out=m)
        m *= 0.5
        mid += m
    if not has_origin:
        new_t, new_w = new_t[1:], new_w[:, :, 1:]
    meta = dict(bundle.grid.meta)
    meta["bisections"] = depth + 1
    grid = TimeGrid(new_t, kind=bundle.grid.kind, meta=meta)
    return BrownianBundle(dim=bundle.dim, grid=grid, paths=new_w, seed=bundle.seed,
                          first_path=bundle.first_path)


def _block_rows(dim: int, size: int, paths: int) -> int:
    """Paths of a row block of the geometric and bisection samplers."""
    return min(paths, max(1, _SAMPLE_VALUES // (dim * size)))


def sample_bytes(dim: int, size: int, paths: int) -> int:
    """Bytes sample_bundle holds on a geometric grid of size times beside
    its bundle of paths paths: _normals' words (draw_bytes) for a row
    block of paths, the second of which then holds the block's values for
    the bridge."""
    return draw_bytes(dim, size, _block_rows(dim, size, paths))[1]


def refine_bytes(dim: int, size: int, paths: int) -> int:
    """Bytes refine_bisect holds beside its input, paths paths on size times
    without the origin: the refined bundle on 2 size times, and a row
    block's midpoint means beside the words sample_bytes counts."""
    rows = _block_rows(dim, size, paths)
    return (bundle_bytes(dim, 2 * size, paths) + bundle_bytes(dim, size, rows)
            + sample_bytes(dim, size, paths))


@dataclass
class BundleSpec:
    """Lazy description of a bundle, realized chunk by chunk.

    Statistical routines accept either a concrete BrownianBundle or a
    BundleSpec; the spec form keeps memory bounded when path counts reach
    1e5 and leaves results bit-identical to a single big realization.
    """

    dim: int
    grid: TimeGrid
    path_count: int
    seed: int
    chunk_size: int = 10_000

    def __post_init__(self):
        for name in ("dim", "path_count", "chunk_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"BundleSpec needs {name} >= 1, got {getattr(self, name)}")

    def chunks(self):
        """Zero-argument realisers, one per chunk in path order: a forward
        grid's chunk unsampled as a ForwardChunk, a geometric grid's
        sampled on whichever thread calls it."""
        make = sample_bundle if self.grid.kind == "geometric" else ForwardChunk
        for first in range(0, self.path_count, self.chunk_size):
            take = min(self.chunk_size, self.path_count - first)
            yield partial(make, self.dim, self.grid, take, self.seed, first)


def as_chunks(source):
    """Chunk realisers of a BrownianBundle (one, returning it) or a BundleSpec."""
    if isinstance(source, BrownianBundle):
        return iter((lambda: source,))
    if isinstance(source, BundleSpec):
        return source.chunks()
    raise TypeError("expected a BrownianBundle or BundleSpec")


def map_chunks_ordered(fn, realisers, workers: int = 1):
    """fn of each chunk, yielding results in chunk order.

    Each task realises its chunk and applies fn to it.  With workers > 1
    the tasks run on a pool of that many threads (the kernels are numpy
    calls over whole blocks that release the GIL), so sampling overlaps
    integration; at most workers+1 chunks are realised and not yet yielded
    at once.  One worker runs the tasks on the calling thread, which saves
    the pool thread's own allocation arena.  The yield order is the
    submission order, so downstream reductions are independent of the
    worker count.
    """
    def task(realise):
        return fn(realise())

    if workers <= 1:
        yield from map(task, realisers)
        return
    from collections import deque
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for realise in realisers:
            if len(pending) > workers:
                yield pending.popleft().result()
            pending.append(pool.submit(task, realise))
        while pending:
            yield pending.popleft().result()
