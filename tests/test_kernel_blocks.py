"""The time-blocked left-point kernel against a plain per-step loop, the
row-blocked ergodic pass against one einsum per level, and the row-blocked
samplers against one-shot sampling, byte for byte."""

import hashlib
import math

import numpy as np
import pytest
from scipy.special import ndtri

from smalltime import lilab, paths, stochint
from smalltime.lilab import ergodic_liminf, example36_diag
from smalltime.paths import (BundleSpec, ForwardChunk, TimeGrid, ergodic_grid,
                             geometric_grid, refine_bisect, sample_bundle, uniform_grid)
from smalltime.stochint import (INTEGRAND_CATALOG, IntegrandSpec, VectorSpec,
                                catalog_integrand, drift_integral,
                                integrate_double, integrate_double_martingale)

from contract_host import host_difference


# ------------------------------------------------- the per-step reference

def _ref_apply(mat, vec):
    if mat.ndim == 2:
        if vec.shape[0] == 1:
            return (np.repeat(vec, 2, axis=0) @ mat.T)[:1]
        return vec @ mat.T
    return np.einsum("pij,pj->pi", mat, vec)


def _ref_left_point(bundle, step, n_sums, states=(), keep="trace"):
    """One step at a time: step(t_k, dt, w_k, dw, inc) writes the n_sums
    increments of step k, which join Kahan sums; states are recorded after
    every step."""
    t = bundle.grid.points
    p, d, n_out = bundle.paths.shape
    start = 0 if t[0] == 0.0 else 1
    w = np.empty((start + n_out, p, d))
    w[0] = 0.0
    w[start:] = bundle.paths.transpose(2, 0, 1)
    if start:
        t = np.concatenate(([0.0], t))
    acc, comp, adj, total, inc = (np.zeros((n_sums, p)) for _ in range(5))
    dw = np.empty((p, d))
    series = [np.zeros((p, n_out)) for _ in range({"trace": n_sums, "outer": 1}.get(keep, 0))]
    state_series = [np.zeros((p, n_out) + s.shape[1:]) for s in states] if keep == "trace" else []
    sup = np.full(p, -np.inf) if keep == "last" else None
    for k, (t_k, dt) in enumerate(zip(t, np.diff(t))):
        np.subtract(w[k + 1], w[k], out=dw)
        step(t_k, dt, w[k], dw, inc)
        np.subtract(inc, comp, out=adj)
        np.add(acc, adj, out=total)
        np.subtract(total, acc, out=comp)
        comp -= adj
        acc, total = total, acc
        for rec, value in zip(series, acc):
            rec[:, k + 1 - start] = value
        for rec, value in zip(state_series, states):
            rec[:, k + 1 - start] = value
        if sup is not None:
            np.maximum(sup, acc[0], out=sup)
    return series or [acc[0][:, None]], state_series, sup


def _ref_double(bundle, b, keep):
    p, d = bundle.path_count, bundle.dim
    full = keep == "trace"
    y = np.zeros((p, d))
    qi = np.zeros((p, d))

    def step(t_k, dt, w_k, dw, inc):
        nonlocal y, qi
        mat = b.eval(t_k, w_k)
        np.einsum("pi,pi->p", y, dw, out=inc[0])
        if full:
            np.multiply((y * y).sum(axis=1), dt, out=inc[1])
            qi += (mat * mat).sum(axis=-1) * dt
        y += _ref_apply(mat, dw)

    sums, states, sup = _ref_left_point(bundle, step, 2 if full else 1, (y, qi), keep)
    if full:
        return {"outer": sums[0], "qv_outer": sums[1], "inner": states[0],
                "qv_inner": states[1]}
    out = {"outer": sums[0]}
    if keep == "last":
        out["outer_sup"] = sup
    return out


def _ref_martingale(bundle, b, m):
    p, d = bundle.path_count, bundle.dim
    m0 = m.eval(0.0, np.zeros((1, d)))
    if m0.ndim == 3:
        m0 = m0[0]
    y_x, y_c, y_a = np.zeros((p, d)), np.zeros((p, d)), np.zeros((p, d))
    k = m0.T @ (np.eye(d) if b.matrix is None else b.matrix) @ m0

    def step(t_k, dt, w_k, dw, inc):
        bk = b.eval(t_k, w_k)
        dm = _ref_apply(m.eval(t_k, w_k), dw)
        dm0 = _ref_apply(m0, dw)
        ddev = dm - dm0
        for row, (y, dv) in enumerate(((y_x, dm), (y_c, dw), (y_a, dm0), (y_x, ddev))):
            np.einsum("pi,pi->p", y, dv, out=inc[row])
        # c = m0^T b m0 is b's factor times k, which applies after the factor
        ck = np.reshape(b.factor(t_k, w_k), (-1, 1))
        y_x[...] += _ref_apply(bk, dm)
        y_c[...] += _ref_apply(k, ck * dw)
        y_a[...] += _ref_apply(bk, ddev)

    return _ref_left_point(bundle, step, 4)[0]


def _ref_drift(bundle, a, m):
    ia = np.zeros((bundle.path_count, bundle.dim))

    def step(t_k, dt, w_k, dw, inc):
        np.einsum("pi,pi->p", ia, _ref_apply(m.eval(t_k, w_k), dw), out=inc[0])
        ia[...] += a.eval(t_k)[None, :] * dt

    return _ref_left_point(bundle, step, 1)[0][0]


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ------------------------------------------------------- grids and paths

def _grids(n):
    """Uniform with the origin, uniform without it, geometric, and a
    bisection-refined uniform grid, each with about n steps."""
    uni = uniform_grid(0.05, n)
    return {
        "uniform": uni,
        "no_origin": TimeGrid(uni.points[1:], kind="custom"),
        "geometric": geometric_grid(1e-2, 0.5, n - 1),
        "bisected": uniform_grid(0.05, max(1, n // 2)),
    }


def _bundle(kind, grid, d, p, seed):
    bundle = sample_bundle(d, grid, p, seed=seed)
    return refine_bisect(bundle) if kind == "bisected" else bundle


def _block_steps(p, d):
    return max(1, stochint._BLOCK_VALUES // (p * d))


def _names(d):
    return [n for n in sorted(INTEGRAND_CATALOG) if not (n == "rotation" and d < 2)]


# steps per block is 2^16 // (P d): 21845 at P=1, d=3 and 43 at P=500, d=3;
# the step counts below straddle the block length of the larger cases
CASES = [(p, d, n) for p in (1, 2, 7) for d in (1, 3) for n in (5, 23)]
CASES += [(500, 3, 2 * _block_steps(500, 3) + 3), (500, 2, _block_steps(500, 2) + 1),
          (500, 1, 2 * _block_steps(500, 1) + 5)]


@pytest.fixture(params=[None, 1, 40], ids=["budget-default", "budget-1", "budget-40"])
def block_values(request, monkeypatch):
    """Run with the kernel's block budget, and with budgets small enough
    that even one path is cut into blocks of 1 to 40 steps."""
    if request.param is not None:
        monkeypatch.setattr(stochint, "_BLOCK_VALUES", request.param)


@pytest.mark.parametrize("p,d,n", CASES)
@pytest.mark.parametrize("grid_kind", ["uniform", "no_origin", "geometric", "bisected"])
def test_blocked_double_integral_matches_per_step_loop(p, d, n, grid_kind, block_values):
    grid = _grids(n)[grid_kind]
    bundle = _bundle(grid_kind, grid, d, p, seed=1000 * p + 10 * d + n)
    for name in _names(d):
        spec = catalog_integrand(name, d)
        for keep in ("trace", "outer", "last"):
            ref = _ref_double(bundle, spec, keep)
            got = integrate_double(bundle, spec, keep=keep)
            for field_name, value in ref.items():
                assert _same_bytes(getattr(got, field_name), value), (name, keep, field_name)


@pytest.mark.parametrize("p,d,n", [(1, 2, 9), (7, 2, 23), (7, 3, 5), (500, 2, 70),
                                   (1, 1, 9), (7, 1, 23), (500, 1, _block_steps(500, 1) + 9)])
@pytest.mark.parametrize("grid_kind", ["uniform", "no_origin", "geometric", "bisected"])
def test_blocked_martingale_and_drift_match_per_step_loop(p, d, n, grid_kind,
                                                          block_values):
    grid = _grids(n)[grid_kind]
    bundle = _bundle(grid_kind, grid, d, p, seed=7 * p + d + n)
    m_specs = [catalog_integrand("linear_time", d), catalog_integrand("tanh_w", d),
               IntegrandSpec.constant(np.eye(d) + 0.25 * np.ones((d, d)))]
    for name in ("identity", "rotation", "linear_time", "tanh_w", "clamp_w"):
        if name == "rotation" and d < 2:
            continue
        b = catalog_integrand(name, d)
        for m in m_specs:
            got = integrate_double_martingale(bundle, b, m)
            ref = _ref_martingale(bundle, b, m)
            for field_name, value in zip(("x", "c_piece", "r1", "r2"), ref):
                assert _same_bytes(getattr(got, field_name), value), (name, m.name, field_name)
    rate = np.linspace(0.5, 1.5, d)
    drift_specs = [VectorSpec.constant(np.linspace(-1.0, 1.0, d)),
                   VectorSpec(kind="time", dim=d, time_fn=lambda t: np.cos(t) * rate)]
    for a in drift_specs:
        for m in m_specs:
            assert _same_bytes(drift_integral(bundle, a, m).x, _ref_drift(bundle, a, m))


# ------------------------------------------------------ streamed chunks

def _int64(a):
    return np.ascontiguousarray(a).view(np.int64)


def _streamed_integrands(d):
    """identity, a path functional and a function of time, all of bound 1
    on [0, 0.5] (a time-varying c(t) = cos(t))."""
    cos_t = IntegrandSpec("time", d, "cos_t", scale=math.cos, bound=1.0)
    return [catalog_integrand("identity", d), catalog_integrand("tanh_w", d), cos_t]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("grid_kind", ["uniform", "no_origin"])
def test_drawn_chunk_integrates_to_the_bits_of_its_sampled_bundle(d, grid_kind,
                                                                  block_values):
    """A ForwardChunk drawn block by block inside the kernel gives every
    field of every keep the bits of integrate_double over the bundle
    sample_bundle draws for the same paths."""
    grid = _grids(23)[grid_kind]
    for first, p in ((0, 7), (37, 7), (1000, 500)):
        bundle = sample_bundle(d, grid, p, seed=4300 + d, first_path=first)
        chunk = ForwardChunk(d, grid, p, 4300 + d, first_path=first)
        for b in _streamed_integrands(d):
            for keep in ("trace", "outer", "last"):
                ref = integrate_double(bundle, b, keep=keep)
                got = integrate_double(chunk, b, keep=keep)
                for field_name in ("inner", "outer", "qv_inner", "qv_outer", "times"):
                    assert _same_bytes(getattr(got, field_name),
                                       getattr(ref, field_name)), (b.name, keep, field_name)
                if keep == "last":
                    assert _same_bytes(got.outer_sup, ref.outer_sup), b.name


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("chunk_size", [1, 7, 64, 150])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_streamed_forward_pass_equals_the_kernel_over_sampled_chunks(d, chunk_size,
                                                                     workers):
    """The forward pass of moment and tail-bound draws its chunks inside the
    kernel; V(T) and sup V of every path are the bits of integrate_double
    over sample_bundle's chunk, whatever the chunking and worker count
    (chunks after the first start at a nonzero path)."""
    grid = uniform_grid(0.5, 30)
    n = 150
    spec = BundleSpec(d, grid, n, seed=4400 + d, chunk_size=chunk_size)
    for b in _streamed_integrands(d):
        final, sup = lilab._forward_pass(spec, b, 0.5, workers)
        ref_final, ref_sup = [], []
        for first in range(0, n, chunk_size):
            take = min(chunk_size, n - first)
            trace = integrate_double(sample_bundle(d, grid, take, 4400 + d, first_path=first),
                                     b, keep="last")
            ref_final.append(trace.final_outer())
            ref_sup.append(trace.outer_sup)
        assert np.array_equal(_int64(final), _int64(np.concatenate(ref_final))), b.name
        assert np.array_equal(_int64(sup), _int64(np.concatenate(ref_sup))), b.name


@pytest.mark.parametrize("steps", [1, 7, None], ids=["block-1", "block-7", "block-grid"])
@pytest.mark.parametrize("d", [1, 2])
def test_rate_normalised_sup_is_the_max_of_the_outer_series_over_the_rate(d, steps,
                                                                         monkeypatch):
    """keep="last" with a rate gives, by repr, (outer / rate).max(axis=1) of
    keep="outer", at blocks of 1 and 7 steps and of the whole grid.  Paths
    that hold NaN or +-inf values, and a rate of 0 and a negative rate at
    two times, put NaN and +-inf into the rows."""
    grid = geometric_grid(1e-2, 0.5, 30)
    p = 12
    bundle = sample_bundle(d, grid, p, seed=4500 + d)
    bundle.paths[0, :, 5] = np.nan
    bundle.paths[1, :, 9:] = np.inf
    bundle.paths[2, :, 12] = -np.inf
    rate = lilab.example36_rate_fn(grid.points)
    rate[17], rate[20] = 0.0, -rate[20]
    refs = {}
    for name in ("identity", "example36", "tanh_w"):
        b = catalog_integrand(name, d)
        with np.errstate(divide="ignore", invalid="ignore"):
            refs[name] = integrate_double(bundle, b, keep="outer").outer / rate
        assert np.isnan(refs[name]).any() and np.isposinf(refs[name]).any(), name
        assert np.isneginf(refs[name]).any(), name
    monkeypatch.setattr(stochint, "_BLOCK_VALUES", p * d * (steps or grid.size))
    for name, ref in refs.items():
        with np.errstate(divide="ignore", invalid="ignore"):
            got = integrate_double(bundle, catalog_integrand(name, d), keep="last",
                                   rate=rate).outer_sup
        assert list(map(repr, got)) == list(map(repr, ref.max(axis=1))), name


def test_a_rate_needs_keep_last_and_one_value_a_time():
    bundle = sample_bundle(1, geometric_grid(1e-2, 0.5, 10), 3, seed=4600)
    b = catalog_integrand("identity", 1)
    rate = np.ones(bundle.grid.size)
    for keep, r in (("outer", rate), ("trace", rate), ("last", rate[1:])):
        with pytest.raises(ValueError, match="rate"):
            integrate_double(bundle, b, keep=keep, rate=r)


# ------------------------------------------------- the ergodic statistic

def _ref_ergodic(bundle, mat, delta):
    """(freq_by_n, per_path_min) from one einsum per level, n = 1..levels."""
    levels = bundle.grid.size
    w = bundle.paths
    y = np.empty((bundle.path_count, levels))
    for j in range(levels):
        x = math.exp(0.5 * (j + 1)) * w[:, :, levels - 1 - j]
        y[:, j] = np.abs(np.einsum("pi,ij,pj->p", x, mat, x))
    hits = (y <= delta).astype(float)
    freq = np.cumsum(hits, axis=1) / np.arange(1, levels + 1)[None, :]
    return freq.mean(axis=0), y.min(axis=1)


def _betas(d):
    """I, 2 I, a non-diagonal symmetric and a non-symmetric matrix."""
    rng = np.random.default_rng(100 + d)
    sym = np.eye(d) + 0.3 * np.ones((d, d))
    return {"identity": np.eye(d), "twice": 2.0 * np.eye(d), "symmetric": sym,
            "nonsymmetric": sym + rng.uniform(-0.5, 0.5, (d, d))}


@pytest.mark.parametrize("budget", [None, 1, 97], ids=["budget-default", "budget-1",
                                                       "budget-97"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_blocked_ergodic_statistic_matches_per_level_einsum(d, budget, monkeypatch):
    """More paths than one row block holds at the default budget, and row
    blocks of one path and of a few paths; the paths in one bundle, and in
    uneven chunks whose running frequencies are summed chunk by chunk."""
    bundle = sample_bundle(d, ergodic_grid(30), 1500, seed=4100 + d)
    spec = BundleSpec(d, bundle.grid, 1500, seed=4100 + d, chunk_size=400)
    refs = {name: _ref_ergodic(bundle, beta, 0.5) for name, beta in _betas(d).items()}
    if budget is not None:
        monkeypatch.setattr(lilab, "_ROW_VALUES", budget)
    for name, beta in _betas(d).items():
        freq_by_n, per_path_min = refs[name]
        for source in (bundle, spec):
            rep = ergodic_liminf(source, beta, 0.5)
            assert _same_bytes(rep.freq_by_n, freq_by_n), name
            assert _same_bytes(rep.per_path_min, per_path_min), name
            assert rep.final_freq == float(freq_by_n[-1]), name


@pytest.mark.parametrize("levels", [1, 2, 3, 60])
def test_ergodic_column_sum_has_the_bits_of_the_mean_over_paths(levels):
    """The running frequencies summed chunk by chunk, in chunks of one path
    and in chunks that do not divide the paths, have the bits of the mean
    over a (paths, levels) array: at one level every partial sum is a whole
    number, and at more the mean adds the rows in path order."""
    d, paths, beta = 2, 600, _betas(2)["symmetric"]
    bundle = sample_bundle(d, ergodic_grid(levels), paths, seed=4200 + levels)
    freq_by_n, per_path_min = _ref_ergodic(bundle, beta, 0.5)
    assert 0.0 < freq_by_n[-1] < 1.0
    for chunk in (1, 7, 250):
        spec = BundleSpec(d, bundle.grid, paths, seed=4200 + levels, chunk_size=chunk)
        rep = ergodic_liminf(spec, beta, 0.5)
        assert _same_bytes(rep.freq_by_n, freq_by_n), chunk
        assert _same_bytes(rep.per_path_min, per_path_min), chunk


# --------------------------------------------------------------- sampling

def test_normals_into_row_blocks_equal_the_one_shot_call():
    pids = np.arange(5, 5 + 37, dtype=np.uint64)
    steps = np.arange(11, dtype=np.uint64)[None, None, :]
    coords = np.arange(3, dtype=np.uint64)[None, :, None]
    tag = np.uint64(1)
    whole = paths._normals(paths._path_key(99, tag, pids[:, None, None]), steps, coords)
    out = np.full((37, 3, 12), np.nan)
    for i in range(0, 37, 8):
        j = min(i + 8, 37)
        key = paths._path_key(99, tag, pids[i:j, None, None])
        got = paths._normals(key, steps, coords, out[i:j, :, 1:])
        assert got is out[i:j, :, 1:] or np.shares_memory(got, out)
    assert _same_bytes(np.ascontiguousarray(out[:, :, 1:]), whole)
    assert np.all(np.isnan(out[:, :, 0]))


_MASK = (1 << 64) - 1


def _ref_mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _ref_normal(seed, tag, path, step, coord):
    """One normal of the counter-based generator, from Python integers:
    splitmix64 over (seed, tag, path, step, coord), then the top 53 bits
    as a uniform on (0, 1) through the inverse normal CDF."""
    h = _ref_mix((seed + 0x9E3779B97F4A7C15) & _MASK)
    for word in (tag, path, step, coord):
        h = _ref_mix(h ^ ((word * 0x9E3779B97F4A7C15 + 0x94D049BB133111EB) & _MASK))
    h = _ref_mix((h + 0x9E3779B97F4A7C15) & _MASK)
    return float(ndtri(((h >> 11) + 0.5) * 2.0 ** -53))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_forward_normals_match_the_per_element_hash(d):
    """A forward block, (steps, paths, d) as time_blocks draws it, against
    the hash of each (path, step, coord) on its own."""
    seed, first, p, steps = 31, 5, 6, np.arange(3, 10, dtype=np.uint64)
    key = paths._path_key(seed, np.uint64(paths._TAG_FORWARD),
                          np.arange(first, first + p, dtype=np.uint64)[:, None])
    out = np.full((steps.size + 1, p, d), np.nan)
    got = paths._normals(key, steps[:, None, None], np.arange(d, dtype=np.uint64), out[1:])
    ref = [[[_ref_normal(seed, paths._TAG_FORWARD, first + i, int(k), c) for c in range(d)]
            for i in range(p)] for k in steps]
    assert np.shares_memory(got, out)
    assert _same_bytes(out[1:], np.array(ref))
    assert np.all(np.isnan(out[0]))


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("rows", [1, 7, 12])
def test_geometric_row_blocks_match_the_per_element_hash(d, rows):
    """The geometric sampler's draw of a block of rows paths, (levels, d,
    rows): one path, seven, and every path of the bundle."""
    seed, n, total = 8, 5, 12
    pids = np.arange(100, 100 + total, dtype=np.uint64)[:rows]
    key = paths._path_key(seed, np.uint64(paths._TAG_GEOMETRIC), pids)
    levels = np.arange(n - 1, -1, -1, dtype=np.uint64)[:, None, None]
    got = paths._normals(key, levels, np.arange(d, dtype=np.uint64)[None, :, None])
    ref = [[[_ref_normal(seed, paths._TAG_GEOMETRIC, int(pid), n - 1 - j, c) for pid in pids]
            for c in range(d)] for j in range(n)]
    assert _same_bytes(np.ascontiguousarray(got), np.array(ref))


@pytest.mark.parametrize("shape", [(3, 5), (5, 5), (6, 5), (9, 4, 3), (13, 4, 3),
                                   (40, 1000), (1001, 1000), (1, 7)])
def test_row_running_sums_have_the_bits_of_numpy_accumulate(shape):
    """paths._accumulate on either side of its switch (rows no more than
    values a row, or more), with NaN, +-inf and -0.0 among the rows."""
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape)
    flat = a.reshape(len(a), -1)
    specials = [np.nan, np.inf, -np.inf, -0.0, -np.nan]
    for j, value in enumerate(specials):
        flat[j % len(a), (3 * j) % flat.shape[1]] = value
    flat[:, -1] = -0.0
    got, carry = a.copy(), a[0].copy()
    with np.errstate(invalid="ignore"):
        paths._accumulate(got)
        ref = np.add.accumulate(a, axis=0)
        running = stochint._running(carry, a[1:])
    assert _same_bytes(got, ref)
    assert _same_bytes(running, ref) and _same_bytes(carry, ref[-1])


def _digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


# digests of the paths the one-shot samplers drew before sampling was blocked
BUNDLE_DIGESTS = {
    "forward_500x3x400":
        "893e22fa308c2999a69d94eaf772e61e7daef39c7fcef9c2beb565ce9d015932",
    "forward_no_origin_130x2x257":
        "92d9c7d25b3b3b5a06f8a2fe4a2433f0623cb3b0f2aede846e357b3855a2936e",
    "geometric_40x2x31":
        "47b205690f529651fa9fc965673546a08a8878d62eefcd55a721be2bf0407f24",
    "bisected_20x3x33":
        "c7f64b3adf33542ce535bb435e574a550957340489722db95176e1de2158c95f",
    # more than one row block of the geometric sampler
    "geometric_10000x2x60":
        "1a926cefde5307462832df014735a771a12f6eb622dd8d825588f299bfad41a7",
    # example36's shape: a chunk without the origin, bisected twice
    "geometric_bisected_twice_500x1x95":
        "f1626b7d5362e2eb7dd5cfec4336e7b76b61428e7523e6ea439e096b22b041b3",
}


def _no_origin_grid():
    return TimeGrid(uniform_grid(0.3, 257).points[1:], kind="custom")


DIGEST_CASES = {
    "forward_500x3x400":
        lambda: sample_bundle(3, uniform_grid(0.5, 400), 500, seed=4001),
    "forward_no_origin_130x2x257":
        lambda: sample_bundle(2, _no_origin_grid(), 130, seed=4002, first_path=17),
    "geometric_40x2x31":
        lambda: sample_bundle(2, geometric_grid(1e-2, 0.5, 30), 40, seed=4003),
    "bisected_20x3x33":
        lambda: refine_bisect(sample_bundle(3, uniform_grid(1.0, 16), 20, seed=4004)),
    "geometric_10000x2x60":
        lambda: sample_bundle(2, ergodic_grid(60), 10_000, seed=4005),
    "geometric_bisected_twice_500x1x95":
        lambda: refine_bisect(refine_bisect(sample_bundle(
            1, geometric_grid(1e-2, 0.5, 94), 500, seed=4006, first_path=500))),
}


@pytest.mark.parametrize("case", sorted(BUNDLE_DIGESTS))
def test_sample_bundle_bytes_are_pinned(case):
    assert _digest(DIGEST_CASES[case]().paths) == BUNDLE_DIGESTS[case], host_difference()


def _small_time_bundles():
    """Geometric bundles with and without bisection, and a twice refined
    forward bundle with the origin, as bytes."""
    geo = sample_bundle(2, geometric_grid(1e-2, 0.5, 30), 37, seed=4007, first_path=3)
    short = sample_bundle(1, ergodic_grid(5), 19, seed=4008)
    fwd = sample_bundle(3, uniform_grid(1.0, 16), 23, seed=4009)
    return [b.paths.tobytes() for b in (geo, refine_bisect(geo), short,
                                        refine_bisect(short),
                                        refine_bisect(refine_bisect(fwd)))]


@pytest.mark.parametrize("budget", [1, 40])
def test_geometric_and_bisection_row_blocks_do_not_change_bytes(budget, monkeypatch):
    """Row blocks of one path, and of a few paths (8 paths of 5 levels at
    budget 40), give the bytes of the default block size."""
    default = _small_time_bundles()
    monkeypatch.setattr(paths, "_SAMPLE_VALUES", budget)
    assert _small_time_bundles() == default


def test_example36_diag_is_bit_identical_across_uneven_chunks():
    grid = geometric_grid(1e-2, 0.5, 40)
    whole = example36_diag(BundleSpec(1, grid, 50, seed=4010, chunk_size=50),
                           refinements=2)
    parts = example36_diag(BundleSpec(1, grid, 50, seed=4010, chunk_size=20),
                           refinements=2)
    assert _same_bytes(parts.full.per_path_sup, whole.full.per_path_sup)
    assert _same_bytes(parts.proxy_sup, whole.proxy_sup)
    assert parts.full.summary == whole.full.summary
    assert parts.proxy_summary == whole.proxy_summary
    assert parts.consistency_median == whole.consistency_median
    assert parts.t_min == whole.t_min
