"""The plans' byte counts, measured.

Each experiment runs under tracemalloc at two small sizes.  The growth of
its peak between them must be at most 1.02 times (allocator noise) and at
least 0.8 times the growth of the largest count its plan passed to
cli._fits_in_memory, so that every count both holds and stays tight.  The
sizes keep the layers' fixed scratch (sampling, kernel and hedge blocks)
well below what grows, so that one stage holds the peak at both sizes.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from smalltime import cli, hedge, stochint
from smalltime.dpe import PdeGrid, solve_dpe
from smalltime.hedge import StrategySpec, simulate_hedge
from smalltime.lilab import moment_dominance
from smalltime.market import MarketParams, call, face_lift, face_lift_bytes
from smalltime.matcore import GammaBand
from smalltime.paths import BundleSpec, bundle_bytes, uniform_grid
from smalltime.stochint import catalog_integrand


def _peak_and_count(tmp_path, monkeypatch, args):
    """(traced peak bytes, largest planned count) of one run."""
    counts = [0]
    fits = cli._fits_in_memory

    def record(key, what, nbytes):
        counts.append(nbytes)
        fits(key, what, nbytes)

    monkeypatch.setattr(cli, "_fits_in_memory", record)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert cli.main(["run", f"--out={tmp_path}"] + args) in (0, 1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, max(counts)


# (experiment and fixed keys, size keys a, size keys b): chunked passes run
# two chunks at each size, budget-chunked passes vary the paths, the DPE
# the nx, and the "d" cases the (d, d) matrices
_CHUNKED = {
    "moment": ("--experiment=moment --d=16 --steps=50",
               "--paths=16000 --chunk=8000", "--paths=32000 --chunk=16000"),
    "tail-bound": ("--experiment=tail-bound --d=8 --steps=50 --integrand=tanh_w",
                   "--paths=20000 --chunk=10000", "--paths=40000 --chunk=20000"),
    "example36": ("--experiment=example36 --levels=40",
                  "--paths=200 --chunk=100", "--paths=800 --chunk=400"),
    # chunks above hedge._BLOCK_VALUES paths: a block is one step, and its
    # scratch grows with the chunk
    "hedge": ("--experiment=hedge --nx=32 --steps=4",
              "--paths=80000 --chunk=40000", "--paths=160000 --chunk=80000"),
    "gap": ("--experiment=gap --nx=32 --steps=4",
            "--paths=80000 --chunk=40000", "--paths=160000 --chunk=80000"),
}
_SIZED = {
    # the small-time passes' per-path results beside chunks of the budget,
    # which divide neither count; an ergodic path keeps 8 bytes, so that
    # its counts are large enough to resolve the growth
    "lil-sup": ("--experiment=lil-sup --d=2", "--paths=8000", "--paths=16000"),
    "ergodic": ("--experiment=ergodic --d=2", "--paths=100000", "--paths=200000"),
    "prop39": ("--experiment=prop39", "--paths=8000", "--paths=16000"),
    # one chunk of every path, below the budget: its sampling or kernel
    "lil-sup-chunk": ("--experiment=lil-sup --d=2", "--paths=800", "--paths=1600"),
    "ergodic-chunk": ("--experiment=ergodic --d=2", "--paths=500", "--paths=1000"),
    "prop39-chunk": ("--experiment=prop39", "--paths=1000", "--paths=2000"),
    "dpe-price": ("--experiment=dpe-price", "--nx=300", "--nx=600"),
    "hedge-nx": ("--experiment=hedge --paths=50 --chunk=50 --steps=20",
                 "--nx=300", "--nx=600"),
    # per-path results, beside small chunks
    "moment-paths": ("--experiment=moment --d=1 --steps=20 --chunk=500",
                     "--paths=50000", "--paths=100000"),
    "tail-bound-paths": ("--experiment=tail-bound --d=1 --steps=20 --chunk=2000",
                         "--paths=200000", "--paths=400000"),
    "example36-paths": ("--experiment=example36 --levels=10 --refinements=0 "
                        "--chunk=1000", "--paths=70000", "--paths=140000"),
    "hedge-paths": ("--experiment=hedge --nx=32 --steps=100 --chunk=500",
                    "--paths=10000", "--paths=20000"),
    "gap-paths": ("--experiment=gap --nx=32 --steps=100 --chunk=500",
                  "--paths=10000", "--paths=20000"),
    # per-path results far beyond the chunks, and the copy of a shortfall
    # that each quantile takes after the pass
    "hedge-results": ("--experiment=hedge --nx=16 --steps=2 --chunk=2000",
                      "--paths=200000", "--paths=400000"),
    "gap-results": ("--experiment=gap --nx=16 --steps=2 --chunk=2000",
                    "--paths=200000", "--paths=400000"),
    # chunks and results of one size, the moment's statistic formed after
    # the pass
    "moment-after": ("--experiment=moment --d=2 --steps=50",
                     "--paths=80000 --chunk=40000", "--paths=160000 --chunk=80000"),
    # growth in d: a path functional's pass (path values only; it holds no
    # (d, d) matrix) and beta I's matrices
    "tail-bound-d": ("--experiment=tail-bound --integrand=tanh_w --paths=20 "
                     "--chunk=20 --steps=20", "--d=50", "--d=100"),
    "ergodic-d": ("--experiment=ergodic --paths=1", "--d=100", "--d=200"),
}
_CASES = ([pytest.param(*case, workers, id=f"{name}-workers-{workers}")
           for name, case in _CHUNKED.items() for workers in (1, 2)]
          + [pytest.param(*case, 1, id=name) for name, case in _SIZED.items()])


def _together(workers, fn):
    """fn, made to wait after each call on a pool thread until workers such
    calls have met."""
    barrier = threading.Barrier(workers, timeout=60)

    def call(*args, **kwargs):
        out = fn(*args, **kwargs)
        if threading.current_thread() is not threading.main_thread():
            barrier.wait()
        return out

    return call


@pytest.fixture(scope="module")
def warmed():
    """Experiments run once already, whose one-time allocations (caches,
    lazy imports) are behind them."""
    return set()


@pytest.mark.parametrize("fixed,size_a,size_b,workers", _CASES)
def test_peak_growth_matches_the_planned_count(tmp_path, monkeypatch, warmed,
                                               fixed, size_a, size_b, workers):
    """A count holds the chunks in work at their largest together.  With two
    workers on the pool each run has two chunks, made to meet where each
    holds the most, so that they do so together at every size, not by the
    luck of the threads: a chunk at the end of each running sum.  A moment
    or tail-bound chunk then holds the kernel's block buffers with the
    scaled dW and the running sum of Y; a hedge or gap chunk its block of
    prices with the step's arrays and the running sum of Y or the
    wealths."""
    experiment = fixed.split()[0].split("=")[1]
    if workers > 1:
        owner = hedge if experiment in ("hedge", "gap") else stochint
        monkeypatch.setattr(owner, "_running", _together(workers, owner._running))

    def measure(size):
        args = fixed.split() + size.split() + [f"--workers={workers}"]
        return _peak_and_count(tmp_path, monkeypatch, args)

    if experiment not in warmed:
        measure(size_a)
        warmed.add(experiment)
    (peak_a, count_a), (peak_b, count_b) = measure(size_a), measure(size_b)
    assert count_b > count_a
    ratio = (peak_b - peak_a) / (count_b - count_a)
    assert 0.8 <= ratio <= 1.02, (ratio, peak_a, peak_b, count_a, count_b)


def test_bs_price_counts_and_holds_nothing_sized(tmp_path, monkeypatch):
    """bs-price prices one spot: its plan makes no count and its run holds
    well under a megabyte."""
    peak, count = _peak_and_count(tmp_path, monkeypatch,
                                  ["--experiment=bs-price"])
    assert count == 0 and peak < 2 ** 20


def test_constant_integrand_counts_the_copy_operator_norm_takes(tmp_path, monkeypatch):
    """The rotation holds its (d, d) matrix while operator_norm's SVD works
    on a second copy, which LAPACK allocates outside tracemalloc's sight:
    the traced growth matches the count less that copy."""
    args = "--experiment=moment --integrand=rotation --paths=1 --chunk=1 --steps=1".split()
    _peak_and_count(tmp_path, monkeypatch, args + ["--d=300"])
    (peak_a, count_a), (peak_b, count_b) = (
        _peak_and_count(tmp_path, monkeypatch, args + [f"--d={d}"]) for d in (300, 600))
    lapack = 8 * (600 ** 2 - 300 ** 2)
    ratio = (peak_b - peak_a) / (count_b - count_a - lapack)
    assert 0.8 <= ratio <= 1.02, (ratio, peak_a, peak_b, count_a, count_b)


def test_a_moment_chunk_draws_its_paths_without_a_bundle():
    """A moment chunk draws its paths block by block inside the kernel, so
    four times the steps leave its peak where it was, far below the bundle
    of 2000 paths x 2 x 401 times (12.8 MB) it would otherwise hold."""
    b = catalog_integrand("identity", 2)

    def peak(steps):
        spec = BundleSpec(2, uniform_grid(0.5, steps), 2000, seed=11, chunk_size=2000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            moment_dominance(spec, b, 0.5, 0.5)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    peak(100)
    growth = peak(400) - peak(100)
    assert growth < bundle_bytes(2, 401, 2000) / 20, growth


def test_a_hedge_chunk_draws_its_paths_without_a_bundle():
    """A hedge chunk draws its paths and forms their prices block by block,
    so four times the steps leave its peak where it was, far below the
    bundle of 2000 paths x 2001 times (32 MB) it would otherwise hold."""
    params = MarketParams(sigma=0.2, horizon=1.0)
    band = GammaBand(-0.5, 0.5)
    sol = solve_dpe(call(100.0), band, params, PdeGrid.around_spot(100.0, params, nx=32))
    strategy = StrategySpec.from_dpe(sol)

    def peak(steps):
        spec = BundleSpec(1, uniform_grid(1.0, steps), 2000, seed=12, chunk_size=2000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            simulate_hedge(spec, 100.0, 10.0, strategy, call(100.0), band, params)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    peak(500)
    growth = peak(2000) - peak(500)
    assert growth < bundle_bytes(1, 2001, 2000) / 20, growth


def test_face_lift_counts_its_extended_grid():
    """The face lift's peak grows with its extended grid, ceil(3 ln 10 / dx)
    nodes a side, as face_lift_bytes counts it: 1000 and 10 000 nodes over
    the same span of log prices."""
    band = GammaBand.upper_only(0.5)

    def measure(nodes):
        s = np.exp(np.linspace(np.log(50.0), np.log(200.0), nodes))
        dx = (np.log(200.0) - np.log(50.0)) / (nodes - 1)
        face_lift(call(100.0), band, s)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            face_lift(call(100.0), band, s)
            return tracemalloc.get_traced_memory()[1] - base, face_lift_bytes(band, nodes, dx)
        finally:
            tracemalloc.stop()

    (peak_a, count_a), (peak_b, count_b) = measure(1000), measure(10000)
    ratio = (peak_b - peak_a) / (count_b - count_a)
    assert 0.8 <= ratio <= 1.02, (ratio, peak_a, peak_b, count_a, count_b)
