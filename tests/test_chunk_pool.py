"""Chunks are realised inside the pool tasks: bounded in number, yielded in
order, and giving the same bits whatever the worker count."""

import dataclasses
import math
import threading
import time

import numpy as np
import pytest

from smalltime import paths
from smalltime.dpe import PdeGrid, solve_dpe
from smalltime.hedge import StrategySpec, simulate_hedge
from smalltime.lilab import example36_diag, moment_dominance, tail_bound_check
from smalltime.market import MarketParams, call
from smalltime.matcore import GammaBand
from smalltime.paths import (BundleSpec, geometric_grid, map_chunks_ordered,
                             refine_bisect, sample_bundle, uniform_grid)
from smalltime.stochint import catalog_integrand


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pool_realises_at_most_workers_plus_one_chunks(workers):
    lock = threading.Lock()
    live, peak, threads = [0], [0], set()

    def realiser(i):
        def realise():
            with lock:
                live[0] += 1
                peak[0] = max(peak[0], live[0])
                threads.add(threading.get_ident())
            return i
        return realise

    def fn(i):
        time.sleep(0.001 * (i % 3))
        return i

    out = []
    for i in map_chunks_ordered(fn, (realiser(i) for i in range(24)), workers):
        time.sleep(0.002)  # a slow consumer lets the pool run ahead
        with lock:
            live[0] -= 1
        out.append(i)
    assert out == list(range(24))
    assert 1 <= peak[0] <= workers + 1
    # chunks are sampled inside the tasks: on the pool threads, or on the
    # calling thread when there is one worker
    assert (threading.get_ident() in threads) == (workers == 1)


def _fields(report):
    out = []
    for f in dataclasses.fields(report):
        value = getattr(report, f.name)
        out.append(value.tobytes() if isinstance(value, np.ndarray) else repr(value))
    return out


def test_reductions_are_bit_identical_across_workers_with_pool_sampling():
    spec = BundleSpec(3, uniform_grid(0.5, 60), 700, seed=31, chunk_size=150)
    tail_spec = BundleSpec(2, uniform_grid(0.1, 60), 700, seed=32, chunk_size=150)
    params = MarketParams(sigma=0.2, horizon=1.0)
    band = GammaBand(-0.5, 0.5)
    sol = solve_dpe(call(100.0), band, params, PdeGrid.around_spot(100.0, params, nx=120))
    strat = StrategySpec.from_dpe(sol)
    hedge_spec = BundleSpec(1, uniform_grid(1.0, 80), 700, seed=33, chunk_size=150)
    runs = []
    for workers in (1, 2, 3):
        runs.append([
            _fields(moment_dominance(spec, catalog_integrand("identity", 3), 0.2, 0.5,
                                     workers=workers)),
            _fields(tail_bound_check(tail_spec, catalog_integrand("tanh_w", 2), 0.1,
                                     [0.5, 1.0, 2.0], workers=workers)),
            _fields(simulate_hedge(hedge_spec, 100.0, 11.0, strat, call(100.0), band,
                                   params, workers=workers)),
        ])
    assert runs[1] == runs[0] and runs[2] == runs[0]


def _hedge_on(spec, s0=100.0):
    params = MarketParams(sigma=0.2, horizon=1.0)
    return simulate_hedge(spec, s0, 10.0, StrategySpec.constant(0.5), call(100.0),
                          GammaBand(-0.5, 0.5), params)


_ONE_D = BundleSpec(1, uniform_grid(0.5, 20), 40, seed=35, chunk_size=10)
_SHORT = BundleSpec(1, uniform_grid(0.4, 20), 40, seed=35, chunk_size=10)
_IDENTITY = catalog_integrand("identity", 1)
_REJECTED = {
    "moment_2_lam_T_is_1": lambda: moment_dominance(_ONE_D, _IDENTITY, 1.0, 0.5),
    "moment_grid_short_of_horizon": lambda: moment_dominance(_SHORT, _IDENTITY, 0.5, 0.5),
    "tail_grid_short_of_horizon": lambda: tail_bound_check(_SHORT, _IDENTITY, 0.5, [1.0]),
    "tail_nan_horizon": lambda: tail_bound_check(_ONE_D, _IDENTITY, math.nan, [1.0]),
    "tail_unknown_rule": lambda: tail_bound_check(_ONE_D, _IDENTITY, 0.5, [1.0],
                                                  rule="bogus"),
    "hedge_two_dimensional": lambda: _hedge_on(
        BundleSpec(2, uniform_grid(1.0, 20), 40, seed=36, chunk_size=10)),
    "hedge_nan_spot": lambda: _hedge_on(
        BundleSpec(1, uniform_grid(1.0, 20), 40, seed=36, chunk_size=10), math.nan),
    "hedge_no_paths": lambda: _hedge_on(
        BundleSpec(1, uniform_grid(1.0, 20), 0, seed=36, chunk_size=10)),
    "spec_no_paths": lambda: moment_dominance(
        BundleSpec(1, _ONE_D.grid, 0, seed=35, chunk_size=1), _IDENTITY, 0.5, 0.5),
    "spec_zero_dim": lambda: moment_dominance(
        BundleSpec(0, _ONE_D.grid, 40, seed=35, chunk_size=10), _IDENTITY, 0.5, 0.5),
    "spec_zero_chunk": lambda: moment_dominance(
        BundleSpec(1, _ONE_D.grid, 40, seed=35, chunk_size=0), _IDENTITY, 0.5, 0.5),
    "spec_negative_chunk": lambda: moment_dominance(
        BundleSpec(1, _ONE_D.grid, 40, seed=35, chunk_size=-3), _IDENTITY, 0.5, 0.5),
    "example36_above_e_minus_e": lambda: example36_diag(
        BundleSpec(1, geometric_grid(0.1, 0.5, 10), 40, seed=37, chunk_size=10)),
    "example36_custom_grid": lambda: example36_diag(
        BundleSpec(1, paths.TimeGrid(np.array([1e-3, 2e-3, 4e-3])), 40, seed=37,
                   chunk_size=10)),
}


@pytest.mark.parametrize("case", sorted(_REJECTED))
def test_source_checks_happen_before_any_sampling(monkeypatch, case):
    # every sampler draws through paths._normals, a whole bundle's chunk or
    # a streamed chunk's block of steps at a time
    sampled = []
    orig = paths._normals

    def counting(*args):
        sampled.append(args)
        return orig(*args)

    monkeypatch.setattr(paths, "_normals", counting)
    with pytest.raises(ValueError):
        _REJECTED[case]()
    assert sampled == []
    moment_dominance(_ONE_D, _IDENTITY, 0.5, 0.5)
    # the counter sees every chunk of a valid run: a chunk of 10 paths
    # takes its 20 steps in one block, so one draw
    assert len(sampled) == 4


def test_a_positional_normals_wrapper_sees_every_draw(monkeypatch):
    # instrumentation wraps paths._normals(*args) and must keep seeing
    # forward, geometric and bisection sampling
    orig = paths._normals
    drawn = []

    def counting(*args):
        z = orig(*args)
        drawn.append(z.size)
        return z

    monkeypatch.setattr(paths, "_normals", counting)
    p, d = 300, 2
    fwd = sample_bundle(d, uniform_grid(1.0, 250), p, seed=1)
    assert sum(drawn) == p * d * 250
    drawn.clear()
    geo = sample_bundle(d, geometric_grid(1e-2, 0.5, 30), p, seed=2)
    assert sum(drawn) == p * d * 31
    drawn.clear()
    refine_bisect(geo)
    assert sum(drawn) == p * d * 31
    # a d = 3 chunk drawn block by block: one draw a block of steps
    drawn.clear()
    chunk = paths.ForwardChunk(3, uniform_grid(1.0, 250), p, seed=3)
    blocks = [rows.copy() for rows in paths.time_blocks(chunk, 60)]
    assert drawn == [p * 3 * (len(rows) - 1) for rows in blocks]
    assert sum(drawn) == p * 3 * 250 and len(drawn) == 5
    monkeypatch.setattr(paths, "_normals", orig)
    assert np.array_equal(np.concatenate([rows[1:] for rows in blocks]).transpose(1, 2, 0),
                          sample_bundle(3, uniform_grid(1.0, 250), p, seed=3).paths[:, :, 1:])
    assert np.array_equal(sample_bundle(d, uniform_grid(1.0, 250), p, seed=1).paths,
                          fwd.paths)
