"""Spans and counters around smalltime's layers, installed from outside.

`install` replaces each traced function in the module namespace (or class)
where its callers look it up, and returns a function that puts the
originals back.  Nothing under `src/` is edited.  Spans are kept in memory
as (id, name, start, end, parent, thread) and written out once, when the
run ends.  A span's self time is its duration minus the durations of its
children on the same thread.

Span names are layer names: every function of a layer records under the
layer's span name, so per-layer self times are sums over one name.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from collections import defaultdict
from time import perf_counter

MB = float(1 << 20)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """(id, name) of the innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name: str, fn, args=(), kwargs=None, cause=None):
        """Run fn(*args, **kwargs) inside a span.  `cause` is the parent
        recorded for a span that opens with no span open on its thread
        (a chunk running on a pool thread)."""
        stack = self._stack()
        parent = stack[-1][0] if stack else (cause[0] if cause else None)
        sid = next(self._ids)
        stack.append((sid, name))
        start = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident()))

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    def pool_busy(self) -> float:
        """Summed duration of spans that open a pool thread's stack."""
        thread_of = {s[0]: s[5] for s in self.spans}
        return sum(end - start for _, _, start, end, parent, thread in self.spans
                   if parent is not None and thread_of.get(parent) != thread)

    def self_times(self) -> dict:
        """Summed self time per span name, over all threads."""
        child = defaultdict(float)
        thread_of = {s[0]: s[5] for s in self.spans}
        for sid, _, start, end, parent, thread in self.spans:
            if parent is not None and thread_of.get(parent) == thread:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            out[name] += (end - start) - child[sid]
        return out

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "thread")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counts": dict(self.counts)}, fh)


def _spanned(tracer: Tracer, name: str, fn, after=None):
    """fn wrapped in a span; after(tracer, args, result) records counts."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = tracer.call(name, fn, args, kwargs)
        if after is not None:
            after(tracer, args, out)
        return out
    return wrapper


def _n_intervals(bundle) -> int:
    t = bundle.grid.points
    return t.size - 1 if t[0] == 0.0 else t.size


def _bundle_out(tracer, args, bundle):
    tracer.peak("paths.bundle_bytes", bundle.paths.nbytes)


def _integrated(tracer, args, trace):
    bundle = args[0]
    tracer.add("stochint.path_steps",
               bundle.path_count * bundle.dim * _n_intervals(bundle))
    tracer.peak("stochint.trace_bytes",
                trace.inner.nbytes + trace.outer.nbytes
                + trace.qv_inner.nbytes + trace.qv_outer.nbytes)


def _solved(tracer, args, sol):
    nt1, nx = sol.v.shape
    tracer.add("dpe.node_updates", (nt1 - 1) * nx)


def _written(tracer, args, _):
    tracer.add("cli.bytes_written", os.path.getsize(args[0]))
    if len(args) > 2:
        tracer.add("cli.rows_written", len(args[2]))


def _chunk_mapper(tracer: Tracer, orig, chunk_span: str, chunk_steps: bool):
    """map_chunks_ordered with each chunk's work in a `chunk_span` span and
    each step of the ordered iteration in a paths.map_chunks span; the
    latter's self time is the caller's wait beyond its own sampling."""
    @functools.wraps(orig)
    def wrapper(fn, chunk_iter, workers=1):
        cause = tracer.current()

        def traced_fn(chunk):
            out = tracer.call(chunk_span, fn, (chunk,), cause=cause)
            if chunk_steps:
                tracer.add("hedge.path_steps",
                           chunk.path_count * chunk.dim * _n_intervals(chunk))
            return out

        gen = orig(traced_fn, chunk_iter, workers)
        while True:
            try:
                item = tracer.call("paths.map_chunks", next, (gen,))
            except StopIteration:
                return
            yield item
    return wrapper


def install(tracer: Tracer):
    """Wrap smalltime's layer functions; returns the undo function."""
    from smalltime import cli, dpe, hedge, lilab, matcore, paths, stochint

    undo = []

    def put(owner, key, value):
        if isinstance(owner, dict):
            undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def wrap(owner, key, name, after=None):
        put(owner, key, _spanned(tracer, name, getattr(owner, key), after))

    orig_normals = paths._normals

    def normals(*args):
        z = orig_normals(*args)
        top = tracer.current()
        tracer.add(f"paths.normals@{top[1] if top else '-'}", z.size)
        return z

    put(paths, "_normals", normals)
    for owner in (paths, cli):              # BundleSpec.chunks, the runners
        wrap(owner, "sample_bundle", "paths.sample", _bundle_out)
    wrap(paths, "refine_bisect", "paths.refine", _bundle_out)
    put(lilab, "map_chunks_ordered",
        _chunk_mapper(tracer, lilab.map_chunks_ordered, "lilab.reduce", False))
    put(hedge, "map_chunks_ordered",
        _chunk_mapper(tracer, hedge.map_chunks_ordered, "hedge.simulate", True))
    for owner in (lilab, cli):
        wrap(owner, "integrate_double", "stochint.integrate", _integrated)
    wrap(cli, "drift_integral", "stochint.drift")
    for key in ("moment_dominance", "tail_bound_check", "ratio_sup",
                "ergodic_liminf", "example36_diag"):
        wrap(cli, key, "lilab.reduce")
    wrap(hedge, "simulate_gbm", "market.gbm")
    wrap(dpe, "face_lift", "market.face_lift")
    for owner in (cli, hedge):
        wrap(owner, "solve_dpe", "dpe.solve", _solved)
        wrap(owner, "greeks", "dpe.interp")
        wrap(owner, "simulate_hedge", "hedge.simulate")
    wrap(dpe.DpeSolution, "interp", "dpe.interp",
         lambda tr, a, o: tr.add("dpe.interp_calls", 1))
    wrap(cli, "replication_gap", "hedge.simulate")
    from_dpe = hedge.StrategySpec.__dict__["from_dpe"]
    put(hedge.StrategySpec, "from_dpe",
        classmethod(_spanned(tracer, "hedge.strategy", from_dpe.__func__)))
    wrap(matcore.GammaBand, "clamp", "matcore")
    wrap(lilab, "lil_normalizer", "matcore")
    rate_fn, factor, domain = lilab._RATE_KINDS["h"]
    put(lilab._RATE_KINDS, "h",
        (_spanned(tracer, "matcore", rate_fn), factor, domain))
    wrap(stochint, "operator_norm", "matcore")
    for key in ("write_csv", "write_json"):
        wrap(cli, key, "cli.write", _written)
    wrap(cli, "run", "cli.run")

    def uninstall():
        while undo:
            owner, key, value = undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
    return uninstall


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-round per-layer metrics from a traced run of `rounds` rounds."""
    self_s = tracer.self_times()
    c = tracer.counts

    def per_round(x):
        return x / rounds

    def rate(work, busy):
        return work / busy if busy > 0.0 else 0.0

    sample = self_s["paths.sample"]
    return {
        "paths.sample_s": (per_round(sample), "s"),
        "paths.normals_per_s": (rate(c["paths.normals@paths.sample"], sample), "1/s"),
        "paths.refine_s": (per_round(self_s["paths.refine"]), "s"),
        "paths.chunk_wait_s": (per_round(self_s["paths.map_chunks"]), "s"),
        "paths.bundle_mb": (c["paths.bundle_bytes"] / MB, "MB"),
        "stochint.integrate_s": (per_round(self_s["stochint.integrate"]), "s"),
        "stochint.path_steps_per_s": (
            rate(c["stochint.path_steps"], self_s["stochint.integrate"]), "1/s"),
        "stochint.trace_mb": (c["stochint.trace_bytes"] / MB, "MB"),
        "stochint.drift_s": (per_round(self_s["stochint.drift"]), "s"),
        "lilab.reduce_s": (per_round(self_s["lilab.reduce"]), "s"),
        "market.gbm_s": (per_round(self_s["market.gbm"]), "s"),
        "market.face_lift_s": (per_round(self_s["market.face_lift"]), "s"),
        "dpe.solve_s": (per_round(self_s["dpe.solve"]), "s"),
        "dpe.node_updates_per_s": (
            rate(c["dpe.node_updates"], self_s["dpe.solve"]), "1/s"),
        "dpe.interp_s": (per_round(self_s["dpe.interp"]), "s"),
        "dpe.interp_calls": (per_round(c["dpe.interp_calls"]), "count"),
        "hedge.simulate_s": (per_round(self_s["hedge.simulate"]), "s"),
        "hedge.path_steps_per_s": (
            rate(c["hedge.path_steps"], self_s["hedge.simulate"]), "1/s"),
        "hedge.strategy_s": (per_round(self_s["hedge.strategy"]), "s"),
        "matcore.self_s": (per_round(self_s["matcore"]), "s"),
        "cli.write_s": (per_round(self_s["cli.write"]), "s"),
        "cli.rows_written": (per_round(c["cli.rows_written"]), "count"),
        "cli.bytes_written": (per_round(c["cli.bytes_written"]), "bytes"),
        "cli.self_s": (per_round(self_s["cli.main"] + self_s["cli.run"]), "s"),
        "trace.pool_busy_s": (per_round(tracer.pool_busy()), "s"),
    }
