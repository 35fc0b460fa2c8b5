"""The benchmark's tracer (bench/tracer.py) wraps smalltime functions where
their callers look them up, reading each from its owner's __dict__.  A
source change that renames or moves one of those names breaks only traced
benchmark runs, so the install and its undo are run here as well."""

import sys
import threading
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

import tracer  # noqa: E402
from smalltime import cli  # noqa: E402


def test_tracer_installs_every_wrap_point_and_restores_them():
    run = cli.run
    undo = tracer.install(tracer.Tracer())
    try:
        assert cli.run is not run
    finally:
        undo()
    assert cli.run is run


def test_a_traced_hedge_run_times_its_layers_and_leaves_its_artifacts(tmp_path):
    """The hedge wrap points stay in use: a traced run writes the untraced
    run's bytes, and its market.gbm and hedge.simulate spans take time."""
    argv = ["run", "--experiment=hedge", "--nx=32", "--paths=20", "--steps=20",
            "--chunk=7", f"--out={tmp_path}"]

    def artifacts():
        return {f.name: f.read_bytes() for f in sorted(tmp_path.iterdir())}

    assert cli.main(argv) in (0, 1)
    untraced = artifacts()
    trace = tracer.Tracer()
    undo = tracer.install(trace)
    try:
        assert cli.main(argv) in (0, 1)
    finally:
        undo()
    assert artifacts() == untraced
    self_s = trace.self_times()
    assert self_s["market.gbm"] > 0.0 and self_s["hedge.simulate"] > 0.0


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("experiment,args", [
    ("moment", ["--d=2"]),
    ("tail-bound", ["--d=2", "--integrand=tanh_w"]),
])
def test_traced_forward_runs_time_their_layers_and_leave_their_artifacts(tmp_path, experiment,
                                                                         args, workers):
    """The forward wrap points stay in use: a traced moment or tail-bound
    run of three chunks writes the untraced run's bytes and its
    stochint.integrate and lilab.reduce spans take time.  Each chunk is
    integrated in one lilab.reduce span, on the calling thread at one
    worker and on the pool's threads at two."""
    argv = ["run", f"--experiment={experiment}", "--paths=21", "--chunk=7", "--steps=20",
            f"--workers={workers}", f"--out={tmp_path}", *args]

    def artifacts():
        return {f.name: f.read_bytes() for f in sorted(tmp_path.iterdir())}

    assert cli.main(argv) in (0, 1)
    untraced = artifacts()
    trace = tracer.Tracer()
    undo = tracer.install(trace)
    try:
        assert cli.main(argv) in (0, 1)
    finally:
        undo()
    assert artifacts() == untraced
    self_s = trace.self_times()
    assert self_s["stochint.integrate"] > 0.0 and self_s["lilab.reduce"] > 0.0
    caller = threading.get_ident()
    off = [s[1] for s in trace.spans if s[5] != caller]
    if workers == 1:
        assert off == []
    else:
        assert sorted(off) == ["lilab.reduce"] * 3 + ["stochint.integrate"] * 3, off


# (args, spans that must take time) of a tiny run of each small-time
# experiment on 21 times, in three chunks of 7 paths (example36's
# configured chunk, the others' budget of lilab._CHUNK_VALUES path values)
_SMALL_TIME = {
    "example36": (["--levels=20", "--chunk=7", "--refinements=2"],
                  {"paths.sample", "paths.refine", "stochint.integrate", "lilab.reduce"}),
    "lil-sup": (["--levels=20"], {"paths.sample", "stochint.integrate", "lilab.reduce"}),
    "ergodic": (["--levels=21"], {"paths.sample", "lilab.reduce"}),
    "prop39": (["--levels=20", "--window=5"], {"paths.sample", "stochint.drift"}),
}


def test_traced_small_time_runs_time_their_layers_and_leave_their_artifacts(tmp_path,
                                                                             monkeypatch):
    """The small-time wrap points stay in use: a traced run of each of the
    four experiments writes the untraced run's bytes, its spans take time,
    and its chunks are sampled one by one on the calling thread, one
    paths.sample span a chunk, with no paths.map_chunks wait."""
    from smalltime import lilab

    monkeypatch.setattr(lilab, "_CHUNK_VALUES", 7 * 21)
    caller = threading.get_ident()
    for experiment, (args, spans) in _SMALL_TIME.items():
        out = tmp_path / experiment
        argv = ["run", f"--experiment={experiment}", "--paths=21", f"--out={out}", *args]

        def artifacts():
            return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

        assert cli.main(argv) in (0, 1)
        untraced = artifacts()
        trace = tracer.Tracer()
        undo = tracer.install(trace)
        try:
            assert cli.main(argv) in (0, 1)
        finally:
            undo()
        assert artifacts() == untraced, experiment
        self_s = trace.self_times()
        assert all(self_s[name] > 0.0 for name in spans), (experiment, dict(self_s))
        names = [s[1] for s in trace.spans]
        assert "paths.map_chunks" not in names, experiment
        assert names.count("paths.sample") == 3, experiment
        assert {s[5] for s in trace.spans} == {caller}, experiment
