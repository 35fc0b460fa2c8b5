"""The benchmark's tracer (bench/tracer.py) wraps smalltime functions where
their callers look them up, reading each from its owner's __dict__.  A
source change that renames or moves one of those names breaks only traced
benchmark runs, so the install and its undo are run here as well."""

import sys
from pathlib import Path

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
