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
