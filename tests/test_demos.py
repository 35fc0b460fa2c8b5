"""The demos run to completion (exponential_moments, at about 23 s, is left
out; the lilab tests cover the calls it makes)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import smalltime

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["constrained_pricing", "ergodic_dips",
                                  "hedging_shortfall", "small_time_envelopes"])
def test_demo_runs(tmp_path, name):
    env = dict(os.environ, PYTHONPATH=str(Path(smalltime.__file__).parents[1]))
    done = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")], cwd=tmp_path,
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
