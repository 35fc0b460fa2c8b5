"""The benchmark's own test, at a reduced size.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

Covers: every workload runs with zero failures, traced and untraced, and
reports run_s from its host-speed-scaled rounds; the forward workload's
artifacts are byte-identical at --workers=1 and 2; the traced run leaves
the artifacts byte-identical and reports each layer on the workloads where
it runs; the checks reject tampered artifacts; and the benchmark refuses
to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, config_text, slots  # noqa: E402

from smalltime.cli import main as smalltime_main  # noqa: E402

SCALE = 0.05
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# layers whose self time must be nonzero on each workload
RUNS_ON = {
    "forward": ["paths.sample_s", "paths.chunk_wait_s", "stochint.integrate_s",
                "lilab.reduce_s"],
    "small-time": ["paths.sample_s", "paths.refine_s", "stochint.integrate_s",
                   "stochint.drift_s", "lilab.reduce_s", "matcore.self_s",
                   "cli.write_s"],
    "hedge": ["paths.sample_s", "market.gbm_s", "market.face_lift_s",
              "dpe.solve_s", "dpe.interp_s", "hedge.simulate_s",
              "hedge.strategy_s", "matcore.self_s", "cli.write_s"],
}
IDLE_ON = {
    "forward": ["dpe.solve_s", "hedge.simulate_s", "paths.refine_s"],
    "small-time": ["dpe.solve_s", "hedge.simulate_s", "paths.chunk_wait_s"],
    "hedge": ["stochint.integrate_s", "lilab.reduce_s", "paths.refine_s"],
}


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def _run_slots(workload, out_root, overrides=None):
    """Run a workload's invocations in this process; artifacts by slot."""
    ctx, errors, arts = {}, [], {}
    for name, exp, params in slots(workload, 7, SCALE):
        params = {**params, **(overrides or {})}
        out = out_root / name
        cfg = out_root / f"{name}.cfg"
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text(config_text(exp, {**params, "out": out}))
        assert smalltime_main(["run", "--config", str(cfg)]) == 0, name
        errors += checks.check(exp, params, out, ctx)
        arts[name] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    return arts, errors


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_without_failures(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", trace, "--scale", str(SCALE))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= len(WORKLOADS[workload])
    key = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        # run_s is the median round at the nominal host speed
        line = [ln for ln in proc.stderr.splitlines() if ln.startswith('{"rounds"')]
        plain = json.loads(line[0])["rounds"]["plain"]
        assert result["metrics"]["run_s"]["value"] == median(
            hostspeed.scaled(wall, refs) for wall, refs in plain)


def test_forward_artifacts_identical_across_workers(tmp_path):
    one, errors = _run_slots("forward", tmp_path / "w1", {"workers": 1})
    assert not errors
    two, errors = _run_slots("forward", tmp_path / "w2", {"workers": 2})
    assert not errors
    assert one == two


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_leaves_artifacts_identical(workload, tmp_path):
    plain, errors = _run_slots(workload, tmp_path / "plain")
    assert not errors
    tr = tracer.Tracer()
    uninstall = tracer.install(tr)
    try:
        traced, errors = _run_slots(workload, tmp_path / "traced")
    finally:
        uninstall()
    assert not errors
    assert plain == traced
    layers = tracer.layer_metrics(tr, 1)
    assert all(layers[m][0] > 0 for m in RUNS_ON[workload]), layers
    assert all(layers[m][0] == 0 for m in IDLE_ON[workload]), layers


def test_uninstall_restores_every_function():
    from smalltime import cli, dpe, hedge, lilab, paths
    before = (cli.run, paths._normals, lilab.map_chunks_ordered,
              dpe.DpeSolution.interp, hedge.StrategySpec.from_dpe,
              lilab._RATE_KINDS["h"])
    tracer.install(tracer.Tracer())()
    after = (cli.run, paths._normals, lilab.map_chunks_ordered,
             dpe.DpeSolution.interp, hedge.StrategySpec.from_dpe,
             lilab._RATE_KINDS["h"])
    assert before == after


def test_checks_reject_tampered_artifacts(tmp_path):
    _run_slots("hedge", tmp_path)
    summary = tmp_path / "dpe-free" / "summary.json"
    data = json.loads(summary.read_text())
    data["results"]["price"] *= 1.01
    summary.write_text(json.dumps(data))
    exp, params = slots("hedge", 7, SCALE)[0][1:]
    assert checks.check(exp, params, tmp_path / "dpe-free", {})
    rows = (tmp_path / "hedge" / "shortfall.csv").read_text().splitlines()
    rows[1] = rows[1].rsplit(",", 1)[0] + ",-1.0"
    (tmp_path / "hedge" / "shortfall.csv").write_text("\n".join(rows) + "\n")
    exp, params = slots("hedge", 7, SCALE)[2][1:]
    assert checks.check(exp, params, tmp_path / "hedge", {"banded_price": 1.0})


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "forward", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
