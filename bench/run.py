"""Benchmark of smalltime: three workloads run through `smalltime run`.

    python3 bench/run.py --workload forward --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Workloads (see workloads.py and the README): `forward`, `small-time`,
`hedge`.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the metrics
are the end-to-end ones (run_s, setup_s, peak_rss_mb, path_steps_per_s);
with --trace 1 they are the per-layer ones from a traced run, plus the
per-module line counts.

Each run works in bench/out/<workload>/: configs, artifacts and, when
traced, trace.json with every span.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from workloads import WORKLOADS, config_text, slots  # noqa: E402

BUDGET_S = 170.0        # a run must end within 180 s
SETUP_PROBES = 5        # fresh interpreters timed per run
PROBE = ("import sys\nimport smalltime\nfrom smalltime.cli import load_config\n"
         "for path in sys.argv[1:]:\n    load_config(path, [])\n"
         "print('ready', flush=True)\n")
MODULES = {"matcore": ["matcore"], "paths": ["paths"], "stochint": ["stochint"],
           "lilab": ["lilab"], "market": ["market"], "dpe": ["dpe"],
           "hedge": ["hedge"], "cli": ["cli", "reports"]}


class BenchError(RuntimeError):
    pass


def probe_setup(cfgs, env, deadline) -> float:
    """Seconds from launching a fresh interpreter until `import smalltime`
    and loading the workload's configs are done, scaled to the nominal host
    speed by reference times taken just before and just after."""
    refs = [hostspeed.reference()]
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE, *map(str, cfgs)],
                            env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        elapsed = perf_counter() - start
        rc = proc.wait(timeout=max(1.0, deadline - monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line != "ready" or rc != 0:
        raise BenchError(f"setup probe failed (exit {rc})")
    refs.append(hostspeed.reference())
    return hostspeed.scaled(elapsed, refs)


def line_counts() -> dict:
    out = {}
    for layer, files in MODULES.items():
        n = sum(len((SRC / "smalltime" / f"{f}.py").read_text().splitlines())
                for f in files)
        out[f"{layer}.loc"] = {"value": n, "unit": "lines"}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink path counts (the benchmark's own test)")
    args = ap.parse_args()
    deadline = monotonic() + BUDGET_S
    if not (SRC / "smalltime" / "cli.py").is_file():
        print(f"bench: no smalltime sources under {SRC}", file=sys.stderr)
        return 2

    run_dir = HERE / "out" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "cfg").mkdir(parents=True)
    cfgs = []
    for name, experiment, params in slots(args.workload, args.seed, args.scale):
        cfg = run_dir / "cfg" / f"{name}.cfg"
        cfg.write_text(config_text(experiment, {
            **params, "out": run_dir / "art" / name}))
        cfgs.append(cfg)
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

    try:
        metrics = {}
        if not args.trace:
            probes = [probe_setup(cfgs, env, deadline) for _ in range(SETUP_PROBES)]
            metrics["setup_s"] = {"value": median(probes), "unit": "s"}
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--dir", str(run_dir),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scale", str(args.scale)],
            env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - monotonic()))
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    lines = worker.stdout.strip().splitlines()
    if worker.returncode != 0 or not lines:
        print(f"bench: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    metrics.update(result["metrics"])
    if args.trace:
        metrics.update(line_counts())
    print(json.dumps({"rounds": result["rounds"]}), file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
