"""One benchmark run of one workload, in its own fresh process.

Started by run.py with PYTHONPATH pointing at the checkout's `src/`.  It
runs one warm-up round outside the timed section, then whole rounds of the
workload's `smalltime run` invocations until --seconds have passed, checks
that every round wrote byte-identical artifacts, runs the independent
checks on them, and prints one JSON line.

Before each invocation it times the host-speed reference kernel; a round's
time is the sum of its invocations' wall times, scaled to the nominal host
speed by the reference times of that round (see hostspeed.py).

With --trace 1 the rounds alternate between untraced and traced, so the
tracing overhead is measured against rounds in the same drift phase, and
the traced rounds must leave the artifacts byte-identical too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

import checks
import hostspeed
import tracer
from workloads import path_steps, slots

from smalltime.cli import main as smalltime_main


def invoke(argv) -> int:
    """One `smalltime run`; a traceback counts as a failed invocation."""
    try:
        return smalltime_main(argv)
    except Exception:   # the run must go on to count the failure
        traceback.print_exc()
        return 1


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(out.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


class Run:
    def __init__(self, run_dir: Path, workload: str, seed: int, scale: float):
        self.jobs = [(name, exp, p, run_dir / "cfg" / f"{name}.cfg",
                      run_dir / "art" / name)
                     for name, exp, p in slots(workload, seed, scale)]
        self.bad = set()        # slots that failed in any round
        self.errors = {}        # message -> None, in order of first sight
        self.correct = True     # no failed check, no artifact drift
        self.digests = None

    def round(self, trace=None) -> tuple:
        """Run every invocation once; return the round's wall time, summed
        over the invocations, and the reference times taken before each."""
        rcs, refs, wall = [], [], 0.0
        for _, _, _, cfg, _ in self.jobs:
            argv = ["run", "--config", str(cfg)]
            refs.append(hostspeed.reference())
            start = perf_counter()
            rcs.append(trace.call("cli.main", invoke, (argv,)) if trace
                       else invoke(argv))
            wall += perf_counter() - start
        digests = [digest(out) for *_, out in self.jobs]
        if self.digests is None:
            self.digests = digests
        for (name, *_), rc, d, ref in zip(self.jobs, rcs, digests, self.digests):
            if rc != 0:
                self.bad.add(name)
                self.errors[f"{name}: exit status {rc}"] = None
            if d != ref:
                self.bad.add(name)
                self.correct = False
                self.errors[f"{name}: artifacts differ between rounds"] = None
        return wall, refs

    def check(self) -> None:
        ctx = {}
        for name, exp, p, _, out in self.jobs:
            errs = checks.check(exp, p, out, ctx)
            if errs:
                self.bad.add(name)
                self.correct = False
                self.errors.update((f"{name}: {e}", None) for e in errs)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dir", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args()
    run_dir = Path(args.dir)
    run = Run(run_dir, args.workload, args.seed, args.scale)

    run.round()                                   # warm-up, not timed
    plain, traced = [], []                        # (wall_s, [ref_s, ...])
    tr = tracer.Tracer()
    start = perf_counter()
    while not plain or perf_counter() - start < args.seconds:
        plain.append(run.round())
        if args.trace:
            uninstall = tracer.install(tr)
            try:
                traced.append(run.round(tr))
            finally:
                uninstall()
    run.check()

    n_rounds = len(plain) + len(traced)
    if args.trace:
        roots = sum(s[3] - s[2] for s in tr.spans if s[1] == "cli.main")
        layers = {**tracer.layer_metrics(tr, len(traced)),
                  "trace.unattributed_s": (
                      (sum(w for w, _ in traced) - roots) / len(traced), "s")}
        # per-round times and rates at the nominal host speed, by the
        # reference times of the traced rounds
        k = hostspeed.scaled(1.0, [r for _, refs in traced for r in refs])
        metrics = {name: {"value": v * k if u == "s" else v / k if u == "1/s"
                          else v, "unit": u}
                   for name, (v, u) in layers.items()}
        metrics["trace.overhead_s"] = {
            "value": median(hostspeed.scaled(w, refs) for w, refs in traced)
            - median(hostspeed.scaled(w, refs) for w, refs in plain),
            "unit": "s"}
        tr.write(run_dir / "trace.json")
    else:
        run_s = median(hostspeed.scaled(w, refs) for w, refs in plain)
        steps = sum(path_steps(exp, p) for _, exp, p, _, _ in run.jobs)
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
            "path_steps_per_s": {"value": steps / run_s, "unit": "1/s"},
        }
    for err in run.errors:
        print(err, file=sys.stderr)
    print(json.dumps({
        "correct": run.correct,
        "attempted": n_rounds * len(run.jobs),
        "failed": n_rounds * len(run.bad),
        "metrics": metrics,
        "rounds": {"plain": plain, "traced": traced},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
