"""The benchmark's three workloads: which `smalltime run` invocations each
makes, with configs derived from the run's seed.

A workload is a list of slots.  Each slot is one experiment invocation with
fixed sizes; a round runs every slot once, in order.  Only the config
`seed` key depends on the benchmark seed, so every round of a run does the
same work and rounds of different seeds do the same amount of work.
"""

from __future__ import annotations

# band shared by the banded dpe-price, hedge and gap slots, so that gap's
# constrained price can be checked against the banded dpe-price
BAND = {"lower": -0.5, "upper": 0.5}
CALL = {"payoff": "call", "strike": 100.0, "s0": 100.0, "sigma": 0.2,
        "horizon": 1.0}

WORKLOADS = {
    # counter-based normals, forward cumsum and the left-point kernel on
    # full (P, N, d) traces; the only workload that runs the chunk pool
    "forward": [
        ("moment", "moment", {
            "d": 3, "lam": 0.2, "horizon": 0.5, "integrand": "identity",
            "paths": 2000, "steps": 400, "chunk": 500,
            "max_sigmas": 5.0, "workers": 2}),
        ("tail-bound", "tail-bound", {
            "d": 2, "horizon": 0.1, "integrand": "tanh_w",
            "alphas": "0.5,1.0,2.0,4.0", "paths": 2000, "steps": 400,
            "chunk": 500, "workers": 2}),
    ],
    # geometric and bisection sampling, a time-varying integrand evaluated
    # per step in Python, ratio sups down to 1e-30, 10k-row per-path CSVs
    "small-time": [
        ("example36", "example36", {
            "t0": 1e-2, "theta": 0.5, "levels": 94, "refinements": 4,
            "paths": 1000, "chunk": 500, "workers": 1}),
        ("lil-sup", "lil-sup", {
            "d": 2, "integrand": "identity", "kind": "h", "absolute": "true",
            "t0": 1e-2, "theta": 0.5, "levels": 34, "eta": 0.3,
            "violation_limit": 0.01, "paths": 10_000, "workers": 1}),
        ("ergodic", "ergodic", {
            "d": 2, "beta": 1.0, "levels": 60, "delta": 0.1, "tol": 0.02,
            "paths": 10_000, "workers": 1}),
        ("prop39", "prop39", {
            "t0": 1e-4, "theta": 0.5, "levels": 60, "window": 10,
            "shrink": 0.8, "paths": 10_000, "workers": 1}),
    ],
    # DPE solve and face-lift, 1-d sampling on 2000-step grids, surface
    # interpolation per hedge step, shortfall and surface CSVs
    "hedge": [
        ("dpe-free", "dpe-price", {**CALL, "nx": 400, "bs_tol": 0.005,
                                   "workers": 1}),
        ("dpe-band", "dpe-price", {**CALL, **BAND, "nx": 400, "workers": 1}),
        ("hedge", "hedge", {
            **CALL, **BAND, "nx": 400, "paths": 500, "steps": 500,
            "chunk": 500, "funding": "dpe", "cushion": 0.01,
            "target_nonneg": 0.99, "workers": 1}),
        ("gap", "gap", {
            **CALL, **BAND, "nx": 400, "paths": 500, "steps": 500,
            "chunk": 500, "workers": 1}),
    ],
}


def slots(workload: str, seed: int, scale: float = 1.0) -> list:
    """(slot name, experiment, params) for each invocation of a workload.

    scale < 1 shrinks path counts and chunks (the benchmark's own test);
    grids, levels and bands stay as they are.
    """
    out = []
    for k, (name, experiment, params) in enumerate(WORKLOADS[workload]):
        p = dict(params)
        for key in ("paths", "chunk"):
            if key in p:
                p[key] = max(50, int(round(p[key] * scale)))
        p["seed"] = 1000 * int(seed) + k + 1
        out.append((name, experiment, p))
    return out


def config_text(experiment: str, params: dict) -> str:
    lines = [f"experiment = {experiment}"]
    lines += [f"{key} = {value}" for key, value in params.items()]
    return "\n".join(lines) + "\n"


def path_steps(experiment: str, p: dict) -> int:
    """Distinct Brownian path-steps a config asks for: paths x time steps x
    dimension, bisection-refined points included.

    This is the work the config demands, not the work an implementation
    happens to do: gap uses one set of paths for both of its fundings, so
    it counts them once.
    """
    if experiment in ("moment", "tail-bound"):
        return p["paths"] * p["steps"] * p["d"]
    if experiment == "example36":
        return p["paths"] * (p["levels"] + 1) * 2 ** p["refinements"]
    if experiment == "lil-sup":
        return p["paths"] * (p["levels"] + 1) * p["d"]
    if experiment == "ergodic":
        return p["paths"] * p["levels"] * p["d"]
    if experiment == "prop39":
        return p["paths"] * (p["levels"] + 1)
    if experiment in ("hedge", "gap"):
        return p["paths"] * p["steps"]
    return 0

