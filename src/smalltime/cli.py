"""Batch front end: experiment configuration, orchestration, reports.

Configuration is a key = value text file; every numeric parameter can be
overridden with --key=value flags.  Each run writes a JSON summary
(parameters echoed, analytic references, statistics, pass/fail per check)
plus CSV artifacts, all byte-identical across reruns and --workers values.
Exit codes: 0 all checks pass, 1 a check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, dpe, hedge, lilab, market, paths
from .dpe import PdeGrid, greeks, solve_dpe
from .hedge import STRATEGY_CATALOG, replication_gap, simulate_hedge
from .lilab import (_RATE_KINDS, LilEstimate, ergodic_liminf, ergodic_reference,
                    example36_diag, example36_rate_fn, moment_dominance,
                    moment_identity, ratio_sup, tail_bound_check, tail_bounds,
                    window_maxima, window_medians)
from .market import MarketParams, bs_price, call, put
from .matcore import GammaBand, SymMatrix
from .paths import (BundleSpec, ergodic_grid, geometric_grid, sample_bundle,
                    uniform_grid)
from .reports import config_hash, write_csv, write_json
from .stochint import (INTEGRAND_CATALOG, VectorSpec, catalog_integrand,
                       drift_integral, drift_scale, integrate_double)

class ConfigError(ValueError):
    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


def _parse_value(kind: str, text: str):
    """The value of a stripped config string."""
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return _not_nan(float(text))
        if kind == "bool":
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(text)
        if kind == "floats":
            items = [v for v in text.split(",") if v.strip()]
            if not items:
                raise ValueError(text)
            return [_not_nan(float(v)) for v in items]
        return text
    except ValueError:
        raise ConfigError(f"cannot parse value {text!r} as {kind}", key=None) from None


def _not_nan(value: float) -> float:
    # +-inf stay: band edges may be infinite
    if math.isnan(value):
        raise ValueError("NaN")
    return value


_COMMON = {
    "seed": ("int", 20240),
    "workers": ("int", 1),
    "out": ("str", ""),
}

_PAYOFFS = {"call": call, "put": put}

# domains of the size and catalog-valued keys, in every schema that has them
_MINIMA = {"paths": 1, "chunk": 1, "nx": 16, "workers": 1, "d": 1,
           "refinements": 0}
_CHOICES = {"integrand": INTEGRAND_CATALOG, "rule": ("optimized", "fixed"),
            "kind": _RATE_KINDS, "payoff": _PAYOFFS, "funding": ("dpe", "bs")}

# key groups that several schemas share
_FORWARD = {
    "d": ("int", 1), "paths": ("int", 100_000), "steps": ("int", 400),
    "integrand": ("str", "identity"), "chunk": ("int", 10_000),
}
_MARKET = {
    "payoff": ("str", "call"), "strike": ("float", 100.0),
    "sigma": ("float", 0.2), "horizon": ("float", 1.0),
}
_SURFACE = {
    **_MARKET, "s0": ("float", 100.0), "lower": ("float", -math.inf),
    "upper": ("float", math.inf), "nx": ("int", 400),
}
_HEDGE = {
    **_SURFACE, "upper": ("float", 0.5),
    "paths": ("int", 10_000), "steps": ("int", 2000), "chunk": ("int", 2500),
}

_SCHEMAS = {
    "moment": {
        **_FORWARD, "lam": ("float", 0.5), "horizon": ("float", 0.5),
        "max_sigmas": ("float", 3.0),
    },
    "tail-bound": {
        **_FORWARD, "horizon": ("float", 0.1),
        "alphas": ("floats", [0.5, 1.0, 2.0, 4.0]),
        "rule": ("str", "optimized"), "eta": ("float", 0.1),
    },
    "lil-sup": {
        "integrand": ("str", "identity"), "d": ("int", 1),
        "kind": ("str", "h"), "absolute": ("bool", True),
        "theta": ("float", 0.5), "levels": ("int", 34), "t0": ("float", 1e-2),
        "paths": ("int", 10_000), "eta": ("float", 0.3),
        "violation_limit": ("float", 0.01),
    },
    "ergodic": {
        "d": ("int", 1), "beta": ("float", 1.0), "delta": ("float", 0.1),
        "levels": ("int", 60), "paths": ("int", 10_000), "tol": ("float", 0.02),
    },
    "example36": {
        "theta": ("float", 0.5), "levels": ("int", 94), "t0": ("float", 1e-2),
        "paths": ("int", 10_000), "refinements": ("int", 4),
        "chunk": ("int", 2000), "consistency_max": ("float", 0.25),
        # golden interval around the fixed-seed calibration median 1.4053
        "golden_lo": ("float", 1.26), "golden_hi": ("float", 1.55),
    },
    "prop39": {
        "eps": ("float", 0.5), "theta": ("float", 0.5), "levels": ("int", 60),
        "t0": ("float", 1e-4), "paths": ("int", 10_000), "window": ("int", 10),
        "shrink": ("float", 0.8),
    },
    "dpe-price": {**_SURFACE, "bs_tol": ("float", 0.005)},
    "bs-price": {**_MARKET, "s": ("float", 100.0), "t": ("float", 0.0)},
    "hedge": {
        **_HEDGE, "cushion": ("float", 0.01), "funding": ("str", "dpe"),
        "target_nonneg": ("float", 0.99),
    },
    "gap": {
        **_HEDGE, "gap_min": ("float", 0.0), "bs_frac_neg_min": ("float", 0.0),
    },
}


@dataclass
class RunConfig:
    experiment: str
    params: dict
    seed: int
    workers: int
    out: str

    def echo(self) -> dict:
        """Computational parameters recorded in artifacts (execution knobs
        like workers and the output directory are excluded so artifacts stay
        byte-identical across them)."""
        return {"experiment": self.experiment, "seed": self.seed, **self.params}


def load_config(path: str | None, overrides) -> RunConfig:
    raw = {}
    if path:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
            key, val = stripped.split("=", 1)
            raw[key.strip()] = val.strip()
    for item in overrides or ():
        if not item.startswith("--") or "=" not in item:
            raise ConfigError(f"override must look like --key=value, got {item!r}")
        key, val = item[2:].split("=", 1)
        raw[key.strip()] = val.strip()
    experiment = raw.pop("experiment", None)
    if experiment is None:
        raise ConfigError("missing required key 'experiment'", key="experiment")
    if experiment not in _SCHEMAS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose from {sorted(_SCHEMAS)}",
            key="experiment")
    schema = {**_SCHEMAS[experiment], **_COMMON}
    params = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for experiment {experiment!r}",
                              key=key)
        kind, _ = schema[key]
        try:
            params[key] = _parse_value(kind, value)
        except ConfigError as err:
            raise ConfigError(f"key {key!r}: {err}", key=key) from None
    for key, (_, default) in schema.items():
        params.setdefault(key, default)
    for key, floor in _MINIMA.items():
        if key in params and params[key] < floor:
            raise ConfigError(f"key {key!r} must be at least {floor}, "
                              f"got {params[key]}", key=key)
    for key, allowed in _CHOICES.items():
        if key in params and params[key] not in allowed:
            raise ConfigError(f"key {key!r} must be one of {sorted(allowed)}, "
                              f"got {params[key]!r}", key=key)
    seed = params.pop("seed")
    workers = params.pop("workers")
    out = params.pop("out")
    if not out:
        root = os.environ.get("SMALLTIME_OUT", "runs")
        out = str(Path(root) / experiment)
    return RunConfig(experiment=experiment, params=params, seed=seed,
                     workers=workers, out=out)


@contextmanager
def _reading(*keys):
    """A ValueError raised by a constructor that reads these keys becomes a
    ConfigError naming the keys its message names as whole words (all of
    them if it names none); the first named is the error's key."""
    try:
        yield
    except ValueError as err:
        named = [k for k in keys if re.search(rf"\b{k}\b", str(err))] or list(keys)
        raise ConfigError(f"key {' / '.join(map(repr, named))}: {err}",
                          key=named[0]) from None


# A plan builds and checks what a run needs before any work, so that run
# and validate-config reject the same configs with exit 2; run hands the
# plan to the experiment's runner.

def _market(p):
    with _reading("sigma", "horizon"):
        params = MarketParams(sigma=p["sigma"], horizon=p["horizon"])
    with _reading("strike"):
        return params, _PAYOFFS[p["payoff"]](p["strike"])


def _fits_in_memory(key, what: str, nbytes: int) -> None:
    """Reject, naming key (or each key of a tuple), a config whose arrays
    described by what (nbytes bytes, one array or a set held at once) would
    by themselves exceed the machine's physical memory."""
    keys = (key,) if isinstance(key, str) else key
    memory_bytes = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > memory_bytes:
        raise ConfigError(
            f"key {' / '.join(map(repr, keys))}: {what} needs at least "
            f"{nbytes / 2 ** 30:.1f} GiB, more than the "
            f"{memory_bytes / 2 ** 30:.1f} GiB of physical memory", key=keys[0])


def _grid_fits(key: str, size: int) -> None:
    """_fits_in_memory for a grid of size times (one path's values), checked
    before the grid is built."""
    _fits_in_memory(key, f"a grid of {size} times", paths.bundle_bytes(1, size, 1))


def _pass_spec(cfg: RunConfig, grid, counts, key="chunk", workers: int = 1,
               held: int = 0) -> BundleSpec:
    """The spec of a pass over the run's paths on grid in chunks of the
    configured chunk paths (lilab.budget_chunk's where the schema has no
    chunk), one in work per worker, once it fits in memory, checked before
    any of it is built.  counts(chunk) is (matrices, chunk, path, after)
    bytes as the layers that allocate count them: the (d, d) matrices with
    one path's values, naming d; the chunks in work beside held bytes,
    naming key; and the per-path results beside them, naming paths, then
    beside held bytes alone with after bytes more a path once the pass is
    over."""
    p = cfg.params
    d, n, size = p.get("d", 1), p["paths"], grid.size
    chunk = min(p["chunk"] if "chunk" in p else lilab.budget_chunk(d, size), n)
    matrices, chunk_bytes, path_bytes, after = counts(chunk)
    _fits_in_memory("d", f"holding the {d} x {d} matrices of the pass with one "
                    f"path's {d} x {size} values", matrices + paths.bundle_bytes(d, size, 1))
    in_work = min(workers, -(-n // chunk))
    total = held + in_work * chunk_bytes
    _fits_in_memory(key, f"a bundle of {chunk} paths x {d} x {size} times with its "
                    f"pass's arrays, {in_work} at once,", total)
    _fits_in_memory("paths", f"keeping the results of {n} paths beside them",
                    total + n * path_bytes)
    if after:
        _fits_in_memory("paths", f"the results of {n} paths after the pass",
                        held + n * (path_bytes + after))
    return BundleSpec(d, grid, n, cfg.seed, chunk_size=chunk)


def _dpe_plan(cfg: RunConfig):
    """(market, band, payoff, PDE grid, path spec) of a dpe-price, hedge or
    gap run; the path spec is None for dpe-price."""
    p = cfg.params
    params, payoff = _market(p)
    with _reading("lower", "upper"):
        band = GammaBand(p["lower"], p["upper"])
    with _reading("horizon", "sigma", "s0"):
        grid = PdeGrid.around_spot(p["s0"], params, nx=p["nx"])
    if grid.dx > 2.0:
        # the explicit step's upper-neighbour weight c/dx^2 - c/(2 dx) is then negative
        raise ConfigError(f"key 'nx' / 'sigma' / 'horizon': the grid's log-price step "
                          f"12 sigma sqrt(horizon) / (nx - 1) = {grid.dx:.3g} exceeds 2, "
                          f"where the explicit DPE step is not monotone", key="nx")
    surfaces = dpe.solve_bytes(grid)
    _fits_in_memory("nx", f"a DPE run on {grid.nx} x {grid.nt + 1} nodes", surfaces)
    # the face lift runs, and frees its grid, before the surfaces exist;
    # its extension grows as 1 / dx, which sigma, horizon and nx set
    _fits_in_memory(("sigma", "horizon", "nx"),
                    f"the face lift of a grid {grid.dx:.3g} apart in log price",
                    market.face_lift_bytes(band, grid.nx, grid.dx))
    if not math.isfinite(p.get("cushion", 0.0)):
        raise ConfigError(f"key 'cushion': must be finite, got {p['cushion']}", key="cushion")
    if p.get("funding") == "bs":
        # the runner checks x0 = v0 (1 + cushion) after the solve
        _capital(bs_price(payoff, p["s0"], 0.0, params), p["cushion"])
    spec = None
    if "steps" in p:
        # the hedge step divides the cash gamma by s^2, which must neither
        # underflow at the grid's bottom price nor overflow at its top
        bottom, top = math.exp(grid.x_min), math.exp(grid.x_max)
        if not (bottom * bottom >= sys.float_info.min and top * top <= sys.float_info.max):
            raise ConfigError(f"key 's0' / 'sigma' / 'horizon': the grid's end prices "
                              f"s0 exp(-+6 sigma sqrt(horizon)), {bottom:.3g} and {top:.3g}, "
                              f"must square to normal doubles", key="s0")
        _grid_fits("steps", p["steps"] + 1)
        with _reading("steps"):
            times = uniform_grid(p["horizon"], p["steps"])
        fundings = 1 + (cfg.experiment == "gap")
        spec = _pass_spec(cfg, times, lambda chunk: hedge.simulate_bytes(
            times.size, chunk, fundings, grid), workers=cfg.workers, held=surfaces)
    return params, band, payoff, grid, spec


def _capital(price: float, cushion: float) -> float:
    """A hedge run's initial capital x0 = price (1 + cushion), which must be
    a finite double."""
    x0 = price * (1.0 + cushion)
    if not math.isfinite(x0):
        raise ConfigError(f"key 'cushion': the initial capital price (1 + cushion) = "
                          f"{price:.3g} (1 + {cushion:.3g}) is not a finite double", key="cushion")
    return x0


def _bs_plan(cfg: RunConfig) -> float:
    """The bs-price run's whole work: the lognormal price."""
    p = cfg.params
    params, payoff = _market(p)
    try:
        with _reading("s", "t"):
            return float(bs_price(payoff, p["s"], p["t"], params))
    except OverflowError:
        raise ConfigError("key 'sigma': sigma^2 (horizon - t) overflows", key="sigma") from None


def _integrand_plan(cfg: RunConfig):
    """The catalog integrand of a moment, tail-bound or lil-sup run."""
    with _reading("integrand", "d"):
        return catalog_integrand(cfg.params["integrand"], cfg.params["d"])


def _forward_plan(cfg: RunConfig):
    """The integrand and bundle spec of a moment or tail-bound run.  Both
    bounds need an integrand of declared bound <= 1 and a chunk that fits
    in memory; the moment one needs 2 lam horizon < 1, and the tail one the
    lambdas and bounds of tail_bounds."""
    p = cfg.params
    _grid_fits("steps", p["steps"] + 1)
    with _reading("horizon", "steps"):
        grid = uniform_grid(p["horizon"], p["steps"])
    spec = _pass_spec(cfg, grid, lambda chunk: lilab.forward_bytes(
        p["integrand"], p["d"], grid.size, chunk, "lam" in p), workers=cfg.workers)
    b = _integrand_plan(cfg)
    if not b.unit_bounded:
        raise ConfigError(f"key 'integrand': {cfg.experiment} needs an integrand "
                          f"with declared bound <= 1, {b.name!r} declares "
                          f"{b.bound}", key="integrand")
    if "lam" in p:
        with _reading("d", "lam", "horizon"):
            moment_identity(p["lam"], p["horizon"], p["d"])
    if "alphas" in p:
        with _reading("d", "eta", "horizon"):
            tail_bounds(p["alphas"], p["horizon"], p["d"], p["rule"], p["eta"])
    return b, spec


def _geometric_plan(cfg: RunConfig, rate_fn=None):
    """The geometric grid of a lil-sup, example36 or prop39 run; with a
    rate function, every grid time must lie in the rate's domain, and the
    largest time is t0."""
    p = cfg.params
    _grid_fits("levels", p["levels"] + 1)
    with _reading("levels", "t0", "theta"):
        grid = geometric_grid(p["t0"], p["theta"], p["levels"])
    if rate_fn is not None:
        with _reading("t0"):
            rate_fn(grid.points)
    return grid


def _sampled(fn, spec: BundleSpec) -> np.ndarray:
    """fn of each chunk of a geometric spec, sampled in path order on the
    calling thread: arrays with the chunk's paths on their last axis,
    written into one array of every path made at the first chunk."""
    out = None
    for first in range(0, spec.path_count, spec.chunk_size):
        take = min(spec.chunk_size, spec.path_count - first)
        part = fn(sample_bundle(spec.dim, spec.grid, take, spec.seed, first))
        if out is None:
            out = np.empty(part.shape[:-1] + (spec.path_count,))
        out[..., first:first + take] = part
    return out


def _lil_sup_plan(cfg: RunConfig):
    """The integrand, spec and finite envelope (1 + eta)^2 / theta of a
    lil-sup run, whose pass fits in memory."""
    p = cfg.params
    grid = _geometric_plan(cfg, _RATE_KINDS[p["kind"]][0])
    spec = _pass_spec(cfg, grid, lambda chunk: lilab.trace_pass_bytes(
        p["integrand"], p["d"], grid.size, chunk), key=("levels", "d"))
    try:
        envelope = (1.0 + p["eta"]) ** 2 / p["theta"]
    except OverflowError:
        envelope = math.inf
    if not math.isfinite(envelope):
        raise ConfigError("key 'eta' / 'theta': the envelope (1 + eta)^2 / theta is "
                          "not a finite double", key="eta")
    return _integrand_plan(cfg), spec, envelope


def _ergodic_plan(cfg: RunConfig):
    """The spec on the e^-n grid and the matrix beta * I of an ergodic run,
    a valid delta, and (d, d) matrices and a pass that fit in memory."""
    p = cfg.params
    _grid_fits("levels", p["levels"])
    with _reading("levels"):
        grid = ergodic_grid(p["levels"])
    spec = _pass_spec(cfg, grid, lambda chunk: lilab.ergodic_bytes(p["d"], grid.size, chunk),
                      key=("levels", "d"))
    with _reading("beta"):
        beta = SymMatrix(p["beta"] * np.eye(p["d"]))
    with _reading("delta"):
        ergodic_reference(beta.entries, p["delta"])
    return spec, beta


def _example36_plan(cfg: RunConfig):
    """The bundle spec of an example36 run, every grid time below e^-e, and
    refined chunks, walked in turn whatever the worker count, and per-path
    results that fit in memory."""
    p = cfg.params
    grid = _geometric_plan(cfg, example36_rate_fn)
    return _pass_spec(cfg, grid, lambda chunk: lilab.example36_bytes(
        grid.size, chunk, p["refinements"]), key="refinements")


def _prop39_plan(cfg: RunConfig):
    """The spec of a prop39 run, on a geometric grid with room for one
    window, a valid exponent eps and a pass that fits in memory."""
    p = cfg.params
    grid = _geometric_plan(cfg)
    if not 1 <= p["window"] <= grid.size:
        raise ConfigError(f"key 'window' / 'levels': window must lie in [1, levels + 1] "
                          f"= [1, {grid.size}] (the grid size), got {p['window']}",
                          key="window")
    with _reading("eps"):
        drift_scale(grid.points, p["eps"])
    return _pass_spec(cfg, grid, lambda chunk: lilab.trace_pass_bytes(
        "identity", 1, grid.size, chunk, p["window"]), key="levels")


def _check(passed, **fields) -> dict:
    """A check's summary record: whether it passed and the figures it compared."""
    return {"pass": passed, **fields}


def _run_moment(cfg: RunConfig, plan):
    p = cfg.params
    b, spec = plan
    rep = moment_dominance(spec, b, p["lam"], p["horizon"], workers=cfg.workers)
    z = (rep.mc_mean - rep.closed_form) / rep.std_err if rep.std_err > 0 else 0.0
    results = {"mc_mean": rep.mc_mean, "std_err": rep.std_err, "z": z,
               "dominance_margin": rep.dominance_margin, "n_paths": rep.n_paths}
    references = {"closed_form": rep.closed_form}
    checks = {"mc_within_tolerance": _check(abs(z) <= p["max_sigmas"], z=z,
                                            limit=p["max_sigmas"])}
    return results, references, checks, {"moment.csv": rep.csv_table()}


def _run_tail(cfg: RunConfig, plan):
    p = cfg.params
    b, spec = plan
    rep = tail_bound_check(spec, b, p["horizon"], p["alphas"], rule=p["rule"],
                           eta=p["eta"], workers=cfg.workers)
    results = {"rows": [vars(row) for row in rep.rows], "n_paths": rep.n_paths}
    checks = {"no_exceedance_above_bound": _check(not rep.any_violation)}
    return results, {}, checks, {"tail_bound.csv": rep.csv_table()}


def _run_lil_sup(cfg: RunConfig, plan):
    p = cfg.params
    b, spec, envelope = plan
    est = LilEstimate(_sampled(lambda bundle: ratio_sup(
        integrate_double(bundle, b, keep="outer"), kind=p["kind"],
        absolute=p["absolute"]).per_path_sup, spec))
    viol = float(np.mean(est.per_path_sup > envelope))
    results = {"summary": est.summary, "violation_rate": viol}
    references = {"envelope": envelope}
    checks = {}
    if b.unit_bounded and p["kind"] == "h" and p["absolute"]:
        limit = p["violation_limit"]
        checks["envelope_violation_rate"] = _check(viol < limit, violation_rate=viol, limit=limit)
    return results, references, checks, {"lil_sup.csv": est.csv_table()}


def _run_ergodic(cfg: RunConfig, plan):
    p = cfg.params
    spec, beta = plan
    rep = ergodic_liminf(spec, beta, p["delta"])
    err = abs(rep.final_freq - rep.reference)
    results = {"final_freq": rep.final_freq, "freq_error": err,
               "min_quantiles": {"q50": float(np.median(rep.per_path_min)),
                                 "q99": float(np.quantile(rep.per_path_min, 0.99))}}
    references = {"limit_probability": rep.reference}
    checks = {"frequency_matches_limit": _check(err <= p["tol"], error=err, tol=p["tol"])}
    return results, references, checks, {"ergodic_paths.csv": rep.csv_table(),
                                         "ergodic_freq.csv": rep.freq_csv_table()}


def _run_example36(cfg: RunConfig, spec):
    p = cfg.params
    rep = example36_diag(spec, refinements=p["refinements"])
    med, cons = rep.proxy_summary["median"], rep.consistency_median
    results = {"full_summary": rep.full.summary, "proxy_summary": rep.proxy_summary,
               "consistency_median": cons, "t_min": rep.t_min}
    checks = {"sup_consistency": _check(cons <= p["consistency_max"], median=cons,
                                        limit=p["consistency_max"]),
              "proxy_median_golden": _check(p["golden_lo"] <= med <= p["golden_hi"],
                                            median=med, lo=p["golden_lo"], hi=p["golden_hi"])}
    return results, {}, checks, {"example36.csv": rep.csv_table()}


def _run_prop39(cfg: RunConfig, spec):
    p = cfg.params
    a, m = VectorSpec.constant([1.0]), catalog_integrand("identity", 1)
    maxima = _sampled(lambda bundle: window_maxima(
        drift_integral(bundle, a, m, eps=p["eps"]), p["window"]), spec)
    rep = window_medians(spec.grid.points, p["window"], maxima)
    first_med, last_med = rep.medians[0], rep.medians[-1]
    results = {"window_medians": [{"t_hi": t, "median": med}
                                  for t, med in zip(rep.t_hi, rep.medians)]}
    checks = {"scaled_statistic_shrinks": _check(
        first_med < p["shrink"] * last_med, smallest_window_median=first_med,
        largest_window_median=last_med, shrink=p["shrink"])}
    return results, {}, checks, {"prop39.csv": rep.csv_table()}


def _run_dpe_price(cfg: RunConfig, plan):
    p = cfg.params
    params, band, payoff, grid, _ = plan
    sol = solve_dpe(payoff, band, params, grid)
    v0 = float(greeks(sol, 0.0, p["s0"])[0])
    bs0 = float(bs_price(payoff, p["s0"], 0.0, params))
    results = {"price": v0, "gap": v0 - bs0, "breach_count": sol.breach_count,
               "residual_max": sol.residual_max}
    references = {"bs_price": bs0}
    checks = {"dominates_bs": _check(v0 >= bs0 - 1e-6 * max(1.0, bs0))}
    if not (band.has_lower or band.has_upper):
        # a reference of 0 is matched by 0 alone
        rel = abs(v0 - bs0) / bs0 if bs0 else (0.0 if v0 == bs0 else math.inf)
        checks["matches_bs"] = _check(rel < p["bs_tol"], rel_error=rel, tol=p["bs_tol"])
    stride = max(1, (sol.t_nodes.size - 1) // 20)
    return results, references, checks, {"surface.csv": sol.csv_table(stride)}


def _run_bs_price(cfg: RunConfig, price):
    return {"price": price}, {}, {}, {}


def _run_hedge(cfg: RunConfig, plan):
    p = cfg.params
    params, band, payoff, grid, spec = plan
    strategy, v0, bs0 = hedge.surface_strategy(payoff, band, params, p["s0"], grid)
    x0 = _capital(v0 if p["funding"] == "dpe" else bs0, p["cushion"])
    rep = simulate_hedge(spec, p["s0"], x0, strategy, payoff, band, params,
                         workers=cfg.workers)
    frac = rep.frac_nonnegative
    results = {"x0": rep.x0, "y0": rep.y0, "quantiles": rep.quantiles,
               "clamp_events": rep.clamp_events, "clamp_rate": rep.clamp_rate,
               "alpha_max": rep.alpha_max, "frac_nonnegative": frac}
    references = {"constrained_price": v0, "bs_price": bs0}
    checks = {}
    if p["funding"] == "dpe":
        checks["super_replication"] = _check(frac >= p["target_nonneg"], frac_nonnegative=frac,
                                             target=p["target_nonneg"])
    return results, references, checks, {"shortfall.csv": rep.csv_table()}


def _run_gap(cfg: RunConfig, plan):
    p = cfg.params
    params, band, payoff, grid, spec = plan
    rep = replication_gap(payoff, band, params, p["s0"], spec, grid=grid, workers=cfg.workers)
    run_v, run_bs = rep.run_constrained, rep.run_bs_funded
    references = {"constrained_price": rep.constrained_price, "bs_price": rep.bs_price}
    results = {"price_gap": rep.price_gap, **references,
               "constrained_run": run_v.quantiles, "bs_funded_run": run_bs.quantiles,
               "bs_funded_frac_negative": run_bs.frac_negative}
    checks = {"positive_gap": _check(rep.price_gap > p["gap_min"], gap=rep.price_gap,
                                     min=p["gap_min"])}
    if p["bs_frac_neg_min"] > 0.0:
        checks["bs_funding_fails"] = _check(run_bs.frac_negative >= p["bs_frac_neg_min"],
                                            frac_negative=run_bs.frac_negative,
                                            min=p["bs_frac_neg_min"])
    return results, references, checks, {"shortfall_constrained.csv": run_v.csv_table(),
                                         "shortfall_bs_funded.csv": run_bs.csv_table()}


# experiment -> (planner, runner)
_EXPERIMENTS = {
    "moment": (_forward_plan, _run_moment),
    "tail-bound": (_forward_plan, _run_tail),
    "lil-sup": (_lil_sup_plan, _run_lil_sup),
    "ergodic": (_ergodic_plan, _run_ergodic),
    "example36": (_example36_plan, _run_example36),
    "prop39": (_prop39_plan, _run_prop39),
    "dpe-price": (_dpe_plan, _run_dpe_price),
    "bs-price": (_bs_plan, _run_bs_price),
    "hedge": (_dpe_plan, _run_hedge),
    "gap": (_dpe_plan, _run_gap),
}


def run(cfg: RunConfig) -> int:
    """Plan and execute the experiment, write artifacts, return the exit
    status."""
    planner, runner = _EXPERIMENTS[cfg.experiment]
    results, references, checks, csvs = runner(cfg, planner(cfg))
    all_pass = all(c["pass"] for c in checks.values())
    summary = {
        "experiment": cfg.experiment,
        "version": __version__,
        "config_hash": config_hash(cfg.echo()),
        "params": cfg.echo(),
        "references": references,
        "results": results,
        "checks": checks,
        "pass": all_pass,
    }
    out = Path(cfg.out)
    write_json(out / "summary.json", summary)
    for name, table in csvs.items():
        write_csv(out / name, *table)
    return 0 if all_pass else 1


def list_catalog() -> str:
    """Stable, sorted listing of the integrand and strategy catalogs."""
    lines = []
    for name in sorted(INTEGRAND_CATALOG):
        entry = INTEGRAND_CATALOG[name]
        lines.append(f"integrand {name} [{entry.kind}]: {entry.anchor}")
    for name in sorted(STRATEGY_CATALOG):
        lines.append(f"strategy {name}: {STRATEGY_CATALOG[name]}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="smalltime",
        description="Small-time double-integral diagnostics and "
                    "gamma-constrained pricing experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment and write artifacts")
    p_run.add_argument("--config", help="key = value configuration file")
    p_val = sub.add_parser("validate-config", help="validate a configuration")
    p_val.add_argument("--config", help="key = value configuration file")
    sub.add_parser("list-catalog", help="list integrand and strategy catalogs")

    args, extra = parser.parse_known_args(argv)
    if args.command == "list-catalog":
        if extra:
            print(f"config error: unexpected arguments {extra!r}", file=sys.stderr)
            return 2
        print(list_catalog())
        return 0
    try:
        cfg = load_config(getattr(args, "config", None), extra)
        if args.command == "run":
            return run(cfg)
        _EXPERIMENTS[cfg.experiment][0](cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    print(f"experiment: {cfg.experiment}")
    for key in sorted(cfg.params):
        print(f"{key} = {cfg.params[key]}")
    print(f"seed = {cfg.seed}")
    print("config ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
