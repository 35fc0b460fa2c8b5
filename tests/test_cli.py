import json
import math
import os
import re
import resource
import signal
import sys
import traceback
import tracemalloc
import warnings

import numpy as np
import pytest

from smalltime import cli
from smalltime.cli import (_SCHEMAS, ConfigError, RunConfig, list_catalog,
                           load_config, main, run)
from smalltime.dpe import PdeGrid, greeks, solve_dpe
from smalltime.hedge import StrategySpec, replication_gap, simulate_hedge
from smalltime.lilab import (ergodic_liminf, example36_diag, moment_dominance,
                             ratio_sup, tail_bound_check, window_medians)
from smalltime.market import MarketParams, call
from smalltime.matcore import GammaBand, SymMatrix
from smalltime.paths import (BundleSpec, ergodic_grid, geometric_grid,
                             sample_bundle, uniform_grid)
from smalltime.reports import write_csv, write_json
from smalltime.stochint import (VectorSpec, catalog_integrand, drift_integral,
                                integrate_double)


def _write_cfg(tmp_path, text):
    f = tmp_path / "exp.cfg"
    f.write_text(text)
    return str(f)


# -------------------------------------------------------------- configuration

def test_load_config_with_overrides(tmp_path):
    cfg_file = _write_cfg(tmp_path, """
# moment check
experiment = moment
lam = 0.4
paths = 1000
""")
    cfg = load_config(cfg_file, ["--lam=0.45", "--steps=50"])
    assert cfg.experiment == "moment"
    assert cfg.params["lam"] == 0.45
    assert cfg.params["steps"] == 50
    assert cfg.params["paths"] == 1000
    assert cfg.seed == 20240  # default


def test_unknown_key_is_named(tmp_path):
    cfg_file = _write_cfg(tmp_path, "experiment = moment\nthetaa = 3\n")
    with pytest.raises(ConfigError) as err:
        load_config(cfg_file, [])
    assert "thetaa" in str(err.value)
    assert err.value.key == "thetaa"


def test_unknown_experiment_and_missing_experiment(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write_cfg(tmp_path, "experiment = nope\n"), [])
    with pytest.raises(ConfigError):
        load_config(_write_cfg(tmp_path, "lam = 0.5\n"), [])


def test_bad_value_type(tmp_path):
    cfg_file = _write_cfg(tmp_path, "experiment = moment\npaths = many\n")
    with pytest.raises(ConfigError):
        load_config(cfg_file, [])


def test_float_list_and_inf_parsing(tmp_path):
    cfg_file = _write_cfg(tmp_path,
                          "experiment = tail-bound\nalphas = 0.5, 1, 2\n")
    cfg = load_config(cfg_file, [])
    assert cfg.params["alphas"] == [0.5, 1.0, 2.0]
    cfg2 = load_config(_write_cfg(tmp_path, "experiment = dpe-price\nupper = inf\n"), [])
    assert math.isinf(cfg2.params["upper"])


def _assert_key_rejected(tmp_path, capsys, experiment, key, value):
    args = [f"--experiment={experiment}", f"--{key}={value}",
            f"--out={tmp_path}/never"]
    with pytest.raises(ConfigError) as err:
        load_config(None, args)
    assert err.value.key == key
    for command in ("run", "validate-config"):
        assert main([command] + args) == 2
        assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def _assert_plan_rejects(tmp_path, capsys, key, args):
    args = args + [f"--out={tmp_path}/never"]
    cfg = load_config(None, args)
    with pytest.raises(ConfigError) as err:
        run(cfg)
    assert err.value.key == key
    for command in ("run", "validate-config"):
        assert main([command] + args) == 2
        assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


@pytest.fixture
def host_8gib(monkeypatch):
    """os.sysconf of a host with 8 GiB of physical memory, so that a memory
    probe rejects the same configs on any machine and, going through
    validate-config alone, allocates nothing."""
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 ** 21}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)


def test_paths_below_one_is_a_config_error(tmp_path, capsys):
    _assert_key_rejected(tmp_path, capsys, "moment", "paths", 0)


def test_chunk_below_one_is_a_config_error(tmp_path, capsys):
    _assert_key_rejected(tmp_path, capsys, "tail-bound", "chunk", 0)


def test_nx_below_sixteen_is_a_config_error(tmp_path, capsys):
    _assert_key_rejected(tmp_path, capsys, "dpe-price", "nx", 8)
    cfg = load_config(None, ["--experiment=dpe-price", "--nx=16"])
    assert cfg.params["nx"] == 16


@pytest.mark.parametrize("experiment,key,value", [
    ("moment", "workers", 0),
    ("hedge", "funding", "nope"),
    ("moment", "integrand", "nope"),
    ("tail-bound", "rule", "nope"),
    ("lil-sup", "kind", "nope"),
    ("bs-price", "payoff", "nope"),
    ("tail-bound", "alphas", ""),
])
def test_out_of_domain_key_is_a_config_error(tmp_path, capsys, experiment,
                                             key, value):
    _assert_key_rejected(tmp_path, capsys, experiment, key, value)


@pytest.mark.parametrize("experiment,key,value", [
    ("hedge", "steps", 0),
    ("dpe-price", "sigma", 0),
    ("dpe-price", "horizon", 0),
    ("hedge", "s0", -1),
    ("gap", "strike", 0),
    ("gap", "lower", 1.0),
    ("hedge", "cushion", "inf"),
    ("hedge", "cushion", "-inf"),
    ("hedge", "s0", "1e-300"),
    ("gap", "s0", "1e-300"),
    ("hedge", "s0", "1e300"),
    ("gap", "s0", "1e300"),
    ("hedge", "s0", "1e154"),
])
def test_invalid_dpe_family_config_is_a_config_error(tmp_path, capsys, experiment,
                                                     key, value):
    """Values every key's own parser accepts but the market, band, payoff,
    grid or path objects reject, an infinite funding cushion, or a hedge
    grid whose bottom price squares below the smallest normal double (s^2
    in the hedge step's gamma would be 0) or whose top price squares above
    the largest double (s^2 would be inf, and the gamma 0): run and
    validate-config both exit 2 and name the key, before any work."""
    _assert_plan_rejects(tmp_path, capsys, key,
                         [f"--experiment={experiment}", f"--{key}={value}"])


@pytest.mark.parametrize("experiment", ["dpe-price", "hedge", "gap"])
@pytest.mark.parametrize("key,value,named", [
    ("sigma", "1e300", "sigma"), ("sigma", "1e-300", "sigma"),
    ("horizon", "1e-300", "horizon"),
    # end-node prices past the double range name horizon, sigma and s0
    ("sigma", "1e20", "horizon"), ("horizon", "1e20", "horizon"),
    ("sigma", "150", "horizon"),
], ids=["sigma-1e300", "sigma-1e-300", "horizon-1e-300", "sigma-1e20", "horizon-1e20",
        "sigma-150"])
def test_dpe_grid_out_of_double_range_is_a_config_error(tmp_path, capsys,
                                                        experiment, key, value, named):
    """A sigma whose square overflows or vanishes, a grid half-width
    6 sigma sqrt(horizon) lost beside log s0, and a grid whose top node
    prices to inf (sigma above about 117.5 at the defaults) are named in
    the plan; they used to surface as OverflowError, ZeroDivisionError, a
    complaint about s0, a NaN price or surface cells of inf."""
    _assert_plan_rejects(tmp_path, capsys, named,
                         [f"--experiment={experiment}", f"--{key}={value}"])


@pytest.mark.parametrize("key,args", [
    ("sigma", ["--experiment=bs-price", "--sigma=0"]),
    ("sigma", ["--experiment=bs-price", "--sigma=1e300"]),
    ("t", ["--experiment=bs-price", "--t=2"]),
    ("t", ["--experiment=bs-price", "--t=-inf"]),
    ("integrand", ["--experiment=moment", "--integrand=rotation", "--d=1"]),
    ("window", ["--experiment=prop39", "--levels=5", "--window=10"]),
    ("window", ["--experiment=prop39", "--window=0"]),
    ("d", ["--experiment=moment", "--d=3000", "--paths=1", "--chunk=1"]),
    ("d", ["--experiment=tail-bound", "--rule=fixed", "--d=1000", "--paths=1",
           "--chunk=1"]),
    ("s0", ["--experiment=gap", "--s0=1e154", "--strike=1e154"]),
    ("cushion", ["--experiment=hedge", "--funding=bs", "--cushion=1e308"]),
])
def test_config_the_plan_rejects_is_a_config_error(tmp_path, capsys, key, args):
    """bs-price valuations (at an infinite time, or whose sigma^2 tau
    overflows), catalog integrands at a dimension they do not take, prop39
    windows wider than the grid, moment and tail closed forms that
    overflow at a large d, a hedge grid whose top price squares past the
    double range and a lognormal funding bs0 (1 + cushion) that overflows
    fail in the plan."""
    _assert_plan_rejects(tmp_path, capsys, key, args)


@pytest.mark.parametrize("key,args", [
    ("levels", ["--experiment=lil-sup", "--levels=-1"]),
    ("t0", ["--experiment=lil-sup", "--t0=0.5"]),
    ("levels", ["--experiment=ergodic", "--levels=0"]),
    ("t0", ["--experiment=example36", "--t0=0.1"]),
    ("eps", ["--experiment=prop39", "--eps=2"]),
    ("lam", ["--experiment=moment", "--lam=2", "--horizon=0.5"]),
    ("lam", ["--experiment=moment", "--lam=-1"]),
    ("integrand", ["--experiment=moment", "--integrand=linear_time"]),
    ("integrand", ["--experiment=tail-bound", "--integrand=linear_time"]),
    ("t0", ["--experiment=prop39", "--t0=inf", "--paths=100"]),
    ("horizon", ["--experiment=tail-bound", "--horizon=inf"]),
    ("horizon", ["--experiment=moment", "--horizon=inf"]),
    ("eta", ["--experiment=tail-bound", "--rule=fixed", "--eta=-2"]),
    ("eta", ["--experiment=tail-bound", "--rule=fixed", "--eta=-1"]),
    ("eta", ["--experiment=tail-bound", "--rule=fixed", "--eta=-0.5"]),
    ("eta", ["--experiment=tail-bound", "--rule=fixed", "--eta=0"]),
    ("delta", ["--experiment=ergodic", "--delta=-1"]),
    ("eta", ["--experiment=lil-sup", "--eta=1e300"]),
    ("t0", ["--experiment=prop39", "--t0=1e300", "--paths=20"]),
], ids=["lil-sup-levels", "lil-sup-t0", "ergodic-levels", "example36-t0",
        "prop39-eps", "moment-lam", "moment-negative-lam", "moment-bound",
        "tail-bound-bound", "prop39-infinite-t0", "tail-bound-infinite-horizon",
        "moment-infinite-horizon", "fixed-eta-minus-two", "fixed-eta-minus-one",
        "fixed-eta-minus-half", "fixed-eta-zero", "ergodic-negative-delta",
        "lil-sup-infinite-envelope", "prop39-bridge-overflow"])
def test_small_time_and_moment_plans_reject_before_sampling(tmp_path, capsys, key,
                                                            args):
    """Grids the grid builders reject (infinite times among them), times
    outside the rate's domain, a drift exponent outside (0, 1], the moment
    and tail bounds' hypotheses (a fixed-rule eta <= 0 among them), a
    delta <= 0, a lil-sup envelope (1 + eta)^2 / theta that overflows and
    a geometric grid whose bridge product t0 theta * t0 (1 - theta)
    overflows fail in the plan, not after sampling."""
    _assert_plan_rejects(tmp_path, capsys, key, args)


@pytest.mark.parametrize("key,args", [
    ("chunk", ["--experiment=moment", "--d=3"]),
    ("chunk", ["--experiment=tail-bound", "--steps=1000"]),
    ("chunk", ["--experiment=hedge"]),
    ("chunk", ["--experiment=gap"]),
    ("paths", ["--experiment=ergodic", "--d=3"]),
    ("paths", ["--experiment=lil-sup", "--d=3"]),
    ("paths", ["--experiment=prop39"]),
])
def test_bundle_larger_than_memory_is_a_config_error(capsys, host_8gib, key, args):
    """10^12 paths in one chunk (or one bundle) ask for at least 8 TB of
    float64 path values; checked by validate-config alone, so nothing is
    sampled."""
    sizes = [f"--paths={10 ** 12}"] + ([f"--chunk={10 ** 12}"] if key == "chunk" else [])
    assert main(["validate-config"] + args + sizes) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: key {key!r}: a bundle of ")
    assert "physical memory" in err
    assert main(["validate-config"] + args) == 0


@pytest.mark.parametrize("key,experiment", [
    ("steps", "moment"), ("steps", "tail-bound"), ("steps", "hedge"),
    ("steps", "gap"), ("levels", "lil-sup"), ("levels", "ergodic"),
    ("levels", "example36"), ("levels", "prop39"),
])
def test_grid_larger_than_memory_is_a_config_error(capsys, host_8gib, key, experiment):
    """10^13 steps or levels ask for a grid of about 73 TiB of float64
    times; the plan rejects it before any grid is built."""
    assert main(["validate-config", f"--experiment={experiment}",
                 f"--{key}={10 ** 13}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: key {key!r}: a grid of ")
    assert "physical memory" in err


@pytest.mark.parametrize("experiment", ["lil-sup", "prop39", "example36"])
def test_geometric_time_floor_is_checked_before_the_grid_is_built(capsys, experiment):
    """10^8 levels (800 MB of float64 times) fit in memory, but their
    smallest time is far below 1e-300: rejected in closed form, naming
    levels first and the t0 and theta the smallest time depends on."""
    assert main(["validate-config", f"--experiment={experiment}",
                 f"--levels={10 ** 8}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'levels' / 't0' / 'theta': ")
    assert "1e-300 time floor" in err


@pytest.mark.parametrize("experiment", ["moment", "tail-bound", "hedge", "gap",
                                        "example36"])
def test_per_path_results_larger_than_memory_are_a_config_error(capsys, host_8gib,
                                                                experiment):
    """10^12 paths in default chunks keep at least two float64 results per
    path (16 TB); checked by validate-config alone, so nothing is sampled."""
    assert main(["validate-config", f"--experiment={experiment}",
                 f"--paths={10 ** 12}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'paths': keeping the results of ")
    assert "physical memory" in err


def test_every_chunk_in_work_is_counted(capsys, host_8gib):
    """The kernel of a moment chunk of 15 000 000 paths x 3 on 401 times,
    drawing its paths block by block, takes about 3.5 GiB: one fits on a
    host of 8 GiB beside the results of 45 000 000 paths, but three workers
    hold three at once."""
    args = ["validate-config", "--experiment=moment", "--d=3", "--paths=45000000",
            "--chunk=15000000"]
    assert main(args + ["--workers=1"]) == 0
    assert main(args + ["--workers=3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'chunk': a bundle of 15000000 paths x 3 x "
                          "401 times with its pass's arrays, 3 at once, needs at least")
    assert "more than the 8.0 GiB of physical memory" in err


@pytest.mark.parametrize("args", [
    ["--experiment=ergodic", "--d=100000"],
    ["--experiment=moment", "--integrand=rotation", "--d=100000", "--paths=1",
     "--chunk=1"],
], ids=["beta", "catalog-matrix"])
def test_d_by_d_matrices_are_counted_before_they_are_built(capsys, host_8gib, args):
    """beta I and the rotation at d = 100 000 take 74.5 GiB each; the plan
    rejects each naming d before any matrix is built."""
    assert main(["validate-config"] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'd': holding the ")
    assert "more than the 8.0 GiB of physical memory" in err


def test_path_functional_builds_no_d_by_d_matrices(tmp_path):
    """tanh_w is tanh(W_1) times the unit matrix: at d = 400 its run holds
    path values, not a 400 x 400 matrix per path and step of a kernel
    block (which took 200 MiB here)."""
    tracemalloc.start()
    try:
        assert main(["run", "--experiment=tail-bound", "--integrand=tanh_w", "--d=400",
                     "--paths=20", "--chunk=20", "--steps=20",
                     f"--out={tmp_path}"]) in (0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


@pytest.mark.parametrize("horizon", ["3e-7", "1e-9", "1e-12"])
def test_tail_bound_at_small_horizons_validates_within_a_second(capsys, horizon):
    """Near 1/(2T) at these horizons the spacing of doubles exceeds the tail
    lambda search's tolerance; the search stops at adjacent doubles
    instead of stepping forever."""
    def too_slow(signum, frame):
        raise TimeoutError(f"validate-config still runs after 1 s at horizon {horizon}")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        assert main(["validate-config", "--experiment=tail-bound",
                     f"--horizon={horizon}"]) == 0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


_EDGE_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e300", "1e-300", "1e20",
                str(10 ** 20), "", "abc", "1", "2", "0.5", "-0.5", "1e-12", "3"]
_EDGE_KEYS = [(experiment, key) for experiment in sorted(_SCHEMAS)
              for key in [*_SCHEMAS[experiment], "seed", "workers"]]


@pytest.mark.parametrize("experiment,key", _EDGE_KEYS,
                         ids=[f"{e}-{k}" for e, k in _EDGE_KEYS])
def test_every_key_at_edge_values_is_accepted_or_named(capsys, host_8gib, experiment, key):
    """validate-config with one key at each edge value exits 0, or 2 with
    that key among the keys its message names; it raises nothing, warns
    nothing and returns within a second."""
    def too_slow(signum, frame):
        raise TimeoutError("validate-config still runs after 1 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    bad = []
    try:
        for value in _EDGE_VALUES:
            args = ["validate-config", f"--experiment={experiment}", f"--{key}={value}"]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                signal.setitimer(signal.ITIMER_REAL, 1.0)
                try:
                    code = main(args)
                except Exception as exc:  # an escaping exception is a failure
                    code = repr(exc)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0.0)
            err = capsys.readouterr().err.strip()
            named = re.match(r"config error: key ('\w+'(?: / '\w+')*)", err)
            keys = named.group(1).split(" / ") if named else []
            if caught or code not in (0, 2) or (code == 2 and repr(key) not in keys):
                bad.append((value, code, err, [str(w.message) for w in caught]))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not bad


# a tiny run of each experiment in at most a few chunks, so that no
# workers value starts more than a handful of threads
_SWEEP_BASES = {
    "moment": ["--paths=40", "--steps=8", "--chunk=20"],
    "tail-bound": ["--paths=40", "--steps=8", "--chunk=20"],
    "lil-sup": ["--paths=20", "--levels=8"],
    "ergodic": ["--paths=20", "--levels=8"],
    "example36": ["--paths=20", "--levels=8", "--chunk=10", "--refinements=1"],
    "prop39": ["--paths=20", "--levels=12", "--window=4"],
    "dpe-price": ["--nx=32"],
    "bs-price": [],
    "hedge": ["--nx=32", "--paths=20", "--steps=20", "--chunk=10"],
    "gap": ["--nx=32", "--paths=20", "--steps=20", "--chunk=10"],
}


def _run_forked(experiment, args, log):
    """The exit status of main(["run", ...]) in a forked child, under a
    3 GiB address-space limit and a 20 s alarm, and the CSV names its
    runner returned.  The child writes its output, and the traceback of
    anything it raises, to log."""
    names = log.with_suffix(".names")
    pid = os.fork()
    if pid == 0:  # the child never returns into pytest
        status = 3
        try:
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.alarm(20)
            sys.stdout = sys.stderr = open(log, "w")
            planner, runner = cli._EXPERIMENTS[experiment]

            def recording(cfg, plan):
                result = runner(cfg, plan)
                names.write_text(json.dumps(sorted(result[3])))
                return result

            cli._EXPERIMENTS[experiment] = (planner, recording)
            status = main(["run", f"--experiment={experiment}", *args])
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            os._exit(status)
    _, wait = os.waitpid(pid, 0)
    status = os.waitstatus_to_exitcode(wait)
    return status, json.loads(names.read_text()) if names.exists() else None


@pytest.mark.parametrize("experiment", sorted(_SCHEMAS))
def test_every_accepted_edge_config_runs_to_its_artifacts(tmp_path, capsys, host_8gib,
                                                          experiment):
    """Each config that validate-config accepts, with one key of a tiny run
    at each edge value, runs in a forked child: it exits 0 or 1, raises
    nothing, stays within 3 GiB and 20 s, and writes summary.json and every
    CSV its runner names."""
    bad = []
    for key in [*_SCHEMAS[experiment], "seed", "workers"]:
        for i, value in enumerate(_EDGE_VALUES):
            args = [*_SWEEP_BASES[experiment], f"--{key}={value}"]
            accepted = main(["validate-config", f"--experiment={experiment}", *args]) == 0
            capsys.readouterr()
            if not accepted:
                continue
            out = tmp_path / f"{key}-{i}"
            status, names = _run_forked(experiment, [*args, f"--out={out}"],
                                        tmp_path / f"{key}-{i}.log")
            written = [n for n in ["summary.json", *(names or [])] if (out / n).exists()]
            if status not in (0, 1) or names is None or len(written) != len(names) + 1:
                log = (tmp_path / f"{key}-{i}.log").read_text()
                bad.append((key, value, status, names, written, log[-500:]))
    assert not bad


def test_hedge_capital_that_overflows_is_a_config_error(tmp_path, capsys):
    """x0 = v0 (1 + cushion) is known only after the solve: a cushion that
    makes it overflow exits 2 from run, naming cushion, before any path is
    drawn or artifact written."""
    out = tmp_path / "never"
    args = ["run", "--experiment=hedge", "--cushion=1e308", "--nx=32", "--paths=20",
            "--steps=20", f"--out={out}"]
    assert main(args) == 2
    assert "config error: key 'cushion'" in capsys.readouterr().err
    assert not out.exists()


def test_zero_dimension_is_a_config_error(tmp_path, capsys):
    _assert_key_rejected(tmp_path, capsys, "moment", "d", 0)


def test_negative_refinement_count_is_a_config_error(tmp_path, capsys):
    _assert_key_rejected(tmp_path, capsys, "example36", "refinements", -1)


@pytest.mark.parametrize("experiment,key,value", [
    ("bs-price", "s", "nan"),
    ("dpe-price", "lower", "NaN"),
    ("tail-bound", "alphas", "0.5,nan"),
])
def test_nan_is_a_config_error(tmp_path, capsys, experiment, key, value):
    _assert_key_rejected(tmp_path, capsys, experiment, key, value)


def test_write_json_rejects_nan_and_keeps_infinities(tmp_path):
    with pytest.raises(ValueError, match=r"top level\.results\.q\[1\]"):
        write_json(tmp_path / "bad.json", {"results": {"q": [1.0, math.nan]}})
    assert not (tmp_path / "bad.json").exists()
    write_json(tmp_path / "ok.json", {"lower": -math.inf, "upper": math.inf})
    assert json.loads((tmp_path / "ok.json").read_text()) == {
        "lower": -math.inf, "upper": math.inf}


def test_single_letter_keys_are_matched_as_words(tmp_path, capsys):
    """'spot s must be positive' names s alone, although t occurs in it."""
    _assert_plan_rejects(tmp_path, capsys, "s", ["--experiment=bs-price", "--s=-1"])
    assert main(["validate-config", "--experiment=bs-price", "--s=-1"]) == 2
    assert capsys.readouterr().err.strip() == (
        "config error: key 's': spot s must be positive")


def test_surface_larger_than_memory_is_a_config_error(tmp_path, capsys, host_8gib):
    """nx = 1e5 asks for about 7.7e12 nodes (56 TiB for one float64 surface)."""
    _assert_plan_rejects(tmp_path, capsys, "nx", ["--experiment=dpe-price", "--nx=100000"])


@pytest.mark.parametrize("experiment", ["dpe-price", "hedge", "gap"])
def test_every_surface_of_a_dpe_run_is_counted(capsys, host_8gib, experiment):
    """At nx = 4200 one float64 surface of 4200 x 136 048 nodes is 4.3 GiB,
    and the solver keeps two of them, v and the cash gamma (16 bytes a
    node): on a host of 8 GiB the run is rejected.  hedge and gap keep no
    more surfaces, as their drift is formed in windows of rows.  Checked by
    validate-config alone, so nothing is solved."""
    assert main(["validate-config", f"--experiment={experiment}", "--nx=4200"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'nx': a DPE run on 4200 x 136048 nodes ")
    assert "needs at least 8.5 GiB, more than the 8.0 GiB" in err
    assert main(["validate-config", f"--experiment={experiment}", "--nx=2000"]) == 0


@pytest.mark.parametrize("experiment", ["hedge", "gap"])
def test_face_lift_extension_larger_than_memory_is_a_config_error(tmp_path, capsys,
                                                                 host_8gib, experiment):
    """The face lift of the upper bound extends the grid by ceil(3 ln 10 / dx)
    nodes a side, and dx is 12 sigma sqrt(horizon) / (nx - 1): at
    sigma = 1e-12 that is 2.3e14 nodes a side.  run and validate-config exit
    2 naming the three keys before any work; they used to die allocating
    the extension."""
    args = [f"--experiment={experiment}", "--sigma=1e-12"]
    _assert_plan_rejects(tmp_path, capsys, "sigma", args)
    assert main(["validate-config"] + args) == 2
    assert capsys.readouterr().err.startswith(
        "config error: key 'sigma' / 'horizon' / 'nx': the face lift of a grid ")
    # without an upper bound there is no face lift
    assert main(["validate-config", f"--experiment={experiment}", "--sigma=1e-12",
                 "--upper=inf"]) == 0


@pytest.mark.parametrize("refinements", [30, 10 ** 12])
def test_refined_chunk_larger_than_memory_is_a_config_error(capsys, host_8gib,
                                                             refinements):
    """30 refinements of a 50-path chunk on 95 times ask for about 5e12
    float64 values; checked by validate-config alone, so nothing is sampled."""
    assert main(["validate-config", "--experiment=example36", "--paths=50",
                 f"--refinements={refinements}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'refinements': ")
    assert "physical memory" in err
    assert main(["validate-config", "--experiment=example36", "--paths=50"]) == 0


def test_bs_funding_funds_at_the_lognormal_price(tmp_path):
    out = tmp_path / "h"
    assert main(["run", "--experiment=hedge", "--funding=bs", "--nx=64",
                 "--paths=50", "--steps=20", f"--out={out}"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["x0"] == summary["references"]["bs_price"] * 1.01
    assert summary["checks"] == {}


def test_cli_import_leaves_scipy_stats_out():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import smalltime
    env = dict(os.environ, PYTHONPATH=str(Path(smalltime.__file__).parents[1]))
    code = "import sys, smalltime.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "False"


# --------------------------------------------------------------------- runs

def test_moment_run_writes_summary_and_checks(tmp_path):
    cfg = load_config(None, ["--experiment=moment", "--paths=5000",
                             "--steps=50", f"--out={tmp_path}/m"])
    status = run(cfg)
    assert status == 0
    summary = json.loads((tmp_path / "m" / "summary.json").read_text())
    assert summary["pass"] is True
    assert summary["references"]["closed_form"] == pytest.approx(1.10136, abs=5e-5)
    z = summary["checks"]["mc_within_tolerance"]["z"]
    assert abs(z) <= 3.0
    assert (tmp_path / "m" / "moment.csv").exists()
    assert "config_hash" in summary and "version" in summary


@pytest.mark.parametrize("base", [
    ["--experiment=moment", "--paths=4000", "--steps=40", "--chunk=1000"],
    ["--experiment=example36", "--paths=300", "--levels=30", "--chunk=70",
     "--refinements=2"],
], ids=["moment", "example36"])
def test_rerun_artifacts_byte_identical_across_workers(tmp_path, base):
    run(load_config(None, base + [f"--out={tmp_path}/a", "--workers=1"]))
    run(load_config(None, base + [f"--out={tmp_path}/b", "--workers=3"]))
    names = sorted(f.name for f in (tmp_path / "a").iterdir())
    assert "summary.json" in names and len(names) == 2
    assert names == sorted(f.name for f in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_dpe_price_run_matches_bs(tmp_path):
    cfg = load_config(None, ["--experiment=dpe-price", f"--out={tmp_path}/d",
                             "--nx=200"])
    assert run(cfg) == 0
    summary = json.loads((tmp_path / "d" / "summary.json").read_text())
    assert summary["checks"]["matches_bs"]["pass"] is True
    assert (tmp_path / "d" / "surface.csv").exists()


@pytest.mark.parametrize("arg", ["--strike=1e20", "--s0=1e-12"])
def test_dpe_price_against_a_lognormal_price_of_zero(tmp_path, arg):
    """Far out of the money the lognormal price is 0, and so is the surface's:
    the relative error is 0, not a division by zero."""
    out = tmp_path / "z"
    assert main(["run", "--experiment=dpe-price", "--nx=64", arg, f"--out={out}"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["references"]["bs_price"] == summary["results"]["price"] == 0.0
    assert summary["checks"]["matches_bs"]["rel_error"] == 0.0


def test_dpe_price_off_a_lognormal_price_of_zero_fails(tmp_path, monkeypatch):
    """A nonzero price against a reference of 0 is infinitely far off:
    rel_error is written as Infinity and the check fails."""
    monkeypatch.setattr(cli, "bs_price", lambda *args: 0.0)
    out = tmp_path / "z"
    assert main(["run", "--experiment=dpe-price", "--nx=64", f"--out={out}"]) == 1
    text = (out / "summary.json").read_text()
    assert '"rel_error": Infinity' in text
    assert json.loads(text)["checks"]["matches_bs"]["pass"] is False


def test_failing_check_exits_one(tmp_path):
    # an absurdly tight tolerance forces the BS check to fail
    cfg = load_config(None, ["--experiment=dpe-price", f"--out={tmp_path}/f",
                             "--nx=200", "--bs_tol=1e-12"])
    assert run(cfg) == 1
    summary = json.loads((tmp_path / "f" / "summary.json").read_text())
    assert summary["pass"] is False


def test_main_exit_codes(tmp_path, capsys):
    assert main(["run", "--experiment=moment", "--paths=2000", "--steps=20",
                 f"--out={tmp_path}/x"]) == 0
    assert main(["run", "--experiment=moment", "--thetaa=1",
                 f"--out={tmp_path}/y"]) == 2
    err = capsys.readouterr().err
    assert "thetaa" in err


def test_validate_config_command(tmp_path, capsys):
    cfg_file = _write_cfg(tmp_path, "experiment = ergodic\nlevels = 10\n")
    assert main(["validate-config", "--config", cfg_file]) == 0
    out = capsys.readouterr().out
    assert "config ok" in out and "levels = 10" in out
    assert main(["validate-config", "--config", cfg_file, "--levls=3"]) == 2


def test_run_csvs_are_the_reports_own_rows(tmp_path):
    """Every CSV a run writes is write_csv of its owning report's table."""
    seed = 11
    market = MarketParams(sigma=0.2, horizon=1.0)
    band = GammaBand(-0.5, 0.5)
    identity = catalog_integrand("identity", 1)
    compared = set()

    def cli(experiment, *args):
        out = tmp_path / experiment
        assert main(["run", f"--experiment={experiment}", f"--seed={seed}",
                     f"--out={out}", *args]) in (0, 1)
        return out

    def same(out, name, table):
        write_csv(tmp_path / "own.csv", *table)
        assert (out / name).read_bytes() == (tmp_path / "own.csv").read_bytes(), name
        compared.add(out / name)

    out = cli("moment", "--paths=300", "--steps=50", "--chunk=100")
    spec = BundleSpec(1, uniform_grid(0.5, 50), 300, seed, chunk_size=100)
    same(out, "moment.csv",
         moment_dominance(spec, identity, 0.5, 0.5).csv_table())

    out = cli("tail-bound", "--paths=300", "--steps=50", "--chunk=100")
    spec = BundleSpec(1, uniform_grid(0.1, 50), 300, seed, chunk_size=100)
    same(out, "tail_bound.csv",
         tail_bound_check(spec, identity, 0.1, [0.5, 1.0, 2.0, 4.0]).csv_table())

    out = cli("lil-sup", "--paths=200", "--levels=10")
    bundle = sample_bundle(1, geometric_grid(1e-2, 0.5, 10), 200, seed)
    trace = integrate_double(bundle, identity, keep="outer")
    same(out, "lil_sup.csv", ratio_sup(trace, kind="h", absolute=True).csv_table())

    out = cli("ergodic", "--paths=200", "--levels=10")
    rep = ergodic_liminf(sample_bundle(1, ergodic_grid(10), 200, seed),
                         SymMatrix(np.eye(1)), 0.1)
    same(out, "ergodic_paths.csv", rep.csv_table())
    same(out, "ergodic_freq.csv", rep.freq_csv_table())

    out = cli("example36", "--paths=50", "--levels=20", "--chunk=20",
              "--refinements=2")
    spec = BundleSpec(1, geometric_grid(1e-2, 0.5, 20), 50, seed, chunk_size=20)
    same(out, "example36.csv", example36_diag(spec, refinements=2).csv_table())

    out = cli("prop39", "--paths=100", "--levels=30", "--window=7")
    bundle = sample_bundle(1, geometric_grid(1e-4, 0.5, 30), 100, seed)
    dtr = drift_integral(bundle, VectorSpec.constant([1.0]), identity, eps=0.5)
    same(out, "prop39.csv", window_medians(dtr, 7).csv_table())

    out = cli("dpe-price", "--nx=64", "--lower=-0.5", "--upper=0.5")
    grid = PdeGrid.around_spot(100.0, market, nx=64)
    sol = solve_dpe(call(100.0), band, market, grid)
    same(out, "surface.csv", sol.csv_table(max(1, grid.nt // 20)))
    codes = {line.rsplit(",", 1)[1]
             for line in (out / "surface.csv").read_text().splitlines()[1:]}
    assert codes == {"0", "1"}

    hedge_args = ("--nx=64", "--paths=100", "--steps=50", "--chunk=50",
                  "--lower=-0.5")
    out = cli("hedge", *hedge_args)
    sol = solve_dpe(call(100.0), band, market, grid)
    spec = BundleSpec(1, uniform_grid(1.0, 50), 100, seed, chunk_size=50)
    x0 = float(greeks(sol, 0.0, 100.0)[0]) * 1.01
    same(out, "shortfall.csv",
         simulate_hedge(spec, 100.0, x0, StrategySpec.from_dpe(sol), call(100.0),
                        band, market).csv_table())

    out = cli("gap", *hedge_args)
    gap = replication_gap(call(100.0), band, market, 100.0, spec, grid=grid)
    same(out, "shortfall_constrained.csv", gap.run_constrained.csv_table())
    same(out, "shortfall_bs_funded.csv", gap.run_bs_funded.csv_table())

    # every CSV of all nine CSV-writing experiments was compared
    assert compared == set(tmp_path.glob("*/*.csv"))
    assert len({path.parent for path in compared}) == 9


# ------------------------------------------------------------------- catalog

def test_list_catalog_contents_and_stability(capsys):
    listing = list_catalog()
    assert listing == list_catalog()  # stable
    lines = listing.splitlines()
    assert lines == sorted(lines, key=lambda s: (not s.startswith("integrand"), s))
    assert any(line.startswith("integrand example36") and "anomalous" in line
               for line in lines)
    assert any(line.startswith("integrand identity") and "exponential-moment" in line
               for line in lines)
    assert main(["list-catalog"]) == 0
    assert "example36" in capsys.readouterr().out


def test_default_out_uses_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SMALLTIME_OUT", str(tmp_path / "envroot"))
    cfg = load_config(None, ["--experiment=bs-price"])
    assert cfg.out == str(tmp_path / "envroot" / "bs-price")
    assert run(cfg) == 0
    summary = json.loads((tmp_path / "envroot" / "bs-price" / "summary.json").read_text())
    assert summary["results"]["price"] == pytest.approx(7.9656, abs=5e-4)
