"""Every memory check the plans make, pinned.

validate-config runs each sampled experiment's plan, which checks its grid
and its pass against the host's memory through cli._fits_in_memory.  The
(key, what, nbytes) of each of those calls, in order, is pinned here for
the eight sampled experiments at their defaults and at the benchmark's
slot configs, copied as literals.  None of them depends on the host's
memory, so a refactor of the plans that moves one key, message or byte
shows here; tests/test_memory_counts.py measures only the counts' slopes.
"""

import pytest

from smalltime import cli

# the benchmark's slot configs of the sampled experiments (its seed key
# left out: no count reads it)
_SLOTS = {
    "moment": ["--d=3", "--lam=0.2", "--horizon=0.5", "--integrand=identity",
               "--paths=2000", "--steps=400", "--chunk=500", "--max_sigmas=5.0",
               "--workers=2"],
    "tail-bound": ["--d=2", "--horizon=0.1", "--integrand=tanh_w",
                   "--alphas=0.5,1.0,2.0,4.0", "--paths=2000", "--steps=400",
                   "--chunk=500", "--workers=2"],
    "example36": ["--t0=1e-2", "--theta=0.5", "--levels=94", "--refinements=4",
                  "--paths=1000", "--chunk=500", "--workers=1"],
    "lil-sup": ["--d=2", "--integrand=identity", "--kind=h", "--absolute=true",
                "--t0=1e-2", "--theta=0.5", "--levels=34", "--eta=0.3",
                "--violation_limit=0.01", "--paths=10000", "--workers=1"],
    "ergodic": ["--d=2", "--beta=1.0", "--levels=60", "--delta=0.1", "--tol=0.02",
                "--paths=10000", "--workers=1"],
    "prop39": ["--t0=1e-4", "--theta=0.5", "--levels=60", "--window=10",
               "--shrink=0.8", "--paths=10000", "--workers=1"],
    "hedge": ["--payoff=call", "--strike=100.0", "--s0=100.0", "--sigma=0.2",
              "--horizon=1.0", "--lower=-0.5", "--upper=0.5", "--nx=400",
              "--paths=500", "--steps=500", "--chunk=500", "--funding=dpe",
              "--cushion=0.01", "--target_nonneg=0.99", "--workers=1"],
    "gap": ["--payoff=call", "--strike=100.0", "--s0=100.0", "--sigma=0.2",
            "--horizon=1.0", "--lower=-0.5", "--upper=0.5", "--nx=400",
            "--paths=500", "--steps=500", "--chunk=500", "--workers=1"],
}
_CONFIGS = {**{name: [] for name in _SLOTS},
            **{f"{name}-slot": args for name, args in _SLOTS.items()}}

# (key, what, nbytes) of each check, in the order the plan makes them
_CHECKS = {
    "moment": [
        ("steps", "a grid of 401 times", 3208),
        ("d", "holding the 1 x 1 matrices of the pass with one path's 1 x 401 "
              "values", 3208),
        ("chunk", "a bundle of 10000 paths x 1 x 401 times with its pass's arrays, 1 at "
                  "once,", 3600000),
        ("paths", "keeping the results of 100000 paths beside them", 5200000),
        ("paths", "the results of 100000 paths after the pass", 5600000),
    ],
    "tail-bound": [
        ("steps", "a grid of 401 times", 3208),
        ("d", "holding the 1 x 1 matrices of the pass with one path's 1 x 401 "
              "values", 3208),
        ("chunk", "a bundle of 10000 paths x 1 x 401 times with its pass's arrays, 1 at "
                  "once,", 3600000),
        ("paths", "keeping the results of 100000 paths beside them", 5200000),
        ("paths", "the results of 100000 paths after the pass", 2400000),
    ],
    "lil-sup": [
        ("levels", "a grid of 35 times", 280),
        ("d", "holding the 1 x 1 matrices of the pass with one path's 1 x 35 values", 280),
        (("levels", "d"), "a bundle of 3744 paths x 1 x 35 times with its pass's arrays, 1 "
                          "at once,", 5361408),
        ("paths", "keeping the results of 10000 paths beside them", 5441408),
        ("paths", "the results of 10000 paths after the pass", 160000),
    ],
    "ergodic": [
        ("levels", "a grid of 60 times", 480),
        ("d", "holding the 1 x 1 matrices of the pass with one path's 1 x 60 values", 504),
        (("levels", "d"), "a bundle of 2184 paths x 1 x 60 times with its pass's arrays, 1 "
                          "at once,", 3144968),
        ("paths", "keeping the results of 10000 paths beside them", 3224968),
        ("paths", "the results of 10000 paths after the pass", 160000),
    ],
    "example36": [
        ("levels", "a grid of 95 times", 760),
        ("d", "holding the 1 x 1 matrices of the pass with one path's 1 x 95 values", 760),
        ("refinements", "a bundle of 2000 paths x 1 x 95 times with its pass's arrays, 1 "
                        "at once,", 41137280),
        ("paths", "keeping the results of 10000 paths beside them", 41617280),
    ],
    "prop39": [
        ("levels", "a grid of 61 times", 488),
        ("d", "holding the 1 x 1 matrices of the pass with one path's 1 x 61 values", 488),
        ("levels", "a bundle of 2148 paths x 1 x 61 times with its pass's arrays, 1 at "
                   "once,", 5309856),
        ("paths", "keeping the results of 10000 paths beside them", 5789856),
        ("paths", "the results of 10000 paths after the pass", 560000),
    ],
    "hedge": [
        ("nx", "a DPE run on 400 x 1230 nodes", 7872000),
        (("sigma", "horizon", "nx"), "the face lift of a grid 0.00602 apart in log "
                                     "price", 453264),
        ("steps", "a grid of 2001 times", 16008),
        ("d", "holding the 1 x 1 matrices of the pass with one path's 1 x 2001 "
              "values", 16008),
        ("chunk", "a bundle of 2500 paths x 1 x 2001 times with its pass's arrays, 1 at "
                  "once,", 11100000),
        ("paths", "keeping the results of 10000 paths beside them", 11340000),
        ("paths", "the results of 10000 paths after the pass", 8192000),
    ],
    "gap": [
        ("nx", "a DPE run on 400 x 1230 nodes", 7872000),
        (("sigma", "horizon", "nx"), "the face lift of a grid 0.00602 apart in log "
                                     "price", 453264),
        ("steps", "a grid of 2001 times", 16008),
        ("d", "holding the 1 x 1 matrices of the pass with one path's 1 x 2001 "
              "values", 16008),
        ("chunk", "a bundle of 2500 paths x 1 x 2001 times with its pass's arrays, 1 at "
                  "once,", 11300000),
        ("paths", "keeping the results of 10000 paths beside them", 11700000),
        ("paths", "the results of 10000 paths after the pass", 8352000),
    ],
    "moment-slot": [
        ("steps", "a grid of 401 times", 3208),
        ("d", "holding the 3 x 3 matrices of the pass with one path's 3 x 401 "
              "values", 9624),
        ("chunk", "a bundle of 500 paths x 3 x 401 times with its pass's arrays, 2 at "
                  "once,", 5616000),
        ("paths", "keeping the results of 2000 paths beside them", 5648000),
        ("paths", "the results of 2000 paths after the pass", 112000),
    ],
    "tail-bound-slot": [
        ("steps", "a grid of 401 times", 3208),
        ("d", "holding the 2 x 2 matrices of the pass with one path's 2 x 401 "
              "values", 6416),
        ("chunk", "a bundle of 500 paths x 2 x 401 times with its pass's arrays, 2 at "
                  "once,", 6328000),
        ("paths", "keeping the results of 2000 paths beside them", 6360000),
        ("paths", "the results of 2000 paths after the pass", 48000),
    ],
    "example36-slot": [
        ("levels", "a grid of 95 times", 760),
        ("d", "holding the 1 x 1 matrices of the pass with one path's 1 x 95 values", 760),
        ("refinements", "a bundle of 500 paths x 1 x 95 times with its pass's arrays, 1 at "
                        "once,", 12637280),
        ("paths", "keeping the results of 1000 paths beside them", 12685280),
    ],
    "lil-sup-slot": [
        ("levels", "a grid of 35 times", 280),
        ("d", "holding the 2 x 2 matrices of the pass with one path's 2 x 35 values", 560),
        (("levels", "d"), "a bundle of 1872 paths x 2 x 35 times with its pass's arrays, 1 "
                          "at once,", 4283136),
        ("paths", "keeping the results of 10000 paths beside them", 4363136),
        ("paths", "the results of 10000 paths after the pass", 160000),
    ],
    "ergodic-slot": [
        ("levels", "a grid of 60 times", 480),
        ("d", "holding the 2 x 2 matrices of the pass with one path's 2 x 60 values", 1056),
        (("levels", "d"), "a bundle of 1092 paths x 2 x 60 times with its pass's arrays, 1 "
                          "at once,", 4193312),
        ("paths", "keeping the results of 10000 paths beside them", 4273312),
        ("paths", "the results of 10000 paths after the pass", 160000),
    ],
    "prop39-slot": [
        ("levels", "a grid of 61 times", 488),
        ("d", "holding the 1 x 1 matrices of the pass with one path's 1 x 61 values", 488),
        ("levels", "a bundle of 2148 paths x 1 x 61 times with its pass's arrays, 1 at "
                   "once,", 5309856),
        ("paths", "keeping the results of 10000 paths beside them", 5789856),
        ("paths", "the results of 10000 paths after the pass", 560000),
    ],
    "hedge-slot": [
        ("nx", "a DPE run on 400 x 1230 nodes", 7872000),
        (("sigma", "horizon", "nx"), "the face lift of a grid 0.00602 apart in log "
                                     "price", 453264),
        ("steps", "a grid of 501 times", 4008),
        ("d", "holding the 1 x 1 matrices of the pass with one path's 1 x 501 "
              "values", 4008),
        ("chunk", "a bundle of 500 paths x 1 x 501 times with its pass's arrays, 1 at "
                  "once,", 11020000),
        ("paths", "keeping the results of 500 paths beside them", 11032000),
        ("paths", "the results of 500 paths after the pass", 7888000),
    ],
    "gap-slot": [
        ("nx", "a DPE run on 400 x 1230 nodes", 7872000),
        (("sigma", "horizon", "nx"), "the face lift of a grid 0.00602 apart in log "
                                     "price", 453264),
        ("steps", "a grid of 501 times", 4008),
        ("d", "holding the 1 x 1 matrices of the pass with one path's 1 x 501 "
              "values", 4008),
        ("chunk", "a bundle of 500 paths x 1 x 501 times with its pass's arrays, 1 at "
                  "once,", 11164000),
        ("paths", "keeping the results of 500 paths beside them", 11184000),
        ("paths", "the results of 500 paths after the pass", 7896000),
    ],
}


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_validate_config_makes_the_pinned_memory_checks(monkeypatch, name):
    calls = []
    monkeypatch.setattr(cli, "_fits_in_memory",
                        lambda key, what, nbytes: calls.append((key, what, nbytes)))
    experiment = name.removesuffix("-slot")
    assert cli.main(["validate-config", f"--experiment={experiment}", *_CONFIGS[name]]) == 0
    assert calls == _CHECKS[name]
