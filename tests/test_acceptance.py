"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with -s to see them).  Tolerances are pinned here, not
deferred; golden intervals come from the fixed-seed calibration runs noted
inline."""

import json
import math
import time

import numpy as np
import pytest

from smalltime.cli import load_config, run
from smalltime.dpe import PdeGrid, greeks, solve_dpe
from smalltime.hedge import StrategySpec, simulate_hedge
from smalltime.lilab import (ergodic_liminf, moment_dominance, ratio_sup,
                             tail_bound_check)
from smalltime.market import MarketParams, bs_price, call, face_lift
from smalltime.matcore import GammaBand
from smalltime.paths import (BundleSpec, ergodic_grid, geometric_grid,
                             refine_bisect, sample_bundle, uniform_grid)
from smalltime.stochint import (IntegrandSpec, catalog_integrand,
                                closed_form_constant, closed_form_trace,
                                integrate_double, unit_bound_names)

PARAMS = MarketParams(sigma=0.2, horizon=1.0)


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def constrained_solution():
    """Call 100 under the 0.5 upper cash-gamma bound, shared by 9-11."""
    band = GammaBand.upper_only(0.5)
    grid = PdeGrid.around_spot(100.0, PARAMS, nx=400)
    return solve_dpe(call(100.0), band, PARAMS, grid), band


def test_criterion_01_moment_identity():
    horizon = 0.5
    grid = uniform_grid(horizon, 400)
    worst = 0.0
    for d in (1, 2, 3):
        for lam_t in (0.1, 0.25):
            lam = lam_t / horizon
            t0 = time.time()
            spec = BundleSpec(d, grid, 100_000,
                              seed=91000 + d * 10 + int(lam_t * 100),
                              chunk_size=10_000)
            rep = moment_dominance(spec, catalog_integrand("identity", d),
                                   lam, horizon, workers=2)
            elapsed = time.time() - t0
            z = (rep.mc_mean - rep.closed_form) / rep.std_err
            worst = max(worst, abs(z))
            assert abs(z) <= 3.0, f"cell d={d} lamT={lam_t}: z={z:.2f}"
            assert elapsed < 120.0, f"cell d={d} lamT={lam_t}: {elapsed:.0f}s"
    _report(1, worst <= 3.0, f"six cells within 3 SE of the closed form "
                             f"(worst |z| = {worst:.2f})")


def test_criterion_02_moment_dominance_suite():
    t0 = time.time()
    margins = {}
    for name in unit_bound_names(2):
        spec = BundleSpec(2, uniform_grid(0.5, 400), 100_000, seed=92000,
                          chunk_size=10_000)
        rep = moment_dominance(spec, catalog_integrand(name, 2), 0.5, 0.5, workers=2)
        margins[name] = rep.dominance_margin
        assert rep.dominance_margin >= -2.0, f"{name}: margin {rep.dominance_margin:.2f}"
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"suite took {elapsed:.0f}s"
    worst = min(margins.values())
    _report(2, worst >= -2.0,
            f"dominance holds for {sorted(margins)} (worst margin "
            f"{worst:+.2f} SE, {elapsed:.0f}s)")


def test_criterion_03_tail_bound():
    spec = BundleSpec(1, uniform_grid(0.1, 400), 100_000, seed=93000,
                      chunk_size=10_000)
    rep = tail_bound_check(spec, catalog_integrand("identity", 1), 0.1,
                           [0.5, 1.0, 2.0, 4.0], rule="optimized", workers=2)
    detail = "; ".join(f"a={r.alpha}: emp {r.empirical:.4f} <= bound {r.bound:.4f}"
                       for r in rep.rows)
    _report(3, not rep.any_violation, detail)


def test_criterion_04_closed_form_convergence():
    beta = np.array([[2.0, 1.0], [1.0, -1.0]])
    b = sample_bundle(2, uniform_grid(1.0, 64), 1000, seed=94000)
    rms = []
    for _ in range(3):
        tr = integrate_double(b, IntegrandSpec.constant(beta))
        err = tr.final_outer() - closed_form_constant(b, beta)[:, -1]
        rms.append(float(np.sqrt(np.mean(err * err))))
        b = refine_bisect(refine_bisect(b))
    ratios = [rms[0] / rms[1], rms[1] / rms[2]]
    ok = all(abs(r - 2.0) <= 0.5 for r in ratios)
    _report(4, ok, f"RMS halves per 4x steps: ratios {ratios[0]:.2f}, {ratios[1]:.2f}")


def test_criterion_05_small_time_sup_proxy():
    b = sample_bundle(1, geometric_grid(1e-2, 0.5, 40), 10_000, seed=95000)
    est = ratio_sup(closed_form_trace(b, [[-1.0]]), kind="t")
    never_above_one = bool(np.all(est.per_path_sup <= 1.0))
    frac = float(np.mean(est.per_path_sup >= 0.9))
    _report(5, never_above_one and frac >= 0.99,
            f"sup <= 1 on every path; {frac:.4f} of paths reach 0.9 "
            f"(chi-square level-crossing oracle predicts ~1)")


def test_criterion_06_ergodic_frequency():
    b = sample_bundle(1, ergodic_grid(60), 10_000, seed=96000)
    rep = ergodic_liminf(b, [[1.0]], delta=0.1)
    err = abs(rep.final_freq - rep.reference)
    assert rep.reference == pytest.approx(0.2482, abs=2e-4)
    _report(6, err <= 0.02,
            f"average frequency {rep.final_freq:.4f} vs limit {rep.reference:.4f} "
            f"(error {err:.4f} <= 0.02)")


def test_criterion_07_lil_ordering_and_envelope():
    b = sample_bundle(2, geometric_grid(1e-2, 0.5, 34), 10_000, seed=97000)
    med1 = ratio_sup(closed_form_trace(b, np.diag([1.0, -1.0])), kind="h").summary["median"]
    med2 = ratio_sup(closed_form_trace(b, np.diag([2.0, -1.0])), kind="h").summary["median"]
    ordering = med2 > med1
    # golden intervals from the fixed-seed calibration run (0.8222, 1.5329);
    # absolute convergence to the top eigenvalue is explicitly not a target
    golden = 0.74 <= med1 <= 0.90 and 1.38 <= med2 <= 1.69
    worst_viol = 0.0
    envelope = (1.0 + 0.3) ** 2 / 0.5
    for name in unit_bound_names(2):
        bb = sample_bundle(2, geometric_grid(1e-2, 0.5, 34), 10_000, seed=97100)
        tr = integrate_double(bb, catalog_integrand(name, 2))
        est = ratio_sup(tr, kind="h", absolute=True)
        worst_viol = max(worst_viol, float(np.mean(est.per_path_sup > envelope)))
    _report(7, ordering and golden and worst_viol < 0.01,
            f"median sup {med1:.3f} < {med2:.3f} (ordering), goldens hold, "
            f"envelope 3.38 violation rate {worst_viol:.4f} < 0.01")


def test_criterion_08_dpe_matches_black_scholes():
    t0 = time.time()
    grid = PdeGrid.around_spot(100.0, PARAMS, nx=400)
    sol = solve_dpe(call(100.0), GammaBand.unbounded(), PARAMS, grid)
    v0 = float(greeks(sol, 0.0, 100.0)[0])
    elapsed = time.time() - t0
    rel = abs(v0 - 7.9656) / 7.9656
    _report(8, rel < 5e-3 and elapsed < 30.0,
            f"v(0,100) = {v0:.4f} vs 7.9656 (rel {rel:.2e} < 0.5%), {elapsed:.1f}s")


def test_criterion_09_face_lift_oracles(constrained_solution):
    # (a) lifted unit call under a zero bound is the identity line
    s_grid = np.exp(np.linspace(math.log(0.2), math.log(5.0), 241))
    lifted = face_lift(call(1.0), GammaBand.upper_only(0.0), s_grid)
    dev_line = float(np.abs(lifted(s_grid) - s_grid).max())
    # (b) the zero-bound value function prices the spot itself
    grid1 = PdeGrid.around_spot(1.0, PARAMS, nx=400)
    sol1 = solve_dpe(call(1.0), GammaBand.upper_only(0.0), PARAMS, grid1)
    mid = (sol1.s_nodes > 0.55) & (sol1.s_nodes < 1.8)
    dev_price = float(np.abs(sol1.v[0, mid] / sol1.s_nodes[mid] - 1.0).max())
    # (c) upper bound only: the solved surface prices the lifted payoff
    sol, band = constrained_solution
    inner = (sol.s_nodes > 40.0) & (sol.s_nodes < 250.0)
    ref = bs_price(face_lift(call(100.0), band, sol.s_nodes),
                   sol.s_nodes[inner], 0.0, PARAMS)
    dev_lifted = float((np.abs(sol.v[0, inner] - ref) / np.abs(ref)).max())
    ok = dev_line < 1e-8 and dev_price < 0.01 and dev_lifted < 0.01
    _report(9, ok, f"lift=identity to {dev_line:.1e}; v(0,s)=s to {dev_price:.2%}; "
                   f"v matches priced lift to {dev_lifted:.2%}")


def test_criterion_10_comparison_with_bs(constrained_solution):
    sol, _ = constrained_solution
    inner = slice(5, -5)
    ref = bs_price(call(100.0), sol.s_nodes[inner], 0.0, PARAMS)
    dominates = bool(np.all(sol.v[0, inner] >= ref - 1e-6 * np.maximum(ref, 1.0)))
    v_k = float(greeks(sol, 0.0, 100.0)[0])
    bs_k = float(bs_price(call(100.0), 100.0, 0.0, PARAMS))
    gap = (v_k - bs_k) / bs_k
    _report(10, dominates and gap > 0.01,
            f"v(0,.) >= lognormal price at all interior nodes; "
            f"gap at the strike {gap:.1%} > 1%")


def test_criterion_11_hedging(constrained_solution):
    sol, band = constrained_solution
    v0 = float(greeks(sol, 0.0, 100.0)[0])
    bs0 = float(bs_price(call(100.0), 100.0, 0.0, PARAMS))
    strat = StrategySpec.from_dpe(sol)
    spec = BundleSpec(1, uniform_grid(1.0, 2000), 10_000, seed=98000,
                      chunk_size=2500)
    funded = simulate_hedge(spec, 100.0, 1.01 * v0, strat, call(100.0), band, PARAMS)
    under = simulate_hedge(spec, 100.0, bs0, strat, call(100.0), band, PARAMS)
    # golden from the fixed-seed calibration run: frac_negative = 0.3794
    ok = (funded.frac_nonnegative >= 0.99
          and under.frac_negative >= 0.2
          and 0.30 <= under.frac_negative <= 0.46)
    _report(11, ok,
            f"cushioned run covers {funded.frac_nonnegative:.2%} of paths; "
            f"lognormal funding fails on {under.frac_negative:.2%} (golden 0.38)")


def test_criterion_12_determinism(tmp_path):
    base = ["--experiment=tail-bound", "--paths=20000", "--steps=100",
            "--chunk=4000", "--alphas=0.5,1.0"]
    runs = {}
    for tag, workers in (("a", 1), ("b", 3), ("c", 1)):
        cfg = load_config(None, base + [f"--out={tmp_path}/{tag}",
                                        f"--workers={workers}"])
        assert run(cfg) == 0
        runs[tag] = {name: (tmp_path / tag / name).read_bytes()
                     for name in ("summary.json", "tail_bound.csv")}
    identical = runs["a"] == runs["b"] == runs["c"]
    summary = json.loads(runs["a"]["summary.json"])
    _report(12, identical and "config_hash" in summary,
            "rerun and worker-count artifacts byte-identical "
            f"(config hash {summary['config_hash'][:12]}...)")
