import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smalltime.dpe import PdeGrid, greeks, solve_dpe
from smalltime.hedge import (STRATEGY_CATALOG, StrategySpec, replication_gap,
                             simulate_hedge)
from smalltime.market import MarketParams, call, simulate_gbm
from smalltime.matcore import GammaBand
from smalltime.reports import write_csv
from smalltime.paths import BundleSpec, sample_bundle, uniform_grid

PARAMS = MarketParams(sigma=0.2, horizon=1.0)
BAND = GammaBand.upper_only(0.5)
ZERO = StrategySpec.constant(0.0)


def _bundle(paths=500, steps=200, seed=101):
    return sample_bundle(1, uniform_grid(1.0, steps), paths, seed=seed)


def test_zero_strategy_keeps_capital():
    b = _bundle()
    rep = simulate_hedge(b, 100.0, 7.0, ZERO, call(100.0),
                         BAND, PARAMS)
    s_t = simulate_gbm(b.paths[:, 0, -1], 1.0, 100.0, PARAMS)
    assert np.allclose(rep.x_terminal, 7.0)
    assert np.allclose(rep.shortfall, 7.0 - np.maximum(s_t - 100.0, 0.0))


def test_buy_and_hold_telescopes_exactly():
    b = _bundle()
    strat = StrategySpec.constant(1.0)
    rep = simulate_hedge(b, 100.0, 5.0, strat, call(100.0), BAND, PARAMS)
    s_t = simulate_gbm(b.paths[:, 0, -1], 1.0, 100.0, PARAMS)
    assert np.allclose(rep.x_terminal, 5.0 + s_t - 100.0, atol=1e-9)


def test_wealth_is_a_discrete_martingale():
    spec = BundleSpec(1, uniform_grid(1.0, 200), 40_000, seed=7, chunk_size=10_000)
    for strat in (ZERO,
                  StrategySpec.constant(0.7),
                  StrategySpec.constant(0.3, gamma=2e-5)):
        rep = simulate_hedge(spec, 100.0, 10.0, strat, call(100.0), BAND, PARAMS)
        se = float(np.std(rep.x_terminal, ddof=1)) / math.sqrt(rep.x_terminal.size)
        assert abs(float(np.mean(rep.x_terminal)) - 10.0) <= 4.0 * se + 1e-12


def test_funding_shift_is_pathwise_additive():
    b = _bundle()
    strat = StrategySpec.constant(0.5)
    r1 = simulate_hedge(b, 100.0, 5.0, strat, call(100.0), BAND, PARAMS)
    r2 = simulate_hedge(b, 100.0, 6.5, strat, call(100.0), BAND, PARAMS)
    assert np.allclose(r2.shortfall - r1.shortfall, 1.5, atol=1e-9)


def test_gamma_clamp_counts_events():
    b = _bundle(paths=100, steps=50)
    # cash gamma = gamma * S^2 ~ 2.0 at S=100, far above the 0.5 bound
    strat = StrategySpec.constant(0.0, gamma=2e-4)
    rep = simulate_hedge(b, 100.0, 5.0, strat, call(100.0), BAND, PARAMS)
    assert rep.clamp_events > 0
    assert 0.0 < rep.clamp_rate <= 1.0


def test_dpe_strategy_clamp_rate_low():
    sol = solve_dpe(call(100.0), BAND, PARAMS, PdeGrid.around_spot(100.0, PARAMS, nx=400))
    strat = StrategySpec.from_dpe(sol)
    spec = BundleSpec(1, uniform_grid(1.0, 500), 2000, seed=11, chunk_size=1000)
    rep = simulate_hedge(spec, 100.0, 50.0, strat, call(100.0), BAND, PARAMS)
    assert rep.clamp_rate < 0.05
    assert math.isfinite(rep.alpha_max)


def test_dpe_strategy_super_replicates_with_cushion():
    sol = solve_dpe(call(100.0), BAND, PARAMS, PdeGrid.around_spot(100.0, PARAMS, nx=400))
    v0 = float(greeks(sol, 0.0, 100.0)[0])
    strat = StrategySpec.from_dpe(sol)
    spec = BundleSpec(1, uniform_grid(1.0, 1000), 2000, seed=13, chunk_size=1000)
    rep = simulate_hedge(spec, 100.0, 1.01 * v0, strat, call(100.0), BAND, PARAMS)
    assert rep.frac_nonnegative >= 0.99
    assert rep.y0 == pytest.approx(float(greeks(sol, 0.0, 100.0)[1]))


def test_strategy_bounds_must_be_finite():
    with pytest.raises(ValueError):
        StrategySpec(kind="constant", y0=0.0, alpha_bound=math.inf)
    for bad in (math.nan, math.inf, -math.inf):
        for kwargs in ({"alpha": bad}, {"gamma": bad}):
            with pytest.raises(ValueError, match="must be finite"):
                StrategySpec.constant(0.0, **kwargs)


def test_strategy_catalog_contents():
    assert set(STRATEGY_CATALOG) == {"zero", "buy_and_hold", "constant_gamma",
                                     "dpe_tracker"}


def test_replication_gap_inactive_constraints():
    band = GammaBand.unbounded()
    spec = BundleSpec(1, uniform_grid(1.0, 400), 1000, seed=17, chunk_size=1000)
    rep = replication_gap(call(100.0), band, PARAMS, 100.0, spec,
                          grid=PdeGrid.around_spot(100.0, PARAMS, nx=400))
    assert abs(rep.price_gap) / rep.bs_price < 5e-3


def test_replication_gap_binding_upper_bound():
    spec = BundleSpec(1, uniform_grid(1.0, 500), 2000, seed=19, chunk_size=1000)
    rep = replication_gap(call(100.0), BAND, PARAMS, 100.0, spec,
                          grid=PdeGrid.around_spot(100.0, PARAMS, nx=400))
    assert rep.price_gap > 0.01 * rep.bs_price
    assert rep.run_bs_funded.frac_negative >= 0.2


def test_replication_gap_fundings_match_separate_runs():
    grid = PdeGrid.around_spot(100.0, PARAMS, nx=200)
    spec = BundleSpec(1, uniform_grid(1.0, 100), 300, seed=29, chunk_size=120)
    gap = replication_gap(call(100.0), BAND, PARAMS, 100.0, spec, grid=grid)
    strat = StrategySpec.from_dpe(solve_dpe(call(100.0), BAND, PARAMS, grid))
    for run, x0 in ((gap.run_constrained, gap.constrained_price),
                    (gap.run_bs_funded, gap.bs_price)):
        alone = simulate_hedge(spec, 100.0, x0, strat, call(100.0), BAND, PARAMS)
        for name in ("shortfall", "s_terminal", "x_terminal"):
            assert np.array_equal(getattr(run, name), getattr(alone, name))
        assert run.quantiles == alone.quantiles
        assert run.clamp_events == alone.clamp_events and run.x0 == alone.x0
    threaded = replication_gap(call(100.0), BAND, PARAMS, 100.0, spec, grid=grid,
                               workers=3)
    assert np.array_equal(threaded.run_bs_funded.x_terminal,
                          gap.run_bs_funded.x_terminal)
    assert threaded.run_constrained.quantiles == gap.run_constrained.quantiles


def test_lower_constraint_gap_on_concave_payoff():
    # capped payoff min(s, K): the lower bound binds where v_ss < 0
    from smalltime.market import piecewise_linear
    capped = piecewise_linear([1e-4, 100.0], [1.0, 0.0], value_at_first=1e-4)
    band = GammaBand.lower_only(0.0)
    spec = BundleSpec(1, uniform_grid(1.0, 400), 1000, seed=23, chunk_size=1000)
    rep = replication_gap(capped, band, PARAMS, 100.0, spec,
                          grid=PdeGrid.around_spot(100.0, PARAMS, nx=400))
    assert rep.price_gap > 0.0


def test_hedge_report_csv(tmp_path):
    rep = simulate_hedge(_bundle(paths=5, steps=10), 100.0, 5.0,
                         ZERO, call(100.0), BAND, PARAMS)
    f = tmp_path / "shortfall.csv"
    write_csv(f, *rep.csv_table())
    lines = f.read_text().splitlines()
    assert lines[0] == "path,S_T,X_T,shortfall"
    assert len(lines) == 6


def test_workers_do_not_change_hedge_results():
    spec = BundleSpec(1, uniform_grid(1.0, 100), 2000, seed=29, chunk_size=500)
    strat = StrategySpec.constant(0.4)
    r1 = simulate_hedge(spec, 100.0, 5.0, strat, call(100.0), BAND, PARAMS, workers=1)
    r2 = simulate_hedge(spec, 100.0, 5.0, strat, call(100.0), BAND, PARAMS, workers=3)
    assert np.array_equal(r1.shortfall, r2.shortfall)


def test_off_surface_queries_are_counted():
    # a surface spanning only S in [97, 103] over a short horizon: most
    # paths leave it, and each query outside is clamped and counted
    params = MarketParams(sigma=0.2, horizon=0.05)
    grid = PdeGrid(x_min=math.log(97.0), x_max=math.log(103.0), nx=32, nt=600)
    with pytest.warns(UserWarning, match="narrower"):
        sol = solve_dpe(call(100.0), BAND, params, grid)
    bundle = sample_bundle(1, uniform_grid(0.05, 40), 300, seed=13)
    rep = simulate_hedge(bundle, 100.0, 2.0, StrategySpec.from_dpe(sol),
                         call(100.0), BAND, params)
    s_k = simulate_gbm(bundle.paths[:, 0, :-1], bundle.grid.points[:-1], 100.0, params)
    s_lo, s_hi = sol.s_nodes[0], sol.s_nodes[-1]
    expected = int(np.sum((s_k < s_lo) | (s_k > s_hi)))
    assert 0 < expected < s_k.size
    assert rep.off_surface == expected
    # surface-free strategies make no surface queries
    plain = simulate_hedge(bundle, 100.0, 2.0, ZERO, call(100.0),
                           BAND, params)
    assert plain.off_surface == 0


_SMALL_SOL = solve_dpe(call(100.0), GammaBand(-0.5, 0.5), PARAMS,
                       PdeGrid.around_spot(100.0, PARAMS, nx=48))


@settings(max_examples=15, deadline=None)
@given(paths=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["dpe", "constant_gamma"]))
def test_hedge_results_are_bit_identical_for_chunk_sizes_one_to_seven(paths, seed,
                                                                      kind):
    strat = (StrategySpec.from_dpe(_SMALL_SOL) if kind == "dpe" else
             StrategySpec.constant(0.3, gamma=4e-5))
    grid = uniform_grid(1.0, 12)
    reports = [simulate_hedge(BundleSpec(1, grid, paths, seed, chunk_size=c),
                              100.0, 5.0, strat, call(100.0), BAND, PARAMS)
               for c in (*range(1, 8), paths)]
    first = reports[0]
    for rep in reports[1:]:
        assert rep.shortfall.tobytes() == first.shortfall.tobytes()
        assert rep.x_terminal.tobytes() == first.x_terminal.tobytes()
        assert (rep.clamp_events, rep.off_surface, repr(rep.alpha_max)) == (
            first.clamp_events, first.off_surface, repr(first.alpha_max))
