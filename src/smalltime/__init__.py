"""smalltime: a numerical laboratory for the small-time behavior of double
stochastic integrals and for pricing and hedging under gamma constraints."""

from .matcore import (DomainError, GammaBand, SymMatrix, dpe_operator_f,
                      dpe_operator_fhat, lil_normalizer, operator_norm)
from .paths import (BrownianBundle, BundleSpec, TimeGrid, ergodic_grid,
                    geometric_grid, refine_bisect, sample_bundle,
                    uniform_grid)
from .stochint import (INTEGRAND_CATALOG, DoubleIntegralTrace, IntegrandSpec,
                       MartingaleDecomposition, VectorSpec, catalog_integrand,
                       closed_form_constant, closed_form_trace, drift_integral,
                       integrate_double, integrate_double_martingale,
                       unit_bound_names)
from .lilab import (ErgodicReport, Example36Report, GridMismatchError,
                    LilEstimate, MomentReport, TailBoundReport,
                    WindowMedians, ergodic_liminf, example36_diag,
                    moment_dominance, moment_identity, optimal_tail_lambda,
                    ratio_sup, tail_bound_check, tail_bound_value,
                    window_maxima, window_medians)
from .market import (MarketParams, Payoff, bs_price, call, face_lift,
                     piecewise_linear, put, simulate_gbm, tabulated)
from .dpe import (DpeSolution, OutOfGridError, PdeGrid, StabilityError,
                  greeks, solve_dpe)
from .hedge import (STRATEGY_CATALOG, GapReport, HedgeReport, StrategySpec,
                    replication_gap, simulate_hedge)

__version__ = "0.1.0"
