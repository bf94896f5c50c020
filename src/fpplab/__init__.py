"""Simulation and verification lab for power-mixture forward performance criteria."""

from .market import (MarketSpec, Schedule, TimeGrid, brownian_batch,
                     evolve_log_wealth_batch, sharpe_ratio)
from .mixture import (H0Spec, JSpec, MixtureFpp, RiskMixture, TrueFppConstants,
                      check_admissibility_moments, drift_term, factor_j, hgamma,
                      market_view_density, monotone_power_value, optimal_portfolio,
                      true_fpp_constants, vgamma_rate)
from .pooling import (ComparisonResult, PoolSpec, UtilitySurface,
                      compare_strategies, constant_z_expected_utility,
                      one_period_greedy, optimize_constant_z, utility_surface)
from .three_power import (ThreePowerFpp, ThreePowerSpec, concavity_discriminants,
                          three_power_drift_factors, three_power_value)
from .two_power import (TwoPowerSpec, coefficient_drifts, consistency_gap,
                        joint_drift, legendre_dual, mixture_portfolio,
                        validate_power_paths)
from .verify import MartingaleReport, StructureReport, martingale_test, structure_scan

__version__ = "0.1.0"
