"""The functions that ``fpplab`` exports reject a non-finite argument: each
raises ValueError or an FpplabError, warns nothing and returns nothing."""

import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fpplab
from fpplab import (MarketSpec, MixtureFpp, RiskMixture, ThreePowerSpec, TimeGrid,
                    brownian_batch)
from fpplab.errors import FpplabError
from fpplab.pooling import preset

GRID = TimeGrid.regular(1.0, 0.25)
MARKET = MarketSpec(1, 1, 0, 0.2, 0.04)
MIXTURE = RiskMixture(atoms=((0.5, 1.0),), gamma0=0.5)
POOL = preset("fig1")
THREE = ThreePowerSpec(0.25)
SP = np.full((GRID.n_steps, 1), 1.0)
X_GRID = np.geomspace(0.1, 10.0, 12)
a = np.array

# name: (one valid call's arguments, the positions of its float arguments and
# float arrays); objects, counts and seeds are not floats.  Of
# evolve_log_wealth_batch's arrays only the schedule is checked: lam_path and
# dw are the engine's own (sharpe_path checks lam, brownian_batch draws dw),
# and a check of dw would cost every chunk a pass over it.  structure_scan
# judges its values, so a non-finite value fails the scan instead of raising.
CALLS = {
    "brownian_batch": ((GRID, 1, 0, 7, range(2)), ()),
    "check_admissibility_moments": ((SP, MARKET, MIXTURE, 2.0, 2.0, GRID, 1.0),
                                    (0, 3, 4, 6)),
    "coefficient_drifts": ((0.1, 0.3, a([0.2]), a([0.0]), a([0.0])), range(5)),
    "compare_strategies": ((POOL, 8, 7), ()),
    "concavity_discriminants": ((0.25,), (0,)),
    "consistency_gap": ((0.1, 0.3, a([0.2]), a([0.0]), a([0.0])), range(5)),
    "constant_z_expected_utility": ((0.5, 1.0, POOL), (0, 1)),
    "drift_term": ((0.5, a([0.3]), a([0.2]), a([0.1])), range(4)),
    "evolve_log_wealth_batch": ((1.0, SP, np.full((GRID.n_steps, 1), 0.2), GRID,
                                 brownian_batch(GRID, 1, 0, 7, range(2))[0]), (0, 1)),
    "factor_j": ((a([[1.0]]), a([[0.5]]), a([0.1])), range(3)),
    "hgamma": ((0.5, 0.5, a([0.2]), a([0.0])), range(4)),
    "joint_drift": ((0.1, 0.3, 1.0, 1.0, 1.0, a([0.2]), a([0.0]), a([0.0])), range(8)),
    "legendre_dual": ((2.0, 1.0, 1.0, 0.25), range(4)),
    "market_view_density": ((0.0, 0.0), range(2)),
    "martingale_test": ((MixtureFpp(MIXTURE, MARKET, GRID), [(SP, "martingale")], 8, 7),
                        ()),
    "mixture_portfolio": ((0.1, 0.3, 1.0, 1.0, 1.0, a([0.2]), a([0.0]), a([0.0]),
                           a([[0.2]])), range(9)),
    "monotone_power_value": ((1.0, a([0.2]), 0.5), range(3)),
    "one_period_greedy": ((1.0, 1.0, 1.0, POOL, 0.1), (0, 1, 2, 4)),
    "optimal_portfolio": ((a([0.2]), a([0.0]), 0.5, a([[0.2]])), range(4)),
    "optimize_constant_z": ((POOL, 1.0), (1,)),
    "sharpe_ratio": ((a([[0.2]]), a([0.04])), range(2)),
    "structure_scan": ((np.log(X_GRID)[None], X_GRID), (1,)),
    "three_power_drift_factors": ((1.0, 1.0, 0.0, a([0.2]), a([0.4]), THREE), range(5)),
    "three_power_value": ((1.0, 1.0, 0.0, THREE), range(3)),
    "true_fpp_constants": ((2.0, 2.0, 4.0, 4.0, 4.0, 0.5), range(6)),
    "utility_surface": ((POOL, np.linspace(0.1, 0.9, 5), a([1.0, 2.0])), (1, 2)),
    "validate_power_paths": ((a([0.1, 0.2]), a([0.5, 0.4])), range(2)),
    "vgamma_rate": ((0.5, a([0.2]), a([0.1])), range(3)),
}


def call(name, args):
    fn = getattr(fpplab, name)
    if name == "martingale_test":
        fpp, runs, n_paths, seed = args
        return fn(fpp, runs, n_paths=n_paths, seed=seed, threads=1)
    return fn(*args)


def test_every_exported_function_has_a_call():
    exported = {name for name, value in vars(fpplab).items() if inspect.isfunction(value)}
    assert exported == set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_the_valid_call_runs_without_warning(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(name, CALLS[name][0])


@st.composite
def non_finite_calls(draw):
    """A function's valid call with one float argument, or one entry of a
    float array argument, replaced by NaN, inf or -inf."""
    name = draw(st.sampled_from(sorted(name for name, (_, at) in CALLS.items() if at)))
    args, at = CALLS[name]
    args = list(args)
    i = draw(st.sampled_from(list(at)))
    bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    if isinstance(args[i], float):
        args[i] = bad
    else:
        args[i] = args[i].copy()
        args[i][draw(st.sampled_from(list(np.ndindex(args[i].shape))))] = bad
    return name, args


@settings(max_examples=300, deadline=None)
@given(case=non_finite_calls())
def test_non_finite_argument_raises_without_warning(case):
    name, args = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((ValueError, FpplabError)):
            call(name, args)
