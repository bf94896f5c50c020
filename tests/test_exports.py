"""The functions that ``fpplab`` exports, and the analytic ones of its modules,
reject a non-finite argument: each raises ValueError or an FpplabError, led by
the argument's name unless its table exempts it, warns nothing and returns
nothing."""

import inspect
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fpplab
from fpplab import (MarketSpec, MixtureFpp, RiskMixture, ThreePowerSpec, TimeGrid,
                    brownian_batch, two_power)
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
# float arrays, and of those the positions whose error does not lead with the
# argument's name); objects, counts and seeds are not floats.  Of
# evolve_log_wealth_batch's arrays only the schedule is checked: lam_path and
# dw are the engine's own (sharpe_path checks lam, brownian_batch draws dw),
# and a check of dw would cost every chunk a pass over it.  structure_scan
# judges its values, so a non-finite value fails the scan instead of raising.
# market.check_finite and market.check_positive name the argument first; the
# positions in the last entry are worded by checks of their own: schedules
# (check_schedule), powers, aversions and exponents, the pool grids, the power
# paths, and optimal_portfolio's lam and h0, which solve_allocation checks as
# their sum, the target.
CALLS = {
    "brownian_batch": ((GRID, 1, 0, 7, range(2)), (), ()),
    "check_admissibility_moments": ((SP, MARKET, MIXTURE, 2.0, 2.0, GRID, 1.0),
                                    (0, 3, 4, 6), (0, 3, 4)),
    "coefficient_drifts": ((0.1, 0.3, a([0.2]), a([0.0]), a([0.0])), range(5), (0, 1)),
    "compare_strategies": ((POOL, 8, 7), (), ()),
    "concavity_discriminants": ((0.25,), (0,), ()),
    "consistency_gap": ((0.1, 0.3, a([0.2]), a([0.0]), a([0.0])), range(5), (0, 1)),
    "constant_z_expected_utility": ((0.5, 1.0, POOL), (0, 1), (0, 1)),
    "drift_term": ((0.5, a([0.3]), a([0.2]), a([0.1])), range(4), (0,)),
    "evolve_log_wealth_batch": ((1.0, SP, np.full((GRID.n_steps, 1), 0.2), GRID,
                                 brownian_batch(GRID, 1, 0, 7, range(2))[0]), (0, 1), (1,)),
    "factor_j": ((a([[1.0]]), a([[0.5]]), a([0.1])), range(3), ()),
    "hgamma": ((0.5, 0.5, a([0.2]), a([0.0])), range(4), (1,)),
    "joint_drift": ((0.1, 0.3, 1.0, 1.0, 1.0, a([0.2]), a([0.0]), a([0.0])), range(8),
                    (0, 1)),
    "legendre_dual": ((2.0, 1.0, 1.0, 0.25), range(4), ()),
    "market_view_density": ((0.0, 0.0), range(2), ()),
    "martingale_test": ((MixtureFpp(MIXTURE, MARKET, GRID), [(SP, "martingale")], 8, 7),
                        (), ()),
    "mixture_portfolio": ((0.1, 0.3, 1.0, 1.0, 1.0, a([0.2]), a([0.0]), a([0.0]),
                           a([[0.2]])), range(9), (0, 1)),
    "monotone_power_value": ((1.0, a([0.2]), 0.5), range(3), (2,)),
    "one_period_greedy": ((1.0, 1.0, 1.0, POOL, 0.1), (0, 1, 2, 4), ()),
    "optimal_portfolio": ((a([0.2]), a([0.0]), 0.5, a([[0.2]])), range(4), (0, 1, 2)),
    "optimize_constant_z": ((POOL, 1.0), (1,), ()),
    "sharpe_ratio": ((a([[0.2]]), a([0.04])), range(2), ()),
    "structure_scan": ((np.log(X_GRID)[None], X_GRID), (1,), ()),
    "three_power_drift_factors": ((1.0, 1.0, 0.0, a([0.2]), a([0.4]), THREE), range(5),
                                  ()),
    "three_power_value": ((1.0, 1.0, 0.0, THREE), range(3), ()),
    "true_fpp_constants": ((2.0, 2.0, 4.0, 4.0, 4.0, 0.5), range(6), range(6)),
    "utility_surface": ((POOL, np.linspace(0.1, 0.9, 5), a([1.0, 2.0])), (1, 2), (1, 2)),
    "validate_power_paths": ((a([0.1, 0.2]), a([0.5, 0.4])), range(2), range(2)),
    "vgamma_rate": ((0.5, a([0.2]), a([0.1])), range(3), (0,)),
}
# the same for the public analytic functions of fpplab.two_power that fpplab
# does not export
MODULE_CALLS = {
    "dual_marginal": ((2.0, 1.0, 1.0, 0.25), range(4), ()),
    "mixture_sp_target": ((0.1, 0.3, 1.0, 1.0, 1.0, a([0.2]), a([0.0]), a([0.0])),
                          range(8), (0, 1)),
    "zero_gap_d_vol": ((0.1, 0.3, a([0.2]), a([0.0])), range(4), (0, 1)),
}
ALL_CALLS = {**CALLS, **MODULE_CALLS}
# the arguments that must be positive as well as finite (t = 0 is valid in
# constant_z_expected_utility, not in optimize_constant_z)
POSITIVE = {
    "check_admissibility_moments": ("x0",),
    "dual_marginal": ("x", "a_coeff", "d_coeff"),
    "evolve_log_wealth_batch": ("x0",),
    "joint_drift": ("a_coeff", "d_coeff", "x"),
    "legendre_dual": ("y", "a_coeff", "d_coeff"),
    "mixture_portfolio": ("a_coeff", "d_coeff", "x"),
    "mixture_sp_target": ("a_coeff", "d_coeff", "x"),
    "monotone_power_value": ("x",),
    "one_period_greedy": ("a_eff", "d_eff", "x", "dt"),
    "optimize_constant_z": ("t",),
    "three_power_drift_factors": ("x", "z_factor"),
    "three_power_value": ("x", "z_factor"),
}


def function(name):
    return getattr(fpplab, name) if name in CALLS else getattr(two_power, name)


def parameters(name):
    return list(inspect.signature(function(name)).parameters)


def call(name, args):
    fn = function(name)
    if name == "martingale_test":
        fpp, runs, n_paths, seed = args
        return fn(fpp, runs, n_paths=n_paths, seed=seed, threads=1)
    return fn(*args)


def test_every_exported_function_has_a_call():
    exported = {name for name, value in vars(fpplab).items() if inspect.isfunction(value)}
    assert exported == set(CALLS)


@pytest.mark.parametrize("name", sorted(ALL_CALLS))
def test_the_valid_call_runs_without_warning(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(name, ALL_CALLS[name][0])


@st.composite
def non_finite_calls(draw):
    """A function's valid call with one float argument, or one entry of a
    float array argument, replaced by NaN, inf or -inf."""
    name = draw(st.sampled_from(sorted(name for name, (_, at, _) in ALL_CALLS.items()
                                       if at)))
    args, at, _ = ALL_CALLS[name]
    args = list(args)
    i = draw(st.sampled_from(list(at)))
    bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    if isinstance(args[i], float):
        args[i] = bad
    else:
        args[i] = args[i].copy()
        args[i][draw(st.sampled_from(list(np.ndindex(args[i].shape))))] = bad
    return name, i, args


@settings(max_examples=300, deadline=None)
@given(case=non_finite_calls())
def test_non_finite_argument_raises_without_warning(case):
    name, i, args = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((ValueError, FpplabError)) as err:
            call(name, args)
    if i not in ALL_CALLS[name][2]:
        assert str(err.value).startswith(f"{parameters(name)[i]}: ")


@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, -5e-324, -np.inf])
@pytest.mark.parametrize("name, param", [(name, param) for name, params in POSITIVE.items()
                                         for param in params])
def test_non_positive_argument_is_named_without_warning(name, param, bad):
    args = list(ALL_CALLS[name][0])
    args[parameters(name).index(param)] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{param}: must be positive and finite, "
                                             rf"got {re.escape(str(bad))}$"):
            call(name, args)


@pytest.mark.parametrize("entry", [
    lambda: two_power.dual_marginal(np.inf, 1.0, 1.0, 0.25),
    lambda: MixtureFpp(MIXTURE, MARKET, GRID).u0(np.inf),
], ids=["dual_marginal", "MixtureFpp.u0"])
def test_infinite_wealth_is_rejected(entry):
    # dual_marginal(inf) returned 0.0 and u0(inf) returned inf, while
    # monotone_power_value and ThreePowerFpp.u0 rejected it
    with pytest.raises(ValueError, match="^x: must be positive and finite, got inf$"):
        entry()
