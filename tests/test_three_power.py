"""Signed three-power construction: closed form, certificates, drift factors."""

import numpy as np
import pytest

from fpplab.market import MarketSpec, TimeGrid, brownian_batch
from fpplab.mixture import hgamma, mixture_value, vgamma_rate
from fpplab.three_power import (ThreePowerFpp, ThreePowerSpec,
                                concavity_discriminants,
                                three_power_drift_factors, three_power_value)
from fpplab.verify import structure_scan


def base_market(lam=0.2):
    return MarketSpec(n_stocks=1, d_w=1, d_wperp=0, sigma=0.2, mu=0.2 * lam)


@pytest.mark.parametrize("gamma", [-0.1, 0.0, 1.0 / 3.0, 0.4, 1.0])
def test_spec_rejects_out_of_range(gamma):
    with pytest.raises(ValueError):
        ThreePowerSpec(gamma=gamma)


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def test_value_at_time_zero():
    spec = ThreePowerSpec(0.25)
    # 1/0.75 - 1/0.5 + 1/0.25 = 10/3
    assert three_power_value(1.0, 1.0, 0.0, spec) == pytest.approx(10.0 / 3.0)


def test_value_initial_condition_general_x():
    spec = ThreePowerSpec(0.2)
    g = spec.gamma
    for x in (0.3, 1.0, 5.0):
        direct = (x ** (1 - g) / (1 - g) - x ** (1 - 2 * g) / (1 - 2 * g)
                  + x ** (1 - 3 * g) / (1 - 3 * g))
        assert three_power_value(x, 1.0, 0.0, spec) == pytest.approx(direct)


def test_value_not_homogeneous_in_wealth():
    # a single-power criterion would satisfy U(cx) = c^(1-g) U(x); this one cannot
    spec = ThreePowerSpec(0.25)
    r1 = three_power_value(2.0, 1.0, 0.0, spec) / three_power_value(1.0, 1.0, 0.0, spec)
    r2 = three_power_value(4.0, 1.0, 0.0, spec) / three_power_value(2.0, 1.0, 0.0, spec)
    assert abs(r1 - r2) > 1e-3


def test_value_rejects_bad_domain():
    spec = ThreePowerSpec(0.25)
    with pytest.raises(ValueError):
        three_power_value(-1.0, 1.0, 0.0, spec)
    with pytest.raises(ValueError):
        three_power_value(1.0, 0.0, 0.0, spec)
    with pytest.raises(ValueError, match="wealth"):
        three_power_value(np.nan, 1.0, 0.0, spec)
    with pytest.raises(ValueError, match="z_factor"):
        three_power_value(1.0, [1.0, np.nan], 0.0, spec)


@pytest.mark.parametrize("x, z_factor", [(np.nan, 1.0), (1.0, np.nan)])
def test_drift_factors_reject_nan(x, z_factor):
    with pytest.raises(ValueError, match="must be positive"):
        three_power_drift_factors(x, z_factor, 0.0, [0.2], [0.0], ThreePowerSpec(0.25))


def test_value_survives_small_gamma_long_horizon():
    # log-space evaluation keeps the near-boundary aversion finite
    spec = ThreePowerSpec(0.05)
    val = three_power_value(1.0, 50.0, 30.0, spec)
    assert np.isfinite(val)


# ---------------------------------------------------------------------------
# generic-construction equivalence
# ---------------------------------------------------------------------------

def test_matches_generic_signed_mixture_along_path():
    # the construction is the signed mixture on aversions (g, 2g, 3g) with
    # weights (+1, -1, +1), base aversion 2g, zero free loadings
    g = 0.25
    spec = ThreePowerSpec(g)
    market = base_market(lam=0.3)
    grid = TimeGrid.regular(1.0, 1 / 64)
    dw, _ = brownian_batch(grid, 1, 0, seed=15, path_ids=[0])
    lam = market.sharpe_at(0.0)
    gammas = np.array([g, 2 * g, 3 * g])
    weights = np.array([1.0, -1.0, 1.0])
    m = np.zeros(3)
    qv = np.zeros(3)
    v = np.zeros(3)
    fpp = ThreePowerFpp(spec, market, grid)
    log_z, i_path = fpp.accumulators(dw), fpp.i_path
    for k in range(grid.n_steps):
        dt = float(grid.dt[k])
        for i, gam in enumerate(gammas):
            hg = hgamma(gam, 2 * g, lam, [0.0])
            m[i] += float(hg @ dw[:, k, 0])
            qv[i] += float(hg @ hg) * dt
            v[i] += vgamma_rate(gam, lam, hg) * dt
        x = 0.5 + k * 0.1  # arbitrary positive wealth probe per time
        generic = float(mixture_value(gammas, weights, np.log(x), m, qv, v))
        explicit = three_power_value(x, float(np.exp(log_z[0, k + 1, 0])),
                                     float(i_path[k + 1]), spec)
        assert explicit == pytest.approx(generic, rel=1e-10)


def test_utility_paths_match_pointwise_values():
    spec = ThreePowerSpec(0.2)
    market = base_market(lam=1.0)
    grid = TimeGrid.regular(1.0, 0.25)
    fpp = ThreePowerFpp(spec, market, grid)
    dw, dwp = brownian_batch(grid, 1, 0, seed=3, path_ids=range(4))
    log_x = np.log(1.7) * np.ones((grid.n_steps + 1, 4))
    u = fpp.utility_paths(fpp.state_paths(dw, dwp), log_x)
    log_z, i_path = fpp.accumulators(dw), fpp.i_path
    for b in (0, 3):
        for k in (0, 2, 4):
            expected = three_power_value(1.7, float(np.exp(log_z[0, k, b])),
                                         float(i_path[k]), spec)
            assert u[k, b] == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# discriminant certificates
# ---------------------------------------------------------------------------

def test_discriminants_reference_point():
    mono, conc = concavity_discriminants(0.25)
    assert mono == pytest.approx(-3 * np.exp(-1.0))
    assert conc == pytest.approx(-8 * np.exp(-1.0))


def test_discriminants_negative_across_grid():
    for g in np.linspace(0.004, 0.333, 50):
        mono, conc = concavity_discriminants(float(g))
        assert mono < 0.0
        assert conc < 0.0


def test_discriminants_vanish_towards_zero_aversion():
    mono_small, conc_small = concavity_discriminants(0.01)
    assert -1e-20 < mono_small < 0.0
    assert -1e-20 < conc_small < 0.0


def test_discriminants_domain_error():
    with pytest.raises(ValueError):
        concavity_discriminants(0.4)


def test_finite_difference_concavity_random_states():
    spec = ThreePowerSpec(0.25)
    rng = np.random.default_rng(6)
    states = np.array([(float(np.exp(rng.normal(scale=0.8))), float(rng.uniform(0.0, 3.0)))
                       for _ in range(100)])
    x = np.geomspace(1e-2, 1e2, 24)
    report = structure_scan(three_power_value(x, states[:, :1], states[:, 1:], spec), x)
    assert report.passed


# ---------------------------------------------------------------------------
# drift factorisation
# ---------------------------------------------------------------------------

def test_quadratic_factor_zero_at_optimiser():
    spec = ThreePowerSpec(0.25)
    lam = np.array([0.2])
    sp_star = lam / (2 * spec.gamma)
    _, quad = three_power_drift_factors(1.0, 1.0, 0.0, lam, sp_star, spec)
    assert quad == pytest.approx(0.0, abs=1e-15)


def test_quadratic_factor_at_zero_allocation():
    spec = ThreePowerSpec(0.25)
    _, quad = three_power_drift_factors(1.0, 1.0, 0.0, [0.2], [0.0], spec)
    assert quad == pytest.approx(0.04 / (8 * 0.25))


def test_quadratic_factor_nonnegative_everywhere():
    spec = ThreePowerSpec(0.2)
    rng = np.random.default_rng(2)
    for _ in range(500):
        sp = rng.normal(size=1, scale=3.0)
        _, quad = three_power_drift_factors(1.0, 1.0, 0.5, [0.4], sp, spec)
        assert quad >= 0.0


def test_positive_factor_over_random_states():
    spec = ThreePowerSpec(0.2)
    rng = np.random.default_rng(13)
    for _ in range(10_000):
        z = float(np.exp(rng.normal(scale=1.0)))
        x = float(np.exp(rng.normal(scale=1.5)))
        i = float(rng.uniform(0.0, 2.0))
        pos, _ = three_power_drift_factors(x, z, i, [0.2], [0.1], spec)
        assert pos > 0.0


def test_optimal_allocation_target():
    spec = ThreePowerSpec(0.25)
    fpp = ThreePowerFpp(spec, base_market(lam=0.2), TimeGrid.regular(1.0, 0.5))
    assert fpp.sp_star[0] == pytest.approx([0.4])
    assert fpp.u0(1.0) == pytest.approx(10.0 / 3.0)


def test_sp_star_rows_equal_the_per_time_formula():
    spec = ThreePowerSpec(0.2)
    market = MarketSpec(n_stocks=1, d_w=1, d_wperp=0,
                        sigma=[{"t": 0.0, "value": 0.2}, {"t": 0.5, "value": 0.3}],
                        mu=[{"t": 0.0, "value": 0.04}, {"t": 0.25, "value": 0.09}])
    grid = TimeGrid.regular(1.0, 0.125)
    fpp = ThreePowerFpp(spec, market, grid)
    assert fpp.sp_star.shape == (grid.n_steps, 1)
    for k, t in enumerate(grid.times[:-1]):
        expected = market.sharpe_at(float(t)) / (2.0 * spec.gamma)
        assert np.array_equal(fpp.sp_star[k], expected)
