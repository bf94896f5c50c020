"""Acceptance suite: every shipped claim at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  Monte Carlo criteria pin their seeds; each stochastic check states
its tolerance (3 standard errors unless noted) and its runtime budget.
"""

import time

import numpy as np
import pytest

from fpplab.errors import InvalidExponentError
from fpplab.market import MarketSpec, TimeGrid, brownian_batch
from fpplab.mixture import (H0Spec, JSpec, MixtureFpp, RiskMixture, optimal_portfolio,
                            true_fpp_constants, vgamma_rate)
from fpplab.pooling import (compare_strategies, constant_z_expected_utility,
                            optimize_constant_z, preset, utility_surface)
from fpplab.three_power import (ThreePowerFpp, ThreePowerSpec,
                                concavity_discriminants, three_power_value)
from fpplab.two_power import (coefficient_drifts, consistency_gap, dual_marginal,
                              joint_drift, legendre_dual, zero_gap_d_vol)
from fpplab.verify import (VERDICT_MARTINGALE, VERDICT_SUPER_STRICT,
                           martingale_test, structure_scan)
from test_pooling import simulated_expected_utility

BASE_MARKET = MarketSpec(n_stocks=1, d_w=1, d_wperp=0, sigma=0.2, mu=0.04)  # lam 0.2
UNIT_SHARPE_MARKET = MarketSpec(n_stocks=1, d_w=1, d_wperp=0, sigma=0.2, mu=0.2)


def test_criterion_01_martingale_suite():
    """Single-atom criterion: martingale at the optimiser, exact decay at null."""
    start = time.monotonic()
    mix = RiskMixture(atoms=((0.5, 1.0),), gamma0=0.5)
    grid = TimeGrid.regular(1.0, 1 / 252)
    fpp = MixtureFpp(mix, BASE_MARKET, grid)
    [report] = martingale_test(fpp, [(fpp.sp_star, "martingale")],
                               n_paths=100_000, seed=7)
    dev_terminal = abs(report.mean[-1] - report.reference)
    assert dev_terminal <= 3.0 * report.se[-1]
    assert report.verdict == VERDICT_MARTINGALE  # 3-se band at every grid time

    # null portfolio: wealth is frozen, so the criterion decays deterministically
    # at its finite-variation rate v and the mean must track U0 exp(v t)
    [null] = martingale_test(fpp, [(np.zeros((grid.n_steps, 1)), "supermartingale")],
                             n_paths=2_000, seed=7)
    rate = vgamma_rate(0.5, BASE_MARKET.sharpe_at(0.0), [0.0])
    predicted = null.reference * np.exp(rate * grid.times)
    band = 3.0 * null.se + 1e-9
    assert np.all(np.abs(null.mean - predicted) <= band)
    assert null.verdict == VERDICT_SUPER_STRICT
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 1: PASS (|dev_T| = {dev_terminal:.2e}, {elapsed:.1f} s)")


def test_criterion_02_h_inversion():
    """Any target portfolio is recoverable, and its criterion passes the suite."""
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = rng.integers(1, 4)
        d_w = n + rng.integers(0, 3)
        sigma = rng.normal(size=(d_w, n)) + np.eye(d_w, n)
        lam = rng.normal(size=d_w)
        pi = rng.normal(size=n, scale=3.0)
        g0 = rng.uniform(0.2, 3.0)
        h0 = g0 * (sigma @ pi) - lam
        assert optimal_portfolio(lam, h0, g0, sigma) == pytest.approx(pi, abs=1e-10)

    # one representative inverted criterion through the Monte Carlo suite
    mix = RiskMixture(atoms=((0.5, 1.0),), gamma0=0.5,
                      h0=H0Spec("portfolio_inversion", [1.7]))
    grid = TimeGrid.regular(1.0, 1 / 252)
    fpp = MixtureFpp(mix, BASE_MARKET, grid)
    assert fpp.sp_star[0] == pytest.approx([0.2 * 1.7])
    at_target, at_null = martingale_test(
        fpp, [(fpp.sp_star, "martingale"),
              (np.zeros((grid.n_steps, 1)), "supermartingale")],
        n_paths=10_000, seed=5)
    assert at_target.verdict == VERDICT_MARTINGALE
    assert at_null.verdict == VERDICT_SUPER_STRICT
    print("criterion 2: PASS (100 round trips at 1e-10; suite at 1e4 paths)")


def test_criterion_03_two_power_characterisation():
    """Joint drift <= 0 with equality exactly at zero consistency gap."""
    rng = np.random.default_rng(9)
    n_zero = 0
    for i in range(1000):
        p, q = sorted(rng.uniform(0.05, 0.95, size=2))
        if q - p < 1e-3:
            q = min(0.95, p + 1e-3)
        lam = rng.normal(size=2)
        a = rng.normal(size=2, scale=0.5)
        d = zero_gap_d_vol(p, q, lam, a) if i % 2 == 0 \
            else rng.normal(size=2, scale=0.5)
        ac, dc = rng.uniform(0.1, 5.0, size=2)
        x = float(np.exp(rng.uniform(-3, 3)))
        drift = joint_drift(p, q, ac, dc, x, lam, a, d)
        gap = consistency_gap(p, q, lam, a, d)
        assert drift <= 0.0
        if gap < 1e-12:
            n_zero += 1
            assert abs(drift) < 1e-12
        else:
            assert abs(drift) >= 1e-12 or gap < 1e-6  # tiny gaps square away
    assert n_zero == 500

    # zero gap: the joint process equals the sum of two one-power criteria
    market = MarketSpec(n_stocks=1, d_w=1, d_wperp=1, sigma=0.25, mu=0.075)
    lam = market.sharpe_at(0.0)
    grid = TimeGrid.regular(1.0, 1 / 252)
    for trial in range(3):
        p, q = sorted(rng.uniform(0.1, 0.85, size=2))
        if q - p < 0.05:
            q = min(0.85, p + 0.05)
        a = rng.normal(size=1, scale=0.3)
        d = zero_gap_d_vol(p, q, lam, a)
        a_perp = rng.normal(size=1, scale=0.2)
        d_perp = rng.normal(size=1, scale=0.2)
        dw, dwp = brownian_batch(grid, 1, 1, seed=300 + trial, path_ids=range(2))
        # constant loadings: A and D are exact lognormals in the running W, W_perp
        alpha, delta = coefficient_drifts(p, q, lam, a, d)
        t = grid.times
        # running levels (N+1, B, d) of each driver
        w_t = np.concatenate([np.zeros((1, 1, 2)), np.cumsum(dw, axis=1)],
                             axis=1).transpose(1, 2, 0)
        wp_t = np.concatenate([np.zeros((1, 1, 2)), np.cumsum(dwp, axis=1)],
                              axis=1).transpose(1, 2, 0)
        t = t[:, None]
        log_a = (np.log(1.1) + (alpha - 0.5 * (a @ a + a_perp @ a_perp)) * t
                 + w_t @ a + wp_t @ a_perp)
        log_d = (np.log(0.8) + (delta - 0.5 * (d @ d + d_perp @ d_perp)) * t
                 + w_t @ d + wp_t @ d_perp)
        c = float((lam + a)[0] / (1 - p))
        log_x = (c * lam[0] - 0.5 * c * c) * t + c * w_t[:, :, 0]
        joint = np.exp(log_a + p * log_x) + np.exp(log_d + q * log_x)
        mix = RiskMixture(atoms=((1 - p, p * 1.1), (1 - q, q * 0.8)),
                          gamma0=1 - p, h0=H0Spec("constant", a),
                          j=JSpec("constant", [a_perp, d_perp]))
        generic_fpp = MixtureFpp(mix, market, grid)
        generic = generic_fpp.utility_paths(generic_fpp.state_paths(dw, dwp), log_x)
        np.testing.assert_allclose(joint, generic, rtol=1e-10)
    print("criterion 3: PASS (1000 draws; zero-gap paths match to 1e-10)")


def test_criterion_04_dual_round_trip():
    """Marginal utility of the dual maximiser returns y to 1e-10 relative."""
    worst = 0.0
    for gamma in (0.1, 0.25, 0.4):
        for a_coeff in (0.5, 1.0, 2.0):
            for d_coeff in (0.5, 1.0, 2.0):
                for y in np.geomspace(1e-3, 1e3, 50):
                    x_star, _ = legendre_dual(float(y), a_coeff, d_coeff, gamma)
                    back = dual_marginal(x_star, a_coeff, d_coeff, gamma)
                    worst = max(worst, abs(back - y) / y)
    assert worst <= 1e-10
    print(f"criterion 4: PASS (worst relative error {worst:.2e})")


def test_criterion_05a_optimizer_band_fig1():
    """Best constant proportion stays in [0.20, 0.30] over every horizon."""
    start = time.monotonic()
    spec = preset("fig1")
    for t in range(1, 31):
        z_star = optimize_constant_z(spec, float(t)).z_star
        assert 0.20 <= z_star <= 0.30, f"t={t}: z*={z_star}"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"criterion 5 (fig1): PASS ({elapsed:.2f} s)")


def _closed_form_argmax(p, q, wa, wd, lam2t, tol=1e-12):
    """Maximiser of the constant-z closed form, by bisection on its z-derivative.

    Written out here so the reference does not share code with the
    optimiser.  With s = lam^2 t the closed form is
    F(z) = wa e^{E_p(z)} + wd e^{E_q(z)}, E_p(z) = -p (z-p)^2 s / (2(1-p)(1-z)^2)
    (likewise E_q), and d/dz [(z-p)^2 / (1-z)^2] = 2 (z-p)(1-p) / (1-z)^3, so

        dF/dz = -s / (1-z)^3 * g(z),
        g(z)  = wa p (z-p) e^{E_p(z)} + wd q (z-q) e^{E_q(z)}.

    g(p) < 0 < g(q), so the maximiser is a root of g in (p, q).
    """
    def g(z):
        ep = -p * (z - p) ** 2 * lam2t / (2.0 * (1.0 - p) * (1.0 - z) ** 2)
        eq = -q * (z - q) ** 2 * lam2t / (2.0 * (1.0 - q) * (1.0 - z) ** 2)
        return wa * p * (z - p) * np.exp(ep) + wd * q * (z - q) * np.exp(eq)

    lo, hi = p, q
    assert g(lo) < 0.0 < g(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_05b_optimizer_band_fig2():
    """Halved Sharpe ratio: z* is the closed form's own maximiser.

    The closed form depends on (z, lam^2 t) only, so fig2 (lam = 0.5) at
    t = 30 is fig1 (lam = 1) at t = 7.5.  With equal weights its
    small-horizon maximiser is (p^2+q^2)/(p+q) = 0.25 (substitute
    u = 1/(1-z): a convex quadratic in u), and as the horizon grows the
    q term decays less than the p term, so z* moves right of 0.25.  Halving
    the Sharpe ratio therefore puts z* between that limit and fig1's z*.
    The published reading z* ~ 0.2 lies below the limit and is not reached
    at any horizon for this preset.
    """
    spec = preset("fig2")
    result = optimize_constant_z(spec, 30.0)
    z_star = result.z_star
    assert len(result.local_maxima) == 1, result.local_maxima

    wa = spec.a0 * spec.x0 ** spec.p
    wd = spec.d0 * spec.x0 ** spec.q
    z_ref = _closed_form_argmax(spec.p, spec.q, wa, wd, spec.lam ** 2 * 30.0)
    assert abs(z_star - z_ref) <= 1e-5, (
        f"optimiser z* = {z_star:.7f}, root of the closed form's "
        f"z-derivative z_ref = {z_ref:.7f}")

    z_scaled = optimize_constant_z(preset("fig1"), 30.0 * spec.lam ** 2).z_star
    assert abs(z_star - z_scaled) <= 1e-9, (
        f"z*(fig2, 30) = {z_star!r} but z*(fig1, 7.5) = {z_scaled!r}: the "
        f"closed form depends on (z, lam^2 t) only")

    z_limit = (spec.p ** 2 + spec.q ** 2) / (spec.p + spec.q)
    z_fig1 = optimize_constant_z(preset("fig1"), 30.0).z_star
    assert z_limit < z_star < z_fig1, (
        f"need (p^2+q^2)/(p+q) = {z_limit:.4f} < z*(fig2, 30) = "
        f"{z_star:.4f} < z*(fig1, 30) = {z_fig1:.4f}: halving lam shortens "
        f"the effective horizon lam^2 t, which moves z* toward the "
        f"small-horizon limit, not below it")
    print(f"criterion 5 (fig2): PASS (z* = {z_star:.4f}, z_ref = {z_ref:.4f})")


def test_criterion_05c_optimizer_two_maxima_fig3():
    """High Sharpe ratio splits the objective into exactly two local maxima."""
    spec = preset("fig3")
    result = optimize_constant_z(spec, 30.0)
    assert len(result.local_maxima) == 2
    lo, hi = sorted(z for z, _ in result.local_maxima)
    assert 0.05 < lo < 0.18
    assert 0.22 < hi < 0.40
    print(f"criterion 5 (fig3): PASS (maxima at {lo:.3f}, {hi:.3f})")


def test_criterion_06_closed_form_vs_simulation():
    """Twelve spot checks across the presets agree within 3 standard errors."""
    start = time.monotonic()
    checks = [("fig1", 0.25, 1.0), ("fig1", 0.25, 5.0), ("fig1", 0.15, 10.0),
              ("fig2", 0.20, 10.0), ("fig2", 0.25, 30.0), ("fig2", 0.35, 20.0),
              ("fig3", 0.10, 0.5), ("fig3", 0.30, 0.25), ("fig3", 0.20, 0.5),
              ("fig4", 0.25, 5.0), ("fig4", 0.40, 2.0), ("fig4", 0.15, 10.0)]
    worst = 0.0
    for name, z, t in checks:
        spec = preset(name)
        mean, se = simulated_expected_utility(spec, z, t, n_paths=100_000,
                                              seed=2024)
        closed = constant_z_expected_utility(z, t, spec)
        worst = max(worst, abs(mean - closed) / se)
        assert abs(mean - closed) <= 3.0 * se, (name, z, t)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"criterion 6: PASS (worst |dev|/se {worst:.2f}, {elapsed:.1f} s)")


def test_criterion_07_strategy_comparison():
    """Constant z* dominates at the horizon; the feedback rule is in between."""
    start = time.monotonic()
    spec = preset("fig1")
    result = compare_strategies(spec, n_paths=1000, seed=7)
    const = result.strategies["constant_z_star"]
    feedback = result.strategies["pi_star"]
    greedy = result.strategies["pi_e"]
    for other in ("pi_star", "pi_e"):
        slack = result.paired_se("constant_z_star", other)
        assert (const.mean_utility[-1]
                >= result.strategies[other].mean_utility[-1] - slack)
    between = sum(
        min(const.mean_allocation[k], greedy.mean_allocation[k])
        <= feedback.mean_allocation[k]
        <= max(const.mean_allocation[k], greedy.mean_allocation[k])
        for k in range(spec.n_periods))
    assert between >= 20, f"feedback allocation between the others in {between}/30"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 7: PASS (between in {between}/30 periods, {elapsed:.1f} s)")


def test_criterion_08_three_power_suite():
    """Certificates, finite-difference concavity, martingale and strict decay."""
    start = time.monotonic()
    for g in np.linspace(1.0 / 3.0 / 51.0, 1.0 / 3.0 * 50.0 / 51.0, 50):
        mono, conc = concavity_discriminants(float(g))
        assert mono < 0.0 and conc < 0.0

    spec = ThreePowerSpec(0.25)
    rng = np.random.default_rng(8)
    states = np.array([(float(np.exp(rng.normal(scale=0.8))), float(rng.uniform(0.0, 3.0)))
                       for _ in range(100)])
    x = np.geomspace(1e-2, 1e2, 24)
    scan = structure_scan(three_power_value(x, states[:, :1], states[:, 1:], spec), x)
    assert scan.passed

    grid = TimeGrid.regular(1.0, 1 / 12)
    fpp = ThreePowerFpp(spec, BASE_MARKET, grid)
    [at_opt] = martingale_test(fpp, [(fpp.sp_star, "martingale")],
                               n_paths=100_000, seed=7)
    assert at_opt.verdict == VERDICT_MARTINGALE

    fpp1 = ThreePowerFpp(spec, UNIT_SHARPE_MARKET, grid)
    [at_null] = martingale_test(fpp1, [(np.zeros((grid.n_steps, 1)), "supermartingale")],
                                n_paths=100_000, seed=7)
    assert at_null.verdict == VERDICT_SUPER_STRICT
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 8: PASS ({elapsed:.1f} s)")


def test_criterion_09_constants_calculator():
    """q and the Novikov lower bound at the reference exponents, plus rejection."""
    consts = true_fpp_constants(2.0, 2.0, 4.0, 4.0, 4.0, 0.5)
    assert consts.q == 4.0
    assert consts.cj_lower == 120.0
    with pytest.raises(InvalidExponentError):
        true_fpp_constants(2.0, 2.0, 2.0, 2.0, 2.0, 0.5)
    with pytest.raises(InvalidExponentError):
        true_fpp_constants(1.0, 2.0, 4.0, 4.0, 4.0, 0.5)
    print("criterion 9: PASS")


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
def test_criterion_10_time_decay(name):
    """Surfaces never rise in t and never exceed the initial row."""
    spec = preset(name)
    z = np.linspace(0.01, 0.99, 100)
    t = np.linspace(0.0, 30.0, 31)
    surf = utility_surface(spec, z, t)
    assert np.all(surf.values <= surf.values[0] + 1e-12)
    diffs = np.diff(surf.values, axis=0)
    assert np.all(diffs <= 0.0)
    # strict decay off z in {p, q}, except where the value underflowed to 0
    off_pq = (np.abs(z - spec.p) > 1e-9) & (np.abs(z - spec.q) > 1e-9)
    strict = diffs[:, off_pq]
    saturated = surf.values[1:][:, off_pq] == 0.0
    assert np.all((strict < 0.0) | saturated)
    print(f"criterion 10 ({name}): PASS")
