"""Two-power mixtures: drifts, consistency gap, portfolio, dual, validators."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpplab import two_power
from fpplab.market import MarketSpec, TimeGrid, brownian_batch
from fpplab.mixture import H0Spec, JSpec, MixtureFpp, RiskMixture
from fpplab.two_power import (TwoPowerSpec, coefficient_drifts, consistency_gap,
                              dual_marginal, joint_drift, legendre_dual,
                              mixture_portfolio, mixture_sp_target,
                              validate_power_paths, zero_gap_d_vol)

# frozen by hand: gap = |1/0.9 - 1/0.7| = 20/63, prefactor 0.0189/0.3, so the
# drift at p=0.1, q=0.3, a=d=0, lam=1, A=D=x=1 is -(0.063)(400/3969) = -25.2/3969
JOINT_DRIFT_REFERENCE = -25.2 / 3969.0


def test_spec_validation():
    with pytest.raises(ValueError):
        TwoPowerSpec(p=0.3, q=0.1, a0=1.0, d0=1.0, a_vol=[0.0], d_vol=[0.0])
    with pytest.raises(ValueError):
        TwoPowerSpec(p=0.1, q=1.2, a0=1.0, d0=1.0, a_vol=[0.0], d_vol=[0.0])
    with pytest.raises(ValueError):
        TwoPowerSpec(p=0.1, q=0.3, a0=0.0, d0=1.0, a_vol=[0.0], d_vol=[0.0])


# ---------------------------------------------------------------------------
# coefficient drifts and the consistency gap
# ---------------------------------------------------------------------------

def test_drift_vanishing_argument():
    alpha, _ = coefficient_drifts(0.1, 0.3, [0.2], [-0.2], [0.0])
    assert alpha == 0.0


def test_drift_arithmetic_p():
    alpha, _ = coefficient_drifts(0.1, 0.3, [1.0], [0.0], [0.0])
    assert alpha == pytest.approx(-0.1 / 1.8)


def test_drift_arithmetic_q():
    _, delta = coefficient_drifts(0.1, 0.5, [0.2], [0.0], [0.0])
    assert delta == pytest.approx(-0.02)


def test_gap_symmetric_case():
    assert consistency_gap(0.2, 0.2, [0.7], [0.1], [0.1]) == 0.0


def test_gap_closes_with_solved_d():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p, q = sorted(rng.uniform(0.05, 0.95, size=2))
        if q - p < 1e-3:
            continue
        lam = rng.normal(size=2)
        a = rng.normal(size=2)
        d = zero_gap_d_vol(p, q, lam, a)
        assert consistency_gap(p, q, lam, a, d) < 1e-14


def test_gap_arithmetic_pool_setting():
    # the pooled-investment setting is deliberately inconsistent
    assert consistency_gap(0.1, 0.3, [1.0], [0.0], [0.0]) == pytest.approx(
        abs(1 / 0.9 - 1 / 0.7))


# ---------------------------------------------------------------------------
# joint portfolio
# ---------------------------------------------------------------------------

def test_portfolio_zero_gap_is_state_independent():
    p, q = 0.15, 0.45
    lam = np.array([0.6])
    a = np.array([0.1])
    d = zero_gap_d_vol(p, q, lam, a)
    expected = (lam + a) / (1 - p)
    for x, ac, dc in [(0.01, 1.0, 1.0), (1.0, 0.2, 5.0), (1e6, 3.0, 0.1)]:
        sp = mixture_sp_target(p, q, ac, dc, x, lam, a, d)
        assert sp == pytest.approx(expected, rel=1e-12)


def test_portfolio_single_term_limit():
    # A -> 0 pushes the allocation to the q-side target
    lam, a, d = np.array([0.5]), np.array([0.0]), np.array([0.2])
    sp = mixture_sp_target(0.1, 0.3, 1e-280, 1.0, 1.0, lam, a, d)
    assert sp == pytest.approx((lam + d) / 0.7, rel=1e-10)


@pytest.mark.parametrize("a_coeff, d_coeff, side", [
    (1e-300, 1e300, "q"), (1e300, 1e-300, "p"), (1e-300, 1.0, "q"), (1.0, 1e-300, "p")])
def test_portfolio_extreme_coefficient_ratios_give_one_power_targets(a_coeff, d_coeff, side):
    # the p-side weight is an overflow-safe sigmoid of the log weights: at
    # coefficient ratios of 1e300 and beyond float range it selects one
    # target, with no warning
    lam, a, d = np.array([1.0]), np.array([0.3]), np.array([-0.2])
    target = (lam + a) / 0.9 if side == "p" else (lam + d) / 0.7
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sp = mixture_sp_target(0.1, 0.3, a_coeff, d_coeff, 1.0, lam, a, d)
    assert sp == pytest.approx(target, rel=1e-15)


@pytest.mark.parametrize("a_coeff, d_coeff, side", [(5e-324, 1.0, "q"), (1.0, 5e-324, "p")])
def test_subnormal_coefficient_gives_one_power_limit(a_coeff, d_coeff, side):
    # p(1-p)A underflows to 0 at A = 5e-324 while log(A) is finite: with the
    # log weights formed as sums of logs neither call warns, the target is the
    # other side's one-power target and the pooling cost vanishes
    lam, a, d = [1.0], [0.0], [0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sp = mixture_sp_target(0.1, 0.3, a_coeff, d_coeff, 1.0, lam, a, d)
        drift = joint_drift(0.1, 0.3, a_coeff, d_coeff, 1.0, lam, a, d)
    assert sp == pytest.approx([1.0 / 0.9 if side == "p" else 1.0 / 0.7], rel=1e-15)
    assert drift == 0.0


def test_portfolio_arithmetic():
    sp = mixture_sp_target(0.1, 0.3, 1.0, 1.0, 1.0, [1.0], [0.0], [0.0])
    assert sp == pytest.approx([0.4 / 0.3])


def test_portfolio_solves_through_sigma():
    pi = mixture_portfolio(0.1, 0.3, 1.0, 1.0, 1.0, [1.0], [0.0], [0.0], [[0.2]])
    assert 0.2 * pi[0] == pytest.approx(4.0 / 3.0)


def test_portfolio_interpolates_between_targets():
    p, q = 0.1, 0.3
    lam, a, d = np.array([1.0]), np.array([0.3]), np.array([-0.2])
    ta = (lam + a) / (1 - p)
    td = (lam + d) / (1 - q)
    lo, hi = min(ta[0], td[0]), max(ta[0], td[0])
    for x in np.geomspace(1e-8, 1e8, 30):
        sp = mixture_sp_target(p, q, 1.0, 1.0, float(x), lam, a, d)[0]
        assert lo - 1e-12 <= sp <= hi + 1e-12
    # x -> 0 selects the p side, x -> inf the q side
    assert mixture_sp_target(p, q, 1.0, 1.0, 1e-300, lam, a, d) == pytest.approx(ta)
    assert mixture_sp_target(p, q, 1.0, 1.0, 1e300, lam, a, d) == pytest.approx(td)


# ---------------------------------------------------------------------------
# joint drift
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x, a_coeff, d_coeff", [(np.nan, 1.0, 1.0), (1.0, np.nan, 1.0),
                                                 (1.0, 1.0, np.nan), (np.inf, 1.0, 1.0),
                                                 (1.0, np.inf, 1.0), (1.0, 1.0, np.inf)])
@pytest.mark.parametrize("function", [mixture_sp_target, joint_drift],
                         ids=["mixture_sp_target", "joint_drift"])
def test_joint_criterion_rejects_nan(function, x, a_coeff, d_coeff):
    # an infinite wealth or coefficient made joint_drift warn and return NaN
    [(name, bad)] = [(k, v) for k, v in (("a_coeff", a_coeff), ("d_coeff", d_coeff),
                                         ("x", x)) if v != 1.0]
    with pytest.raises(ValueError, match=rf"^{name}: must be positive and finite, "
                                         rf"got {bad}$"):
        function(0.1, 0.3, a_coeff, d_coeff, x, [1.0], [0.0], [0.5])


@pytest.mark.parametrize("p, q", [(1.0, 0.3), (1.5, 0.3), (0.1, np.nan), (0.0, 0.3)],
                         ids=["p-one", "p-above-one", "q-nan", "p-zero"])
@pytest.mark.parametrize("call", [
    lambda p, q: coefficient_drifts(p, q, [1.0], [0.0], [0.5]),
    lambda p, q: consistency_gap(p, q, [1.0], [0.0], [0.5]),
    lambda p, q: zero_gap_d_vol(p, q, [1.0], [0.0]),
    lambda p, q: mixture_sp_target(p, q, 1.0, 1.0, 1.0, [1.0], [0.0], [0.5]),
    lambda p, q: mixture_portfolio(p, q, 1.0, 1.0, 1.0, [1.0], [0.0], [0.5], [[0.2]]),
    lambda p, q: joint_drift(p, q, 1.0, 1.0, 1.0, [1.0], [0.0], [0.5]),
], ids=["coefficient_drifts", "consistency_gap", "zero_gap_d_vol", "mixture_sp_target",
        "mixture_portfolio", "joint_drift"])
def test_powers_outside_the_unit_interval_are_rejected(call, p, q):
    # zero_gap_d_vol and mixture_sp_target checked no power: p = 1 divided
    # by zero, p = 1.5 took a log of a negative number, q = NaN gave NaN
    name, value = ("q", q) if 0.0 < p < 1.0 else ("p", p)
    with pytest.raises(ValueError, match=rf"^{name}: must lie in \(0, 1\), got {value}$"):
        call(p, q)


def test_equal_powers_stay_allowed():
    # p = q is one power criterion split in two: the targets coincide
    lam, a = [0.6], [0.1]
    assert zero_gap_d_vol(0.2, 0.2, lam, a) == pytest.approx(a)
    assert mixture_sp_target(0.2, 0.2, 1.0, 2.0, 3.0, lam, a, a) == pytest.approx(
        [0.7 / 0.8])


def test_joint_drift_zero_gap():
    # exactly representable zero gap
    assert joint_drift(0.1, 0.3, 1.0, 1.0, 1.0, [0.0], [0.0], [0.0]) == 0.0
    # constructed zero gap can leave a one-ulp residue; the drift is its square
    p, q = 0.1, 0.3
    lam, a = np.array([1.0]), np.array([0.0])
    d = zero_gap_d_vol(p, q, lam, a)
    assert abs(joint_drift(p, q, 1.0, 1.0, 1.0, lam, a, d)) < 1e-30


def test_joint_drift_reference_value():
    got = joint_drift(0.1, 0.3, 1.0, 1.0, 1.0, [1.0], [0.0], [0.0])
    assert got == pytest.approx(JOINT_DRIFT_REFERENCE, rel=1e-12)


def test_joint_drift_homogeneous_in_coefficients():
    base = joint_drift(0.1, 0.3, 1.0, 1.0, 1.0, [1.0], [0.0], [0.0])
    doubled = joint_drift(0.1, 0.3, 2.0, 2.0, 1.0, [1.0], [0.0], [0.0])
    assert doubled == pytest.approx(2 * base, rel=1e-12)


def test_joint_drift_sign_and_equality_over_draws():
    rng = np.random.default_rng(9)
    n_zero = 0
    for i in range(1000):
        p, q = sorted(rng.uniform(0.05, 0.95, size=2))
        if q - p < 1e-3:
            q = min(0.95, p + 1e-3)
        lam = rng.normal(size=2)
        a = rng.normal(size=2, scale=0.5)
        if i % 2 == 0:
            d = zero_gap_d_vol(p, q, lam, a)
        else:
            d = rng.normal(size=2, scale=0.5)
        ac, dc = rng.uniform(0.1, 5.0, size=2)
        x = float(np.exp(rng.uniform(-3, 3)))
        val = joint_drift(p, q, ac, dc, x, lam, a, d)
        gap = consistency_gap(p, q, lam, a, d)
        assert val <= 0.0
        if gap < 1e-12:
            assert abs(val) < 1e-12
            n_zero += 1
        else:
            assert val < -1e-12 * min(1.0, gap ** 2)
    assert n_zero == 500


# ---------------------------------------------------------------------------
# zero-gap sum equals two one-power criteria along paths
# ---------------------------------------------------------------------------

def test_zero_gap_joint_process_matches_atom_sum():
    rng = np.random.default_rng(17)
    market = MarketSpec(n_stocks=1, d_w=1, d_wperp=1, sigma=0.25, mu=0.075)
    lam = market.sharpe_at(0.0)  # 0.3
    grid = TimeGrid.regular(1.0, 1 / 252)
    for trial in range(5):
        p, q = sorted(rng.uniform(0.08, 0.9, size=2))
        if q - p < 0.05:
            q = min(0.9, p + 0.05)
        a = rng.normal(size=1, scale=0.3)
        d = zero_gap_d_vol(p, q, lam, a)
        a_perp = rng.normal(size=1, scale=0.2)
        d_perp = rng.normal(size=1, scale=0.2)
        dw, dwp = brownian_batch(grid, 1, 1, seed=100 + trial, path_ids=range(3))
        # constant loadings: A and D are exact lognormals in the running W, W_perp
        alpha, delta = coefficient_drifts(p, q, lam, a, d)
        t = grid.times
        # running levels (N+1, B, d) of each driver
        w_t = np.concatenate([np.zeros((1, 1, 3)), np.cumsum(dw, axis=1)],
                             axis=1).transpose(1, 2, 0)
        wp_t = np.concatenate([np.zeros((1, 1, 3)), np.cumsum(dwp, axis=1)],
                              axis=1).transpose(1, 2, 0)
        t = t[:, None]
        a_path = np.exp(np.log(1.3) + (alpha - 0.5 * (a @ a + a_perp @ a_perp)) * t
                        + w_t @ a + wp_t @ a_perp)
        d_path = np.exp(np.log(0.6) + (delta - 0.5 * (d @ d + d_perp @ d_perp)) * t
                        + w_t @ d + wp_t @ d_perp)
        c = float((lam + a)[0] / (1 - p))
        log_x = np.log(2.0) + (c * lam[0] - 0.5 * c * c) * t + c * w_t[:, :, 0]
        x_path = np.exp(log_x)
        joint = a_path * x_path ** p + d_path * x_path ** q
        # the same object through the generic mixture machinery: atoms at
        # aversions (1-p, 1-q) weighted so w x^p / p = a0 x^p, h0 = a
        mix = RiskMixture(atoms=(((1 - p), p * 1.3), ((1 - q), q * 0.6)),
                          gamma0=(1 - p), h0=H0Spec("constant", a),
                          j=JSpec("constant", [a_perp, d_perp]))
        fpp = MixtureFpp(mix, market, grid)
        generic = fpp.utility_paths(fpp.state_paths(dw, dwp), log_x)
        np.testing.assert_allclose(joint, generic, rtol=1e-10)
        # and the shared optimiser matches the mixture allocation target
        sp = mixture_sp_target(p, q, a_path[-1, 0], d_path[-1, 0],
                               x_path[-1, 0], lam, a, d)
        assert sp == pytest.approx(fpp.sp_star[0], rel=1e-12)


# ---------------------------------------------------------------------------
# Legendre dual
# ---------------------------------------------------------------------------

def test_dual_unit_fixed_point():
    x_star, value = legendre_dual(2.0, 1.0, 1.0, 0.25)
    assert x_star == pytest.approx(1.0)
    # U(1) - 2 = 1/(1-0.5) + 1/(1-0.25) - 2
    assert value == pytest.approx(1 / 0.5 + 1 / 0.75 - 2.0)


def test_dual_single_power_limit():
    # A -> 0: x* -> (y/D)^(-1/gamma)
    y, d_coeff, gamma = 3.0, 2.0, 0.25
    x_star, _ = legendre_dual(y, 1e-14, d_coeff, gamma)
    assert x_star == pytest.approx((y / d_coeff) ** (-1 / gamma), rel=1e-10)


def test_dual_matches_bisection_oracle():
    # independent root-finding on A x^-2g + D x^-g = y
    a_coeff, d_coeff, gamma, y = 2.0, 1.0, 0.25, 3.0
    lo, hi = 1e-8, 1e8
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if dual_marginal(mid, a_coeff, d_coeff, gamma) > y:
            lo = mid
        else:
            hi = mid
    x_star, _ = legendre_dual(y, a_coeff, d_coeff, gamma)
    assert x_star == pytest.approx(np.sqrt(lo * hi), rel=1e-9)
    assert dual_marginal(x_star, a_coeff, d_coeff, gamma) == pytest.approx(y, rel=1e-10)


@given(y=st.floats(min_value=1e-4, max_value=1e4),
       a_coeff=st.floats(min_value=0.1, max_value=10.0),
       d_coeff=st.floats(min_value=0.1, max_value=10.0),
       gamma=st.floats(min_value=0.05, max_value=0.45))
@settings(max_examples=300, deadline=None)
def test_dual_first_order_condition_roundtrip(y, a_coeff, d_coeff, gamma):
    x_star, _ = legendre_dual(y, a_coeff, d_coeff, gamma)
    assert dual_marginal(x_star, a_coeff, d_coeff, gamma) == pytest.approx(y, rel=1e-10)


def test_dual_meets_first_order_condition_at_huge_y():
    # D^2 + 4Ay overflows; the root is formed without it
    x_star, value = legendre_dual(1e308, 1.0, 1.0, 0.49)
    assert 0.0 < x_star < 1e-300 and np.isfinite(value)
    assert dual_marginal(x_star, 1.0, 1.0, 0.49) == pytest.approx(1e308, rel=1e-9)


@pytest.mark.parametrize("y, gamma", [(1e308, 0.25), (1e-320, 0.25), (1e300, 0.01)])
def test_dual_outside_float_range_names_y(y, gamma):
    # x* underflows to 0 or overflows to inf; neither is a maximiser
    with pytest.raises(ValueError, match=r"^y: .* outside float range"):
        legendre_dual(y, 1.0, 1.0, gamma)


def test_dual_rejects_bad_domain():
    with pytest.raises(ValueError):
        legendre_dual(-1.0, 1.0, 1.0, 0.25)
    with pytest.raises(ValueError):
        legendre_dual(1.0, 1.0, 1.0, 0.7)
    for y in (np.nan, np.inf):  # inf once warned "invalid value" in the root first
        with pytest.raises(ValueError, match="^y: must be positive and finite"):
            legendre_dual(y, 1.0, 1.0, 0.25)
    for a_coeff, d_coeff in ((np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf)):
        # an infinite A once blamed y after a divide-by-zero RuntimeWarning
        name = "a_coeff" if a_coeff != 1.0 else "d_coeff"
        with pytest.raises(ValueError, match=rf"^{name}: must be positive and finite"):
            legendre_dual(1.0, a_coeff, d_coeff, 0.25)


LOADING_ENTRIES = {
    "coefficient_drifts": lambda lam, a, d: coefficient_drifts(0.1, 0.3, lam, a, d),
    "consistency_gap": lambda lam, a, d: consistency_gap(0.1, 0.3, lam, a, d),
    "zero_gap_d_vol": lambda lam, a, d: zero_gap_d_vol(0.1, 0.3, lam, a),
    "mixture_sp_target": lambda lam, a, d: mixture_sp_target(0.1, 0.3, 1.0, 1.0, 1.0,
                                                             lam, a, d),
    "mixture_portfolio": lambda lam, a, d: mixture_portfolio(0.1, 0.3, 1.0, 1.0, 1.0,
                                                             lam, a, d, [[0.2]]),
    "joint_drift": lambda lam, a, d: joint_drift(0.1, 0.3, 1.0, 1.0, 1.0, lam, a, d),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name, arg", [
    (name, arg) for name in LOADING_ENTRIES for arg in ("lam", "a_vol", "d_vol")
    if (name, arg) != ("zero_gap_d_vol", "d_vol")])  # it takes no d loading
def test_non_finite_loading_is_rejected_without_warning(name, arg, value):
    # a NaN lam made [nan] targets and drifts, and an infinite one warned
    args = {"lam": [1.0], "a_vol": [0.0], "d_vol": [0.0], arg: [value]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{arg}: must be finite$"):
            LOADING_ENTRIES[name](args["lam"], args["a_vol"], args["d_vol"])


# ---------------------------------------------------------------------------
# power-path validators
# ---------------------------------------------------------------------------

def test_validator_accepts_constants():
    report = validate_power_paths([0.2] * 10, [0.6] * 10)
    assert report.ok


def test_validator_accepts_conforming_monotone_paths():
    t = np.linspace(0, 1, 20)
    report = validate_power_paths(0.2 + 0.05 * t, 0.6 - 0.05 * t)
    assert report.ok


def test_validator_flags_single_uptick_in_q():
    q = np.full(10, 0.6)
    q[6] += 1e-6
    report = validate_power_paths(np.full(10, 0.2), q)
    assert not report.ok
    kinds = {(v.quantity, v.index) for v in report.violations}
    assert ("q increase", 6) in kinds
    assert ("q varies while p constant", 6) in kinds


@pytest.mark.parametrize("p, q", [([0.1, np.nan, 0.2], [0.5, 0.5, 0.5]),
                                  ([0.1, 0.1, 0.2], [0.5, np.inf, np.nan]),
                                  ([0.1, 0.1, np.nan], [0.5, -np.inf, 0.5])])
def test_validator_rejects_non_finite_entries(p, q):
    # no comparison with NaN fails, so a NaN entry once reported "ok"; the
    # error names the path whose entry is non-finite at the first such index
    name = "p_path" if np.isnan(p[1]) else "q_path"
    with pytest.raises(ValueError, match=rf"^{name}: must be finite, "
                                         rf"got p = {p[1]:g}, q = {q[1]:g} at index 1$"):
        validate_power_paths(p, q)


def test_validator_tolerance_is_the_module_constant(monkeypatch):
    q = np.array([0.6, 0.6 + 1e-9])
    assert not validate_power_paths([0.2, 0.2], q).ok
    monkeypatch.setattr(two_power, "POWER_PATH_TOL", 1e-6)
    assert validate_power_paths([0.2, 0.2], q).ok


def test_validator_flags_p_decrease_and_crossing():
    p = np.array([0.2, 0.19, 0.3])
    q = np.array([0.25, 0.25, 0.25])
    report = validate_power_paths(p, q)
    quantities = {v.quantity for v in report.violations}
    assert "p decrease" in quantities
    assert "p >= q" in quantities
    assert "index" in report.to_text()
