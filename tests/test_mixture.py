"""Mixture criteria: loadings, drifts, evaluation, optimal portfolios, constants."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fpplab.market
import fpplab.mixture
from fpplab.errors import (FactorDegeneracyError, InvalidExponentError,
                           NoExactSolutionError, StrategyEvaluationError)
from fpplab.market import MarketSpec, TimeGrid, brownian_batch, evolve_log_wealth_batch
from fpplab.mixture import (H0Spec, JSpec, MixtureFpp, RiskMixture,
                            check_admissibility_moments, drift_term, factor_j,
                            hgamma, market_view_density, mixture_value,
                            monotone_power_value, optimal_portfolio, signed_exp_sum,
                            true_fpp_constants, vgamma_rate)
from fpplab.three_power import ThreePowerFpp, ThreePowerSpec
from fpplab.two_power import dual_marginal
from fpplab.verify import _time_chunks, structure_scan

NAN = float("nan")
INF = float("inf")


def base_market(d_wperp=0):
    return MarketSpec(n_stocks=1, d_w=1, d_wperp=d_wperp, sigma=0.2, mu=0.04)


def initial_value(mix, x):
    """U_0(x) of a mixture, through the ensemble evaluator."""
    grid = TimeGrid.regular(1.0, 1.0)
    return MixtureFpp(mix, base_market(), grid).u0(x)


def stepwise_state(mix, lam, h0, j_atoms, dw_path, dwp_path, dt):
    """Per-atom (m, <M>, V) of one path, one cell at a time, from the formulas.

    ``j_atoms[i]`` is atom i's W_perp loading; ``dw_path`` and ``dwp_path``
    are the (d_w, N) and (d_wperp, N) increments of the path, ``dw[:, :, b]``.
    """
    g0 = mix.gamma0
    m, qv, v = (np.zeros(mix.n_atoms) for _ in range(3))
    for k in range(len(dt)):
        for i, (g, _) in enumerate(mix.atoms):
            hg = ((g - g0) / g0) * lam + (g / g0) * h0
            jg = np.asarray(j_atoms[i], float)
            m[i] += hg @ dw_path[:, k] + jg @ dwp_path[:, k]
            qv[i] += (hg @ hg + jg @ jg) * dt[k]
            v[i] += -(1 - g) / (2 * g) * ((lam + hg) @ (lam + hg)) * dt[k]
    return m, qv, v


# ---------------------------------------------------------------------------
# mixture type validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("atoms,gamma0", [
    (((1.0, 1.0),), 1.0),                 # gamma = 1 excluded
    (((0.5, 0.0),), 0.5),                 # zero weight
    (((0.5, -1.0),), 0.5),                # negative weight
    (((-0.5, 1.0),), 0.5),                # negative aversion
    (((0.5, 1.0), (0.8, 1.0)), 0.9),      # gamma0 outside the hull
    ((), 0.5),                            # empty
])
def test_risk_mixture_rejects_invalid(atoms, gamma0):
    with pytest.raises(ValueError):
        RiskMixture(atoms=atoms, gamma0=gamma0)


def test_risk_mixture_gamma0_in_hull():
    mix = RiskMixture(atoms=((0.5, 1.0), (2.0, 0.5)), gamma0=0.8)
    assert mix.n_atoms == 2
    assert mix.gammas == pytest.approx([0.5, 2.0])


# ---------------------------------------------------------------------------
# loadings and rates
# ---------------------------------------------------------------------------

def test_hgamma_identity_at_gamma0():
    assert hgamma(0.5, 0.5, [0.2], [0.1]) == pytest.approx([0.1])


def test_hgamma_double_aversion_base():
    # gamma0 = 2 gamma with h0 = 0 gives H = -lam/2
    assert hgamma(0.25, 0.5, [0.3], [0.0]) == pytest.approx([-0.15])


def test_hgamma_arithmetic():
    got = hgamma(0.3, 0.5, [0.2, 0.0], [0.1, 0.1])
    assert got == pytest.approx([-0.02, 0.06])


def test_vgamma_vanishing_argument():
    assert vgamma_rate(0.5, [0.2], [-0.2]) == 0.0


def test_vgamma_arithmetic():
    assert vgamma_rate(0.5, [0.2], [0.0]) == pytest.approx(-0.02)


def test_vgamma_sign_flips_above_one():
    assert vgamma_rate(2.0, [0.2], [0.0]) == pytest.approx(0.01)


# ---------------------------------------------------------------------------
# drift bound
# ---------------------------------------------------------------------------

def test_drift_zero_at_optimum():
    lam, h0, g0 = np.array([0.2]), np.array([0.0]), 0.5
    sp_star = (lam + h0) / g0
    for g in (0.3, 0.5, 2.5):
        hg = hgamma(g, g0, lam, h0)
        assert abs(drift_term(g, sp_star, lam, hg)) < 1e-12


def test_drift_at_zero_allocation():
    # v/(1-gamma) = -|lam|^2/(2 gamma) for hg = 0
    assert drift_term(0.5, [0.0], [0.2], [0.0]) == pytest.approx(-0.04)


def test_drift_arithmetic():
    assert drift_term(0.5, [0.1], [0.2], [0.0]) == pytest.approx(-0.0225)


def test_drift_dominance_and_curvature_identity():
    # over random draws: drift <= 0 with the exact strong-concavity gap
    rng = np.random.default_rng(42)
    for _ in range(1000):
        d = rng.integers(1, 4)
        g = rng.uniform(0.1, 3.0)
        if abs(g - 1.0) < 0.05:
            continue
        g0 = rng.uniform(0.1, 3.0)
        if abs(g0 - 1.0) < 0.05:
            continue
        lam = rng.normal(size=d)
        h0 = rng.normal(size=d)
        sp = rng.normal(size=d, scale=2.0)
        hg = hgamma(g, g0, lam, h0)
        sp_star = (lam + h0) / g0
        val = drift_term(g, sp, lam, hg)
        gap = 0.5 * g * float((sp - sp_star) @ (sp - sp_star))
        assert val <= 1e-12
        assert val == pytest.approx(-gap, abs=1e-10)


def test_all_atoms_share_one_maximiser():
    lam = np.array([0.3, -0.1])
    h0 = np.array([0.05, 0.2])
    g0 = 0.7
    sp_star = (lam + h0) / g0
    for g in (0.3, 0.7, 2.0):
        hg = hgamma(g, g0, lam, h0)
        assert (lam + hg) / g == pytest.approx(sp_star)


# ---------------------------------------------------------------------------
# optimal portfolio
# ---------------------------------------------------------------------------

def test_optimal_portfolio_scalar():
    pi = optimal_portfolio([0.2], [0.0], 0.5, [[0.2]])
    assert pi == pytest.approx([2.0])


def test_optimal_portfolio_double_aversion_setting():
    # gamma0 = 2 gamma, h0 = 0: sigma pi* = lam / (2 gamma)
    g = 0.25
    pi = optimal_portfolio([0.2], [0.0], 2 * g, [[0.2]])
    assert 0.2 * pi[0] == pytest.approx(0.2 / (2 * g))


def test_portfolio_inversion_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = rng.integers(1, 4)
        d_w = n + rng.integers(0, 3)
        sigma = rng.normal(size=(d_w, n)) + np.eye(d_w, n)
        lam = rng.normal(size=d_w)
        pi = rng.normal(size=n, scale=3.0)
        g0 = rng.uniform(0.2, 3.0)
        h0 = g0 * (sigma @ pi) - lam
        recovered = optimal_portfolio(lam, h0, g0, sigma)
        assert recovered == pytest.approx(pi, abs=1e-10)


def test_optimal_portfolio_unhedgeable_target():
    sigma = np.array([[1.0], [0.0]])  # column space misses e_2
    with pytest.raises(NoExactSolutionError):
        optimal_portfolio([0.0, 1.0], [0.0, 0.0], 1.0, sigma)


# ---------------------------------------------------------------------------
# factor-generated loadings
# ---------------------------------------------------------------------------

def test_factor_j_zero_input():
    assert factor_j([[1.0], [0.0]], [[0.5]], [0.0, 0.0]) == pytest.approx([0.0])


def test_factor_j_zero_factor_weights():
    assert factor_j([[1.0], [0.0]], [[0.0]], [0.3, 0.9]) == pytest.approx([0.0])


def test_factor_j_hand_case():
    # rho = (1,0)', A = (0.5): (rho'rho)^-1 rho' h = h_1, scaled by 0.5
    assert factor_j([[1.0], [0.0]], [[0.5]], [0.3, 0.9]) == pytest.approx([0.15])


def test_factor_j_matches_generic_solve():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d_w, d_b, d_wp = 3, 2, 2
        rho = rng.normal(size=(d_w, d_b))
        a = rng.normal(size=(d_wp, d_b))
        hg = rng.normal(size=d_w)
        expected = a @ np.linalg.lstsq(rho, hg, rcond=None)[0]
        assert factor_j(rho, a, hg) == pytest.approx(expected, rel=1e-9)


def test_factor_j_eve_scaling():
    # orthogonal columns of equal norm: rho'rho = c I, so J = A rho' h / c
    rho = np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    a = np.array([[0.3, -0.1]])
    hg = np.array([1.0, 2.0, 3.0])
    expected = a @ (rho.T @ hg) / 4.0
    assert factor_j(rho, a, hg) == pytest.approx(expected)


def test_factor_j_degenerate():
    with pytest.raises(FactorDegeneracyError):
        factor_j([[1.0, 1.0], [1.0, 1.0]], [[0.1, 0.1]], [0.2, 0.2])


# ---------------------------------------------------------------------------
# state accumulation
# ---------------------------------------------------------------------------

def test_accumulate_zero_dynamics():
    market = MarketSpec(n_stocks=1, d_w=1, d_wperp=0, sigma=0.2, mu=0.0)
    grid = TimeGrid(np.array([0.0, 0.5]))
    fpp = MixtureFpp(RiskMixture(atoms=((0.5, 1.0),), gamma0=0.5), market, grid)
    m, qv, v = fpp.state_paths(np.array([[[0.3]]]), np.zeros((0, 1, 1))), fpp.qv, fpp.v
    assert m[:, -1, 0] == pytest.approx([0.0])
    assert qv[:, -1] == pytest.approx([0.0])
    assert v[:, -1] == pytest.approx([0.0])


def test_accumulate_single_atom_base_loading_vanishes():
    # h0 = 0 at the base aversion: M stays 0, V integrates the rate exactly
    mix = RiskMixture(atoms=((0.5, 1.0),), gamma0=0.5)
    grid = TimeGrid.regular(1.0, 0.1)
    fpp = MixtureFpp(mix, base_market(), grid)
    dw, dwp = brownian_batch(grid, 1, 0, seed=0, path_ids=[0])
    m, qv, v = fpp.state_paths(dw, dwp), fpp.qv, fpp.v
    assert m[:, -1, 0] == pytest.approx([0.0])
    assert v[:, -1] == pytest.approx([-0.02], abs=1e-15)
    value = mixture_value(mix.gammas, mix.weights, np.log(1.0), m[:, -1, 0], qv[:, -1],
                          v[:, -1])
    assert value == pytest.approx(2 * np.exp(-0.02))


def test_accumulate_matches_brute_force_recomputation():
    # two drivers with lam = (0.3, 0.1), one W_perp, per-atom J
    market = MarketSpec(n_stocks=2, d_w=2, d_wperp=1, sigma=np.eye(2), mu=[0.3, 0.1])
    mix = RiskMixture(atoms=((0.4, 1.0), (2.0, 0.7)), gamma0=0.4,
                      h0=H0Spec("constant", [0.1, -0.05]), j=JSpec("constant", [[0.2], [0.3]]))
    grid = TimeGrid.regular(1.0, 0.05)
    fpp = MixtureFpp(mix, market, grid)
    rng = np.random.default_rng(5)
    dw = rng.normal(size=(1, 20, 2)).T * np.sqrt(0.05)  # (d_w, N, B)
    dwp = rng.normal(size=(1, 20, 1)).T * np.sqrt(0.05)
    m, qv, v = fpp.state_paths(dw, dwp), fpp.qv, fpp.v
    m_ref, qv_ref, v_ref = stepwise_state(mix, np.array([0.3, 0.1]),
                                          np.array([0.1, -0.05]), [[0.2], [0.3]],
                                          dw[:, :, 0], dwp[:, :, 0], grid.dt)
    assert m[:, -1, 0] == pytest.approx(m_ref, rel=1e-12)
    assert qv[:, -1] == pytest.approx(qv_ref, rel=1e-12)
    assert v[:, -1] == pytest.approx(v_ref, rel=1e-12)
    assert np.all(np.diff(qv, axis=1) >= 0.0)


def test_factor_loadings_enter_the_state():
    # a factor JSpec gives atom i the W_perp loading A (rho'rho)^-1 rho' H_i on
    # every cell, and the state and its quadratic variation carry it
    market = MarketSpec(n_stocks=2, d_w=2, d_wperp=1, sigma=np.eye(2), mu=[0.3, 0.1])
    rho, a = [[1.0], [0.5]], [[0.4]]
    lam, h0 = np.array([0.3, 0.1]), np.array([0.1, -0.05])
    mix = RiskMixture(atoms=((0.4, 1.0), (2.0, 0.7)), gamma0=0.4,
                      h0=H0Spec("constant", h0), j=JSpec("factor", rho=rho, a=a))
    mix.j.check(market, mix.n_atoms)
    grid = TimeGrid.regular(1.0, 0.05)
    fpp = MixtureFpp(mix, market, grid)
    j_atoms = [factor_j(rho, a, hgamma(g, 0.4, lam, h0)) for g in mix.gammas]
    assert j_atoms[0] != pytest.approx(j_atoms[1])
    for k in range(grid.n_steps):
        assert fpp.j[k] == pytest.approx(np.array(j_atoms), rel=1e-12)
    dw, dwp = brownian_batch(grid, 2, 1, seed=3, path_ids=[0])
    m, qv = fpp.state_paths(dw, dwp), fpp.qv
    m_ref, qv_ref, _ = stepwise_state(mix, lam, h0, j_atoms, dw[:, :, 0], dwp[:, :, 0],
                                      grid.dt)
    assert m[:, -1, 0] == pytest.approx(m_ref, rel=1e-12)
    assert qv[:, -1] == pytest.approx(qv_ref, rel=1e-12)


@pytest.mark.parametrize("rho, a, field", [
    ([[1.0], [0.5], [0.2]], [[0.4]], "rho"),
    ([[1.0], [0.5]], [[0.4], [0.1]], "a"),
    ([[1.0], [0.5]], [[0.4, 0.1]], "a"),
])
def test_factor_loadings_must_fit_the_market(rho, a, field):
    market = MarketSpec(n_stocks=2, d_w=2, d_wperp=1, sigma=np.eye(2), mu=[0.3, 0.1])
    with pytest.raises(ValueError, match=f"^{field}: needs shape"):
        JSpec("factor", rho=rho, a=a).check(market, 2)


@pytest.mark.parametrize("h0, j", [
    (H0Spec("constant", [0.1]), JSpec()),  # one entry on a d_w = 2 market
    (H0Spec(), JSpec("constant", [[0.1], [0.2], [0.3]])),  # three rows for two atoms
])
def test_criterion_loadings_must_fit_the_market(h0, j):
    # a criterion built in code is checked as one built from a config: a
    # loading of the wrong shape raises, rather than being broadcast or cut
    market = MarketSpec(n_stocks=2, d_w=2, d_wperp=1, sigma=np.eye(2), mu=[0.3, 0.1])
    mix = RiskMixture(atoms=((0.5, 1.0), (2.0, 0.5)), gamma0=0.5, h0=h0, j=j)
    with pytest.raises(ValueError, match="^value: needs shape"):
        MixtureFpp(mix, market, TimeGrid.regular(1.0, 0.25))


def test_state_paths_match_stepwise_accumulation():
    market = MarketSpec(n_stocks=1, d_w=1, d_wperp=1, sigma=0.25, mu=0.05)
    mix = RiskMixture(atoms=((0.5, 1.0), (0.8, 2.0)), gamma0=0.5,
                      h0=H0Spec("constant", [0.1]), j=JSpec("constant", [0.2]))
    grid = TimeGrid.regular(1.0, 0.125)
    fpp = MixtureFpp(mix, market, grid)
    dw, dwp = brownian_batch(grid, 1, 1, seed=8, path_ids=[0])
    m, qv, v = fpp.state_paths(dw, dwp), fpp.qv, fpp.v
    m_ref, qv_ref, v_ref = stepwise_state(mix, market.sharpe_at(0.0), np.array([0.1]),
                                          [[0.2], [0.2]], dw[:, :, 0], dwp[:, :, 0],
                                          grid.dt)
    assert m[:, -1, 0] == pytest.approx(m_ref, rel=1e-12)
    assert qv[:, -1] == pytest.approx(qv_ref, rel=1e-12)
    assert v[:, -1] == pytest.approx(v_ref, rel=1e-12)



@pytest.mark.parametrize("n_steps", [16, 40])
def test_state_paths_chunks_equal_whole_horizon(n_steps):
    # for both criteria each chunk continues from the carried last column of
    # the one before, and the chunks together are the whole-horizon state bit
    # for bit
    market = MarketSpec(n_stocks=2, d_w=2, d_wperp=1, sigma=[[0.2, 0.0], [0.05, 0.3]],
                        mu=[0.04, 0.06])
    mix = RiskMixture(atoms=((0.3, 1.0), (0.5, 0.5), (2.0, 0.25)), gamma0=0.5,
                      j=JSpec("constant", [[0.1], [0.0], [-0.2]]))
    grid = TimeGrid(np.linspace(0.0, 1.0, n_steps + 1))
    dw, dwp = brownian_batch(grid, 2, 1, seed=5, path_ids=range(30))
    for fpp in (MixtureFpp(mix, market, grid),
                ThreePowerFpp(ThreePowerSpec(gamma=0.25), market, grid)):
        whole = fpp.state_paths(dw, dwp)
        chunks, carry = [], None
        for cols in _time_chunks(grid.n_steps + 1):
            chunks.append(fpp.state_paths(dw, dwp, cols, carry))
            carry = chunks[-1][:, -1]
        assert np.array_equal(np.concatenate(chunks, axis=1).view(np.int64),
                              whole.view(np.int64))


def test_same_sign_exp_sum_matches_signed_path_bitwise():
    # all signs +1 skips the sign bookkeeping; the bits, NaNs included, are
    # those of the general signed formula
    def signed_path(logs, signs):
        m = np.max(logs, axis=0)
        m = np.where(np.isfinite(m), m, 0.0)
        terms = np.exp(logs - m) * np.reshape(signs, (-1,) + (1,) * m.ndim)
        part = np.sum(terms, axis=0)
        return np.sign(part) * np.exp(m + np.log(np.abs(part)))

    rng = np.random.default_rng(4)
    with np.errstate(all="ignore"):
        for n_terms in (1, 2, 3, 5):
            logs = rng.normal(scale=300.0, size=(n_terms, 400, 16))
            cell = rng.random(logs.shape)
            logs[cell < 0.1] = -np.inf
            logs[(cell >= 0.1) & (cell < 0.13)] = np.nan
            logs[(cell >= 0.13) & (cell < 0.15)] = -np.nan  # sign bit set
            logs[(cell >= 0.15) & (cell < 0.17)] = np.inf
            logs[:, 0] = -np.inf  # every term vanishes
            signs = np.ones(n_terms)
            got = signed_exp_sum(logs.copy(), signs)  # logs is its scratch buffer
            want = signed_path(logs, signs)
            assert np.isnan(want).any() and (want == 0.0).any()
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def summed_exp_sum(logs, signs):
    """``signed_exp_sum`` as it was written before it worked in ``logs``: one
    ``np.sum`` over the terms into a new row and a separate sign row."""
    m = np.max(logs, axis=0, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    logs -= m
    terms = np.exp(logs, out=logs)
    same_sign = bool(np.all(np.asarray(signs) == 1.0))
    if not same_sign:
        terms *= np.reshape(signs, (-1,) + (1,) * (m.ndim - 1))
    part = np.sum(terms, axis=0, keepdims=True)
    with np.errstate(divide="ignore", over="ignore"):
        if same_sign:
            np.log(part, out=part)
        else:
            sign = np.sign(part)
            np.log(np.abs(part, out=part), out=part)
        np.exp(np.add(m, part, out=part), out=part)
    if not same_sign:
        np.multiply(sign, part, out=part)
    return part[0]


@settings(max_examples=200, deadline=None)
@given(n_terms=st.integers(1, 9),
       shape=st.sampled_from([(), (1,), (1, 1), (2,), (7,), (3, 1), (1, 5), (4, 6)]),
       sign_bits=st.integers(0, 2 ** 9 - 1), fraction=st.sampled_from([0.0, 0.1, 0.4]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_exp_sum_in_its_term_rows_matches_the_summed_formula(n_terms, shape, sign_bits,
                                                             fraction, seed):
    # the sum, its sign and U formed in the rows of ``logs`` give the bits of
    # one np.sum into a new row, signs of zero included: row by row in numpy's
    # order, and through np.sum where numpy sums a lone column pairwise
    rng = np.random.default_rng(seed)
    logs = rng.normal(scale=300.0, size=(n_terms,) + shape)
    specials = np.array([-np.inf, np.inf, np.nan])
    pick = rng.integers(0, specials.size, logs.shape)
    logs = np.where(rng.random(logs.shape) < fraction, specials[pick], logs)
    signs = np.where([(sign_bits >> i) & 1 for i in range(n_terms)], -1.0, 1.0)
    with np.errstate(all="ignore"):  # both overflow where a max was non-finite
        want = summed_exp_sum(logs.copy(), signs)
        scratch = logs.copy()
        got = signed_exp_sum(scratch, signs)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))
    if shape:
        assert np.shares_memory(got, scratch)  # U is a view of row 0


def test_sp_star_rows_equal_the_per_time_formula():
    # sigma and mu jump inside the horizon; h0 inverts a target portfolio
    market = MarketSpec(n_stocks=2, d_w=2, d_wperp=0,
                        sigma=[{"t": 0.0, "value": [[0.2, 0.0], [0.05, 0.3]]},
                               {"t": 0.4, "value": [[0.25, 0.02], [0.0, 0.15]]}],
                        mu=[{"t": 0.0, "value": [0.04, 0.06]},
                            {"t": 0.7, "value": [0.08, 0.01]}])
    h0 = H0Spec("portfolio_inversion", [0.5, 0.3])
    mix = RiskMixture(atoms=((0.3, 1.0), (0.8, 0.5)), gamma0=0.6, h0=h0)
    grid = TimeGrid.regular(1.0, 0.1)
    fpp = MixtureFpp(mix, market, grid)
    assert fpp.sp_star.shape == (grid.n_steps, 2)
    for k, t in enumerate(grid.times[:-1]):
        lam = market.sharpe_at(float(t))
        assert np.array_equal(fpp.lam_path[k], lam)
        h0_t = 0.6 * (market.sigma.path(float(t)) @ np.array([0.5, 0.3])) - lam
        assert np.array_equal(fpp.sp_star[k], (lam + h0_t) / 0.6)
    assert not np.array_equal(fpp.sp_star[0], fpp.sp_star[-1])


def per_cell_construction(mix, market, grid):
    """``MixtureFpp``'s per-grid arrays built one cell and one atom at a time.

    The reference for the whole-grid construction: h0 at each time, then
    each atom's H, J and finite-variation rate from the scalar formulas,
    with ``|lam + H|^2`` as the 1-d ``u @ u``.
    """
    n_steps, n_atoms, g0 = grid.n_steps, mix.n_atoms, mix.gamma0
    lam_path = market.sharpe_path(grid)
    sp_star = np.empty((n_steps, market.d_w))
    h = np.empty((n_steps, n_atoms, market.d_w))
    j = np.empty((n_steps, n_atoms, market.d_wperp))
    vr = np.empty((n_atoms, n_steps))
    for k in range(n_steps):
        lam, t = lam_path[k], float(grid.times[k])
        if mix.h0.kind == "constant":
            h0 = mix.h0.value
        elif mix.h0.kind == "portfolio_inversion":
            h0 = g0 * (market.sigma.path(t) @ mix.h0.value) - lam
        else:
            h0 = np.zeros(market.d_w)
        sp_star[k] = (lam + h0) / g0
        for i, g in enumerate(mix.gammas):
            h[k, i] = ((g - g0) / g0) * lam + (g / g0) * h0
            if mix.j.kind == "constant":
                j[k, i] = mix.j.value[i] if mix.j.value.ndim == 2 else mix.j.value
            elif mix.j.kind == "factor":
                j[k, i] = factor_j(mix.j.rho, mix.j.a, h[k, i])
            else:
                j[k, i] = 0.0
            u = lam + h[k, i]
            vr[i, k] = float(-(1.0 - g) / (2.0 * g) * (u @ u))
    qvr = np.einsum("kad,kad->ka", h, h) + np.einsum("kad,kad->ka", j, j)
    qv, v = np.zeros((n_atoms, n_steps + 1)), np.zeros((n_atoms, n_steps + 1))
    np.cumsum(qvr.T * grid.dt, axis=1, out=qv[:, 1:])
    np.cumsum(vr * grid.dt, axis=1, out=v[:, 1:])
    return {"sp_star": sp_star, "h": h, "j": j, "qv": qv, "v": v}


PIECEWISE_MARKET = MarketSpec(
    n_stocks=2, d_w=2, d_wperp=2,
    sigma=[{"t": 0.0, "value": [[0.2, 0.0], [0.05, 0.3]]},
           {"t": 0.4, "value": [[0.25, 0.02], [0.0, 0.15]]}],
    mu=[{"t": 0.0, "value": [0.04, 0.06]}, {"t": 0.7, "value": [0.08, 0.01]}])


@pytest.mark.parametrize("mix, market", [
    # the mix3 benchmark criterion: portfolio_inversion h0, constant J
    (RiskMixture(atoms=((0.3, 1.0), (0.5, 0.5), (0.8, 0.25)), gamma0=0.5,
                 h0=H0Spec("portfolio_inversion", [0.5, 0.3, 0.2]),
                 j=JSpec("constant", [0.1])),
     MarketSpec(n_stocks=3, d_w=3, d_wperp=1,
                sigma=[[0.2, 0.0, 0.0], [0.05, 0.25, 0.0], [0.0, 0.05, 0.3]],
                mu=[0.04, 0.05, 0.06])),
    # sigma and mu jump inside the horizon
    (RiskMixture(atoms=((0.3, 1.0), (0.8, 0.5), (1.7, 0.2)), gamma0=0.8,
                 h0=H0Spec("portfolio_inversion", [0.5, 0.3])), PIECEWISE_MARKET),
    # a per-atom (n_atoms, d_wperp) constant J and a constant h0
    (RiskMixture(atoms=((0.4, 1.0), (2.0, 0.7)), gamma0=0.4,
                 h0=H0Spec("constant", [0.1, -0.05]),
                 j=JSpec("constant", [[0.2, -0.1], [0.3, 0.4]])),
     PIECEWISE_MARKET),
], ids=["mix3", "piecewise", "per-atom-j"])
def test_whole_grid_construction_equals_the_per_cell_loop(mix, market):
    grid = TimeGrid.regular(1.0, 1.0 / 252)
    fpp = MixtureFpp(mix, market, grid)
    for name, expected in per_cell_construction(mix, market, grid).items():
        got = getattr(fpp, name)
        assert got.shape == expected.shape and got.flags.c_contiguous, name
        assert np.array_equal(got.view(np.int64), expected.view(np.int64)), name


def test_factor_loadings_equal_the_per_cell_loop():
    # a vectorised solve may round differently; no digest reads factor J
    mix = RiskMixture(atoms=((0.4, 1.0), (2.0, 0.7), (0.9, 0.3)), gamma0=0.9,
                      h0=H0Spec("portfolio_inversion", [0.5, 0.3]),
                      j=JSpec("factor", rho=[[1.0, 0.2], [0.5, -0.3]],
                              a=[[0.4, 0.1], [-0.2, 0.6]]))
    grid = TimeGrid.regular(1.0, 0.01)
    fpp = MixtureFpp(mix, PIECEWISE_MARKET, grid)
    expected = per_cell_construction(mix, PIECEWISE_MARKET, grid)
    assert np.array_equal(fpp.h, expected["h"])
    np.testing.assert_allclose(fpp.j, expected["j"], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(fpp.qv, expected["qv"], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("d_w", [1, 2, 3, 5, 9])
def test_hgamma_and_vgamma_rate_on_arrays_equal_their_scalar_calls(d_w):
    # at d_w = 3 np.einsum's |u|^2 differs from u @ u in some rows; the
    # stacked product keeps u @ u's bits
    rng = np.random.default_rng(d_w)
    gammas, g0 = rng.uniform(0.1, 3.0, 4), 0.7
    lam, h0 = rng.normal(size=(50, 1, d_w)), rng.normal(size=(50, 1, d_w))
    h = hgamma(gammas, g0, lam, h0)
    rates = vgamma_rate(gammas, lam, h)
    assert h.shape == (50, 4, d_w) and rates.shape == (50, 4)
    for k in range(50):
        for i, g in enumerate(gammas):
            hg = hgamma(g, g0, lam[k, 0], h0[k, 0])
            assert np.array_equal(h[k, i].view(np.int64), hg.view(np.int64))
            rate = vgamma_rate(g, lam[k, 0], hg)
            assert isinstance(rate, float)
            assert np.float64(rate).view(np.int64) == rates[k, i].view(np.int64)
    if d_w == 3:
        u = lam + h
        assert not np.array_equal(np.einsum("kad,kad->ka", u, u),
                                  np.array([[r @ r for r in row] for row in u]))

# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_initial_condition_single_atom():
    mix = RiskMixture(atoms=((0.5, 1.0),), gamma0=0.5)
    assert initial_value(mix, 4.0) == pytest.approx(4.0)


def test_evaluate_with_state():
    mix = RiskMixture(atoms=((0.5, 1.0),), gamma0=0.5)
    value = mixture_value(mix.gammas, mix.weights, np.log(1.0), np.array([0.0]),
                          np.array([0.0]), np.array([-0.02]))
    assert value == pytest.approx(2 * np.exp(-0.02))


def test_evaluate_two_atoms_initial():
    mix = RiskMixture(atoms=((0.9, 1.0), (0.7, 1.0)), gamma0=0.8)
    expected = 1 / 0.1 + 1 / 0.3
    assert initial_value(mix, 1.0) == pytest.approx(expected)


def test_evaluate_rejects_nonpositive_wealth():
    with pytest.raises(ValueError):
        initial_value(RiskMixture(atoms=((0.5, 1.0),), gamma0=0.5), 0.0)
    with pytest.raises(ValueError, match="^x: must be positive and finite, got nan$"):
        initial_value(RiskMixture(atoms=((0.5, 1.0),), gamma0=0.5), np.nan)
    with pytest.raises(ValueError, match="^x: must be positive and finite, got nan$"):
        monotone_power_value(np.nan, [0.2], 0.5)


def test_evaluate_negative_infinity_sentinel():
    # an aversion above one turns a diverging exponential into -inf
    mix = RiskMixture(atoms=((2.0, 1.0),), gamma0=2.0)
    value = mixture_value(mix.gammas, mix.weights, np.log(1.0), np.array([800.0]),
                          np.array([0.0]), np.array([0.0]))
    assert np.isneginf(value)


def test_initial_condition_recovery_log_grid():
    mix = RiskMixture(atoms=((0.3, 0.4), (0.9, 1.1), (2.5, 0.2)), gamma0=0.9)
    for x in np.geomspace(1e-3, 1e3, 25):
        direct = sum(w * x ** (1 - g) / (1 - g) for g, w in mix.atoms)
        assert initial_value(mix, float(x)) == pytest.approx(direct, rel=1e-14)


@given(x=st.floats(min_value=1e-3, max_value=1e3),
       gamma=st.floats(min_value=0.05, max_value=4.0))
@settings(max_examples=300, deadline=None)
def test_single_power_evaluation_matches_direct_formula(x, gamma):
    if abs(gamma - 1.0) < 1e-3:
        return
    direct = x ** (1 - gamma) / (1 - gamma)
    mix = RiskMixture(atoms=((gamma, 1.0),), gamma0=gamma)
    assert initial_value(mix, x) == pytest.approx(direct, rel=1e-12)


def test_pointwise_concavity_of_reachable_states():
    market = base_market(d_wperp=0)
    mix = RiskMixture(atoms=((0.5, 1.0), (2.0, 0.5)), gamma0=0.8,
                      h0=H0Spec("constant", [0.15]))
    grid = TimeGrid.regular(1.0, 0.05)
    fpp = MixtureFpp(mix, market, grid)
    dw, dwp = brownian_batch(grid, 1, 0, seed=12, path_ids=range(6))
    m, qv, v = fpp.state_paths(dw, dwp), fpp.qv, fpp.v
    b, k = np.repeat(np.arange(6), 2), np.tile([10, 20], 6)
    x = np.geomspace(1e-2, 1e2, 20)
    report = structure_scan(mixture_value(mix.gammas, mix.weights, np.log(x),
                                          m[:, k, b, None], qv[:, k, None], v[:, k, None]), x)
    assert report.passed


# ---------------------------------------------------------------------------
# market view and time-monotone value
# ---------------------------------------------------------------------------

def test_market_view_density_identity():
    assert market_view_density(0.0, 0.0) == 1.0


def test_market_view_density_arithmetic():
    assert market_view_density(0.5, 0.25) == pytest.approx(np.exp(0.375))


def test_market_view_density_mc_mean_is_one():
    # E exp(H W_T - H^2 T / 2) = 1 for constant H
    market = base_market()
    mix = RiskMixture(atoms=((0.5, 1.0),), gamma0=0.5, h0=H0Spec("constant", [0.4]))
    grid = TimeGrid.regular(1.0, 1 / 64)
    fpp = MixtureFpp(mix, market, grid)
    n = 100_000
    dw, dwp = brownian_batch(grid, 1, 0, seed=77, path_ids=range(n))
    m, qv = fpp.state_paths(dw, dwp), fpp.qv
    dens = market_view_density(m[0, -1], qv[0, -1])
    se = dens.std(ddof=1) / np.sqrt(n)
    assert abs(dens.mean() - 1.0) < 3 * se


def test_monotone_power_value_undiscounted():
    assert monotone_power_value(4.0, [0.0], 0.5) == pytest.approx(4.0)


def test_monotone_power_value_arithmetic():
    assert monotone_power_value(1.0, [0.2], 0.5) == pytest.approx(2 * np.exp(-0.02))


def test_monotone_power_factorisation_along_path():
    # single-atom criterion = time-monotone value times the market-view density
    market = base_market()
    g = 0.5
    h = 0.1
    mix = RiskMixture(atoms=((g, 1.0),), gamma0=g, h0=H0Spec("constant", [h]))
    grid = TimeGrid.regular(1.0, 1 / 128)  # T = 1 so int |lam+H|^2 = |lam+H|^2
    fpp = MixtureFpp(mix, market, grid)
    dw, dwp = brownian_batch(grid, 1, 0, seed=5, path_ids=[0])
    m, qv, v = fpp.state_paths(dw, dwp), fpp.qv, fpp.v
    lam_plus_h = market.sharpe_at(0.0) + h
    for x in (0.5, 1.0, 3.0):
        full = mixture_value(mix.gammas, mix.weights, np.log(x), m[:, -1, 0], qv[:, -1],
                             v[:, -1])
        factored = (monotone_power_value(x, lam_plus_h, g)
                    * market_view_density(m[0, -1, 0], qv[0, -1]))
        assert full == pytest.approx(factored, rel=1e-10)


# ---------------------------------------------------------------------------
# integrability constants
# ---------------------------------------------------------------------------

def test_constants_reference_point():
    consts = true_fpp_constants(2.0, 2.0, 4.0, 4.0, 4.0, 0.5)
    assert consts.q == pytest.approx(4.0)
    assert consts.cj_lower == pytest.approx(120.0)
    assert np.isfinite(consts.ch_lower(0.5))


def test_constants_q_decreases_to_two():
    qs = [true_fpp_constants(v, 2.0, 4.0, 4.0, 4.0, 0.5).q
          for v in (1.5, 2.0, 5.0, 100.0, 1e8)]
    assert all(a > b for a, b in zip(qs, qs[1:]))
    assert qs[-1] == pytest.approx(2.0, abs=1e-6)


def test_constants_first_branch_vanishes_near_one():
    consts = true_fpp_constants(2.0, 2.0, 4.0, 4.0, 4.0, 0.5)
    u, v, p1, p3, g0 = consts.u, consts.v, consts.p1, consts.p3, consts.gamma0
    for eps in (1e-2, 1e-4, 1e-6):
        g = 1 - eps
        branch1 = u * v * p3 * (1 - g) * (2 * u * v * p1 * (1 - g) - 1) / g0 ** 2
        assert abs(branch1) < 5 * eps * u * v * p3 / g0 ** 2


@pytest.mark.parametrize("v,u,p1,p2,p3", [
    (1.0, 2.0, 4.0, 4.0, 4.0),     # v must exceed 1
    (2.0, 1.0, 4.0, 4.0, 4.0),     # u must exceed 1
    (2.0, 2.0, 2.0, 2.0, 2.0),     # Holder sum 3/2 >= 1
    (2.0, 2.0, 0.5, 4.0, 4.0),     # p1 <= 1
    (NAN, 2.0, 4.0, 4.0, 4.0),     # NaN compares false both ways: q was NaN
    (2.0, NAN, 4.0, 4.0, 4.0),
    (2.0, 2.0, NAN, 4.0, 4.0),     # cj_lower was NaN
    (2.0, 2.0, 4.0, 4.0, NAN),
    (INF, 2.0, 4.0, 4.0, 4.0),     # q = 2v/(v-1) was NaN
    (2.0, INF, 4.0, 4.0, 4.0),
    (2.0, 2.0, INF, 4.0, 4.0),     # cj_lower was inf
])
def test_constants_reject_invalid_exponents(v, u, p1, p2, p3):
    with pytest.raises(InvalidExponentError):
        true_fpp_constants(v, u, p1, p2, p3, 0.5)


@pytest.mark.parametrize("call,message", [
    (lambda: drift_term(NAN, [0.1], [0.2], [0.0]), "gamma must avoid 0 and 1"),
    (lambda: monotone_power_value(1.0, [0.2], NAN), "gamma must avoid 0 and 1"),
    (lambda: hgamma(0.5, NAN, np.array([0.2]), np.array([0.0])), "gamma0 must be nonzero"),
    (lambda: vgamma_rate(NAN, [0.2], [0.0]), "gamma must be nonzero"),
    (lambda: vgamma_rate([0.5, NAN], [0.2], [0.0]), "gamma must be nonzero"),
    (lambda: dual_marginal(NAN, 1.0, 1.0, 0.5), "^x: must be positive and finite"),
    (lambda: dual_marginal(-1.0, 1.0, 1.0, 0.5), "^x: must be positive and finite"),
    (lambda: dual_marginal(0.0, 1.0, 1.0, 0.5), "^x: must be positive and finite"),
    (lambda: optimal_portfolio([0.2], [0.0], NAN, [[0.2]]), "gamma0 must be nonzero"),
    (lambda: drift_term(INF, [0.1], [0.2], [0.0]), "gamma must avoid 0 and 1"),
    (lambda: monotone_power_value(1.0, [0.2], INF), "gamma must avoid 0 and 1"),
    (lambda: hgamma(0.5, INF, np.array([0.2]), np.array([0.0])), "gamma0 must be nonzero"),
    (lambda: hgamma(INF, 0.5, np.array([0.2]), np.array([0.0])), "^gamma: must be finite"),
    (lambda: hgamma([0.5, NAN], 0.5, np.array([0.2]), np.array([0.0])),
     "^gamma: must be finite"),
    (lambda: vgamma_rate(INF, [0.2], [0.0]), "gamma must be nonzero"),
    (lambda: true_fpp_constants(2.0, 2.0, 4.0, 4.0, 4.0, NAN),
     "gamma0 must be nonzero"),
    (lambda: true_fpp_constants(2.0, 2.0, 4.0, 4.0, 4.0, INF),
     "gamma0 must be nonzero"),
    (lambda: dual_marginal(1.0, 1.0, 1.0, NAN), "^gamma: must lie in"),
    (lambda: dual_marginal(1.0, 1.0, 1.0, 0.5), "^gamma: must lie in"),
    (lambda: dual_marginal(1.0, NAN, 1.0, 0.25), "^a_coeff: must be positive and finite"),
    (lambda: dual_marginal(1.0, INF, 1.0, 0.25), "^a_coeff: must be positive and finite"),
    (lambda: dual_marginal(1.0, 1.0, INF, 0.25), "^d_coeff: must be positive and finite"),
], ids=["drift-term", "monotone-power", "hgamma", "vgamma-rate", "vgamma-rate-atom",
        "dual-marginal-nan", "dual-marginal-negative", "dual-marginal-zero",
        "optimal-portfolio", "drift-term-inf", "monotone-power-inf", "hgamma-inf",
        "hgamma-gamma-inf", "hgamma-gamma-atom", "vgamma-rate-inf", "constants-gamma0",
        "constants-gamma0-inf", "dual-marginal-gamma", "dual-marginal-gamma-range",
        "dual-marginal-coefficient", "dual-marginal-a-inf", "dual-marginal-d-inf"])
def test_nan_aversions_and_wealth_are_rejected(call, message):
    # each guard was an equality test (gamma in (0, 1), gamma0 == 0), which
    # NaN passes, or an order test, which inf passes; hgamma never checked
    # gamma, true_fpp_constants never checked gamma0, and dual_marginal
    # checked no aversion or coefficient, so x < 0 raised a complex TypeError
    # and a NaN gamma read 1.0 ** nan = 1; a NaN gamma0 made
    # optimal_portfolio's target NaN; an infinite A or D made dual_marginal inf
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# admissibility moment diagnostics
# ---------------------------------------------------------------------------

def mix3_setup():
    """A 3-atom mixture on a d_w = 3 market, weekly grid over one year."""
    grid = TimeGrid.regular(1.0, 1 / 52)
    market = MarketSpec(n_stocks=3, d_w=3, d_wperp=1,
                        sigma=[[0.2, 0.0, 0.0], [0.05, 0.25, 0.0], [0.0, 0.05, 0.3]],
                        mu=[0.04, 0.05, 0.06])
    mix = RiskMixture(atoms=((0.3, 1.0), (0.5, 0.5), (0.8, 0.25)), gamma0=0.5,
                      h0=H0Spec("portfolio_inversion", [0.5, 0.3, 0.2]),
                      j=JSpec("constant", [0.1]))
    return grid, market, mix


def monte_carlo_moments(sp, market, mix, v, u, grid, n_paths=40_000, seed=3):
    """Sample estimates of both admissibility moments, each with its standard error.

    Returns the integral moment's mean and SE, then the per-column means and
    SEs of the sup moment's integrand, a (N+1,) array each.
    """
    dw, _ = brownian_batch(grid, market.d_w, market.d_wperp, seed, range(n_paths))
    log_x = evolve_log_wealth_batch(1.0, sp, market.sharpe_path(grid), grid, dw)
    spv = np.einsum("kd,kd->k", sp, sp) ** v * grid.dt
    integral = spv @ sum(w * np.exp(2 * v * (1 - g) * log_x[:-1]) for g, w in mix.atoms)
    sup = sum(w * np.exp(2 * u * v * (1 - g) * log_x) for g, w in mix.atoms)
    root_n = np.sqrt(n_paths)
    return (integral.mean(), integral.std(ddof=1) / root_n,
            sup.mean(axis=1), sup.std(axis=1, ddof=1) / root_n)


@pytest.mark.parametrize("schedule", ["sp_star", "zero", "sine"])
def test_moments_agree_with_monte_carlo(schedule):
    # the closed form is the expectation of the sample estimator, for the
    # engine's log scheme, so 40k paths land within 3 SE of it
    grid, market, mix = mix3_setup()
    sp_star = MixtureFpp(mix, market, grid).sp_star
    sp = {"sp_star": sp_star, "zero": np.zeros_like(sp_star),
          "sine": sp_star * (1 + 0.5 * np.sin(2 * np.pi * grid.times[:-1]))[:, None]}
    sp = sp[schedule]
    report = check_admissibility_moments(sp, market, mix, v=1.5, u=1.5, grid=grid)
    integral, integral_se, sup, sup_se = monte_carlo_moments(sp, market, mix, 1.5, 1.5,
                                                             grid)
    assert abs(integral - report.integral_mean) <= 3 * integral_se
    k = int(np.flatnonzero(grid.times == report.sup_time)[0])
    assert abs(sup[k] - report.sup_moment) <= 3 * sup_se[k]


def test_moments_match_lognormal_closed_form():
    # constant sigma*pi = c: X_t is lognormal with known power moments
    market = base_market()
    g = 0.5
    mix = RiskMixture(atoms=((g, 1.0),), gamma0=g)
    grid = TimeGrid.regular(1.0, 1 / 12)
    v_exp, u_exp, c, lam = 1.5, 1.5, 0.3, 0.2
    report = check_admissibility_moments(
        np.full((grid.n_steps, 1), c), market, mix, v=v_exp, u=u_exp, grid=grid)
    a = 2 * v_exp * (1 - g)
    growth = a * (c * lam - 0.5 * c * c) + 0.5 * a * a * c * c
    moment = np.exp(growth * grid.times[:-1])  # left endpoints
    expected_integral = float(np.sum(moment * c ** (2 * v_exp) * grid.dt))
    assert report.integral_mean == pytest.approx(expected_integral, rel=1e-12)
    b = 2 * u_exp * v_exp * (1 - g)
    growth_b = b * (c * lam - 0.5 * c * c) + 0.5 * b * b * c * c
    expected_sup = np.exp(growth_b * grid.times)
    assert report.sup_moment == pytest.approx(float(np.max(expected_sup)), rel=1e-12)
    assert report.sup_time == grid.times[np.argmax(expected_sup)]


def test_moments_null_portfolio_integral_is_zero():
    grid, market, mix = mix3_setup()
    x0, v, u = 2.0, 1.5, 1.2
    report = check_admissibility_moments(np.zeros((grid.n_steps, 3)), market, mix,
                                         v=v, u=u, grid=grid, x0=x0)
    assert report.integral_mean == 0.0
    expected = sum(w * x0 ** (2 * u * v * (1 - g)) for g, w in mix.atoms)
    assert report.sup_moment == pytest.approx(expected, rel=1e-14)
    assert report.sup_time == 0.0


def test_moments_draw_no_normals(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("the moments are exact and sample nothing")

    for module in (fpplab.market, fpplab.mixture):
        monkeypatch.setattr(module, "brownian_batch", boom, raising=False)
    monkeypatch.setattr(fpplab.market, "_normals_for_paths", boom)
    grid, market, mix = mix3_setup()
    sp = MixtureFpp(mix, market, grid).sp_star
    report = check_admissibility_moments(sp, market, mix, v=1.5, u=1.5, grid=grid)
    assert report.integral_mean > 0


@pytest.mark.parametrize("level", [1e3, 1e200])
def test_moments_past_float_range_read_inf_without_warning(level):
    grid, market, mix = mix3_setup()
    sp = np.full((grid.n_steps, 3), level)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_admissibility_moments(sp, market, mix, v=1.5, u=1.5, grid=grid)
    assert report.integral_mean == np.inf
    assert report.sup_moment == np.inf


def test_moments_reject_a_bad_schedule_and_wealth():
    grid, market, mix = mix3_setup()
    with pytest.raises(StrategyEvaluationError, match="shape"):
        check_admissibility_moments(np.zeros((grid.n_steps, 2)), market, mix,
                                    v=1.5, u=1.5, grid=grid)
    sp = np.zeros((grid.n_steps, 3))
    sp[5, 1] = np.nan
    with pytest.raises(StrategyEvaluationError, match="non-finite"):
        check_admissibility_moments(sp, market, mix, v=1.5, u=1.5, grid=grid)
    with pytest.raises(ValueError, match="^x0: must be positive and finite, got 0.0$"):
        check_admissibility_moments(np.zeros((grid.n_steps, 3)), market, mix,
                                    v=1.5, u=1.5, grid=grid, x0=0.0)


def test_moments_reject_boundary_exponent():
    market = base_market()
    mix = RiskMixture(atoms=((0.5, 1.0),), gamma0=0.5)
    grid = TimeGrid.regular(1.0, 0.5)
    with pytest.raises(InvalidExponentError):
        check_admissibility_moments(np.zeros((grid.n_steps, 1)), market, mix,
                                    v=1.0, u=2.0, grid=grid)


@pytest.mark.parametrize("v, u", [(NAN, 2.0), (2.0, NAN), (INF, 2.0), (2.0, INF)],
                         ids=["v", "u", "v-inf", "u-inf"])
def test_moments_reject_nan_exponent(v, u):
    # v <= 1 is False for NaN: the moments read NaN, after a RuntimeWarning;
    # an infinite exponent passed it too
    mix = RiskMixture(atoms=((0.5, 1.0),), gamma0=0.5)
    grid = TimeGrid.regular(1.0, 0.5)
    with pytest.raises(InvalidExponentError):
        check_admissibility_moments(np.full((grid.n_steps, 1), 0.2), base_market(), mix,
                                    v=v, u=u, grid=grid)
