"""Pooled investment: closed form, optimisers, surfaces, strategy comparison."""

import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fpplab import pooling
from fpplab.market import TimeGrid, brownian_batch
from fpplab.pooling import (_INVPHI, SCAN_BLOCK_ELEMS, Z_EDGE, Z_REFINE_TOL,
                            Z_SCAN_STEP, PoolSpec, _greedy_z_batch,
                            _weighted_objective, compare_strategies,
                            constant_z_expected_utility, one_period_greedy,
                            optimize_constant_z, preset,
                            simulated_expected_utility, utility_surface)

FIG1 = preset("fig1")


def brute_force_argmax(spec, t, step=1e-5):
    zs = np.arange(step, 1.0, step)
    zs = zs[(zs > 1e-4) & (zs < 1 - 1e-3)]
    vals = [constant_z_expected_utility(float(z), t, spec) for z in zs]
    return float(zs[int(np.argmax(vals))])


# ---------------------------------------------------------------------------
# spec and closed form
# ---------------------------------------------------------------------------

def test_pool_spec_validation():
    with pytest.raises(ValueError):
        PoolSpec(p=0.3, q=0.1, a0=1, d0=1, lam=1, x0=1, horizon=30)
    with pytest.raises(ValueError):
        PoolSpec(p=0.1, q=0.3, a0=1, d0=1, lam=1, x0=1, horizon=30,
                 rebalance_dt=0.7)  # not a whole number of periods
    with pytest.raises(KeyError):
        preset("fig9")


def test_closed_form_at_time_zero():
    assert constant_z_expected_utility(0.37, 0.0, FIG1) == pytest.approx(2.0)


def test_closed_form_first_term_constant_at_z_equals_p():
    # at z = p the first exponent vanishes for every t
    for t in (1.0, 10.0, 30.0):
        val = constant_z_expected_utility(FIG1.p, t, FIG1)
        second = val - 1.0
        direct = np.exp(-FIG1.q * (FIG1.p - FIG1.q) ** 2 * FIG1.lam ** 2 * t
                        / (2 * (1 - FIG1.q) * (1 - FIG1.p) ** 2))
        assert second == pytest.approx(direct)


def test_closed_form_rejects_boundary_z():
    for z in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            constant_z_expected_utility(z, 1.0, FIG1)


def test_closed_form_matches_simulation():
    mean, se = simulated_expected_utility(FIG1, z=0.25, t=5.0, n_paths=40_000,
                                          seed=99)
    assert abs(mean - constant_z_expected_utility(0.25, 5.0, FIG1)) < 3 * se


def test_simulation_step_count_is_immaterial():
    # the log scheme is exact for constant allocations
    a = simulated_expected_utility(FIG1, 0.3, 4.0, 500, seed=5, n_steps=1)
    b = simulated_expected_utility(FIG1, 0.3, 4.0, 500, seed=5, n_steps=16)
    assert a[0] != b[0]  # different increments, same law
    assert abs(a[0] - b[0]) < 3 * (a[1] + b[1])


@pytest.mark.parametrize("n_paths", [0, 1])
def test_simulation_needs_two_paths(n_paths):
    # one path has no standard error and none has no mean
    with pytest.raises(ValueError, match="need at least two paths"):
        simulated_expected_utility(FIG1, 0.3, 4.0, n_paths, seed=5)


@pytest.mark.parametrize("n_steps", [0, -1])
def test_simulation_needs_one_step(n_steps):
    with pytest.raises(ValueError, match="n_steps"):
        simulated_expected_utility(FIG1, 0.3, 4.0, 500, seed=5, n_steps=n_steps)


# ---------------------------------------------------------------------------
# constant-z optimiser
# ---------------------------------------------------------------------------

def test_optimizer_fig1_band():
    for t in (1.0, 10.0, 30.0):
        res = optimize_constant_z(FIG1, t)
        assert 0.20 <= res.z_star <= 0.30


def test_optimizer_matches_brute_force():
    for spec, t in ((FIG1, 30.0), (preset("fig2"), 30.0), (preset("fig4"), 10.0)):
        res = optimize_constant_z(spec, t)
        assert res.z_star == pytest.approx(brute_force_argmax(spec, t), abs=1e-4)


def test_optimizer_small_horizon_limit():
    # as t -> 0 the maximiser solves p(z-p) + q(z-q) = 0
    expected = (FIG1.p ** 2 + FIG1.q ** 2) / (FIG1.p + FIG1.q)
    res = optimize_constant_z(FIG1, 1e-6)
    assert res.z_star == pytest.approx(expected, abs=1e-3)


def test_optimizer_fig3_two_local_maxima():
    res = optimize_constant_z(preset("fig3"), 30.0)
    assert len(res.local_maxima) == 2
    zs = sorted(z for z, _ in res.local_maxima)
    assert 0.05 < zs[0] < 0.18
    assert 0.22 < zs[1] < 0.40
    # the global maximiser leans to the less risk-averse side
    assert res.z_star == pytest.approx(zs[1], abs=1e-9)


def test_optimizer_flat_objective_is_deterministic():
    spec = PoolSpec(p=0.1, q=0.3, a0=1, d0=1, lam=0.0, x0=1, horizon=30)
    res = optimize_constant_z(spec, 30.0)
    assert res.z_star == pytest.approx(1e-3)  # left edge of the clipped scan


# ---------------------------------------------------------------------------
# one-period greedy
# ---------------------------------------------------------------------------

def test_greedy_single_investor_limit():
    z = one_period_greedy(1.0, 1e-300, 1.0, FIG1, dt=1.0)
    assert z == pytest.approx(FIG1.p, abs=1e-5)
    z = one_period_greedy(1e-300, 1.0, 1.0, FIG1, dt=1.0)
    assert z == pytest.approx(FIG1.q, abs=1e-5)


def test_greedy_matches_fine_grid_scan():
    spec = FIG1
    wa = wd = 1.0
    zs = np.arange(1e-3, 1 - 1e-3, 1e-5)
    lam2dt = spec.lam ** 2 * 1.0
    ea = np.exp(-spec.p * (zs - spec.p) ** 2 * lam2dt
                / (2 * (1 - spec.p) * (1 - zs) ** 2))
    ed = np.exp(-spec.q * (zs - spec.q) ** 2 * lam2dt
                / (2 * (1 - spec.q) * (1 - zs) ** 2))
    brute = float(zs[int(np.argmax(wa * ea + wd * ed))])
    assert one_period_greedy(1.0, 1.0, 1.0, spec, dt=1.0) == pytest.approx(
        brute, abs=1e-4)


N_ITER = int(math.ceil(math.log(Z_REFINE_TOL / (2 * Z_SCAN_STEP)) / math.log(_INVPHI)))


def full_grid_greedy_z(log_ratio, p, q, lam2dt):
    """Reference for ``_greedy_z_batch``: every row scored on the whole z-grid."""
    r = np.exp(log_ratio)[:, None]
    n = int(round((1.0 - 2.0 * Z_EDGE) / Z_SCAN_STEP)) + 1
    zs = np.linspace(Z_EDGE, 1.0 - Z_EDGE, n)
    idx = np.argmax(_weighted_objective(zs[None, :], 1.0, r, p, q, lam2dt), axis=1)
    a = zs[np.maximum(idx - 1, 0)]
    b = zs[np.minimum(idx + 1, n - 1)]

    def fvec(z):
        return _weighted_objective(z, 1.0, r[:, 0], p, q, lam2dt)

    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fvec(c), fvec(d)
    for _ in range(N_ITER):
        left = fc >= fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        fc, fd = fvec(c), fvec(d)
    return 0.5 * (a + b)


_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
_LOG10_LAM2DT = st.floats(min_value=-14.0, max_value=3.0)


@given(p=_UNIT, q=_UNIT,
       lam2dt=st.one_of(st.sampled_from([0.0, 1e-14]),
                        _LOG10_LAM2DT.map(lambda e: 10.0 ** e)),
       sd=st.sampled_from([1.0, 5.0, 50.0]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       extra=st.lists(st.floats(min_value=-700.0, max_value=700.0), max_size=8))
@settings(max_examples=200, deadline=None)
# ea is flat to the last bit left of the window here: rounding, not the
# closed form, puts the first full-grid maximum outside [p, q]
@example(p=0.5, q=0.9999999999999998, lam2dt=1e-14, sd=50.0, seed=0, extra=[])
def test_greedy_window_matches_full_grid_scan(p, q, lam2dt, sd, seed, extra):
    # the argmax over [p, q] (plus the edge rescan) is the full-grid argmax
    assume(p < q)
    normal = np.random.default_rng(seed).normal(0.0, sd, 256)
    log_ratio = np.concatenate([np.clip(normal, -700.0, 700.0), extra, [-700.0, 700.0]])
    assert np.array_equal(_greedy_z_batch(log_ratio, p, q, lam2dt),
                          full_grid_greedy_z(log_ratio, p, q, lam2dt))


@pytest.mark.parametrize("lam2dt", [1e-14, 1.0, 16.0])
@pytest.mark.parametrize("rows", ["all-equal", "two-interleaved", "one-outlier",
                                  "overflowing"])
def test_greedy_repeated_rows_match_full_grid_scan(rows, lam2dt):
    # rows that share their brackets: one ratio (every path at the first
    # period), two alternating ones, one ratio with a single outlier, and
    # ratios whose exp overflows, so that inf * 0 makes NaN scores
    log_ratio = {"all-equal": np.full(1000, 0.3),
                 "two-interleaved": np.resize([-1.5, 2.0], 1000),
                 "one-outlier": np.where(np.arange(1000) == 617, 40.0, -0.7),
                 "overflowing": np.resize([750.0, -750.0, 0.0], 1000)}[rows]
    with np.errstate(over="ignore", invalid="ignore"):
        z = _greedy_z_batch(log_ratio, 0.1, 0.3, lam2dt)
        assert np.array_equal(z, full_grid_greedy_z(log_ratio, 0.1, 0.3, lam2dt))


def greedy_log_ratios(spec, n_paths, seed):
    """The (B,) log weight ratios that ``compare_strategies`` hands its greedy
    rule, one vector per period, rebuilt by running that rule alone."""
    grid = TimeGrid.regular(spec.horizon, spec.rebalance_dt)
    dw, _ = brownian_batch(grid, 1, 0, seed, range(n_paths))
    p, q, lam, dt = spec.p, spec.q, spec.lam, spec.rebalance_dt
    alpha, delta = spec.drifts()
    log_wr0 = math.log(spec.d0 / spec.a0)
    log_x = np.full(n_paths, math.log(spec.x0))
    for k in range(spec.n_periods):
        log_r = log_wr0 + (delta - alpha) * (k * dt) + (q - p) * log_x
        yield log_r
        sp = lam / (1.0 - _greedy_z_batch(log_r, p, q, lam * lam * dt))
        log_x = log_x + (sp * lam - 0.5 * sp * sp) * dt + sp * dw[:, k, 0]


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
def test_greedy_matches_full_grid_scan_on_comparison_traffic(name):
    # the ratios a comparison really serves: all equal at the first period,
    # then spreading out, rows sharing their brackets for part of the walk
    spec = preset(name)
    lam2dt = spec.lam * spec.lam * spec.rebalance_dt
    for log_ratio in greedy_log_ratios(spec, 2000, seed=7):
        assert np.array_equal(_greedy_z_batch(log_ratio, spec.p, spec.q, lam2dt),
                              full_grid_greedy_z(log_ratio, spec.p, spec.q, lam2dt))


def _refinement_points(log_ratio, lam2dt, monkeypatch):
    """How many z points one call's golden-section refinement scores."""
    points = []
    terms = pooling._objective_terms

    def spy(z, p, q, lam2t):
        if z is not pooling.Z_GRID:  # not one of the grid scans
            points.append(np.size(z))
        return terms(z, p, q, lam2t)

    with monkeypatch.context() as m:
        m.setattr(pooling, "_objective_terms", spy)
        _greedy_z_batch(log_ratio, 0.1, 0.3, lam2dt)
    return sum(points)


def test_greedy_refinement_scores_a_shared_bracket_once(monkeypatch):
    # 20k equal rows walk one bracket down: a per-row loop scored
    # 2 (n_iter + 1) points for every row
    points = _refinement_points(np.full(20_000, 0.3), FIG3_LAM2DT, monkeypatch)
    assert points <= 2 * (N_ITER + 1)


@pytest.mark.parametrize("lam2dt", [1e-14, 1.0, 16.0])
def test_greedy_refinement_scores_no_more_than_per_row(lam2dt, monkeypatch):
    log_ratio = np.random.default_rng(11).normal(0.0, 5.0, 20_000)
    assert (_refinement_points(log_ratio, lam2dt, monkeypatch)
            <= 2 * (N_ITER + 1) * log_ratio.size)


def test_greedy_refinement_memory_on_distinct_brackets():
    # at fig3's second period nearly every row ends on a bracket of its own,
    # so the last bracket tables hold about a bracket per row; the call
    # still peaks below 16 (B,) doubles, which the per-row loop exceeded
    spec = preset("fig3")
    log_ratio = list(itertools.islice(greedy_log_ratios(spec, 20_000, seed=7), 2))[1]
    tracemalloc.start()
    try:
        _greedy_z_batch(log_ratio, spec.p, spec.q, FIG3_LAM2DT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * log_ratio.size * 8


def test_greedy_flat_objective_rescans_full_grid():
    # at lam^2 dt = 0 every z ties, so each row's window argmax is the window's
    # left edge; the full-grid rescan moves it to the first grid point
    log_ratio = np.linspace(-5.0, 5.0, 11)
    z = _greedy_z_batch(log_ratio, 0.1, 0.3, 0.0)
    assert np.array_equal(z, full_grid_greedy_z(log_ratio, 0.1, 0.3, 0.0))
    assert np.all((Z_EDGE <= z) & (z <= Z_EDGE + Z_SCAN_STEP))


def test_greedy_window_widens_right_to_a_rise(monkeypatch):
    # a rise in ed right of q, as rounding can make where it is flat to the
    # last bit, widens the window up to it: rows that peak there still get
    # the full-grid argmax
    zs = pooling.Z_GRID
    k = int(np.searchsorted(zs, 0.8))
    terms = pooling._objective_terms

    def bumped(z, p, q, lam2t):
        ea, ed = terms(z, p, q, lam2t)
        if np.shape(z)[-1:] == zs.shape:  # the grid scans, not the golden-section points
            ed = ed.copy()
            ed[..., k] = 1.5
        return ea, ed

    monkeypatch.setattr(pooling, "_objective_terms", bumped)
    log_ratio = np.linspace(-5.0, 5.0, 41)
    z = _greedy_z_batch(log_ratio, 0.1, 0.3, 1.0)
    assert np.array_equal(z, full_grid_greedy_z(log_ratio, 0.1, 0.3, 1.0))
    assert np.all(np.abs(z[log_ratio > 0.0] - zs[k]) <= Z_SCAN_STEP)


FIG3_LAM2DT = preset("fig3").lam ** 2 * preset("fig3").rebalance_dt


def _scan_block_rows(p, q, lam2dt, monkeypatch):
    """Rows per block of the last argmax scan a single row goes through:
    the window scan, or the full-grid rescan when every row takes it."""
    widths = []
    first_argmax = pooling._first_argmax

    def spy(r, ea, ed):
        widths.append(ea.size)
        return first_argmax(r, ea, ed)

    with monkeypatch.context() as m:
        m.setattr(pooling, "_first_argmax", spy)
        _greedy_z_batch(np.zeros(1), p, q, lam2dt)
    return SCAN_BLOCK_ELEMS // widths[-1]


@pytest.mark.parametrize("lam2dt", [0.0, 1e-14, FIG3_LAM2DT])
@pytest.mark.parametrize("size", ["one", "block-1", "block", "block+1", "blocks+short"])
def test_greedy_blocked_scan_matches_full_grid(lam2dt, size, monkeypatch):
    # batches that end just short of, on and past a block edge, and a batch of
    # several blocks whose last one is short, all equal the unblocked scan
    rows = _scan_block_rows(0.1, 0.3, lam2dt, monkeypatch)
    assert rows > 2
    n = {"one": 1, "block-1": rows - 1, "block": rows, "block+1": rows + 1,
         "blocks+short": 3 * rows + rows // 2}[size]
    log_ratio = np.random.default_rng(n).normal(0.0, 5.0, n)
    assert np.array_equal(_greedy_z_batch(log_ratio, 0.1, 0.3, lam2dt),
                          full_grid_greedy_z(log_ratio, 0.1, 0.3, lam2dt))


@pytest.mark.parametrize("lam2dt", [1e-14, FIG3_LAM2DT])
def test_greedy_row_does_not_depend_on_its_batch(lam2dt, monkeypatch):
    rows = _scan_block_rows(0.1, 0.3, lam2dt, monkeypatch)
    log_ratio = np.random.default_rng(3).normal(0.0, 5.0, 20_000)
    z = _greedy_z_batch(log_ratio, 0.1, 0.3, lam2dt)
    for i in (0, rows - 1, rows, 2 * rows + 1, 12_345, 19_999):
        assert z[i] == _greedy_z_batch(log_ratio[i:i + 1], 0.1, 0.3, lam2dt)[0]


@pytest.mark.parametrize("lam2dt", [1e-14, FIG3_LAM2DT])
def test_greedy_scan_memory_is_bounded(lam2dt):
    # 40k rows x 999 grid points would be 320 MB as one score matrix; the
    # row blocks and the (B,) golden-section vectors need a few MB
    log_ratio = np.random.default_rng(5).normal(0.0, 5.0, 40_000)
    tracemalloc.start()
    try:
        _greedy_z_batch(log_ratio, 0.1, 0.3, lam2dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("arg", ["a_eff", "d_eff", "x", "dt"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_greedy_rejects_non_finite_inputs(arg, bad):
    # argmax of NaN scores would silently return the first grid point
    kwargs = dict(a_eff=1.0, d_eff=1.0, x=1.0, dt=1.0)
    kwargs[arg] = bad
    with pytest.raises(ValueError, match=rf"^{arg} must be positive and finite"):
        one_period_greedy(spec=FIG1, **kwargs)


def test_overflowing_lam_squared_is_rejected():
    # lam^2 t past the largest double made NaN scores, or an OverflowError
    with pytest.raises(ValueError, match=r"^lam: lam\^2 horizon must be finite"):
        preset("fig1", lam=1e200)
    with pytest.raises(ValueError, match=r"^dt must keep lam\^2 dt finite"):
        one_period_greedy(1.0, 1.0, 1.0, preset("fig3"), dt=1e308)


@pytest.mark.parametrize("entry, lead", [
    (lambda spec: constant_z_expected_utility(0.1, 1e308, spec), "lam^2 t must be finite"),
    (lambda spec: optimize_constant_z(spec, 1e308), "lam^2 t must be finite"),
    (lambda spec: utility_surface(spec, [0.1, 0.5], [1.0, 1e308]), "lam^2 t must be finite"),
    (lambda spec: one_period_greedy(1.0, 1.0, 1.0, spec, dt=1e308),
     "dt must keep lam^2 dt finite"),
], ids=["constant_z_expected_utility", "optimize_constant_z", "utility_surface",
        "one_period_greedy"])
def test_overflowing_lam_squared_t_is_rejected_without_warning(entry, lead):
    # lam^2 t = inf scored NaN, with an "invalid value" RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{re.escape(lead)}, got d?t = 1e\+308"):
            entry(preset("fig3"))


def test_greedy_short_period_continuity():
    # a vanishing period reproduces the small-horizon constant-z optimiser
    z_greedy = one_period_greedy(1.0, 1.0, 1.0, FIG1, dt=1e-3)
    z_opt = optimize_constant_z(FIG1, 1e-3).z_star
    assert z_greedy == pytest.approx(z_opt, abs=1e-6)


def test_greedy_wealth_tilts_toward_q():
    # higher wealth boosts the x^q weight, pulling z upward
    z_lo = one_period_greedy(1.0, 1.0, 0.01, FIG1, dt=1.0)
    z_hi = one_period_greedy(1.0, 1.0, 100.0, FIG1, dt=1.0)
    assert z_lo < z_hi


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------

def test_surface_time_zero_row_constant():
    surf = utility_surface(FIG1, np.linspace(0.05, 0.9, 40), [0.0, 1.0])
    np.testing.assert_allclose(surf.values[0], 2.0)


def test_surface_single_point_matches_scalar_form():
    surf = utility_surface(FIG1, [0.25], [7.0])
    assert surf.values[0, 0] == pytest.approx(
        constant_z_expected_utility(0.25, 7.0, FIG1))


def test_surface_never_exceeds_initial_row_and_decays():
    z = np.linspace(0.01, 0.99, 100)
    t = np.linspace(0.0, 30.0, 31)
    surf = utility_surface(FIG1, z, t)
    top = surf.values[0]
    assert np.all(surf.values <= top + 1e-12)
    # strictly decreasing in t except where the value has underflowed to 0
    diffs = np.diff(surf.values, axis=0)
    assert np.all((diffs < 0.0) | (surf.values[1:] == 0.0))


def test_surface_fig1_has_single_ridge():
    z = np.linspace(0.01, 0.99, 500)
    for t in (1.0, 10.0, 20.0, 30.0):
        row = utility_surface(FIG1, z, [t]).values[0]
        d = np.sign(np.diff(row))
        flips = int(np.sum((d[:-1] > 0) & (d[1:] <= 0)))
        assert flips == 1


def test_surface_validates_grids():
    with pytest.raises(ValueError):
        utility_surface(FIG1, [0.0, 0.5], [1.0])
    with pytest.raises(ValueError):
        utility_surface(FIG1, [0.5], [-1.0])


# ---------------------------------------------------------------------------
# strategy comparison
# ---------------------------------------------------------------------------

def test_compare_is_reproducible_bitwise():
    a = compare_strategies(FIG1, n_paths=64, seed=11)
    b = compare_strategies(FIG1, n_paths=64, seed=11)
    for name in a.strategies:
        assert np.array_equal(a.strategies[name].mean_utility,
                              b.strategies[name].mean_utility)
        assert np.array_equal(a.strategies[name].mean_allocation,
                              b.strategies[name].mean_allocation)


def test_compare_allocations_within_bounds():
    result = compare_strategies(FIG1, n_paths=128, seed=4)
    const = result.strategies["constant_z_star"]
    np.testing.assert_allclose(const.mean_allocation, result.z_star)
    feedback = result.strategies["pi_star"]
    assert np.all(feedback.mean_allocation > FIG1.p)
    assert np.all(feedback.mean_allocation < FIG1.q)
    greedy = result.strategies["pi_e"]
    assert np.all(greedy.mean_allocation > 0.0)
    assert np.all(greedy.mean_allocation < 1.0)


def test_compare_common_random_numbers_shrink_variance():
    result = compare_strategies(FIG1, n_paths=256, seed=8)
    se_a = result.strategies["constant_z_star"].se_utility[-1]
    se_b = result.strategies["pi_star"].se_utility[-1]
    paired = result.paired_se("constant_z_star", "pi_star")
    assert 0.0 < paired ** 2 < se_a ** 2 + se_b ** 2
    assert result.paired_se("pi_star", "constant_z_star") == paired


def whole_horizon_comparison(spec, n_paths, seed):
    """Reference for ``compare_strategies``: each strategy run alone over the
    whole horizon, keeping its (B, K+1) utilities and (B, K) allocations."""
    grid = TimeGrid.regular(spec.horizon, spec.rebalance_dt)
    dw, _ = brownian_batch(grid, 1, 0, seed, range(n_paths))
    n_per, dt, lam, p, q = spec.n_periods, spec.rebalance_dt, spec.lam, spec.p, spec.q
    alpha, delta = spec.drifts()
    z_star = optimize_constant_z(spec, spec.horizon).z_star
    log_wr0 = math.log(spec.d0 / spec.a0)

    def feedback(t, log_x):
        omega = pooling._sigmoid(-(math.log(q / p) + log_wr0 + (delta - alpha) * t
                                   + (q - p) * log_x))
        return omega * p + (1.0 - omega) * q

    def greedy(t, log_x):
        return _greedy_z_batch(log_wr0 + (delta - alpha) * t + (q - p) * log_x,
                               p, q, lam * lam * dt)

    rules = {"constant_z_star": lambda t, log_x: np.full(log_x.shape, z_star),
             "pi_star": feedback, "pi_e": greedy}
    runs = {}
    for name, rule in rules.items():
        log_x = np.full(n_paths, math.log(spec.x0))
        utilities = np.empty((n_paths, n_per + 1))
        allocations = np.empty((n_paths, n_per))
        for k in range(n_per + 1):
            utilities[:, k] = spec.utility(k * dt, log_x)
            if k == n_per:
                break
            z = rule(k * dt, log_x)
            sp = lam / (1.0 - z)
            log_x = log_x + (sp * lam - 0.5 * sp * sp) * dt + sp * dw[:, k, 0]
            allocations[:, k] = z
        runs[name] = utilities, allocations
    return runs


@pytest.mark.parametrize("n_paths", [2, 3, 17, 256])
@pytest.mark.parametrize("spec", [
    *(preset(name) for name in ("fig1", "fig2", "fig3", "fig4")),
    preset("fig3", horizon=1.0), preset("fig3", horizon=2.0)],
    ids=["fig1", "fig2", "fig3", "fig4", "fig3-one-period", "fig3-two-periods"])
def test_compare_streamed_statistics_match_whole_horizon_arrays(spec, n_paths):
    # the per-period path-order sums give the bits of per-strategy (B, K+1)
    # and (B, K) arrays, also where K = 1 makes the allocations one column wide
    result = compare_strategies(spec, n_paths, seed=7)
    runs = whole_horizon_comparison(spec, n_paths, seed=7)
    for name, (utilities, allocations) in runs.items():
        stats = result.strategies[name]
        assert np.array_equal(stats.mean_utility, utilities.mean(axis=0))
        assert np.array_equal(stats.se_utility,
                              utilities.std(axis=0, ddof=1) / np.sqrt(n_paths))
        assert np.array_equal(stats.mean_allocation, allocations.mean(axis=0))
    for a, b in itertools.permutations(runs, 2):
        diff = runs[a][0][:, -1] - runs[b][0][:, -1]
        assert result.paired_se(a, b) == float(np.std(diff, ddof=1) / np.sqrt(n_paths))


@pytest.mark.parametrize("horizon", [30.0, 60.0])
def test_compare_memory_is_the_increments_plus_a_few_path_vectors(horizon):
    # no per-strategy (B, K+1) array: beyond the (B, K) increments the peak
    # is a fixed number of (B,) vectors, whatever the horizon
    spec, n_paths = preset("fig3", horizon=horizon), 8192
    tracemalloc.start()
    try:
        compare_strategies(spec, n_paths, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= spec.n_periods * n_paths * 8 + 48 * n_paths * 8


def test_compare_all_strategies_coincide_at_time_zero():
    result = compare_strategies(FIG1, n_paths=16, seed=2)
    u0 = FIG1.a0 * FIG1.x0 ** FIG1.p + FIG1.d0 * FIG1.x0 ** FIG1.q
    for stats in result.strategies.values():
        assert stats.mean_utility[0] == pytest.approx(u0)
        assert stats.se_utility[0] == 0.0


def test_compare_degenerate_market_paths_coincide():
    # no risk premium: every strategy holds nothing and utility is frozen
    spec = PoolSpec(p=0.1, q=0.3, a0=1, d0=1, lam=0.0, x0=1, horizon=5)
    result = compare_strategies(spec, n_paths=2, seed=1)
    base = result.strategies["constant_z_star"].mean_utility
    np.testing.assert_allclose(base, 2.0)
    for stats in result.strategies.values():
        np.testing.assert_allclose(stats.mean_utility, base)
