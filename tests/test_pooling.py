"""Pooled investment: closed form, optimisers, surfaces, strategy comparison."""

import itertools
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fpplab import pooling, two_power
from fpplab.market import TimeGrid, brownian_batch, evolve_log_wealth_batch
from fpplab.pooling import (_INVPHI, SCAN_BLOCK_ELEMS, Z_EDGE, Z_GRID, Z_REFINE_TOL,
                            Z_SCAN_STEP, PoolSpec, _first_argmax, _greedy_z_batch,
                            _objective_terms, _weighted_objective,
                            compare_strategies, constant_z_expected_utility,
                            one_period_greedy, optimize_constant_z, preset,
                            utility_surface)

FIG1 = preset("fig1")


def brute_force_argmax(spec, t, step=1e-5):
    zs = np.arange(step, 1.0, step)
    zs = zs[(zs > 1e-4) & (zs < 1 - 1e-3)]
    vals = utility_surface(spec, zs, [t]).values[0]
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
    with pytest.raises(ValueError, match=r"^preset: unknown preset 'fig9', choose from "
                                         r"\['fig1', 'fig2', 'fig3', 'fig4'\]$"):
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


def simulated_expected_utility(spec, z, t, n_paths, seed, n_steps=4):
    """Monte Carlo oracle of ``constant_z_expected_utility``: the estimate
    (mean, standard error) of E[U_t] under constant z.

    Simulates the wealth paths with the market engine (the log scheme is
    exact for a constant allocation) and averages the joint utility at t.
    """
    if not (0.0 < z < 1.0):
        raise ValueError(f"z must lie strictly inside (0, 1), got {z}")
    if t <= 0:
        raise ValueError("t must be positive")
    if n_paths < 2:
        raise ValueError("need at least two paths")
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    grid = TimeGrid.regular(t, t / n_steps)
    dw, _ = brownian_batch(grid, 1, 0, seed, range(n_paths))
    sp = np.full((grid.n_steps, 1), spec.lam / (1.0 - z))
    lam_path = np.full((grid.n_steps, 1), spec.lam)
    log_x = evolve_log_wealth_batch(spec.x0, sp, lam_path, grid, dw)[-1]
    u = spec.utility(t, log_x)
    return float(np.mean(u)), float(np.std(u, ddof=1) / np.sqrt(n_paths))


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


def linear_constant_z(spec, t):
    """``optimize_constant_z`` scoring the closed form's value, not its log."""
    wa, wd = spec.weights()
    lam2t = spec.lam ** 2 * t
    return pooling._pick_global(pooling._scan_local_maxima(
        lambda z: _weighted_objective(z, wa, wd, spec.p, spec.q, lam2t))).z_star


def test_optimizer_keeps_its_maximiser_where_the_value_underflows():
    # at t = 1e300 (lam^2 t of 1e300 and 1.6e301) both factors underflow on
    # the whole grid, so the value scores 0 everywhere; its log still peaks
    # next to p
    for name in ("fig1", "fig3"):
        res = optimize_constant_z(preset(name), 1e300)
        assert res.z_star == pytest.approx(0.1, abs=1e-6)
        assert np.exp(res.log_value) == 0.0 and -np.inf < res.log_value < 0.0


def test_log_optimizer_agrees_with_the_linear_one_on_the_sweep():
    # 4 presets x 204 horizons spaced geometrically in [1e-6, 1e6]; at the
    # presets' own horizon the log objective gives the linear one's z* bit
    # for bit, so the comparison's z* holds
    for name in ("fig1", "fig2", "fig3", "fig4"):
        spec = preset(name)
        for t in np.geomspace(1e-6, 1e6, 204):
            z_log = optimize_constant_z(spec, float(t)).z_star
            assert z_log == pytest.approx(linear_constant_z(spec, float(t)), abs=1e-4)
        assert optimize_constant_z(spec, 30.0).z_star == linear_constant_z(spec, 30.0)


def dense_constant_z(spec, t, maxima, half_width=2e-6, step=2e-9):
    """The tie rule applied to each maximum's best log value on a dense grid
    of ``step`` over ``z +- half_width``."""
    log_wa, log_wd = np.log(spec.weights())
    lam2t = spec.lam ** 2 * t
    dense = []
    for z, _ in maxima:
        zs = z + np.linspace(-half_width, half_width, round(2 * half_width / step) + 1)
        la, ld = pooling._objective_logs(zs, spec.p, spec.q, lam2t)
        dense.append((z, float(np.max(np.logaddexp(log_wa + la, log_wd + ld)))))
    return pooling._pick_global(dense).z_star


@pytest.mark.parametrize("name, t", [("fig1", 5671.0), ("fig2", 22122.0),
                                     ("fig3", 325.0), ("fig3", 373.0),
                                     ("fig4", 284.0), ("fig4", 300.0)])
def test_optimizer_picks_the_higher_of_two_near_tied_maxima(name, t):
    # the two maxima lie within 1e-10 in log value; a refinement to width
    # Z_REFINE_TOL alone loses more than Z_TIE_TOL at the sharper one, near
    # q, which would hand the win to the lower one, near p
    spec = preset(name)
    res = optimize_constant_z(spec, t)
    assert len(res.local_maxima) == 2
    assert res.z_star == dense_constant_z(spec, t, res.local_maxima)
    assert res.z_star == pytest.approx(spec.q, abs=1e-6)


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
    """Reference for ``_greedy_z_batch``: every row scored on the whole z-grid.

    A row whose ratio overflows to inf scores ``ed`` alone (weights 0 and 1);
    every other row scores ``1.0 ea + r ed``, which is ``ea + r ed`` exactly.
    """
    with np.errstate(over="ignore"):
        r = np.exp(log_ratio)
    over = np.isinf(r)
    wa, wd = np.where(over, 0.0, 1.0), np.where(over, 1.0, r)
    n = int(round((1.0 - 2.0 * Z_EDGE) / Z_SCAN_STEP)) + 1
    zs = np.linspace(Z_EDGE, 1.0 - Z_EDGE, n)
    idx = np.argmax(_weighted_objective(zs[None, :], wa[:, None], wd[:, None],
                                        p, q, lam2dt), axis=1)
    a = zs[np.maximum(idx - 1, 0)]
    b = zs[np.minimum(idx + 1, n - 1)]

    def fvec(z):
        return _weighted_objective(z, wa, wd, p, q, lam2dt)

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
       extra=st.lists(st.one_of(st.floats(min_value=-1e4, max_value=1e4),
                                st.sampled_from([math.inf, -math.inf])), max_size=8))
@settings(max_examples=200, deadline=None)
# ratios whose exp overflows, alone and beside finite ones
@example(p=0.1, q=0.3, lam2dt=16.0, sd=5.0, seed=0, extra=[709.79, 710.0, 1e4, math.inf])
@example(p=0.1, q=0.6, lam2dt=1e-14, sd=1.0, seed=1, extra=[math.inf, -math.inf])
# ea is flat to the last bit left of p here: rounding, not the closed
# form, puts the first full-grid maximum outside [p, q]
@example(p=0.5, q=0.9999999999999998, lam2dt=1e-14, sd=50.0, seed=0, extra=[])
def test_greedy_matches_full_grid_scan_on_random_ratios(p, q, lam2dt, sd, seed, extra):
    # the scan, scored only at each row's candidates, is the full-grid scan;
    # a row whose ratio overflows gets the swapped solve, which is the
    # reference's ed alone
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
    # ratios whose exp overflows, which score ed alone (with no warning)
    log_ratio = {"all-equal": np.full(1000, 0.3),
                 "two-interleaved": np.resize([-1.5, 2.0], 1000),
                 "one-outlier": np.where(np.arange(1000) == 617, 40.0, -0.7),
                 "overflowing": np.resize([750.0, -750.0, 0.0], 1000)}[rows]
    z = _greedy_z_batch(log_ratio, 0.1, 0.3, lam2dt)
    assert np.array_equal(z, full_grid_greedy_z(log_ratio, 0.1, 0.3, lam2dt))


@pytest.mark.parametrize("lam2dt", [1.0, 16.0])
@pytest.mark.parametrize("log_ratio", [710.0, 750.0, 1e300, math.inf])
def test_greedy_overflowing_ratio_maximises_ed(log_ratio, lam2dt):
    # the limit of ea + r ed over r: z maximises ed, which peaks at q; inf * 0
    # scored NaN here and sent the refinement right, to z = 0.957 at 16
    z = _greedy_z_batch(np.array([log_ratio, 0.0]), 0.1, 0.3, lam2dt)
    assert abs(z[0] - 0.3) <= Z_REFINE_TOL
    assert z[1] == _greedy_z_batch(np.array([0.0]), 0.1, 0.3, lam2dt)[0]
    # a finite ratio past any preset's reach tends to the same limit
    assert abs(_greedy_z_batch(np.array([700.0]), 0.1, 0.3, lam2dt)[0] - 0.3) <= Z_REFINE_TOL


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
        log_x = log_x + (sp * lam - 0.5 * sp * sp) * dt + sp * dw[0, k]


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


def test_greedy_refinement_memory_on_distinct_brackets(traced_peak):
    # at fig3's second period nearly every row ends on a bracket of its own,
    # so the last bracket tables hold about a bracket per row; the call
    # still peaks below 16 (B,) doubles, which the per-row loop exceeded
    spec = preset("fig3")
    log_ratio = list(itertools.islice(greedy_log_ratios(spec, 20_000, seed=7), 2))[1]
    peak = traced_peak(lambda: _greedy_z_batch(log_ratio, spec.p, spec.q, FIG3_LAM2DT))
    assert peak <= 16 * log_ratio.size * 8


def test_greedy_flat_objective_starts_at_the_first_grid_point():
    # at lam^2 dt = 0 every z ties, so each row's first maximum is the first
    # grid point, far left of p
    log_ratio = np.linspace(-5.0, 5.0, 11)
    z = _greedy_z_batch(log_ratio, 0.1, 0.3, 0.0)
    assert np.array_equal(z, full_grid_greedy_z(log_ratio, 0.1, 0.3, 0.0))
    assert np.all((Z_EDGE <= z) & (z <= Z_EDGE + Z_SCAN_STEP))


def test_greedy_finds_a_rise_right_of_q(monkeypatch):
    # a rise in ed right of q, as rounding can make where it is flat to the
    # last bit: rows that peak there still get the full-grid argmax
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
    """Rows per block of the argmax scan of a single row: the block holds
    rows x candidates of its candidate table's widest segment."""
    widths = []
    candidate_table = pooling._candidate_table

    def spy(ea, ed):
        starts, table = candidate_table(ea, ed)
        widths.append(table.shape[1])
        return starts, table

    with monkeypatch.context() as m:
        m.setattr(pooling, "_candidate_table", spy)
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
    log_ratio[-1] = 750.0  # overflows: solved apart, after the finite rows
    z = _greedy_z_batch(log_ratio, 0.1, 0.3, lam2dt)
    for i in (0, rows - 1, rows, 2 * rows + 1, 12_345, 19_999):
        assert z[i] == _greedy_z_batch(log_ratio[i:i + 1], 0.1, 0.3, lam2dt)[0]


def _tie_ratios(ea, ed):
    """Every ratio at which two adjacent points' scores tie in exact
    arithmetic, (ea_j - ea_k) / (ed_k - ed_j), and 1 and 2 ulps either side."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tie = (ea[:-1] - ea[1:]) / (ed[1:] - ed[:-1])
    tie = tie[np.isfinite(tie) & (tie >= 0.0)]
    out = [tie]
    for direction in (0.0, np.inf):
        near = tie
        for _ in range(2):
            near = np.nextafter(near, direction)
            out.append(near)
    return np.concatenate(out)


@given(p=_UNIT, q=_UNIT,
       lam2dt=st.one_of(st.sampled_from([0.0, 1e-14, 1e-8, 16.0]),
                        _LOG10_LAM2DT.map(lambda e: 10.0 ** e)),
       window=st.tuples(st.integers(0, Z_GRID.size - 1), st.integers(1, Z_GRID.size)),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
# the whole grid, as the greedy scan serves it: flat, nearly flat and fig3
@example(p=0.1, q=0.3, lam2dt=0.0, window=(0, Z_GRID.size), seed=0)
@example(p=0.1, q=0.3, lam2dt=1e-14, window=(0, Z_GRID.size), seed=0)
@example(p=0.1, q=0.3, lam2dt=16.0, window=(0, Z_GRID.size), seed=0)
def test_first_argmax_equals_full_scan_argmax(p, q, lam2dt, window, seed):
    # scored only at its segment's candidates, each row still gets the first
    # maximum of all its scores, also at and next to every adjacent-pair tie
    assume(p < q)
    lo, width = window
    ea, ed = _objective_terms(Z_GRID[lo:lo + width], p, q, lam2dt)
    rng = np.random.default_rng(seed)
    r = np.concatenate([np.exp(rng.normal(0.0, 5.0, 300)), _tie_ratios(ea, ed),
                        [0.0, math.exp(700.0)]])
    assert np.array_equal(_first_argmax(r, ea, ed),
                          np.argmax(ea + r[:, None] * ed, axis=1))


def test_first_argmax_scores_an_overflowed_ratio_by_ed_alone():
    # _greedy_z_batch solves an overflowed row as the objective with the
    # investors swapped, at ratio 0: the swapped factors are (ed, ea) bit
    # for bit, and at ratio 0 the scan keeps the first maximum of ed
    figs = [preset(name) for name in ("fig1", "fig2", "fig3", "fig4")]
    for p, q in {(spec.p, spec.q) for spec in figs}:
        for lam2dt in (0.0, 1e-14, 16.0):
            ea, ed = _objective_terms(Z_GRID, p, q, lam2dt)
            swapped = _objective_terms(Z_GRID, q, p, lam2dt)
            assert swapped[0].tobytes() == ed.tobytes()
            assert swapped[1].tobytes() == ea.tobytes()
            assert np.array_equal(_first_argmax(np.zeros(3), *swapped),
                                  np.full(3, np.argmax(ed)))


@pytest.mark.parametrize("lam2dt", [1e-3, 0.25, 1.0, 16.0, 100.0, 1000.0])
def test_candidate_table_is_narrow_near_fig3_peaks(lam2dt):
    # the lines of fig3's [p, q] window cross cleanly: two candidates per
    # segment; on the whole grid the points beyond it are dropped, which
    # leaves the same table
    ea, ed = _objective_terms(Z_GRID, 0.1, 0.3, lam2dt)
    starts, table = pooling._candidate_table(ea[98:301], ed[98:301])
    assert starts[0] == 0.0 and np.all(np.diff(starts) > 0)
    assert table.shape == (starts.size, 2)
    whole_starts, whole_table = pooling._candidate_table(ea, ed)
    assert np.array_equal(whole_starts, starts)
    assert np.array_equal(whole_table, table + 98)


def test_greedy_first_period_memory(traced_peak):
    # 20k equal rows, every path at a comparison's first period, so the scan
    # sets the peak; the row-block scan peaked at 0.96 MB
    log_ratio = np.zeros(20_000)
    peak = traced_peak(lambda: _greedy_z_batch(log_ratio, 0.1, 0.3, FIG3_LAM2DT))
    assert peak <= 1.0 * 2 ** 20


def test_compare_fig3_memory(traced_peak):
    # the whole pool-greedy comparison; the row-block scan peaked at 8.40 MB
    peak = traced_peak(lambda: compare_strategies(preset("fig3"), 20_000, seed=7))
    assert peak <= 8.40 * 2 ** 20


def test_greedy_first_call_imports_nothing():
    # np.unique, for one, imports numpy.ma on its first call, which raised
    # the pool-greedy RSS peak by about 2 MB
    code = ("import sys\n"
            "import numpy as np\n"
            "from fpplab.pooling import _greedy_z_batch\n"
            "log_ratio = np.random.default_rng(0).normal(0.0, 5.0, 1000)\n"
            "before = set(sys.modules)\n"
            "_greedy_z_batch(log_ratio, 0.1, 0.3, 16.0)\n"
            "_greedy_z_batch(log_ratio, 0.1, 0.3, 1e-14)\n"
            "print(sorted(set(sys.modules) - before))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(pooling.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("lam2dt", [1e-14, FIG3_LAM2DT])
def test_greedy_scan_memory_is_bounded(lam2dt, traced_peak):
    # 40k rows x 999 grid points would be 320 MB as one score matrix; the
    # row blocks and the (B,) golden-section vectors need a few MB
    log_ratio = np.random.default_rng(5).normal(0.0, 5.0, 40_000)
    peak = traced_peak(lambda: _greedy_z_batch(log_ratio, 0.1, 0.3, lam2dt))
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("arg", ["a_eff", "d_eff", "x", "dt"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_greedy_rejects_non_finite_inputs(arg, bad):
    # argmax of NaN scores would silently return the first grid point
    kwargs = dict(a_eff=1.0, d_eff=1.0, x=1.0, dt=1.0)
    kwargs[arg] = bad
    with pytest.raises(ValueError, match=rf"^{arg}: must be positive and finite, got {bad}$"):
        one_period_greedy(spec=FIG1, **kwargs)


def test_overflowing_lam_squared_is_rejected():
    # lam^2 t past the largest double made NaN scores, or an OverflowError
    with pytest.raises(ValueError, match=r"^lam: lam\^2 horizon must be finite"):
        preset("fig1", lam=1e200)
    with pytest.raises(ValueError, match=r"^dt: must keep lam\^2 dt finite"):
        one_period_greedy(1.0, 1.0, 1.0, preset("fig3"), dt=1e308)


@pytest.mark.parametrize("t", [np.nan, np.inf, -1.0])
def test_optimize_constant_z_rejects_horizon_outside_range(t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^t: must be positive and finite, got {t}$"):
            optimize_constant_z(FIG1, t)


@pytest.mark.parametrize("entry, lead", [
    (lambda spec: constant_z_expected_utility(0.1, 1e308, spec), "t: lam^2 t must be finite"),
    (lambda spec: optimize_constant_z(spec, 1e308), "t: lam^2 t must be finite"),
    (lambda spec: utility_surface(spec, [0.1, 0.5], [1.0, 1e308]),
     "t: lam^2 t must be finite"),
    (lambda spec: one_period_greedy(1.0, 1.0, 1.0, spec, dt=1e308),
     "dt: must keep lam^2 dt finite"),
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
    # the module docstring's closed form, written out at one (t, z)
    spec, z, t = preset("fig4", a0=1.5, d0=0.5, x0=2.0), 0.25, 7.0
    closed = sum(c * spec.x0 ** g * np.exp(-g * (z - g) ** 2 * spec.lam ** 2 * t
                                           / (2 * (1 - g) * (1 - z) ** 2))
                 for c, g in ((spec.a0, spec.p), (spec.d0, spec.q)))
    surf = utility_surface(spec, [z], [t])
    assert surf.values[0, 0] == pytest.approx(closed, rel=1e-14)
    assert constant_z_expected_utility(z, t, spec) == surf.values[0, 0]


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
    with pytest.raises(ValueError, match="z grid"):
        utility_surface(FIG1, [math.nan], [1.0])
    with pytest.raises(ValueError, match="t grid"):
        utility_surface(FIG1, [0.5], [math.nan])


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


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
def test_compare_feedback_is_the_two_power_optimiser(name):
    # pi_star writes the joint optimiser as z = w p + (1-w) q; at t = 0 every
    # path holds x0, and lam / (1 - z) must be two_power's state-feedback target
    for x0, a0, d0 in ((1.0, 1.0, 1.0), (0.05, 2.0, 0.5), (40.0, 0.3, 3.0)):
        spec = preset(name, x0=x0, a0=a0, d0=d0)
        result = compare_strategies(spec, n_paths=8, seed=5)
        target = two_power.mixture_sp_target(spec.p, spec.q, a0, d0, x0,
                                             [spec.lam], [0.0], [0.0])[0]
        assert result.strategies["pi_star"].mean_allocation[0] == pytest.approx(
            1.0 - spec.lam / target, rel=1e-12)


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
        omega = two_power._sigmoid(-(math.log(q / p) + log_wr0 + (delta - alpha) * t
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
            log_x = log_x + (sp * lam - 0.5 * sp * sp) * dt + sp * dw[0, k]
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
def test_compare_memory_is_the_increments_plus_a_few_path_vectors(horizon, traced_peak):
    # no per-strategy (B, K+1) array: beyond the (B, K) increments the peak
    # is a fixed number of (B,) vectors, whatever the horizon
    spec, n_paths = preset("fig3", horizon=horizon), 8192
    peak = traced_peak(lambda: compare_strategies(spec, n_paths, seed=7))
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
