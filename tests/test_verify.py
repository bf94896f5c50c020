"""Ensemble martingale tests and structure scans."""

import numpy as np
import pytest

from fpplab.market import MarketSpec, TimeGrid, brownian_batch, evolve_log_wealth_batch
from fpplab.mixture import H0Spec, JSpec, MixtureFpp, RiskMixture, VolatilityChoice
from fpplab.three_power import ThreePowerFpp, ThreePowerSpec
from fpplab.verify import (TIME_CHUNK, VERDICT_MARTINGALE, VERDICT_SUPER_STRICT,
                           VERDICT_VIOLATION, MartingaleReport, martingale_test,
                           structure_scan)


def single_atom_setup(lam=0.2, gamma=0.5):
    market = MarketSpec(n_stocks=1, d_w=1, d_wperp=0, sigma=0.2, mu=0.2 * lam)
    mix = RiskMixture.single(gamma)
    return market, MixtureFpp(mix, VolatilityChoice.zero(), market)


def three_atom_setup():
    """Two stocks, one W_perp factor, an inverted h0 and a constant J."""
    market = MarketSpec(n_stocks=2, d_w=2, d_wperp=1,
                        sigma=[[0.2, 0.0], [0.05, 0.3]], mu=[0.04, 0.06])
    mix = RiskMixture(atoms=((0.3, 1.0), (0.5, 0.5), (2.0, 0.25)), gamma0=0.5)
    vol = VolatilityChoice(h0=H0Spec.portfolio_inversion([0.6, 0.4]),
                           j=JSpec.constant([0.1]))
    return market, MixtureFpp(mix, vol, market)


def three_power_setup():
    market = MarketSpec(n_stocks=1, d_w=1, d_wperp=0, sigma=0.2, mu=0.2)
    return market, ThreePowerFpp(ThreePowerSpec(0.25), market)


def star_path(fpp, grid):
    """The optimiser's sigma*pi at the left endpoint of every grid cell."""
    return np.array([fpp.sp_star(t) for t in grid.times[:-1]])


def null_path(grid, d_w=1):
    return np.zeros((grid.n_steps, d_w))


def three_runs(fpp, grid):
    star = star_path(fpp, grid)
    return [(star, "martingale"),
            (null_path(grid, fpp.market.d_w), "supermartingale"),
            (0.5 * star, "supermartingale")]


def assert_same_report(a, b):
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.se, b.se)
    assert a.kurtosis_terminal == b.kurtosis_terminal
    assert a.verdict == b.verdict
    assert a.warnings == b.warnings


class InflatedFpp:
    """A deliberately wrong evaluator: the true criterion times e^{0.05 t}."""

    def __init__(self, fpp, grid):
        self.fpp = fpp
        self.bump = np.exp(0.05 * grid.times)

    def u0(self, x):
        return self.fpp.u0(x)

    def state_paths(self, grid, dw, dwperp):
        return self.fpp.state_paths(grid, dw, dwperp)

    def utility_paths(self, state, log_x, cols=slice(None)):
        return self.fpp.utility_paths(state, log_x, cols) * self.bump[cols]


def test_martingale_at_the_optimiser():
    market, fpp = single_atom_setup()
    grid = TimeGrid.regular(1.0, 1 / 12)
    [report] = martingale_test(fpp, [(star_path(fpp, grid), "martingale")],
                               market, grid=grid, n_paths=20_000, seed=7)
    assert report.verdict == VERDICT_MARTINGALE
    assert report.reference == pytest.approx(2.0)
    assert np.all(report.se[1:] > 0.0)
    assert np.isfinite(report.kurtosis_terminal)
    assert np.all(report.margins()[1:] >= 0.0)


def test_null_portfolio_tracks_exact_decay():
    # with no allocation and no free loadings the criterion is deterministic:
    # U_t = U_0 exp(v t) with v = -(1-g)/(2g) lam^2
    market, fpp = single_atom_setup()
    grid = TimeGrid.regular(1.0, 1 / 12)
    [report] = martingale_test(fpp, [(null_path(grid), "supermartingale")],
                               market, grid=grid, n_paths=50, seed=1)
    assert report.verdict == VERDICT_SUPER_STRICT
    expected = 2.0 * np.exp(-0.02 * grid.times)
    np.testing.assert_allclose(report.mean, expected, rtol=1e-12)
    assert np.all(report.se <= 1e-7)  # identical paths up to float noise


def test_intermediate_allocation_is_strict_supermartingale():
    market, fpp = single_atom_setup(lam=1.0)
    grid = TimeGrid.regular(1.0, 1 / 12)
    [report] = martingale_test(
        fpp, [(0.5 * star_path(fpp, grid), "supermartingale")], market,
        grid=grid, n_paths=20_000, seed=3)
    assert report.verdict == VERDICT_SUPER_STRICT


def test_martingale_mode_detects_inflated_criterion():
    market, fpp = single_atom_setup()
    grid = TimeGrid.regular(1.0, 1 / 12)
    wrong = InflatedFpp(fpp, grid)
    [report] = martingale_test(wrong, [(star_path(fpp, grid), "martingale")],
                               market, grid=grid, n_paths=20_000, seed=7)
    assert report.verdict == VERDICT_VIOLATION


def test_supermartingale_mode_detects_upward_drift():
    market, fpp = single_atom_setup()
    grid = TimeGrid.regular(1.0, 1 / 12)
    wrong = InflatedFpp(fpp, grid)
    [report] = martingale_test(wrong, [(null_path(grid), "supermartingale")],
                               market, grid=grid, n_paths=500, seed=7)
    assert report.verdict == VERDICT_VIOLATION


def test_reports_identical_across_thread_counts():
    market, fpp = single_atom_setup()
    grid = TimeGrid.regular(0.5, 1 / 12)
    runs = [(star_path(fpp, grid), "martingale")]
    [a] = martingale_test(fpp, runs, market, grid=grid, n_paths=6000, seed=5,
                          threads=1, batch_size=1000)
    [b] = martingale_test(fpp, runs, market, grid=grid, n_paths=6000, seed=5,
                          threads=4, batch_size=1000)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.se, b.se)


@pytest.mark.parametrize("setup", [three_atom_setup, three_power_setup])
def test_multi_run_reports_equal_one_run_calls(setup):
    market, fpp = setup()
    grid = TimeGrid.regular(1.0, 1 / 40)
    assert (grid.n_steps + 1) % TIME_CHUNK != 0
    runs = three_runs(fpp, grid)
    kw = dict(grid=grid, n_paths=500, seed=11, batch_size=170)  # 170 does not divide 500
    singles = [martingale_test(fpp, [run], market, threads=1, **kw)[0] for run in runs]
    for threads in (1, 2):
        multi = martingale_test(fpp, runs, market, threads=threads, **kw)
        assert len(multi) == len(runs)
        for one, many, (_, mode) in zip(singles, multi, runs):
            assert many.mode == mode
            assert_same_report(one, many)


@pytest.mark.parametrize("n_steps", [2 * TIME_CHUNK, 2 * TIME_CHUNK - 5, 1])
def test_streamed_sums_equal_full_horizon_sums(n_steps):
    # with one batch, mean and se are plain sums over the paths of the
    # full-horizon utility array; the chunked reduction must reproduce them
    # bit for bit, also when the last chunk would hold a single grid time
    market, fpp = three_atom_setup()
    grid = TimeGrid(np.linspace(0.0, 1.0, n_steps + 1))
    n = 300

    sp = 1.5 * star_path(fpp, grid)
    [report] = martingale_test(fpp, [(sp, "supermartingale")], market,
                               grid=grid, n_paths=n, seed=4)
    dw, dwp = brownian_batch(grid, market.d_w, market.d_wperp, 4, range(n))
    log_x = evolve_log_wealth_batch(1.0, sp, market.sharpe_path(grid), grid, dw)
    u = fpp.utility_paths(fpp.state_paths(grid, dw, dwp), log_x)
    mean = u.sum(axis=0) / n
    var = np.maximum((u ** 2).sum(axis=0) / n - mean ** 2, 0.0) * n / (n - 1)
    assert np.array_equal(report.mean, mean)
    assert np.array_equal(report.se, np.sqrt(var / n))


def test_paired_sampling_reduces_variance():
    market, fpp = single_atom_setup()
    grid = TimeGrid.regular(1.0, 1 / 12)
    dw, dwp = brownian_batch(grid, 1, 0, seed=9, path_ids=range(4000))
    lam_path = market.sharpe_path(grid)
    state = fpp.state_paths(grid, dw, dwp)
    star = star_path(fpp, grid)
    u_star = fpp.utility_paths(state, evolve_log_wealth_batch(
        1.0, star, lam_path, grid, dw))[:, -1]
    u_half = fpp.utility_paths(state, evolve_log_wealth_batch(
        1.0, 0.5 * star, lam_path, grid, dw))[:, -1]
    assert np.var(u_star - u_half) < np.var(u_star) + np.var(u_half)


def test_false_alarm_rate_under_true_martingale():
    # the 3-se band flags at most 1 of 100 seeds when the claim is true
    market, fpp = single_atom_setup()
    grid = TimeGrid.regular(1.0, 1 / 12)
    runs = [(star_path(fpp, grid), "martingale")]
    failures = 0
    for seed in range(100):
        [report] = martingale_test(fpp, runs, market, grid=grid, n_paths=4000,
                                   seed=seed)
        failures += report.verdict != VERDICT_MARTINGALE
    assert failures <= 1


def test_degenerate_utility_warning():
    market, fpp = single_atom_setup()
    grid = TimeGrid.regular(1.0, 0.5)

    class Degenerate:
        def u0(self, x):
            return fpp.u0(x)

        def state_paths(self, grid, dw, dwperp):
            return fpp.state_paths(grid, dw, dwperp)

        def utility_paths(self, state, log_x, cols=slice(None)):
            u = fpp.utility_paths(state, log_x, cols)
            u[: max(1, len(u) // 50), -1] = -np.inf  # 2% of paths diverge
            return u

    [report] = martingale_test(Degenerate(), [(null_path(grid), "supermartingale")],
                               market, grid=grid, n_paths=500, seed=0)
    assert report.warnings and "degenerate" in report.warnings[0]


def test_neg_inf_paths_counted_once_across_chunks():
    market, fpp = single_atom_setup()
    grid = TimeGrid.regular(1.0, 1 / 40)
    n_times = grid.n_steps + 1
    assert n_times > 2 * TIME_CHUNK  # at least three chunks
    # path 0 diverges in the first and the second chunk, path 1 only in the
    # first; neither in the last chunk, which holds the terminal column
    cells = [(0, 2), (0, TIME_CHUNK + 3), (1, 1)]

    class Diverging:
        def u0(self, x):
            return fpp.u0(x)

        def state_paths(self, grid, dw, dwperp):
            return fpp.state_paths(grid, dw, dwperp)

        def utility_paths(self, state, log_x, cols=slice(None)):
            u = fpp.utility_paths(state, log_x, cols)
            first = cols.start or 0
            for b, k in cells:
                if first <= k < first + u.shape[1]:
                    u[b, k - first] = -np.inf
            return u

    [report] = martingale_test(Diverging(), [(null_path(grid), "supermartingale")],
                               market, grid=grid, n_paths=10, seed=0)
    assert report.warnings == ("degenerate utility: 2 of 10 paths hit -inf",)


def test_report_text_names_time_of_worst_margin():
    times = np.array([0.0, 0.25, 0.5, 0.75])
    report = MartingaleReport(t_grid=times, mean=np.array([1.0, 1.0, 1.2, 1.05]),
                              se=np.full(4, 0.1), reference=1.0,
                              verdict=VERDICT_MARTINGALE, mode="martingale",
                              n_paths=100, seed=3, kurtosis_terminal=3.0)
    lines = report.to_text().splitlines()
    assert lines[0] == ("martingale test: verdict=consistent-with-martingale "
                        "(n_paths=100, seed=3)")
    assert "  worst margin = 0.1 at t = 0.5" in lines


# ---------------------------------------------------------------------------
# structure scan
# ---------------------------------------------------------------------------

def test_structure_scan_power_margins_match_derivatives():
    gamma = 0.5
    x = np.geomspace(0.1, 10.0, 16)
    report = structure_scan(lambda s, xs: xs ** (1 - gamma) / (1 - gamma),
                            [None], x)
    assert report.passed
    deriv = x ** (-gamma)  # U' for the power criterion
    assert deriv.min() <= report.worst_increase_margin <= deriv.max()
    second = -gamma * x ** (-gamma - 1)
    assert second.min() <= report.worst_concavity_margin <= 0.0


def test_structure_scan_flags_flipped_weight():
    # two-power sum with one sign flipped stops being increasing in x
    def corrupted(state, x):
        return x ** 0.1 - x ** 0.3

    report = structure_scan(corrupted, [None], np.geomspace(0.1, 10.0, 16))
    assert not report.passed
    assert "FAIL" in report.to_text()


def test_structure_scan_validates_grid():
    with pytest.raises(ValueError):
        structure_scan(lambda s, x: x, [None], np.geomspace(1, 10, 4))
    with pytest.raises(ValueError):
        structure_scan(lambda s, x: x, [None], np.ones(10))
