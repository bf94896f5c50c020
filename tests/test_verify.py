"""Ensemble martingale tests and structure scans."""


import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fpplab.market import MarketSpec, TimeGrid, brownian_batch, evolve_log_wealth_batch
from fpplab.mixture import H0Spec, JSpec, MixtureFpp, RiskMixture
from fpplab.three_power import ThreePowerFpp, ThreePowerSpec
from fpplab import verify
from fpplab.verify import (DEFAULT_BATCH, TILE_PATHS, TIME_CHUNK, VERDICT_MARTINGALE,
                           VERDICT_SUPER_STRICT, VERDICT_VIOLATION, MartingaleReport,
                           _report, martingale_test, structure_scan)


def single_atom_setup(grid, lam=0.2, gamma=0.5):
    market = MarketSpec(n_stocks=1, d_w=1, d_wperp=0, sigma=0.2, mu=0.2 * lam)
    mix = RiskMixture(atoms=((gamma, 1.0),), gamma0=gamma)
    return market, MixtureFpp(mix, market, grid)


def three_atom_setup(grid):
    """Two stocks, one W_perp factor, an inverted h0 and a constant J."""
    market = MarketSpec(n_stocks=2, d_w=2, d_wperp=1,
                        sigma=[[0.2, 0.0], [0.05, 0.3]], mu=[0.04, 0.06])
    mix = RiskMixture(atoms=((0.3, 1.0), (0.5, 0.5), (2.0, 0.25)), gamma0=0.5,
                      h0=H0Spec("portfolio_inversion", [0.6, 0.4]), j=JSpec("constant", [0.1]))
    return market, MixtureFpp(mix, market, grid)


def three_power_setup(grid):
    market = MarketSpec(n_stocks=1, d_w=1, d_wperp=0, sigma=0.2, mu=0.2)
    return market, ThreePowerFpp(ThreePowerSpec(0.25), market, grid)


def null_path(grid, d_w=1):
    return np.zeros((grid.n_steps, d_w))


def three_runs(fpp, grid):
    return [(fpp.sp_star, "martingale"),
            (null_path(grid, fpp.market.d_w), "supermartingale"),
            (0.5 * fpp.sp_star, "supermartingale")]


def assert_same_report(a, b):
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.se, b.se)
    assert a.kurtosis_terminal == b.kurtosis_terminal
    assert a.verdict == b.verdict
    assert a.warnings == b.warnings


class Wrapped:
    """A test double around a criterion, bound to the same grid and market."""

    def __init__(self, fpp):
        self.fpp = fpp
        self.grid, self.market, self.lam_path = fpp.grid, fpp.market, fpp.lam_path

    def u0(self, x):
        return self.fpp.u0(x)

    def state_paths(self, dw, dwperp, cols=slice(None), carry=None):
        return self.fpp.state_paths(dw, dwperp, cols, carry)

    def utility_paths(self, state, log_x, cols=slice(None)):
        return self.fpp.utility_paths(state, log_x, cols)


class InflatedFpp(Wrapped):
    """A deliberately wrong evaluator: the true criterion times e^{0.05 t}."""

    def __init__(self, fpp):
        super().__init__(fpp)
        self.bump = np.exp(0.05 * fpp.grid.times)

    def utility_paths(self, state, log_x, cols=slice(None)):
        return super().utility_paths(state, log_x, cols) * self.bump[cols, None]


def test_martingale_at_the_optimiser():
    grid = TimeGrid.regular(1.0, 1 / 12)
    market, fpp = single_atom_setup(grid)
    [report] = martingale_test(fpp, [(fpp.sp_star, "martingale")],
                               n_paths=20_000, seed=7)
    assert report.verdict == VERDICT_MARTINGALE
    assert report.reference == pytest.approx(2.0)
    assert np.all(report.se[1:] > 0.0)
    assert np.isfinite(report.kurtosis_terminal)
    assert np.all(report.margins()[1:] >= 0.0)


def test_null_portfolio_tracks_exact_decay():
    # with no allocation and no free loadings the criterion is deterministic:
    # U_t = U_0 exp(v t) with v = -(1-g)/(2g) lam^2
    grid = TimeGrid.regular(1.0, 1 / 12)
    market, fpp = single_atom_setup(grid)
    [report] = martingale_test(fpp, [(null_path(grid), "supermartingale")],
                               n_paths=50, seed=1)
    assert report.verdict == VERDICT_SUPER_STRICT
    expected = 2.0 * np.exp(-0.02 * grid.times)
    np.testing.assert_allclose(report.mean, expected, rtol=1e-12)
    assert np.all(report.se <= 1e-7)  # identical paths up to float noise


def test_intermediate_allocation_is_strict_supermartingale():
    grid = TimeGrid.regular(1.0, 1 / 12)
    market, fpp = single_atom_setup(grid, lam=1.0)
    [report] = martingale_test(fpp, [(0.5 * fpp.sp_star, "supermartingale")],
                               n_paths=20_000, seed=3)
    assert report.verdict == VERDICT_SUPER_STRICT


def test_martingale_mode_detects_inflated_criterion():
    grid = TimeGrid.regular(1.0, 1 / 12)
    market, fpp = single_atom_setup(grid)
    wrong = InflatedFpp(fpp)
    [report] = martingale_test(wrong, [(fpp.sp_star, "martingale")],
                               n_paths=20_000, seed=7)
    assert report.verdict == VERDICT_VIOLATION


def test_supermartingale_mode_detects_upward_drift():
    grid = TimeGrid.regular(1.0, 1 / 12)
    market, fpp = single_atom_setup(grid)
    wrong = InflatedFpp(fpp)
    [report] = martingale_test(wrong, [(null_path(grid), "supermartingale")],
                               n_paths=500, seed=7)
    assert report.verdict == VERDICT_VIOLATION


def test_reports_identical_across_thread_counts(monkeypatch):
    grid = TimeGrid.regular(0.5, 1 / 12)
    market, fpp = single_atom_setup(grid)
    runs = [(fpp.sp_star, "martingale")]
    monkeypatch.setattr(verify, "DEFAULT_BATCH", 1000)
    [a] = martingale_test(fpp, runs, n_paths=6000, seed=5, threads=1)
    [b] = martingale_test(fpp, runs, n_paths=6000, seed=5, threads=4)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.se, b.se)


@pytest.mark.parametrize("setup", [three_atom_setup, three_power_setup])
def test_multi_run_reports_equal_one_run_calls(setup, monkeypatch):
    grid = TimeGrid.regular(1.0, 1 / 40)
    market, fpp = setup(grid)
    assert (grid.n_steps + 1) % TIME_CHUNK != 0
    runs = three_runs(fpp, grid)
    monkeypatch.setattr(verify, "DEFAULT_BATCH", 170)  # 170 does not divide 500
    kw = dict(n_paths=500, seed=11)
    singles = [martingale_test(fpp, [run], threads=1, **kw)[0] for run in runs]
    for threads in (1, 2):
        multi = martingale_test(fpp, runs, threads=threads, **kw)
        assert len(multi) == len(runs)
        for one, many, (_, mode) in zip(singles, multi, runs):
            assert many.mode == mode
            assert_same_report(one, many)


@pytest.mark.parametrize("n_steps", [2 * TIME_CHUNK, 2 * TIME_CHUNK - 5, 1])
def test_streamed_sums_equal_full_horizon_sums(n_steps):
    # with one batch, mean and se are plain sums over the paths of the
    # full-horizon utility array; the chunked reduction must reproduce them
    # bit for bit, also when the last chunk would hold a single grid time
    grid = TimeGrid(np.linspace(0.0, 1.0, n_steps + 1))
    market, fpp = three_atom_setup(grid)
    n = 300

    sp = 1.5 * fpp.sp_star
    [report] = martingale_test(fpp, [(sp, "supermartingale")], n_paths=n, seed=4)
    dw, dwp = brownian_batch(grid, market.d_w, market.d_wperp, 4, range(n))
    log_x = evolve_log_wealth_batch(1.0, sp, fpp.lam_path, grid, dw)
    # path-major, so the sums run over the paths one path at a time
    u = np.ascontiguousarray(fpp.utility_paths(fpp.state_paths(dw, dwp), log_x).T)
    mean = u.sum(axis=0) / n
    var = np.maximum((u ** 2).sum(axis=0) / n - mean ** 2, 0.0) * n / (n - 1)
    assert np.array_equal(report.mean, mean)
    assert np.array_equal(report.se, np.sqrt(var / n))


def whole_horizon_reports(fpp, runs, n_paths, seed, batch_size):
    """``martingale_test`` recomputed from whole-horizon arrays: one-chunk
    wealth, state and utility per batch, reduced over paths in the same order."""
    grid, market = fpp.grid, fpp.market
    sums = [[np.zeros(grid.n_steps + 1), np.zeros(grid.n_steps + 1), 0, []]
            for _ in runs]
    for lo in range(0, n_paths, batch_size):
        ids = range(lo, min(lo + batch_size, n_paths))
        dw, dwp = brownian_batch(grid, market.d_w, market.d_wperp, seed, ids)
        state = fpp.state_paths(dw, dwp)
        for acc, (sp, _) in zip(sums, runs):
            u = np.ascontiguousarray(fpp.utility_paths(state, evolve_log_wealth_batch(
                1.0, sp, fpp.lam_path, grid, dw)).T)  # path-major (B, w)
            finite = np.where(np.isfinite(u), u, 0.0)
            acc[0] += finite.sum(axis=0)
            acc[1] += (finite ** 2).sum(axis=0)
            acc[2] += int(np.sum(np.isneginf(u).any(axis=1)))
            acc[3].append(u[:, -1])
    return [_report(mode, s1, s2, neg, np.concatenate(term), fpp.u0(1.0), grid,
                    n_paths, seed)
            for (s1, s2, neg, term), (_, mode) in zip(sums, runs)]


def bits(x):
    return np.asarray(x, float).view(np.int64)


def assert_same_bits(reports, references):
    for got, want in zip(reports, references, strict=True):
        assert np.array_equal(bits(got.mean), bits(want.mean))
        assert np.array_equal(bits(got.se), bits(want.se))
        assert bits(got.kurtosis_terminal) == bits(want.kurtosis_terminal)
        assert got.warnings == want.warnings


@settings(max_examples=25, deadline=None)
@given(d_w=st.integers(1, 4), d_wperp=st.integers(0, 2), n_atoms=st.integers(1, 3),
       n_steps=st.sampled_from([TIME_CHUNK - 1, TIME_CHUNK, TIME_CHUNK + 1,
                                2 * TIME_CHUNK, 252]), three_power=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_streamed_engine_equals_whole_horizon_reference(d_w, d_wperp, n_atoms,
                                                        n_steps, three_power, seed):
    # chunk-by-chunk wealth and state, carried from each chunk's last column,
    # give the whole-horizon reports bit for bit; TIME_CHUNK and 2 * TIME_CHUNK
    # steps end on a width-one chunk that the chunking folds into the one
    # before it
    rng = np.random.default_rng(seed)
    grid = TimeGrid(np.linspace(0.0, 1.0, n_steps + 1))
    sigma = np.diag(rng.uniform(0.15, 0.4, d_w)) + np.triu(
        rng.uniform(-0.05, 0.05, (d_w, d_w)), 1)
    market = MarketSpec(n_stocks=d_w, d_w=d_w, d_wperp=d_wperp, sigma=sigma,
                        mu=rng.uniform(0.0, 0.1, d_w))
    if three_power:
        fpp = ThreePowerFpp(ThreePowerSpec(rng.uniform(0.05, 0.3)), market, grid)
    else:
        gammas = rng.choice([0.3, 0.5, 0.8, 1.5, 3.0], n_atoms, replace=False)
        mix = RiskMixture(atoms=tuple(zip(gammas, rng.uniform(0.2, 1.0, n_atoms))),
                          gamma0=float(gammas.min()),
                          h0=H0Spec("constant", rng.normal(0.0, 0.1, d_w)),
                          j=JSpec("constant", rng.normal(0.0, 0.2, d_wperp)))
        fpp = MixtureFpp(mix, market, grid)
    runs = [(fpp.sp_star, "martingale"),
            (null_path(grid, d_w), "supermartingale"),
            (rng.normal(0.0, 1.0, (n_steps, d_w)), "supermartingale")]
    kw = dict(n_paths=90, seed=seed % 1000)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "DEFAULT_BATCH", 40)
        streamed = martingale_test(fpp, runs, **kw)
    assert_same_bits(streamed, whole_horizon_reports(fpp, runs, batch_size=40, **kw))


@pytest.mark.parametrize("tile", [1, 3, 7, TILE_PATHS])
@settings(max_examples=6, deadline=None)
@given(three_power=st.booleans(),
       n_steps=st.sampled_from([TIME_CHUNK - 1, TIME_CHUNK, 2 * TIME_CHUNK + 1]),
       full=st.integers(1, 2), rem=st.integers(1, 6), last=st.integers(1, 50),
       seed=st.integers(0, 999))
@example(three_power=False, n_steps=TIME_CHUNK, full=2, rem=1, last=1, seed=0)
def test_tiled_reports_equal_whole_horizon_reference(tile, three_power, n_steps, full,
                                                     rem, last, seed):
    # each batch runs TILE_PATHS paths at a time: with a tile that does not
    # divide the batch, down to a last tile of one path, the reports equal
    # those reduced from whole-batch arrays, bit for bit
    batch = full * tile + min(rem, tile - 1)  # a tile of 1 divides every batch
    grid = TimeGrid(np.linspace(0.0, 1.0, n_steps + 1))
    market, fpp = (three_power_setup if three_power else three_atom_setup)(grid)
    runs = three_runs(fpp, grid)
    kw = dict(n_paths=batch + last, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "TILE_PATHS", tile)
        mp.setattr(verify, "DEFAULT_BATCH", batch)
        tiled = martingale_test(fpp, runs, **kw)
    assert_same_bits(tiled, whole_horizon_reports(fpp, runs, batch_size=batch, **kw))


@pytest.mark.parametrize("tile, chunk", [(4096, 16), (2048, 32), (1, 2), (7, 3), (3, 64)])
@settings(max_examples=10, deadline=None)
@given(three_power=st.booleans(), n_steps=st.integers(1, 70), n_paths=st.integers(2, 40),
       seed=st.integers(0, 999))
def test_reports_invariant_to_tile_and_chunk_widths(tile, chunk, three_power, n_steps,
                                                    n_paths, seed):
    # TILE_PATHS and TIME_CHUNK set only how a batch is walked: at every
    # (tile, chunk) shape, from one-path tiles of two-column chunks to a tile
    # wider than the batch, the reports equal those reduced from whole-batch
    # arrays, bit for bit
    grid = TimeGrid(np.linspace(0.0, 1.0, n_steps + 1))
    market, fpp = (three_power_setup if three_power else three_atom_setup)(grid)
    runs = three_runs(fpp, grid)
    kw = dict(n_paths=n_paths, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "TILE_PATHS", tile)
        mp.setattr(verify, "TIME_CHUNK", chunk)
        walked = martingale_test(fpp, runs, **kw)
    assert_same_bits(walked, whole_horizon_reports(fpp, runs, batch_size=DEFAULT_BATCH, **kw))


def mix3_setup(grid):
    """Three stocks, one W_perp factor and three atoms: every engine layer runs."""
    market = MarketSpec(n_stocks=3, d_w=3, d_wperp=1,
                        sigma=[[0.2, 0.0, 0.0], [0.05, 0.25, 0.0], [0.0, 0.05, 0.3]],
                        mu=[0.04, 0.05, 0.06])
    mix = RiskMixture(atoms=((0.3, 1.0), (0.5, 0.5), (0.8, 0.25)), gamma0=0.5,
                      h0=H0Spec("portfolio_inversion", [0.5, 0.3, 0.2]),
                      j=JSpec("constant", [0.1]))
    return market, MixtureFpp(mix, market, grid)


@pytest.mark.parametrize("setup, n_runs, bound", [(mix3_setup, 3, 4.25 * 3),
                                                  (three_power_setup, 1, 8.5)],
                         ids=["mix3", "three-power"])
def test_each_chunk_array_lives_only_while_used(setup, n_runs, bound, traced_peak):
    # a DEFAULT_BATCH batch peaks at one tile's normals plus ``bound``
    # (TIME_CHUNK, TILE_PATHS) rows: a run's log wealth and U (a view of its
    # term rows, which also hold the sum and its sign) are freed once reduced,
    # before the next run's are made.  Each bound lies between this layout's
    # peak (3.85 chunk arrays of mix3's three atom rows; 7.5 rows on the
    # one-run three-power check) and that of holding them across runs with
    # a separate sum row (4.52 chunk arrays; 10.4 rows)
    grid = TimeGrid.regular(1.0, 1 / 252)
    market, fpp = setup(grid)
    runs = three_runs(fpp, grid)[:n_runs]
    normals = TILE_PATHS * grid.n_steps * (market.d_w + market.d_wperp) * 8
    row = TILE_PATHS * TIME_CHUNK * 8
    peak = traced_peak(lambda: martingale_test(fpp, runs, n_paths=DEFAULT_BATCH, seed=3,
                                               threads=1))
    assert peak <= normals + bound * row


def test_martingale_test_memory_is_normals_plus_chunks(monkeypatch, traced_peak):
    # a batch runs TILE_PATHS paths at a time, and each tile's normals are the
    # only O(N) array: the criterion state, log wealth and utility exist one
    # TIME_CHUNK of columns at a time, so the allocation peak of a whole
    # DEFAULT_BATCH batch is one tile's normals plus a few (TILE_PATHS,
    # TIME_CHUNK, n_atoms) arrays, whatever the batch size; each worker
    # thread holds its own, so two threads peak at about twice one
    grid = TimeGrid.regular(1.0, 1 / 252)
    market, fpp = mix3_setup(grid)
    runs = three_runs(fpp, grid)
    n_paths = DEFAULT_BATCH
    assert n_paths >= 4 * TILE_PATHS
    normals = TILE_PATHS * grid.n_steps * (market.d_w + market.d_wperp) * 8
    chunk = TILE_PATHS * TIME_CHUNK * fpp.mixture.n_atoms * 8
    one_batch = traced_peak(lambda: martingale_test(fpp, runs, n_paths=n_paths,
                                                    seed=3, threads=1))
    assert one_batch < normals + 6 * chunk
    monkeypatch.setattr(verify, "DEFAULT_BATCH", n_paths // 2)
    one_thread = traced_peak(lambda: martingale_test(fpp, runs, n_paths=n_paths, seed=3,
                                                     threads=1))
    two_threads = traced_peak(lambda: martingale_test(fpp, runs, n_paths=n_paths, seed=3,
                                                      threads=2))
    assert two_threads < 2.1 * one_thread


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n_paths", [2, 17, 2053, 4099])
@pytest.mark.parametrize("setup", [mix3_setup, three_power_setup],
                         ids=["mix3", "three-power"])
def test_reports_equal_those_of_the_default_ufunc_buffer(setup, n_paths, threads,
                                                         monkeypatch):
    # a tile runs with a ufunc buffer of one row; elementwise results and the
    # reductions over the leading axis round the same with numpy's default
    # buffer, so the reports are the same bits.  Batches of 2100 paths split
    # 4099 paths over two threads, in tiles of 2048, 52 and 1999 paths
    grid = TimeGrid.regular(1.0, 1 / 40)
    market, fpp = setup(grid)
    runs = three_runs(fpp, grid)
    monkeypatch.setattr(verify, "DEFAULT_BATCH", 2100)
    kw = dict(n_paths=n_paths, seed=13, threads=threads)
    tiled = martingale_test(fpp, runs, **kw)
    monkeypatch.setattr(np, "setbufsize", lambda size: np.getbufsize())
    assert_same_bits(tiled, martingale_test(fpp, runs, **kw))


class BufferSizes(Wrapped):
    """Records (ufunc buffer size, tile paths) at each state and utility call."""

    def __init__(self, fpp):
        super().__init__(fpp)
        self.seen = []

    def state_paths(self, dw, dwperp, cols=slice(None), carry=None):
        self.seen.append((np.getbufsize(), dw.shape[2]))
        return super().state_paths(dw, dwperp, cols, carry)

    def utility_paths(self, state, log_x, cols=slice(None)):
        self.seen.append((np.getbufsize(), log_x.shape[1]))
        return super().utility_paths(state, log_x, cols)


@pytest.mark.parametrize("threads", [1, 2])
def test_tile_runs_with_a_buffer_of_one_tile_row(threads, monkeypatch):
    # batches of 2070 and 30 paths: tiles of 2048, 22 and 30 paths, whose
    # buffers are their path counts rounded down to a multiple of 16
    grid = TimeGrid.regular(1.0, 1 / 40)
    market, fpp = mix3_setup(grid)
    spy = BufferSizes(fpp)
    monkeypatch.setattr(verify, "DEFAULT_BATCH", 2070)
    martingale_test(spy, three_runs(fpp, grid), n_paths=2100, seed=1, threads=threads)
    assert {b for _, b in spy.seen} == {2048, 22, 30}
    for size, paths in spy.seen:
        assert size % 16 == 0 and paths - 16 < size <= paths


@pytest.mark.parametrize("threads", [1, 2])
def test_callers_ufunc_buffer_is_left_as_it_was(threads):
    grid = TimeGrid.regular(1.0, 1 / 40)
    market, fpp = mix3_setup(grid)
    with np.errstate():
        size = np.setbufsize(4096)
        try:
            martingale_test(fpp, three_runs(fpp, grid), n_paths=40, seed=2, threads=threads)
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(size)


def test_mix3_chunk_state_takes_no_default_ufunc_buffer(traced_peak):
    # each einsum_dot product broadcasts a (TIME_CHUNK, 1) loading column over a
    # (TIME_CHUNK, TILE_PATHS) row; under numpy's default buffer that took a
    # 64 KB buffer per product.  Under the tile's one-row buffer a later chunk's
    # state peaks at its (3, TIME_CHUNK, TILE_PATHS) result and einsum_dot's
    # two product rows, plus less than a buffer of one row
    grid = TimeGrid(np.linspace(0.0, 1.0, 2 * TIME_CHUNK + 1))
    market, fpp = mix3_setup(grid)
    dw, dwp = brownian_batch(grid, market.d_w, market.d_wperp, 5, range(TILE_PATHS))
    carry = fpp.state_paths(dw, dwp, slice(0, TIME_CHUNK))[:, -1].copy()
    row = TIME_CHUNK * TILE_PATHS * 8

    def chunk():
        with verify._row_buffer(TILE_PATHS):
            fpp.state_paths(dw, dwp, slice(TIME_CHUNK, 2 * TIME_CHUNK), carry)
    assert traced_peak(chunk) < 5 * row + TILE_PATHS * 8


def test_paired_sampling_reduces_variance():
    grid = TimeGrid.regular(1.0, 1 / 12)
    market, fpp = single_atom_setup(grid)
    dw, dwp = brownian_batch(grid, 1, 0, seed=9, path_ids=range(4000))
    state = fpp.state_paths(dw, dwp)
    star = fpp.sp_star
    u_star = fpp.utility_paths(state, evolve_log_wealth_batch(
        1.0, star, fpp.lam_path, grid, dw))[-1]
    u_half = fpp.utility_paths(state, evolve_log_wealth_batch(
        1.0, 0.5 * star, fpp.lam_path, grid, dw))[-1]
    assert np.var(u_star - u_half) < np.var(u_star) + np.var(u_half)


def test_false_alarm_rate_under_true_martingale():
    # the 3-se band flags at most 1 of 100 seeds when the claim is true
    grid = TimeGrid.regular(1.0, 1 / 12)
    market, fpp = single_atom_setup(grid)
    runs = [(fpp.sp_star, "martingale")]
    failures = 0
    for seed in range(100):
        [report] = martingale_test(fpp, runs, n_paths=4000, seed=seed)
        failures += report.verdict != VERDICT_MARTINGALE
    assert failures <= 1


def test_degenerate_utility_warning():
    grid = TimeGrid.regular(1.0, 0.5)
    market, fpp = single_atom_setup(grid)

    class Degenerate(Wrapped):
        def utility_paths(self, state, log_x, cols=slice(None)):
            u = super().utility_paths(state, log_x, cols)
            u[-1, : max(1, u.shape[1] // 50)] = -np.inf  # 2% of paths diverge
            return u

    [report] = martingale_test(Degenerate(fpp), [(null_path(grid), "supermartingale")],
                               n_paths=500, seed=0)
    assert report.warnings and "degenerate" in report.warnings[0]


# (path column, grid column) cells of U set to -inf in every utility_paths
# call: path column 0 diverges in the first and the second chunk, column 1
# only in the first; neither in the last chunk, which holds the terminal column
NEG_INF_CELLS = [(0, 2), (0, TIME_CHUNK + 3), (1, 1)]


def three_chunk_grid():
    """A grid of two full chunks and a last one of 9 grid times."""
    return TimeGrid(np.linspace(0.0, 1.0, 2 * TIME_CHUNK + 9))


class Diverging(Wrapped):
    def utility_paths(self, state, log_x, cols=slice(None)):
        u = super().utility_paths(state, log_x, cols)
        first = cols.start or 0
        for b, k in NEG_INF_CELLS:
            if b < u.shape[1] and first <= k < first + len(u):
                u[k - first, b] = -np.inf
        return u


def test_neg_inf_paths_counted_once_across_chunks():
    grid = three_chunk_grid()
    market, fpp = single_atom_setup(grid)
    n_times = grid.n_steps + 1
    assert n_times > 2 * TIME_CHUNK  # at least three chunks
    assert TILE_PATHS >= 10  # one tile: the columns are paths 0 and 1
    [report] = martingale_test(Diverging(fpp), [(null_path(grid), "supermartingale")],
                               n_paths=10, seed=0)
    assert report.warnings == ("degenerate utility: 2 of 10 paths hit -inf",)


def test_neg_inf_paths_counted_once_per_tile(monkeypatch):
    # with 3-path tiles a utility_paths call covers one tile, so path columns
    # 0 and 1 are the first two paths of each tile: 10 paths give tiles of 3,
    # 3, 3 and 1, and the last holds column 0 alone
    grid = three_chunk_grid()
    market, fpp = single_atom_setup(grid)
    tile, n_paths = 3, 10
    monkeypatch.setattr(verify, "TILE_PATHS", tile)
    rows = {b for b, _ in NEG_INF_CELLS}
    expected = sum(sum(b < min(tile, n_paths - lo) for b in rows)
                   for lo in range(0, n_paths, tile))
    assert expected == 7
    [report] = martingale_test(Diverging(fpp), [(null_path(grid), "supermartingale")],
                               n_paths=n_paths, seed=0)
    assert report.warnings == (f"degenerate utility: {expected} of 10 paths hit -inf",)


def test_all_finite_chunks_skip_only_the_neg_inf_bookkeeping():
    # NEG_INF_CELLS mix -inf and finite paths in the first two chunks and leave
    # the last all finite, where the -inf flags and zeroing are skipped; the
    # count and the sums equal those of the whole-horizon reference, which
    # flags and zeroes every chunk
    grid = three_chunk_grid()
    market, fpp = single_atom_setup(grid)
    runs = [(null_path(grid), "supermartingale"), (fpp.sp_star, "martingale")]
    kw = dict(n_paths=10, seed=0)
    reports = martingale_test(Diverging(fpp), runs, **kw)
    assert reports[0].warnings == ("degenerate utility: 2 of 10 paths hit -inf",)
    assert_same_bits(reports, whole_horizon_reports(Diverging(fpp), runs,
                                                    batch_size=DEFAULT_BATCH, **kw))


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


@pytest.mark.parametrize("mode", ["martingale", "supermartingale"])
@pytest.mark.parametrize("verdict, passed", [(VERDICT_MARTINGALE, True),
                                             (VERDICT_SUPER_STRICT, True),
                                             (VERDICT_VIOLATION, False)])
def test_report_passes_unless_violation(mode, verdict, passed):
    report = MartingaleReport(t_grid=np.array([0.0, 1.0]), mean=np.ones(2),
                              se=np.full(2, 0.1), reference=1.0, verdict=verdict,
                              mode=mode, n_paths=100, seed=3, kurtosis_terminal=3.0)
    assert report.passed is passed


# ---------------------------------------------------------------------------
# structure scan
# ---------------------------------------------------------------------------

def test_structure_scan_power_margins_match_derivatives():
    gamma = 0.5
    x = np.geomspace(0.1, 10.0, 16)
    report = structure_scan([x ** (1 - gamma) / (1 - gamma)], x)
    assert report.passed
    deriv = x ** (-gamma)  # U' for the power criterion
    assert deriv.min() <= report.worst_increase_margin <= deriv.max()
    second = -gamma * x ** (-gamma - 1)
    assert second.min() <= report.worst_concavity_margin <= 0.0


def test_structure_scan_flags_flipped_weight():
    # two-power sum with one sign flipped stops being increasing in x
    x = np.geomspace(0.1, 10.0, 16)
    report = structure_scan([x ** 0.1 - x ** 0.3], x)
    assert not report.passed
    assert "FAIL" in report.to_text()


def test_structure_scan_fails_on_nan_values():
    # min/max seeded with +-inf would keep their seeds past a NaN margin;
    # the scan must fail instead, naming the first state with a bad value
    x = np.geomspace(0.1, 10.0, 16)
    values = np.tile(np.sqrt(x), (3, 1))
    values[1, 3] = np.nan
    report = structure_scan(values, x)
    assert not report.passed
    assert report.worst_state_index == 1
    assert report.to_text().startswith("structure scan: FAIL")


def test_structure_scan_fails_quietly_on_adjacent_infinities():
    # inf - inf in the second difference raised numpy's "invalid value"
    # RuntimeWarning on top of the FAIL report
    x = np.geomspace(0.1, 10.0, 16)
    values = np.tile(np.log(x), (3, 1))
    values[1, :2] = -np.inf
    report = structure_scan(values, x)
    assert (report.passed, report.worst_state_index) == (False, 1)
    # the row's margins: its finite first differences and a NaN second one
    assert report.worst_increase_margin == np.min((values[1, 4:] - values[1, 2:-2])
                                                  / (x[4:] - x[2:-2]))
    assert np.isnan(report.worst_concavity_margin)
    # a divided difference of finite values overflowing to inf raised numpy's
    # "overflow" RuntimeWarning the same way
    x = np.geomspace(0.1, 10.0, 12)
    report = structure_scan([np.log(x) * 1e307], x)
    assert (report.passed, report.worst_state_index) == (False, 0)


def test_structure_scan_validates_grid():
    with pytest.raises(ValueError):
        structure_scan([np.geomspace(1, 10, 4)], np.geomspace(1, 10, 4))
    with pytest.raises(ValueError):
        structure_scan([np.ones(10)], np.ones(10))
    # np.diff(x) <= 0 is False at a NaN, so the scan once ran and blamed log
    x = np.geomspace(0.1, 10.0, 12)
    x[5] = np.nan
    with pytest.raises(ValueError, match="^x_grid: must be finite$"):
        structure_scan([np.log(x)], x)


@pytest.mark.parametrize("values", [np.zeros((0, 12)), np.zeros(12), np.zeros((2, 11))],
                         ids=["no-state", "one-row", "short-row"])
def test_structure_scan_rejects_misshaped_values(values):
    with pytest.raises(ValueError, match="values must be"):
        structure_scan(values, np.geomspace(0.1, 10.0, 12))


def loop_structure_scan(values, x):
    """The per-state scan that ``structure_scan`` replaced: the test oracle."""
    worst_inc, worst_conc, worst_idx = np.inf, -np.inf, -1
    for idx, u in enumerate(values):
        first = (u[2:] - u[:-2]) / (x[2:] - x[:-2])
        h_plus = x[2:] - x[1:-1]
        h_minus = x[1:-1] - x[:-2]
        second = 2.0 * ((u[2:] - u[1:-1]) / h_plus - (u[1:-1] - u[:-2]) / h_minus) \
            / (h_plus + h_minus)
        inc = float(np.min(first))
        conc = float(np.max(second))
        if not (np.all(np.isfinite(first)) and np.all(np.isfinite(second))):
            return False, inc, conc, idx
        if inc < worst_inc or conc > worst_conc:
            worst_idx = idx
        worst_inc = min(worst_inc, inc)
        worst_conc = max(worst_conc, conc)
    return bool(worst_inc > 0.0 and worst_conc < 0.0), worst_inc, worst_conc, worst_idx


SCAN_X = np.geomspace(0.1, 10.0, 10)
# a few shared row shapes make ties between states likely
SCAN_ROWS = [np.sqrt(SCAN_X), np.log(SCAN_X), -1.0 / SCAN_X, SCAN_X ** 0.1 - SCAN_X ** 0.3,
             SCAN_X]


@st.composite
def scan_values(draw):
    """1-6 states of scaled shared rows, a few cells of which may be NaN or inf."""
    n_states = draw(st.integers(1, 6))
    values = np.array([SCAN_ROWS[draw(st.integers(0, len(SCAN_ROWS) - 1))]
                       * draw(st.sampled_from([0.5, 1.0, 2.0])) for _ in range(n_states)])
    for _ in range(draw(st.integers(0, 2))):
        values[draw(st.integers(0, n_states - 1)), draw(st.integers(0, SCAN_X.size - 1))] = \
            draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return values


@settings(max_examples=200, deadline=None)
@given(values=scan_values())
@example(values=np.array([SCAN_ROWS[0]]))  # a single state
@example(values=np.array([SCAN_ROWS[1], SCAN_ROWS[0], SCAN_ROWS[1], SCAN_ROWS[0]]))  # ties
@example(values=np.array([SCAN_ROWS[0], SCAN_ROWS[1] + np.r_[0, np.nan, np.zeros(8)],
                          SCAN_ROWS[2]]))  # a NaN row
@example(values=np.array([SCAN_ROWS[0], SCAN_ROWS[2] + np.r_[np.zeros(9), np.inf]]))  # inf
@example(values=np.array([SCAN_ROWS[0], SCAN_ROWS[1] + np.r_[-np.inf, -np.inf,
                                                             np.zeros(8)]]))  # inf - inf
def test_structure_scan_equals_per_state_loop(values):
    report = structure_scan(values, SCAN_X)  # warns of nothing, inf - inf included
    with np.errstate(invalid="ignore"):  # inf - inf is a quiet NaN in the oracle
        want = loop_structure_scan(values, SCAN_X)
    assert (report.passed, report.worst_state_index) == (want[0], want[3])
    assert np.array_equal([report.worst_increase_margin, report.worst_concavity_margin],
                          want[1:3], equal_nan=True)
