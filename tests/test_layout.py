"""The engine's one layout: einsum's summation order, the normals blocks,
batch-of-one equality, and C-ordered (rows, time, paths) arrays from the
increments to the criterion value."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpplab.market import (NORMALS_BLOCK, MarketSpec, TimeGrid, _normals_for_paths,
                           brownian_batch, einsum_dot, evolve_log_wealth_batch,
                           running_integral)
from fpplab.mixture import H0Spec, JSpec, MixtureFpp, RiskMixture
from fpplab.three_power import ThreePowerFpp, ThreePowerSpec
from fpplab.verify import TILE_PATHS, TIME_CHUNK, _time_chunks


def assert_same_values_and_zero_signs(got, want):
    # values bit for bit, NaN positions included, and the sign of every zero;
    # which NaN survives when two meet is left to the compiled loops, so NaN
    # sign bits are not compared
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    nan = np.isnan(want)
    assert np.array_equal(np.signbit(got)[~nan], np.signbit(want)[~nan])


def with_specials(rng, x, fraction):
    """``x`` with a ``fraction`` of its entries set to 0.0, -0.0, inf, -inf or NaN."""
    cell = rng.random(x.shape)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    pick = rng.integers(0, specials.size, x.shape)
    return np.where(cell < fraction, specials[pick], x)


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 12), n_atoms=st.integers(1, 4), width=st.integers(2, 17),
       n_paths=st.integers(1, 9), fraction=st.sampled_from([0.0, 0.05, 0.3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_einsum_dot_matches_einsum_bit_for_bit(d, n_atoms, width, n_paths, fraction,
                                               seed):
    # the written-out order on time-major operands gives einsum's bits on the
    # path-major ones, in both signatures the engine contracts
    rng = np.random.default_rng(seed)

    def draw(*shape):
        x = rng.normal(size=shape) * 10.0 ** rng.uniform(-8.0, 2.0, shape)
        return with_specials(rng, x, fraction)

    dw = draw(n_paths, width, d)
    h = draw(width, n_atoms, d)
    lam = draw(width, d)
    dwt = np.ascontiguousarray(dw.T)
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.einsum("bkd,kad->bka", dw, h)
        got = einsum_dot(dwt[:, None], h.T[:, :, :, None]).T
        assert_same_values_and_zero_signs(got, want)
        want = np.einsum("bkd,kd->bk", dw, lam)
        got = einsum_dot(dwt, lam.T[:, :, None]).T
        assert_same_values_and_zero_signs(got, want)


@pytest.mark.parametrize("d", [1, 3, 8, 11])
def test_einsum_dot_of_negative_zero_products_is_positive_zero(d):
    x = np.full((d, 2, 5), -0.0)
    y = np.ones((d, 2, 1))
    out = einsum_dot(x, y)
    want = np.einsum("bkd,kd->bk", x.T, y[:, :, 0].T).T
    assert not np.signbit(want).any()
    assert_same_values_and_zero_signs(out, want)


@pytest.mark.parametrize("n_paths", [NORMALS_BLOCK - 1, NORMALS_BLOCK + 1,
                                     2 * NORMALS_BLOCK + 1])
def test_time_major_normals_are_the_per_path_draws(n_paths):
    # batches straddling the draw blocks: column b of the time-major array is
    # path b's own Philox stream, drawn as one (N, n_cols) block
    grid = TimeGrid.regular(1.0, 0.25)
    ids = range(5, 5 + n_paths)
    z = _normals_for_paths(grid, 3, 11, ids)
    assert z.shape == (3, grid.n_steps, n_paths) and z.flags.c_contiguous
    for b, pid in enumerate(ids):
        gen = np.random.Generator(np.random.Philox(key=11, counter=[0, 0, pid, 0]))
        assert np.array_equal(z[:, :, b], gen.standard_normal((grid.n_steps, 3)).T)


# unsorted and repeated ids, ids at the top of the counter range, a numpy
# integer id, and a batch of two full draw blocks and a partial one whose ids
# repeat across the blocks
STREAM_IDS = {"mixed": [9, 2 ** 64 - 1, 3, 2 ** 63, np.uint64(5), 3, 0, 9, 2 ** 63],
              "300": [(37 * i) % 256 for i in range(2 * NORMALS_BLOCK + 44)]}


@pytest.mark.parametrize("ids", list(STREAM_IDS.values()), ids=list(STREAM_IDS))
@pytest.mark.parametrize("n_cols", [1, 4])
@pytest.mark.parametrize("seed", [0, 3, 2 ** 64 - 1])
def test_each_path_draws_its_own_fresh_stream(seed, n_cols, ids):
    # every path of a call starts its stream afresh, whatever the paths before
    # it drew; the counter is passed as uint64, because a list holding 2^64 - 1
    # is cast through float64
    grid = TimeGrid.regular(1.0, 1 / 12)
    z = _normals_for_paths(grid, n_cols, seed, ids)
    for b, pid in enumerate(ids):
        counter = np.array([0, 0, pid, 0], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=seed, counter=counter))
        want = gen.standard_normal((grid.n_steps, n_cols))
        assert np.array_equal(z[:, :, b].T.view(np.int64), want.view(np.int64))


def test_normals_fill_a_reused_buffer():
    # a buffer that held an earlier tile's draws is overwritten with exactly
    # the fresh draws, and the increments are views of it
    grid = TimeGrid.regular(1.0, 0.25)
    ids = range(3, 3 + NORMALS_BLOCK + 2)
    buf = np.full((3, grid.n_steps, len(ids)), np.nan)
    _normals_for_paths(grid, 3, 11, range(len(ids)), out=buf)
    assert _normals_for_paths(grid, 3, 11, ids, out=buf) is buf
    assert np.array_equal(buf, _normals_for_paths(grid, 3, 11, ids))
    dw, dwp = brownian_batch(grid, 2, 1, 11, ids, out=buf)
    want_dw, want_dwp = brownian_batch(grid, 2, 1, 11, ids)
    assert np.shares_memory(dw, buf) and np.shares_memory(dwp, buf)
    assert np.array_equal(dw, want_dw) and np.array_equal(dwp, want_dwp)
    for bad in (np.empty((3, grid.n_steps, len(ids) + 1)),
                np.empty((3, grid.n_steps, 2 * len(ids)))[:, :, ::2],
                np.empty((3, grid.n_steps, len(ids)), dtype=np.float32)):
        with pytest.raises(ValueError, match="C-ordered float64"):
            _normals_for_paths(grid, 3, 11, ids, out=bad)


@pytest.mark.parametrize("d_w", [1, 2, 3, 4])
def test_one_path_batch_equals_its_row(d_w):
    # increments, log wealth, criterion state and U of a batch of one equal
    # that path of a batch spanning two normals blocks, bit for bit; paths
    # run along the last axis
    rng = np.random.default_rng(d_w)
    grid = TimeGrid.regular(1.0, 1 / 20)
    sigma = np.diag(rng.uniform(0.15, 0.4, d_w))
    market = MarketSpec(n_stocks=d_w, d_w=d_w, d_wperp=1, sigma=sigma,
                        mu=rng.uniform(0.0, 0.1, d_w))
    mix = RiskMixture(atoms=((0.3, 1.0), (0.5, 0.5), (2.0, 0.25)), gamma0=0.5,
                      h0=H0Spec.constant(rng.normal(0.0, 0.1, d_w)),
                      j=JSpec.constant([0.2]))
    criteria = [MixtureFpp(mix, market, grid),
                ThreePowerFpp(ThreePowerSpec(0.2), market, grid)]
    sp = rng.normal(size=(grid.n_steps, d_w))

    def engine(ids):
        dw, dwp = brownian_batch(grid, d_w, 1, 3, ids)
        log_x = evolve_log_wealth_batch(1.2, sp, criteria[0].lam_path, grid, dw)
        out = [dw, dwp, log_x]
        for fpp in criteria:
            state = fpp.state_paths(dw, dwp)
            out += [state, fpp.utility_paths(state, log_x)]
        return out

    batch = engine(range(NORMALS_BLOCK + 1))
    for pid in (0, NORMALS_BLOCK - 1, NORMALS_BLOCK):
        for whole, single in zip(batch, engine([pid])):
            assert np.array_equal(whole[..., pid].view(np.int64),
                                  single[..., 0].view(np.int64))


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_three_power_utility_builds_its_terms_in_place():
    # one (3, TIME_CHUNK, B) term buffer, evaluated in place, plus a few
    # (TIME_CHUNK, B) rows: no stacked copy and no per-operation temporaries
    market = MarketSpec(n_stocks=1, d_w=1, d_wperp=0, sigma=0.2, mu=0.2)
    grid = TimeGrid.regular(1.0, 1 / 64)
    fpp = ThreePowerFpp(ThreePowerSpec(0.25), market, grid)
    n_paths = 5000
    dw, dwp = brownian_batch(grid, 1, 0, 7, range(n_paths))
    cols = slice(TIME_CHUNK, 2 * TIME_CHUNK)
    carry = fpp.state_paths(dw, dwp, slice(0, TIME_CHUNK))[:, -1]
    state = fpp.state_paths(dw, dwp, cols, carry)
    log_x = evolve_log_wealth_batch(1.0, fpp.sp_star, fpp.lam_path, grid, dw)[cols]
    row = n_paths * TIME_CHUNK * 8
    assert traced_peak(lambda: fpp.utility_paths(state, log_x, cols)) < 7 * row


@pytest.mark.parametrize("rows, drift", [(3, False), (1, True)], ids=["state", "wealth"])
def test_running_integral_steps_allocate_no_column_copies(rows, drift):
    # one (rows, TIME_CHUNK, TILE_PATHS) chunk call, a criterion state or a
    # drifted log wealth, peaks under its result plus one einsum_dot call's
    # own peak (two (TIME_CHUNK, TILE_PATHS) product rows and numpy's ufunc
    # buffer) plus one (rows, TILE_PATHS) step row: the steps add in place
    # over column views made once per call
    d_w, n_paths = 3, TILE_PATHS
    grid = TimeGrid(np.linspace(0.0, 1.0, 2 * TIME_CHUNK + 1))
    dw, _ = brownian_batch(grid, d_w, 0, 5, range(n_paths))
    rng = np.random.default_rng(rows)
    loadings = rng.normal(size=(grid.n_steps, rows, d_w))
    cols = slice(TIME_CHUNK, 2 * TIME_CHUNK)
    cells = slice(TIME_CHUNK - 1, 2 * TIME_CHUNK - 1)  # the cells ending in cols
    carry = rng.normal(size=n_paths if drift else (rows, n_paths))  # wealth carries (B,)
    drift_dt = rng.normal(scale=0.01, size=TIME_CHUNK) if drift else None
    row = np.empty((TIME_CHUNK, n_paths))
    products = traced_peak(lambda: einsum_dot(dw[:, cells], loadings[cells, 0].T[:, :, None],
                                              out=row))
    assert products >= 2 * row.nbytes
    peak = traced_peak(lambda: running_integral(loadings, dw, cols, carry, drift=drift_dt))
    assert peak < rows * row.nbytes + products + rows * n_paths * 8


def test_engine_arrays_are_c_ordered_rows_by_time_by_paths():
    # the increments are slices of the draw buffer; log wealth (under a live
    # and a zero schedule) and both criteria's states are C-ordered
    # (rows, w, B) arrays and both criteria's U a C-ordered (w, B) array,
    # whole-horizon and chunk by chunk, each carry a view of its chunk
    grid = TimeGrid.regular(1.0, 1 / 40)
    n_paths, d_w, d_wp = 6, 2, 1
    market = MarketSpec(n_stocks=d_w, d_w=d_w, d_wperp=d_wp, sigma=np.diag([0.2, 0.3]),
                        mu=[0.05, 0.02])
    mix = RiskMixture(atoms=((0.3, 1.0), (0.5, 0.5), (2.0, 0.25)), gamma0=0.5,
                      j=JSpec.constant([0.2]))
    buf = np.empty((d_w + d_wp, grid.n_steps, n_paths))
    dw, dwp = brownian_batch(grid, d_w, d_wp, 3, range(n_paths), out=buf)
    assert dw.shape == (d_w, grid.n_steps, n_paths)
    assert dwp.shape == (d_wp, grid.n_steps, n_paths)
    for z in (dw, dwp):
        assert z.flags.c_contiguous and np.shares_memory(z, buf)
    whole = slice(0, grid.n_steps + 1)
    for fpp, rows in ((MixtureFpp(mix, market, grid), mix.n_atoms),
                      (ThreePowerFpp(ThreePowerSpec(0.2), market, grid), 1)):
        for sp in (np.full((grid.n_steps, d_w), 0.3), np.zeros((grid.n_steps, d_w))):
            carry = last = None
            for cols in [whole] + _time_chunks(grid.n_steps + 1):
                w = cols.stop - cols.start
                log_x = evolve_log_wealth_batch(1.0, sp, fpp.lam_path, grid, dw,
                                                None if cols == whole else cols, last)
                state = fpp.state_paths(dw, dwp, cols, carry)
                u = fpp.utility_paths(state, log_x, cols)
                assert log_x.shape == (w, n_paths) and log_x.flags.c_contiguous
                assert state.shape == (rows, w, n_paths) and state.flags.c_contiguous
                assert u.shape == (w, n_paths) and u.flags.c_contiguous
                if cols != whole:
                    carry, last = state[:, -1], log_x[-1]
                    assert np.shares_memory(carry, state)
