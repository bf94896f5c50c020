"""Market engine: Sharpe ratios, counter-based paths, wealth evolution."""

import numpy as np
import pytest

import fpplab.market
from fpplab.errors import (NoExactSolutionError, SingularMarketError,
                           StrategyEvaluationError)
from fpplab.market import (MAX_DIMENSION, MarketSpec, Schedule, TimeGrid, brownian_batch,
                           evolve_log_wealth_batch, running_integral, sharpe_ratio,
                           solve_allocation, write_paths_csv)
from fpplab.verify import TIME_CHUNK, _time_chunks


def make_market(sigma=0.2, mu=0.04, d_wperp=0):
    return MarketSpec(n_stocks=1, d_w=1, d_wperp=d_wperp, sigma=sigma, mu=mu)


def stepwise_log_wealth(x0, sp_at, lam_path, grid, dw_path):
    """One path of the log scheme, one cell at a time: the batch engine's oracle.

    ``sp_at(t)`` gives sigma*pi on the cell starting at ``t``; ``dw_path`` is
    the (d_w, N) increment array of that path, ``dw[:, :, b]``.
    """
    log_x = [np.log(x0)]
    for k in range(grid.n_steps):
        sp = np.atleast_1d(np.asarray(sp_at(float(grid.times[k])), float))
        drift = sp @ lam_path[k] - 0.5 * (sp @ sp)
        log_x.append(log_x[-1] + drift * grid.dt[k] + sp @ dw_path[:, k])
    return np.array(log_x)


# ---------------------------------------------------------------------------
# time grid and schedules
# ---------------------------------------------------------------------------

def test_time_grid_regular():
    grid = TimeGrid.regular(1.0, 1 / 252)
    assert grid.n_steps == 252
    assert grid.times[0] == 0.0
    assert grid.times[-1] == 1.0
    assert np.all(grid.dt > 0)


@pytest.mark.parametrize("times", [[0.0], [0.1, 0.2], [0.0, 0.2, 0.2], [0.0, 0.3, 0.1]])
def test_time_grid_rejects_bad_input(times):
    with pytest.raises(ValueError):
        TimeGrid(np.array(times))


@pytest.mark.parametrize("times", [[0.0, 0.5, np.inf], [0.0, np.nan, 1.0]],
                         ids=["inf", "nan"])
def test_time_grid_rejects_non_finite_times(times):
    # inf - 0.5 > 0 passed the order test, and MixtureFpp then built a NaN qv
    # with a RuntimeWarning; a NaN read as "must be strictly increasing"
    with pytest.raises(ValueError, match="^times: must be finite$"):
        TimeGrid(times)


@pytest.mark.parametrize("horizon, step", [(1e300, 1e-10), (1e300, 1.0)])
def test_time_grid_regular_rejects_step_count_beyond_bound(horizon, step):
    # 1e300 / 1e-10 overflows to inf, which round() cannot convert
    with pytest.raises(ValueError, match="steps"):
        TimeGrid.regular(horizon, step)


@pytest.mark.parametrize("horizon, step", [(float("nan"), 1.0), (1.0, float("nan"))])
def test_time_grid_regular_rejects_nan(horizon, step):
    # NaN is not positive; it once got past to the step-count check
    with pytest.raises(ValueError, match="must be positive"):
        TimeGrid.regular(horizon, step)


def test_schedule_piecewise_left_continuous():
    sched = Schedule([{"t": 0.0, "value": 1.0}, {"t": 2.0, "value": 3.0}], shape=(1,))
    assert sched.path(0.0) == 1.0
    assert sched.path(1.999) == 1.0
    assert sched.path(2.0) == 3.0
    assert sched.path(10.0) == 3.0


def test_schedule_piecewise_requires_zero_knot():
    with pytest.raises(ValueError):
        Schedule([{"t": 1.0, "value": 2.0}], shape=(1,))


# ---------------------------------------------------------------------------
# Sharpe ratio
# ---------------------------------------------------------------------------

def test_sharpe_scalar():
    assert sharpe_ratio([[0.2]], [0.04]) == pytest.approx([0.2])


def test_sharpe_identity():
    assert sharpe_ratio(np.eye(2), [1.0, 0.0]) == pytest.approx([1.0, 0.0])


def test_sharpe_tall_matrix_matches_least_squares():
    # oracle: lam = sigma @ beta with beta the least-squares solution of
    # (sigma' sigma) beta = mu, computed independently of pinv
    sigma = np.array([[0.2], [0.1]])
    mu = np.array([0.05])
    beta, *_ = np.linalg.lstsq(sigma.T @ sigma, mu, rcond=None)
    expected = sigma @ beta
    assert sharpe_ratio(sigma, mu) == pytest.approx(expected)
    assert sharpe_ratio(sigma, mu) == pytest.approx([0.2, 0.1])


def test_sharpe_random_tall_matrices_match_lstsq():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d_w = rng.integers(2, 5)
        n = rng.integers(1, d_w + 1)
        sigma = rng.normal(size=(d_w, n))
        mu = rng.normal(size=n)
        beta, *_ = np.linalg.lstsq(sigma, np.zeros(d_w), rcond=None)  # shape probe
        expected = sigma @ np.linalg.solve(sigma.T @ sigma, mu)
        assert sharpe_ratio(sigma, mu) == pytest.approx(expected, rel=1e-10)


def test_sharpe_rank_deficient_raises():
    with pytest.raises(SingularMarketError):
        sharpe_ratio([[1.0, 1.0], [1.0, 1.0]], [0.1, 0.1])
    with pytest.raises(SingularMarketError):
        sharpe_ratio([[1.0, 0.0]], [0.1, 0.1])  # more stocks than drivers


def test_solve_allocation_residual_reported():
    sigma = np.array([[1.0], [0.0]])
    with pytest.raises(NoExactSolutionError) as excinfo:
        solve_allocation(sigma, [0.0, 1.0])
    assert excinfo.value.residual == pytest.approx(1.0)


@pytest.mark.parametrize("sigma,target,name", [
    ([[0.2]], [float("nan")], "target"),  # residual > tol is False for NaN
    ([[float("nan")]], [0.1], "sigma"),  # once numpy's LinAlgError
    ([[0.2]], [float("inf")], "target"),  # once a RuntimeWarning
], ids=["nan-target", "nan-sigma", "inf-target"])
def test_solve_allocation_rejects_non_finite_input(sigma, target, name):
    with pytest.raises(ValueError, match=f"^{name}: must be finite"):
        solve_allocation(sigma, target)


@pytest.mark.parametrize("bad", [1.5, True, False, "1", float("nan")],
                         ids=["fraction", "true", "false", "text", "nan"])
@pytest.mark.parametrize("field", ["n_stocks", "d_w", "d_wperp"])
def test_market_dimensions_must_be_integers(field, bad):
    # a dimension that is not an integral number, or is a bool, is a
    # ValueError that names the field first, not an error from inside numpy
    dims = {"n_stocks": 1, "d_w": 1, "d_wperp": 0, field: bad}
    with pytest.raises(ValueError, match=rf"^{field}: must be an integer, got {bad!r}$"):
        MarketSpec(**dims, sigma=0.2, mu=0.2)


@pytest.mark.parametrize("field, bad, least", [("n_stocks", 0, 1), ("d_w", 0, 1),
                                               ("d_wperp", -1, 0)])
def test_market_dimension_below_its_least_names_the_field(field, bad, least):
    dims = {"n_stocks": 1, "d_w": 1, "d_wperp": 0, field: bad}
    with pytest.raises(ValueError, match=rf"^{field}: must be at least {least}, got {bad}$"):
        MarketSpec(**dims, sigma=0.2, mu=0.2)


@pytest.mark.parametrize("bad", [MAX_DIMENSION + 1, 10 ** 12, 1e12])
@pytest.mark.parametrize("field", ["n_stocks", "d_w", "d_wperp"])
def test_market_dimension_above_its_bound_allocates_nothing(field, bad, traced_peak):
    # the bound is checked before a schedule or a draw array is sized from
    # it: d_w = 1e12 tried to allocate 7.28 TiB
    dims = {"n_stocks": 1, "d_w": 1, "d_wperp": 0, field: bad}

    def build():
        with pytest.raises(ValueError, match=rf"^{field}: must be at most "
                                             rf"{MAX_DIMENSION}, got {int(bad)}$"):
            MarketSpec(**dims, sigma=0.2, mu=0.2)
    assert traced_peak(build) < 64 * 1024


def test_market_dimensions_reach_their_bound():
    market = MarketSpec(1, MAX_DIMENSION, MAX_DIMENSION, sigma=0.2, mu=0.2)
    assert market.sigma.path(0.0).shape == (MAX_DIMENSION, 1)


@pytest.mark.parametrize("n_stocks, name, value, message", [
    (2, "sigma", [[0.2, 0.1], [0.3]], "(1, 2), got [[0.2, 0.1], [0.3]]"),
    (1, "sigma", [0.2, 0.3], "(1, 1), got [0.2, 0.3]"),
    (1, "mu", [{"t": 0.0, "value": 0.1}, {"t": 0.5, "value": [0.1, 0.2]}],
     "(1,) at knot t=0.5, got [0.1, 0.2]"),
    (1, "sigma", "abc", "(1, 1), got 'abc'"),
], ids=["ragged", "too-many", "knot", "text"])
def test_misshaped_schedule_names_the_shape_it_needs(n_stocks, name, value, message):
    # numpy's own text ("inhomogeneous shape", "could not be broadcast",
    # "could not convert string to float") named no expected shape
    values = {"sigma": 0.2, "mu": [0.04] * n_stocks, name: value}
    with pytest.raises(ValueError) as err:
        MarketSpec(n_stocks, 1, 0, **values)
    assert str(err.value) == f"{name}: needs numbers of shape {message}"


def test_market_dimensions_accept_integral_numbers():
    market = MarketSpec(1.0, np.int64(1), np.float64(1.0), sigma=0.2, mu=0.2)
    assert (market.n_stocks, market.d_w, market.d_wperp) == (1, 1, 1)
    assert all(type(d) is int for d in (market.n_stocks, market.d_w, market.d_wperp))


@pytest.mark.parametrize("name, bad", [
    ("sigma", Schedule(0.2, (1, 1))), ("mu", Schedule(0.04, (1,))), ("mu", {"t": 0.0})],
    ids=["sigma-schedule", "mu-schedule", "mu-mapping"])
def test_market_takes_plain_values_only(name, bad):
    # a built Schedule was taken as it stood, whatever its shape: a 1x1 sigma
    # in a 2-stock market gave a two-factor Sharpe path from one factor
    values = {"sigma": [[0.2, 0.0], [0.0, 0.2]], "mu": [0.04, 0.04], name: bad}
    with pytest.raises(ValueError, match=rf"^{name}: not a number or an array of "
                                         rf"numbers, got {type(bad).__name__}$"):
        MarketSpec(2, 2, 0, **values)


# ---------------------------------------------------------------------------
# Brownian paths
# ---------------------------------------------------------------------------

def test_brownian_deterministic():
    grid = TimeGrid.regular(1.0, 1.0)
    a, _ = brownian_batch(grid, 1, 0, seed=7, path_ids=[0])
    b, _ = brownian_batch(grid, 1, 0, seed=7, path_ids=[0])
    assert np.array_equal(a, b)


def test_brownian_batch_matches_single_paths():
    # every path of a batch equals the batch of one for its path id, and both
    # equal a Philox stream opened directly at counter block [0, 0, pid, 0]
    grid = TimeGrid.regular(0.5, 0.1)
    dw, dwp = brownian_batch(grid, 2, 1, seed=3, path_ids=range(17))
    for pid in (0, 5, 16):
        single_dw, single_dwp = brownian_batch(grid, 2, 1, seed=3, path_ids=[pid])
        assert np.array_equal(dw[:, :, pid], single_dw[:, :, 0])
        assert np.array_equal(dwp[:, :, pid], single_dwp[:, :, 0])
        gen = np.random.Generator(np.random.Philox(key=3, counter=[0, 0, pid, 0]))
        ref = gen.standard_normal((grid.n_steps, 3)) * np.sqrt(grid.dt)[:, None]
        assert np.array_equal(dw[:, :, pid], ref[:, :2].T)
        assert np.array_equal(dwp[:, :, pid], ref[:, 2:].T)


@pytest.mark.parametrize("seed, ids, name", [
    (7, [0, -1], "path_id"), (7, [0, 2 ** 64], "path_id"), (7, [0, 1.5], "path_id"),
    (-1, [0], "seed"), (2 ** 64, [0], "seed")],
    ids=["id-negative", "id-2-64", "id-fraction", "seed-negative", "seed-2-64"])
def test_brownian_batch_rejects_out_of_range_ids_and_seeds(seed, ids, name):
    grid = TimeGrid.regular(1.0, 0.25)
    with pytest.raises(ValueError, match=rf"^{name} must be an integer in \[0, 2\^64\)"):
        brownian_batch(grid, 1, 1, seed=seed, path_ids=ids)


def test_brownian_paths_differ_across_ids_and_seeds():
    grid = TimeGrid.regular(1.0, 0.25)
    a, _ = brownian_batch(grid, 1, 0, seed=7, path_ids=[0])
    b, _ = brownian_batch(grid, 1, 0, seed=7, path_ids=[1])
    c, _ = brownian_batch(grid, 1, 0, seed=8, path_ids=[0])
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_brownian_ensemble_statistics():
    # single step of dt = 1: increments are standard normal
    grid = TimeGrid.regular(1.0, 1.0)
    n = 100_000
    dw, _ = brownian_batch(grid, 1, 0, seed=123, path_ids=range(n))
    z = dw[0, 0]
    assert abs(z.mean()) < 3.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 0.01


def test_brownian_increment_variance_scales_with_dt():
    grid = TimeGrid.regular(1.0, 0.25)
    dw, _ = brownian_batch(grid, 1, 0, seed=5, path_ids=range(20_000))
    var = dw[0].var(axis=1)
    assert var == pytest.approx(grid.dt, rel=0.05)


def test_brownian_no_perp_columns():
    grid = TimeGrid.regular(1.0, 0.5)
    _, dwp = brownian_batch(grid, 2, 0, seed=1, path_ids=[0])
    assert dwp.shape == (0, 2, 1)


# ---------------------------------------------------------------------------
# wealth evolution
# ---------------------------------------------------------------------------

def test_null_portfolio_is_exactly_constant():
    market = make_market()
    grid = TimeGrid.regular(1.0, 1 / 52)
    dw, _ = brownian_batch(grid, 1, 0, seed=2, path_ids=[4])
    log_x = evolve_log_wealth_batch(5.0, np.zeros((grid.n_steps, 1)),
                                    market.sharpe_path(grid), grid, dw)
    assert np.all(log_x == np.log(5.0))


def test_log_scheme_single_step_arithmetic():
    # sigma*pi = 0.4, lam = 0.2, dt = 1, dW = 0.5:
    # dlog x = (0.4*0.2 - 0.5*0.16) + 0.4*0.5 = 0.2
    market = make_market()
    grid = TimeGrid(np.array([0.0, 1.0]))
    sp = market.sigma.path(0.0) @ np.array([2.0])  # pi = 2 -> sigma*pi = 0.4
    log_x = evolve_log_wealth_batch(1.0, sp[None, :], market.sharpe_path(grid),
                                    grid, np.array([[[0.5]]]))
    assert log_x[-1, 0] == pytest.approx(0.2, abs=1e-15)
    assert sp[0] == pytest.approx(0.4)


def test_constant_allocation_matches_stochastic_exponential():
    # closed form: X_T = x0 exp((c lam - c^2/2) T + c W_T) for sigma*pi = c
    market = make_market()
    grid = TimeGrid.regular(2.0, 1 / 252)
    dw, _ = brownian_batch(grid, 1, 0, seed=9, path_ids=[3])
    c = 0.7
    log_x = evolve_log_wealth_batch(1.5, np.full((grid.n_steps, 1), c),
                                    market.sharpe_path(grid), grid, dw)
    w_t = np.concatenate([[0.0], np.cumsum(dw[0, :, 0])])
    expected = 1.5 * np.exp((c * 0.2 - 0.5 * c * c) * grid.times + c * w_t)
    np.testing.assert_allclose(np.exp(log_x[:, 0]), expected, rtol=1e-12)


def test_piecewise_constant_allocation_matches_closed_form():
    market = make_market()
    grid = TimeGrid.regular(1.0, 0.125)
    dw, _ = brownian_batch(grid, 1, 0, seed=21, path_ids=[0])
    # pi jumps from 1 to 3 at t = 0.5
    sp = np.array([market.sigma.path(t) @ np.array([1.0 if t < 0.5 else 3.0])
                   for t in grid.times[:-1]])
    log_x = evolve_log_wealth_batch(1.0, sp, market.sharpe_path(grid), grid, dw)
    expected = 0.0
    for k in range(grid.n_steps):
        c = 0.2 * (1.0 if grid.times[k] < 0.5 else 3.0)
        expected += (c * 0.2 - 0.5 * c * c) * 0.125 + c * dw[0, k, 0]
    assert log_x[-1, 0] == pytest.approx(expected, rel=1e-12)


def test_wealth_stays_positive_for_wild_strategies():
    # ten paths, each with its own scale: one batch of one per path
    market = make_market()
    grid = TimeGrid.regular(1.0, 0.05)
    lam_path = market.sharpe_path(grid)
    scales = np.random.default_rng(0).uniform(-40.0, 40.0, size=10)
    dw, _ = brownian_batch(grid, 1, 0, seed=33, path_ids=range(10))
    wave = 0.2 * np.sin(37 * grid.times[:-1])
    for b, scale in enumerate(scales):
        log_x = evolve_log_wealth_batch(1.0, (scale * wave)[:, None], lam_path, grid,
                                        dw[:, :, b:b + 1])
        assert np.all(np.isfinite(log_x))
        assert np.all(np.exp(log_x) > 0.0)
        ref = stepwise_log_wealth(1.0, lambda t: 0.2 * scale * np.sin(37 * t),
                                  lam_path, grid, dw[:, :, b])
        np.testing.assert_allclose(log_x[:, 0], ref, rtol=1e-12)


def test_non_finite_allocation_names_grid_time():
    # NaN from the cell starting at t = 0.5 on, then only in the last cell
    market = make_market()
    grid = TimeGrid.regular(1.0, 0.25)
    dw, _ = brownian_batch(grid, 1, 0, seed=1, path_ids=[0])
    for first_bad, where in [(2, "t=0.5"), (grid.n_steps - 1, "t=0.75")]:
        sp = np.zeros((grid.n_steps, 1))
        sp[first_bad:] = np.nan
        with pytest.raises(StrategyEvaluationError, match=where):
            evolve_log_wealth_batch(1.0, sp, market.sharpe_path(grid), grid, dw)


def test_allocation_of_wrong_shape_names_grid_time():
    market = make_market()
    grid = TimeGrid.regular(1.0, 0.25)
    dw, _ = brownian_batch(grid, 1, 0, seed=1, path_ids=[0, 1])
    lam_path = market.sharpe_path(grid)
    for sp, given in [(np.array([0.1, 0.2]), r"\(2,\)"),
                      (np.full((4, 2), 0.1), r"\(4, 2\)"),
                      (np.full((3, 1), 0.1), r"\(3, 1\)"),
                      (np.full((2, 4, 1), 0.1), r"\(2, 4, 1\)")]:
        with pytest.raises(StrategyEvaluationError,
                           match=rf"shape {given}, expected \(4, 1\)"):
            evolve_log_wealth_batch(1.0, sp, lam_path, grid, dw)


def test_batch_evolution_matches_single_path():
    market = make_market()
    grid = TimeGrid.regular(1.0, 0.1)
    lam_path = market.sharpe_path(grid)
    sp = np.full((grid.n_steps, 1), 0.3)
    dw, _ = brownian_batch(grid, 1, 0, seed=6, path_ids=range(5))
    log_x = evolve_log_wealth_batch(2.0, sp, lam_path, grid, dw)
    for pid in range(5):
        one, _ = brownian_batch(grid, 1, 0, seed=6, path_ids=[pid])
        single = evolve_log_wealth_batch(2.0, sp, lam_path, grid, one)
        assert np.array_equal(log_x[:, pid], single[:, 0])
        ref = stepwise_log_wealth(2.0, lambda t: 0.3, lam_path, grid, dw[:, :, pid])
        np.testing.assert_allclose(log_x[:, pid], ref, rtol=1e-13)


def test_three_stock_evolution_is_bitwise_the_per_path_sum():
    # log x_{k+1} = (log x_k + (sp.lam - |sp|^2/2) dt) + sp.dW, with sp.lam
    # summed left to right and |sp|^2, sp.dW in einsum's order for three
    # terms, (p0 + p2) + p1: every path of a batch, and the same path as a
    # batch of one, gives exactly these bits
    grid = TimeGrid.regular(1.0, 1 / 100)
    rng = np.random.default_rng(3)
    sp = rng.normal(scale=2.0, size=(grid.n_steps, 3))
    lam_path = rng.normal(scale=1.0, size=(grid.n_steps, 3))
    dw, _ = brownian_batch(grid, 3, 1, seed=12, path_ids=range(6))
    log_x = evolve_log_wealth_batch(1.7, sp, lam_path, grid, dw)
    for b in range(6):
        ref = [np.log(1.7)]
        for k in range(grid.n_steps):
            s, lam, w = sp[k], lam_path[k], dw[:, k, b]
            sp_lam = (s[0] * lam[0] + s[1] * lam[1]) + s[2] * lam[2]
            sp_sq = (s[0] * s[0] + s[2] * s[2]) + s[1] * s[1]
            sp_dw = (s[0] * w[0] + s[2] * w[2]) + s[1] * w[1]
            ref.append(ref[-1] + (sp_lam - 0.5 * sp_sq) * grid.dt[k] + sp_dw)
        assert np.array_equal(log_x[:, b], ref)
        single = evolve_log_wealth_batch(1.7, sp, lam_path, grid, dw[:, :, b:b + 1])
        assert np.array_equal(single[:, 0], log_x[:, b])


@pytest.mark.parametrize("d_w", [1, 2, 3, 4])
def test_chunked_evolution_equals_whole_horizon(d_w):
    # chunks carried from each one's last column give the whole-horizon
    # paths bit for bit; a zero schedule is exactly log(x0) in every chunk
    grid = TimeGrid.regular(1.0, 1 / 50)
    rng = np.random.default_rng(d_w)
    lam_path = rng.normal(size=(grid.n_steps, d_w))
    dw, _ = brownian_batch(grid, d_w, 0, seed=4, path_ids=range(40))
    for sp in (rng.normal(scale=2.0, size=(grid.n_steps, d_w)),
               np.zeros((grid.n_steps, d_w))):
        whole = evolve_log_wealth_batch(1.3, sp, lam_path, grid, dw)
        chunks, start = [], None
        for cols in _time_chunks(grid.n_steps + 1):
            chunks.append(evolve_log_wealth_batch(1.3, sp, lam_path, grid, dw, cols, start))
            start = chunks[-1][-1]
        assert np.array_equal(np.concatenate(chunks).view(np.int64),
                              whole.view(np.int64))
    assert np.all(whole == np.log(1.3))


def stepwise_running_integral(loadings, dw, start, drift=None, j=None, dwperp=None):
    """The whole-horizon (rows, N+1, B) running sums, one grid cell at a time.

    Each increment is ``np.einsum`` on C-ordered path-major (B, N, d) copies
    of the increments (the bits ``einsum_dot`` gives on the (d, N, B) ones),
    ``H.dW`` then ``+ J.dW_perp``, and each step is ``x_{k-1} + inc_k``, or
    ``(x_{k-1} + drift_k) + inc_k``.
    """
    def path_major(z):
        return np.ascontiguousarray(z.transpose(2, 1, 0))

    inc = np.einsum("bkd,kad->bka", path_major(dw), loadings)
    if j is not None:
        inc = inc + np.einsum("bkd,kad->bka", path_major(dwperp), j)
    n_paths, n_steps, rows = inc.shape
    x = np.empty((n_paths, n_steps + 1, rows))
    x[:, 0] = start
    for k in range(n_steps):
        prev = x[:, k] if drift is None else x[:, k] + drift[k]
        x[:, k + 1] = prev + inc[:, k]
    return x.transpose(2, 1, 0)


@pytest.mark.parametrize("with_drift", [False, True], ids=["no-drift", "drift"])
@pytest.mark.parametrize("with_j", [False, True], ids=["no-j", "j"])
@pytest.mark.parametrize("d_w, rows, n_steps",
                         [(1, 1, TIME_CHUNK + 4), (3, 3, 40), (4, 2, 33)])
def test_running_integral_matches_stepwise_reference(with_drift, with_j, d_w, rows,
                                                     n_steps):
    # whole-horizon and chunk-by-chunk calls, each chunk carried from the last
    # column of the one before, both give the stepwise sums bit for bit
    rng = np.random.default_rng(d_w * 100 + n_steps)
    grid = TimeGrid(np.linspace(0.0, 1.0, n_steps + 1))
    dw, dwp = brownian_batch(grid, d_w, 2, seed=3, path_ids=range(24))
    loadings = rng.normal(size=(n_steps, rows, d_w))
    j = rng.normal(size=(n_steps, rows, 2)) if with_j else None
    drift = rng.normal(scale=0.01, size=n_steps) if with_drift else None
    want = stepwise_running_integral(loadings, dw, 0.3, drift, j, dwp)
    whole = running_integral(loadings, dw, start=0.3, drift=drift, j=j, dwperp=dwp)
    assert np.array_equal(whole.view(np.int64), want.view(np.int64))
    chunks, carry = [], None
    for cols in _time_chunks(n_steps + 1):
        lo, hi, _ = cols.indices(n_steps + 1)
        cells = slice(max(lo - 1, 0), hi - 1)  # the cells ending in cols
        chunks.append(running_integral(loadings, dw, cols, carry, 0.3,
                                       None if drift is None else drift[cells], j, dwp))
        carry = chunks[-1][:, -1]
    assert len(chunks) > 1
    assert np.array_equal(np.concatenate(chunks, axis=1).view(np.int64),
                          want.view(np.int64))


def test_piecewise_market_schedule_in_sharpe_path():
    market = MarketSpec(
        n_stocks=1, d_w=1, d_wperp=0,
        sigma=[{"t": 0.0, "value": [[0.2]]}, {"t": 0.5, "value": [[0.4]]}],
        mu=0.04)
    grid = TimeGrid.regular(1.0, 0.25)
    lam = market.sharpe_path(grid)
    assert lam[0, 0] == pytest.approx(0.2)
    assert lam[3, 0] == pytest.approx(0.1)



def test_sharpe_path_checks_the_horizon():
    # the horizon starts no cell, yet a market singular there is rejected
    market = MarketSpec(
        n_stocks=1, d_w=1, d_wperp=0,
        sigma=[{"t": 0.0, "value": [[0.2]]}, {"t": 1.0, "value": [[0.0]]}],
        mu=0.04)
    assert market.sharpe_path(TimeGrid.regular(0.75, 0.25)).shape == (3, 1)
    with pytest.raises(SingularMarketError, match="column-rank deficient"):
        market.sharpe_path(TimeGrid.regular(1.0, 0.25))

def test_sharpe_path_solves_each_knot_run_once(monkeypatch):
    # sigma and mu change at knots on and between grid times: every row holds
    # sharpe_at of its own time bit for bit, from one solve per run of times
    # that share both knots
    market = MarketSpec(n_stocks=2, d_w=2, d_wperp=0,
                        sigma=[{"t": 0.0, "value": [[0.3, 0.1], [0.0, 0.2]]},
                               {"t": 0.3, "value": [[0.25, 0.0], [0.05, 0.4]]},
                               {"t": 0.5, "value": [[0.2, 0.1], [0.1, 0.3]]}],
                        mu=[{"t": 0.0, "value": [0.05, 0.02]},
                            {"t": 0.75, "value": [0.01, 0.07]}])
    grid = TimeGrid.regular(1.0, 0.125)
    calls = []
    original = fpplab.market.sharpe_ratio
    monkeypatch.setattr(fpplab.market, "sharpe_ratio",
                        lambda *args: calls.append(args) or original(*args))
    lam = market.sharpe_path(grid)
    assert len(calls) == 4  # [0, 0.3), [0.3, 0.5), [0.5, 0.75), [0.75, 1]
    for k, t in enumerate(grid.times[:-1]):
        assert np.array_equal(
            lam[k].view(np.int64),
            original(market.sigma.path(t), market.mu.path(t)).view(np.int64))


def test_sharpe_path_names_the_first_singular_time():
    # sigma turns rank deficient at t = 0.55, between grid times: the error
    # names 0.75, the first grid time at or after that knot
    sigma = [{"t": 0.0, "value": [[0.2, 0.1], [0.0, 0.3]]},
             {"t": 0.55, "value": [[0.2, 0.1], [0.4, 0.2]]}]
    market = MarketSpec(n_stocks=2, d_w=2, d_wperp=0, sigma=sigma, mu=[0.05, 0.02])
    assert market.sharpe_path(TimeGrid.regular(0.5, 0.25)).shape == (2, 2)
    with pytest.raises(SingularMarketError, match=r"column-rank deficient .* at t=0\.75$"):
        market.sharpe_path(TimeGrid.regular(1.0, 0.25))


def test_write_paths_csv(tmp_path):
    grid = TimeGrid.regular(1.0, 0.5)
    dw, dwp = brownian_batch(grid, 2, 1, seed=4, path_ids=range(3))
    out = tmp_path / "paths.csv"
    write_paths_csv(out, grid, dw, dwp, range(3))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "path_id,t,W_1,W_2,Wp_1"
    assert len(lines) == 1 + 3 * 3  # header + 3 paths x 3 grid times
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0
    assert all(float(v) == 0.0 for v in first[2:])
