"""Market model and the batched Brownian and wealth engine.

Model
-----
``n`` stocks driven by a ``d_w``-dimensional Brownian motion ``W`` (plus a
``d_wperp``-dimensional ``W_perp`` that never enters prices), volatility
``sigma(t)`` of shape ``(d_w, n)`` and drift ``mu(t)`` of length ``n``.  The
market price of risk is ``lam(t) = pinv(sigma(t))' mu(t)``.  Wealth under an
allocation ``pi`` (fractions of wealth per stock) follows

    dX / X = (sigma pi)' lam dt + (sigma pi)' dW,

discretised in log space,

    dlog X = ((sigma pi)' lam - |sigma pi|^2 / 2) dt + (sigma pi)' dW,

which keeps wealth strictly positive and is exact because the engine's
``sigma pi`` schedule is constant on each grid cell.

Randomness is counter-based: path ``i`` under seed ``s`` is drawn from a
Philox stream keyed by ``s`` with counter block ``i``, so a path is
bit-identical whether simulated alone, inside a batch, or on another thread.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NoExactSolutionError, SingularMarketError, StrategyEvaluationError

NORMALS_BLOCK = 128  # paths per draw block: a (128, N, n_cols) buffer stays in L2
PINV_RCOND = 1e-10  # singular values below rcond * s_max are treated as zero
HEDGE_RTOL = 1e-8  # largest hedging residual, relative to max(1, |target|)
# most grid steps (or rebalance periods) in one run: refuses a horizon / step
# ratio that overflows round() or that no (N+1, B) batch array could hold
MAX_STEPS = 10 ** 7
# most stocks, or Brownian drivers of either kind, in a market: refuses a
# dimension before a (d_w, n_stocks) schedule or a draw array is sized from it
MAX_DIMENSION = 1000


# ---------------------------------------------------------------------------
# Time grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times t_0 = 0 < t_1 < ... < t_N (years)."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        check_finite(times=t)  # an infinite last time passes the order test
        if t.ndim != 1 or t.size < 2:
            raise ValueError("time grid needs at least two points")
        if t[0] != 0.0:
            raise ValueError("time grid must start at 0")
        if not np.all(np.diff(t) > 0):
            raise ValueError("time grid must be strictly increasing")

    @classmethod
    def regular(cls, horizon: float, step: float) -> "TimeGrid":
        """Uniform grid over [0, horizon] with the closest whole number of steps."""
        check_positive(horizon=horizon, step=step)
        if not horizon / step <= MAX_STEPS:
            raise ValueError(f"horizon / step must be at most {MAX_STEPS} steps")
        n = max(1, round(horizon / step))
        return cls(np.linspace(0.0, horizon, n + 1))

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.times)


# ---------------------------------------------------------------------------
# Deterministic coefficient schedules
# ---------------------------------------------------------------------------

def check_finite(**arrays) -> None:
    """Raise ValueError, naming the first keyword whose value holds a NaN or an
    infinity (``lam: must be finite``)."""
    for name, value in arrays.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name}: must be finite")


def check_positive(**values) -> None:
    """Raise ValueError, naming the first keyword whose value holds an entry
    outside (0, inf), and that entry (``x0: must be positive and finite, got 0.0``)."""
    for name, value in values.items():
        v = np.asarray(value, float)
        bad = ~((v > 0) & (v < np.inf))  # NaN is neither
        if bad.any():
            raise ValueError(f"{name}: must be positive and finite, got {v[bad][0]}")


def check_between(lo, hi, **values) -> None:
    """Raise ValueError, naming the first keyword whose value holds an entry outside
    the open interval (lo, hi), and that entry (``gamma: must lie in (0, 1/3), got
    0.4``).  A bound is a number or a ratio as text (``"1/3"``); each prints as given."""
    a, b = (float(num) / float(den or 1)
            for num, _, den in (str(bound).partition("/") for bound in (lo, hi)))
    for name, value in values.items():
        v = np.asarray(value, float)
        bad = ~((v > a) & (v < b))  # NaN is neither
        if bad.any():
            raise ValueError(f"{name}: must lie in ({lo}, {hi}), got {v[bad][0]}")


def _finite_value(value, shape: tuple[int, ...], where: str) -> np.ndarray:
    try:
        arr = np.broadcast_to(np.asarray(value, float), shape).copy()
    except TypeError:
        raise ValueError(f"not a number or an array of numbers{where}, "
                         f"got {type(value).__name__}") from None
    except ValueError:  # a ragged list, text, or a shape that does not broadcast
        raise ValueError(f"needs numbers of shape {shape}{where}, "
                         f"got {value!r}") from None
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite value{where}")
    return arr


class Schedule:
    """Deterministic map t -> array, piecewise constant and left-continuous.

    Built from a knot list, ``[{"t": t_i, "value": value_i}, ...]`` (the
    ``{t: ..., value: ...}`` entries of a configuration file), in any order:
    the value at ``t`` is the one of the largest ``t_i <= t``.  A bare value
    is a constant, the one knot ``{"t": 0, "value": value}``.
    """

    def __init__(self, value, shape: tuple[int, ...]):
        if isinstance(value, (list, tuple)) and value and isinstance(value[0], dict):
            knots = sorted((float(entry["t"]), _finite_value(
                entry["value"], shape, f" at knot t={entry['t']}")) for entry in value)
        else:
            knots = [(0.0, _finite_value(value, shape, ""))]
        if not all(np.isfinite(t) for t, _ in knots):
            raise ValueError("non-finite knot time")
        if knots[0][0] > 0.0:
            raise ValueError("piecewise schedule must define a value at t = 0")
        self._knot_times = np.array([t for t, _ in knots])
        self._knot_values = [v for _, v in knots]

    def knot_index(self, t) -> np.ndarray:
        """Index of the breakpoint in force at each time of ``t``."""
        return np.maximum(np.searchsorted(self._knot_times, t, side="right") - 1, 0)

    def path(self, times) -> np.ndarray:
        """The values at every time of ``times``, stacked along a new first axis."""
        return np.stack(self._knot_values)[self.knot_index(times)]


# ---------------------------------------------------------------------------
# Market specification
# ---------------------------------------------------------------------------

def solve_allocation(sigma: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Minimum-norm pi with sigma pi = target, via pseudoinverse.

    Raises
    ------
    NoExactSolutionError
        If the target is not in the column space of sigma, up to
        ``HEDGE_RTOL``; the error carries the range-space projection residual.
    ValueError
        If sigma or the target holds a non-finite value, naming which.
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    target = np.atleast_1d(np.asarray(target, dtype=float))
    check_finite(sigma=sigma, target=target)
    pi = np.linalg.pinv(sigma, rcond=PINV_RCOND) @ target
    residual = float(np.linalg.norm(sigma @ pi - target))
    if residual > HEDGE_RTOL * max(1.0, float(np.linalg.norm(target))):
        raise NoExactSolutionError(
            f"allocation target not hedgeable, projection residual {residual:.3e}",
            residual)
    return pi


def sharpe_ratio(sigma: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Market price of risk ``pinv(sigma)' mu`` for a (d_w, n) volatility matrix.

    Raises
    ------
    SingularMarketError
        If sigma is column-rank deficient beyond the pseudoinverse tolerance.
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    check_finite(sigma=sigma, mu=mu)
    d_w, n = sigma.shape
    if mu.shape != (n,):
        raise ValueError(f"mu has shape {mu.shape}, expected ({n},)")
    s = np.linalg.svd(sigma, compute_uv=False)
    if n > d_w or s[-1] <= PINV_RCOND * s[0]:
        raise SingularMarketError(
            f"sigma is column-rank deficient (singular values {s})")
    return np.linalg.pinv(sigma, rcond=PINV_RCOND).T @ mu


def _dimension(name: str, value, least: int) -> int:
    """``value`` as an int if it is an integral number, not a bool, from
    ``least`` to ``MAX_DIMENSION``, else a ValueError that names ``name`` first."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral)
            or isinstance(value, numbers.Real) and float(value).is_integer()):
        raise ValueError(f"{name}: must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name}: must be at least {least}, got {int(value)}")
    if value > MAX_DIMENSION:
        raise ValueError(f"{name}: must be at most {MAX_DIMENSION}, got {int(value)}")
    return int(value)


@dataclass
class MarketSpec:
    """Stock count, driving dimensions, and deterministic sigma/mu schedules.

    ``sigma`` takes a scalar (1x1 market), a (d_w, n) matrix, or a knot
    list (see ``Schedule``), and the spec builds its schedule of that shape;
    likewise ``mu``.  ``d_wperp = 0`` is the complete-market case.
    """

    n_stocks: int
    d_w: int
    d_wperp: int
    sigma: Schedule = field(repr=False)
    mu: Schedule = field(repr=False)

    def __init__(self, n_stocks, d_w, d_wperp, sigma, mu):
        n_stocks = _dimension("n_stocks", n_stocks, 1)
        d_w = _dimension("d_w", d_w, 1)
        d_wperp = _dimension("d_wperp", d_wperp, 0)
        self.n_stocks, self.d_w, self.d_wperp = n_stocks, d_w, d_wperp
        for name, value, shape in (("sigma", sigma, (d_w, n_stocks)),
                                   ("mu", mu, (n_stocks,))):
            try:
                setattr(self, name, Schedule(value, shape))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from exc

    def sharpe_at(self, t: float) -> np.ndarray:
        return sharpe_ratio(self.sigma.path(t), self.mu.path(t))

    def sharpe_path(self, grid: TimeGrid) -> np.ndarray:
        """lam at the left endpoint of every grid cell, shape (N, d_w).

        ``sharpe_ratio`` runs once per run of grid times that share their
        sigma and mu breakpoints, at the first time of the run, and its
        result fills every row of the run.  Raises SingularMarketError at
        the first grid time, the horizon included, where sigma is rank
        deficient or lam is not finite, and names that time.
        """
        times = grid.times
        changed = ((np.diff(self.sigma.knot_index(times)) != 0)
                   | (np.diff(self.mu.knot_index(times)) != 0))
        bounds = [0, *(np.flatnonzero(changed) + 1).tolist(), times.size]
        lam = np.empty((times.size, self.d_w))
        for lo, hi in zip(bounds, bounds[1:]):
            t = float(times[lo])
            try:
                lam[lo:hi] = self.sharpe_at(t)
            except SingularMarketError as exc:
                raise SingularMarketError(f"{exc} at t={t}") from exc
            if not np.all(np.isfinite(lam[lo])):
                raise SingularMarketError(f"non-finite Sharpe ratio at t={t}")
        return lam[:-1]


# ---------------------------------------------------------------------------
# Brownian increments (counter-based per-path streams)
# ---------------------------------------------------------------------------

def _normals_for_paths(grid: TimeGrid, n_cols: int, seed: int,
                       path_ids: Sequence[int], out: np.ndarray = None) -> np.ndarray:
    """Standard normals of shape (n_cols, N, len(path_ids)), one stream per path.

    Path ``i`` occupies Philox counter block ``[0, 0, i, 0]`` under ``key=seed``,
    which pins its draws independently of batching or execution order.  The
    batch is time-major: path ``b`` is ``out[:, :, b]``, its (N, n_cols) draw
    transposed.  Paths are drawn ``NORMALS_BLOCK`` at a time into a small
    path-major buffer, which one transposed assignment copies into the batch.
    ``out``, when given, is the C-ordered float array of that shape to fill;
    a caller that draws many batches reuses one, so its pages are touched
    only once.
    """
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2 ** 64):
        raise ValueError("seed must be an integer in [0, 2^64)")
    n = grid.n_steps
    shape = (n_cols, n, len(path_ids))
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-ordered float64 array of shape {shape}, "
                         f"got {out.dtype} {out.shape}")
    if out.size == 0:
        return out
    bg = np.random.Philox(key=seed)
    gen = np.random.Generator(bg)
    # One plain-int state for the whole call, reset in place per path.  The
    # setter copies every field into the generator, so each path starts from
    # counter block [0, 0, pid, 0], the key and an empty buffer (buffer_pos 4
    # discards it), whatever the path before it drew.
    counter = [0, 0, 0, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": counter,
                       "key": [int(k) for k in bg.state["state"]["key"]]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    block = np.empty((min(NORMALS_BLOCK, len(path_ids)), n, n_cols))
    rows = list(block)
    for b0 in range(0, len(path_ids), NORMALS_BLOCK):
        ids = path_ids[b0:b0 + NORMALS_BLOCK]
        for row, pid in zip(rows, ids):
            if not (isinstance(pid, (int, np.integer)) and 0 <= pid < 2 ** 64):
                raise ValueError("path_id must be an integer in [0, 2^64)")
            counter[2] = int(pid)
            bg.state = state
            gen.standard_normal(out=row)
        out[:, :, b0:b0 + len(ids)] = block[:len(ids)].T
    return out


def brownian_batch(grid: TimeGrid, d_w: int, d_wperp: int, seed: int,
                   path_ids: Sequence[int],
                   out: np.ndarray = None) -> tuple[np.ndarray, np.ndarray]:
    """Increment arrays (d_w, N, B) and (d_wperp, N, B) for a batch of paths.

    Both are C-ordered slices of one (d_w + d_wperp, N, B) array, ``out``
    when given (see ``_normals_for_paths``), so each driver's increments at
    one grid cell are a contiguous row over the paths.  Path ``b``,
    ``dw[:, :, b]``, depends only on ``(seed, path_ids[b], grid, dims)``, so
    a single path is the batch ``[path_id]`` and equals that path of any
    larger batch bit for bit.
    """
    z = _normals_for_paths(grid, d_w + d_wperp, seed, path_ids, out)
    z *= np.sqrt(grid.dt)[None, :, None]
    return z[:d_w], z[d_w:]


def einsum_dot(x: np.ndarray, y: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """``sum_i x[i] * y[i]`` over the first axis, in the order np.einsum sums it.

    This is the contraction of ``np.einsum("bkd,kd->bk")`` and
    ``np.einsum("bkd,kad->bka")`` over ``d``, written out as products of
    whole rows so that it runs on time-major operands with the bits einsum
    gives on path-major ones.  einsum keeps two partial sums (two SSE2
    lanes): even terms go to lane 0 and odd terms to lane 1, each block of
    eight is added as p6, p4, p2, p0 and p7, p5, p3, p1, the rest two at a
    time, and each product is added to its lane's running sum.  Then
    lane 0 + lane 1, then + 0.0: einsum adds into a zeroed output, so a sum
    of -0.0 products comes back +0.0.  ``x[i]`` and ``y[i]`` broadcast
    against each other into the result, written to ``out`` when given.
    """
    n = len(x)
    full = n - n % 8
    lane0 = ([s + j for s in range(0, full, 8) for j in (6, 4, 2, 0)]
             + list(range(full, n, 2)))
    lane1 = ([s + j for s in range(0, full, 8) for j in (7, 5, 3, 1)]
             + list(range(full + 1, n, 2)))
    out = np.multiply(x[lane0[0]], y[lane0[0]], out=out)
    prod = np.empty_like(out) if n >= 3 else None  # a lane's second product
    for i in lane0[1:]:
        out += np.multiply(x[i], y[i], out=prod)
    if lane1:
        odd = np.multiply(x[lane1[0]], y[lane1[0]])
        for i in lane1[1:]:
            odd += np.multiply(x[i], y[i], out=prod)
        out += odd
    out += 0.0
    return out


# ---------------------------------------------------------------------------
# Wealth evolution
# ---------------------------------------------------------------------------

def check_schedule(sp, grid: TimeGrid, d_w: int) -> np.ndarray:
    """The sigma*pi schedule ``sp`` as a float (N, d_w) array, checked.

    Raises
    ------
    StrategyEvaluationError
        If the schedule is not of shape (N, d_w), naming both shapes, or if
        it holds a non-finite value, naming the first such grid time.
    """
    sp = np.asarray(sp, dtype=float)
    if sp.shape != (grid.n_steps, d_w):
        raise StrategyEvaluationError(
            f"allocation of shape {sp.shape}, expected ({grid.n_steps}, {d_w})")
    finite = np.isfinite(sp)
    if not finite.all():  # a whole-array test: a per-row one on every chunk raised peak RSS
        raise StrategyEvaluationError(
            f"non-finite allocation at t={float(grid.times[np.argmin(finite.all(axis=1))])}")
    return sp


def running_integral(loadings: np.ndarray, dw: np.ndarray, cols: slice = slice(None),
                     carry: np.ndarray = None, start: float = 0.0,
                     drift: np.ndarray = None, j: np.ndarray = None,
                     dwperp: np.ndarray = None) -> np.ndarray:
    """Running sums ``start + sum_k (drift_k + loadings_k . dW_k + j_k . dW_perp_k)``.

    ``loadings`` and ``j`` are (N, rows, d_w) and (N, rows, d_wperp) arrays
    of per-cell loadings on the whole-grid ``brownian_batch`` increments
    ``dw`` and ``dwperp``, (d_w, N, B) and (d_wperp, N, B); ``drift`` holds
    one value per cell of the chunk.  The result is the C-ordered
    (rows, len(cols), B) value at the grid columns ``cols``.  The first
    chunk holds column 0, ``start``; a later chunk continues from ``carry``,
    the (rows, B) or (B,) value at the column before it, ``value[:, -1]``
    of the chunk before, so chunks equal the whole horizon bit for bit.  Every
    bit is fixed here: ``loadings . dW`` and ``j . dW_perp`` are separate
    ``einsum_dot`` calls, added in that order, and a step is
    ``x_{k-1} + inc_k``, or ``(x_{k-1} + drift_k) + inc_k``.  The steps
    run over the result's (rows, B) column views, listed once per call and
    each written in place, so a step slices nothing and allocates nothing.
    """
    n_steps = dw.shape[1]
    lo, hi, _ = cols.indices(n_steps + 1)
    cells = slice(max(lo - 1, 0), hi - 1)
    acc = np.empty((loadings.shape[1], hi - lo, dw.shape[2]))
    first = int(lo == 0)  # column 0 of the first chunk is start; a cell adds to its end
    for r in range(acc.shape[0]):
        inc = einsum_dot(dw[:, cells], loadings[cells, r].T[:, :, None], out=acc[r, first:])
        if j is not None:
            inc += einsum_dot(dwperp[:, cells], j[cells, r].T[:, :, None])
    views = list(acc.swapaxes(0, 1))  # the (rows, B) column views, made once
    if first:
        views[0][...] = start
    prev = views[0] if first else carry
    step = None if drift is None else np.empty(views[0].shape)
    for k, col in enumerate(views[first:]):
        if drift is not None:
            prev = np.add(prev, drift[k], out=step)
        prev = np.add(prev, col, out=col)
    return acc


def evolve_log_wealth_batch(x0: float, sp: np.ndarray, lam_path: np.ndarray,
                            grid: TimeGrid, dw: np.ndarray, cols: slice = slice(None),
                            carry: np.ndarray = None) -> np.ndarray:
    """Log-wealth paths of an ensemble, a C-ordered (len(cols), B) array.

    ``sp`` is the (N, d_w) sigma*pi schedule shared by every path: row ``k``
    holds on grid cell ``k``.  ``lam_path`` is the (N, d_w) Sharpe path on
    the same grid, and ``dw`` holds the (d_w, N, B) increments of the whole
    grid, as ``brownian_batch`` returns them.  ``cols`` is a slice of grid
    columns, by default the whole horizon (N+1, B).  A chunk past column 0
    continues from ``carry``, the (B,) log wealth at the column before it,
    as in ``running_integral``.  ``x0`` must be positive and finite, and a
    zero allocation keeps log wealth exactly at ``log(x0)``.  Every call
    checks the schedule with ``check_schedule`` (and raises its
    ``StrategyEvaluationError``).
    """
    check_positive(x0=x0)
    d_w, n_steps, n_paths = dw.shape
    sp = check_schedule(sp, grid, d_w)
    lo, hi, _ = cols.indices(n_steps + 1)
    cells = slice(max(lo - 1, 0), hi - 1)  # the cells ending in cols
    if not sp[cells].any():
        out = np.empty((hi - lo, n_paths))
        out[...] = np.log(x0) if lo == 0 else carry
        return out
    # one drift per cell for every path; sp . lam left to right fixes the rounding
    spc, lam = sp[cells], lam_path[cells]
    sp_lam = spc[:, 0] * lam[:, 0]
    for d in range(1, d_w):
        sp_lam = sp_lam + spc[:, d] * lam[:, d]
    drift_dt = (sp_lam - 0.5 * np.einsum("kd,kd->k", spc, spc)) * grid.dt[cells]
    return running_integral(sp[:, None, :], dw, cols, carry, np.log(x0), drift_dt)[0]


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def write_paths_csv(path, grid: TimeGrid, dw: np.ndarray, dwperp: np.ndarray,
                    path_ids: Sequence[int]) -> None:
    """Write cumulative (W, W_perp) levels: path_id, t, W_1.., Wp_1.. per row.

    ``dw`` and ``dwperp`` are the (d_w, N, B) and (d_wperp, N, B)
    ``brownian_batch`` increments for ``path_ids``.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        d_w, d_wp = len(dw), len(dwperp)
        header = (["path_id", "t"] + [f"W_{i + 1}" for i in range(d_w)]
                  + [f"Wp_{j + 1}" for j in range(d_wp)])
        writer.writerow(header)
        for b, pid in enumerate(path_ids):
            w = np.hstack([np.zeros((d_w, 1)), np.cumsum(dw[:, :, b], axis=1)])
            wp = np.hstack([np.zeros((d_wp, 1)), np.cumsum(dwperp[:, :, b], axis=1)])
            for k, t in enumerate(grid.times):
                row = [pid, format(float(t), ".17g")]
                row += [format(v, ".17g") for v in w[:, k]]
                row += [format(v, ".17g") for v in wp[:, k]]
                writer.writerow(row)
