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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NoExactSolutionError, SingularMarketError, StrategyEvaluationError

PINV_RCOND = 1e-10  # singular values below rcond * s_max are treated as zero


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
        if t.ndim != 1 or t.size < 2:
            raise ValueError("time grid needs at least two points")
        if t[0] != 0.0:
            raise ValueError("time grid must start at 0")
        if not np.all(np.diff(t) > 0):
            raise ValueError("time grid must be strictly increasing")

    @classmethod
    def regular(cls, horizon: float, step: float) -> "TimeGrid":
        """Uniform grid over [0, horizon] with the closest whole number of steps."""
        if horizon <= 0 or step <= 0:
            raise ValueError("horizon and step must be positive")
        n = max(1, round(horizon / step))
        return cls(np.linspace(0.0, horizon, n + 1))

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.times)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


# ---------------------------------------------------------------------------
# Deterministic coefficient schedules
# ---------------------------------------------------------------------------

def _finite_value(value, shape: tuple[int, ...], where: str) -> np.ndarray:
    arr = np.broadcast_to(np.asarray(value, float), shape).copy()
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite value{where}")
    return arr


class Schedule:
    """Deterministic map t -> array, either constant or piecewise constant.

    Piecewise schedules are built from ``(t_i, value_i)`` breakpoints (see
    ``Schedule.piecewise``; in configuration files they appear as a list of
    ``{t: ..., value: ...}`` entries) and are left-continuous: the value at
    ``t`` is the one attached to the largest ``t_i <= t``.
    """

    def __init__(self, value, shape: tuple[int, ...]):
        self.shape = shape
        if isinstance(value, (list, tuple)) and value and isinstance(value[0], dict):
            value = [(entry["t"], entry["value"]) for entry in value]
            self._init_piecewise(value)
        else:
            self._const = _finite_value(value, shape, "")
            self._knot_times = None
            self._knot_values = None

    def _init_piecewise(self, knots):
        knots = sorted((float(t), _finite_value(v, self.shape, f" at knot t={t}"))
                       for t, v in knots)
        if not all(np.isfinite(t) for t, _ in knots):
            raise ValueError("non-finite knot time")
        if knots[0][0] > 0.0:
            raise ValueError("piecewise schedule must define a value at t = 0")
        self._knot_times = np.array([t for t, _ in knots])
        self._knot_values = [v for _, v in knots]
        self._const = None

    @classmethod
    def piecewise(cls, knots, shape: tuple[int, ...]) -> "Schedule":
        """Build from an iterable of (t, value) breakpoints."""
        sched = cls.__new__(cls)
        sched.shape = shape
        sched._init_piecewise(knots)
        return sched

    def at(self, t: float) -> np.ndarray:
        if self._const is not None:
            return self._const
        i = int(np.searchsorted(self._knot_times, t, side="right")) - 1
        return self._knot_values[max(i, 0)]


# ---------------------------------------------------------------------------
# Market specification
# ---------------------------------------------------------------------------

def solve_allocation(sigma: np.ndarray, target: np.ndarray,
                     rtol: float = 1e-8) -> np.ndarray:
    """Minimum-norm pi with sigma pi = target, via pseudoinverse.

    Raises
    ------
    NoExactSolutionError
        If the target is not in the column space of sigma; the error carries
        the range-space projection residual.
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    target = np.atleast_1d(np.asarray(target, dtype=float))
    pi = np.linalg.pinv(sigma, rcond=PINV_RCOND) @ target
    residual = float(np.linalg.norm(sigma @ pi - target))
    if residual > rtol * max(1.0, float(np.linalg.norm(target))):
        raise NoExactSolutionError(
            f"allocation target not hedgeable, projection residual {residual:.3e}",
            residual)
    return pi


def sharpe_ratio(sigma: np.ndarray, mu: np.ndarray, rcond: float = PINV_RCOND) -> np.ndarray:
    """Market price of risk ``pinv(sigma)' mu`` for a (d_w, n) volatility matrix.

    Raises
    ------
    SingularMarketError
        If sigma is column-rank deficient beyond the pseudoinverse tolerance.
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    d_w, n = sigma.shape
    if mu.shape != (n,):
        raise ValueError(f"mu has shape {mu.shape}, expected ({n},)")
    s = np.linalg.svd(sigma, compute_uv=False)
    if n > d_w or s[-1] <= rcond * s[0]:
        raise SingularMarketError(
            f"sigma is column-rank deficient (singular values {s})")
    return np.linalg.pinv(sigma, rcond=rcond).T @ mu


@dataclass
class MarketSpec:
    """Stock count, driving dimensions, and deterministic sigma/mu schedules.

    ``sigma`` accepts a scalar (1x1 market), a (d_w, n) matrix, or a list of
    ``(t, value)`` breakpoints; likewise ``mu``.  ``d_wperp = 0`` is the
    complete-market case.
    """

    n_stocks: int
    d_w: int
    d_wperp: int
    sigma: Schedule = field(repr=False)
    mu: Schedule = field(repr=False)

    def __init__(self, n_stocks, d_w, d_wperp, sigma, mu):
        if n_stocks < 1 or d_w < 1 or d_wperp < 0:
            raise ValueError("need n_stocks >= 1, d_w >= 1, d_wperp >= 0")
        self.n_stocks = int(n_stocks)
        self.d_w = int(d_w)
        self.d_wperp = int(d_wperp)
        for name, value, shape in (("sigma", sigma, (d_w, n_stocks)),
                                   ("mu", mu, (n_stocks,))):
            try:
                setattr(self, name, value if isinstance(value, Schedule)
                        else Schedule(value, shape))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from exc

    def sigma_at(self, t: float) -> np.ndarray:
        return self.sigma.at(t)

    def mu_at(self, t: float) -> np.ndarray:
        return self.mu.at(t)

    def sharpe_at(self, t: float) -> np.ndarray:
        return sharpe_ratio(self.sigma_at(t), self.mu_at(t))

    def sharpe_path(self, grid: TimeGrid) -> np.ndarray:
        """lam evaluated at the left endpoint of every grid cell, shape (N, d_w)."""
        lam = np.empty((grid.n_steps, self.d_w))
        for k in range(grid.n_steps):
            lam[k] = self.sharpe_at(float(grid.times[k]))
        return lam

    def validate_on(self, grid: TimeGrid) -> None:
        """Check rank and Sharpe boundedness at every grid time; raise on failure."""
        for t in grid.times:
            lam = self.sharpe_at(float(t))
            if not np.all(np.isfinite(lam)):
                raise SingularMarketError(f"non-finite Sharpe ratio at t={t}")


# ---------------------------------------------------------------------------
# Brownian increments (counter-based per-path streams)
# ---------------------------------------------------------------------------

def _path_state_template(seed: int):
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2 ** 64):
        raise ValueError("seed must be an integer in [0, 2^64)")
    return np.random.Philox(key=seed).state


def _normals_for_paths(grid: TimeGrid, n_cols: int, seed: int,
                       path_ids: Sequence[int]) -> np.ndarray:
    """Standard normals of shape (len(path_ids), N, n_cols), one stream per path.

    Path ``i`` occupies Philox counter block ``[0, 0, i, 0]`` under ``key=seed``,
    which pins its draws independently of batching or execution order.
    """
    n = grid.n_steps
    out = np.empty((len(path_ids), n, n_cols))
    if out.size == 0:
        return out
    template = _path_state_template(seed)
    key = template["state"]["key"]
    bg = np.random.Philox(key=seed)
    gen = np.random.Generator(bg)
    for row, pid in enumerate(path_ids):
        if not (isinstance(pid, (int, np.integer)) and 0 <= pid < 2 ** 64):
            raise ValueError("path_id must be an integer in [0, 2^64)")
        st = dict(template)
        st["state"] = {"counter": np.array([0, 0, pid, 0], dtype=np.uint64), "key": key}
        st["buffer_pos"] = 4  # discard any buffered block
        st["has_uint32"] = 0
        st["uinteger"] = 0
        bg.state = st
        out[row] = gen.standard_normal((n, n_cols))
    return out


def brownian_batch(grid: TimeGrid, d_w: int, d_wperp: int, seed: int,
                   path_ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Increment arrays (B, N, d_w) and (B, N, d_wperp) for a batch of paths.

    Row ``b`` depends only on ``(seed, path_ids[b], grid, dims)``, so a single
    path is the batch ``[path_id]`` and equals that row of any larger batch
    bit for bit.
    """
    z = _normals_for_paths(grid, d_w + d_wperp, seed, path_ids)
    z *= np.sqrt(grid.dt)[None, :, None]
    return z[:, :, :d_w], z[:, :, d_w:]


# ---------------------------------------------------------------------------
# Wealth evolution
# ---------------------------------------------------------------------------

def evolve_log_wealth_batch(x0: float, sp: np.ndarray, lam_path: np.ndarray,
                            grid: TimeGrid, dw: np.ndarray) -> np.ndarray:
    """Vectorised log-wealth paths (B, N+1) for an ensemble.

    ``sp`` is the (N, d_w) sigma*pi schedule shared by every path: row ``k``
    holds on grid cell ``k``.  ``lam_path`` is the (N, d_w) Sharpe path on
    the same grid.  A zero allocation keeps log wealth exactly at
    ``log(x0)``.

    Raises
    ------
    StrategyEvaluationError
        If the schedule is not of shape (N, d_w), naming both shapes, or if
        it holds a non-finite value, naming the first such grid time.
    """
    n_paths, n_steps, d_w = dw.shape
    sp = np.asarray(sp, dtype=float)
    if sp.shape != (n_steps, d_w):
        raise StrategyEvaluationError(
            f"allocation of shape {sp.shape}, expected ({n_steps}, {d_w})")
    bad = ~np.all(np.isfinite(sp), axis=1)
    if bad.any():
        raise StrategyEvaluationError(
            f"non-finite allocation at t={float(grid.times[np.argmax(bad)])}")
    # one drift per cell for every path; sp . lam left to right fixes the rounding
    sp_lam = sp[:, 0] * lam_path[:, 0]
    for d in range(1, d_w):
        sp_lam = sp_lam + sp[:, d] * lam_path[:, d]
    drift_dt = (sp_lam - 0.5 * np.einsum("kd,kd->k", sp, sp)) * grid.dt
    log_x = np.empty((n_paths, n_steps + 1))
    log_x[:, 0] = np.log(x0)
    for k in range(n_steps):
        noise = np.einsum("bd,bd->b", np.broadcast_to(sp[k], (n_paths, d_w)), dw[:, k])
        log_x[:, k + 1] = log_x[:, k] + drift_dt[k] + noise
    return log_x


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def write_paths_csv(path, grid: TimeGrid, dw: np.ndarray, dwperp: np.ndarray,
                    path_ids: Sequence[int]) -> None:
    """Write cumulative (W, W_perp) levels: path_id, t, W_1.., Wp_1.. per row.

    ``dw`` and ``dwperp`` are ``brownian_batch`` increments for ``path_ids``.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        d_w, d_wp = dw.shape[2], dwperp.shape[2]
        header = (["path_id", "t"] + [f"W_{i + 1}" for i in range(d_w)]
                  + [f"Wp_{j + 1}" for j in range(d_wp)])
        writer.writerow(header)
        for b, pid in enumerate(path_ids):
            w = np.vstack([np.zeros((1, d_w)), np.cumsum(dw[b], axis=0)])
            wp = np.vstack([np.zeros((1, d_wp)), np.cumsum(dwperp[b], axis=0)])
            for k, t in enumerate(grid.times):
                row = [pid, format(float(t), ".17g")]
                row += [format(v, ".17g") for v in w[k]]
                row += [format(v, ".17g") for v in wp[k]]
                writer.writerow(row)
