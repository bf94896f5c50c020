"""Monte Carlo martingale/supermartingale tests and structural scans.

A criterion promises three things: concavity and monotonicity in wealth, a
supermartingale along every admissible strategy, and a martingale along the
optimal one.  The tests here operationalise all three at sampling precision:
ensemble means are compared against the initial value with a 3-standard-error
band at every grid time, competing strategies ride identical Brownian
increments (common random numbers), and finite differences scan the wealth
direction.  A passing report is consistency at the stated tolerance, never a
proof.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .market import brownian_batch, check_finite, check_schedule, evolve_log_wealth_batch

SE_MULTIPLE = 3.0
NEGINF_WARN_FRACTION = 1e-3
X0 = 1.0  # initial wealth of every ensemble path
DEFAULT_BATCH = 20_000  # paths per batch: the unit of the reduction and the thread split
# grid times streamed at once.  TIME_CHUNK x TILE_PATHS = 65 536 cells per row of
# every chunk array, which keeps a chunk's work arrays cache-sized; the tile bounds
# the normals held per batch.  perfbench medians of wall_rel / peak RSS MB, 2-core
# x86-64 host, 4096 x 16 -> 2048 x 32: mix3-verify 2.65 / 78.4 -> 2.65 / 62.8,
# three-power-signed 1.63 / 53.7 -> 1.63 / 49.0.  Slower than 2048 x 32: 1024 x 64
# (mix3-verify +1.8%, peak 55.1 MB), 1024 x 32 (three-power-signed +6%), 2048 x 16
# and 1024 x 16 (mix3-verify +15% and +25%), 512 x 128 (mix3-verify +6%).
TIME_CHUNK = 32
# paths of a batch drawn and evaluated at once
TILE_PATHS = 2048

VERDICT_MARTINGALE = "consistent-with-martingale"
VERDICT_SUPER_STRICT = "supermartingale-strict"
VERDICT_VIOLATION = "violation"


def _margins(mode, mean, se, reference):
    """Slack of each grid time against its acceptance band: the one acceptance
    rule, which decides the verdict and fills the CSV ``margin`` column."""
    band = SE_MULTIPLE * se
    if mode == "martingale":
        return band - np.abs(mean - reference)
    return reference + band - mean


@dataclass(frozen=True)
class MartingaleReport:
    """Per-time ensemble means of U_t(X_t) against the reference U_0(X0)."""

    t_grid: np.ndarray
    mean: np.ndarray
    se: np.ndarray
    reference: float
    verdict: str
    mode: str
    n_paths: int
    seed: int
    kurtosis_terminal: float
    warnings: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        """Whether the run's check holds: every verdict but a violation passes."""
        return self.verdict != VERDICT_VIOLATION

    def margins(self) -> np.ndarray:
        """Slack of each grid time against its acceptance band (>= 0 passes)."""
        return _margins(self.mode, self.mean, self.se, self.reference)

    def to_text(self) -> str:
        margins = self.margins()
        k = 1 + int(np.argmin(margins[1:]))
        lines = [f"{self.mode} test: verdict={self.verdict} "
                 f"(n_paths={self.n_paths}, seed={self.seed})",
                 f"  reference U0 = {self.reference:.9g}",
                 f"  terminal mean = {self.mean[-1]:.9g} +- {self.se[-1]:.3g}",
                 f"  worst margin = {margins[k]:.3g} at t = {self.t_grid[k]:.6g}",
                 f"  terminal kurtosis = {self.kurtosis_terminal:.3g}"]
        lines += [f"  warning: {w}" for w in self.warnings]
        return "\n".join(lines)


def _time_chunks(n_times: int) -> list[slice]:
    """Column slices of ``TIME_CHUNK`` grid times, the last one never of width one.

    numpy sums a one-column block over paths pairwise but a wider block row
    by row, so a lone last column would round differently from the
    full-horizon sum; it joins the chunk before it instead.
    """
    starts = list(range(0, n_times, TIME_CHUNK))
    if len(starts) > 1 and n_times - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n_times])]


def _reduce_rows(sums: np.ndarray, rows: np.ndarray) -> None:
    """Add the rows of ``rows[1:]``, one path at a time, onto the per-time ``sums``.

    ``rows`` is a C-ordered (n + 1, w) buffer, ``w >= 2``, whose rows
    ``1..n`` hold one tile's values, one path per row; numpy sums it over
    axis 0 row by row.  The running ``sums``, zero before the batch's first
    tile, go in row 0, so the batch's sum continues in path order, as if all
    of its paths were one array.  Starting from +0 changes only the sign of
    a sum that is zero throughout, which ``martingale_test``'s merge of the
    batches (``0 + s``) drops anyway.
    """
    rows[0] = sums
    sums[...] = rows.sum(axis=0)


@contextmanager
def _row_buffer(n_paths):
    """numpy's ufunc buffer at most one row of ``n_paths``, for the block.

    With a row shorter than the default buffer, numpy packs several rows into
    one buffer and copies a broadcast (w, 1) operand into it; with one row
    per buffer it reads the column in place.  Elementwise results, and the
    tile's reductions over the leading axis, round the same for any size.
    The size is a multiple of 16 of at least 16, as numpy 1.x requires.
    numpy >= 2 keeps it to the ``errstate`` block and the thread; numpy 1.x
    does not, hence the reset.
    """
    with np.errstate():
        size = np.setbufsize(max(16, n_paths - n_paths % 16))
        try:
            yield
        finally:
            np.setbufsize(size)


def _batch_moments(fpp, sps, seed, path_ids):
    """(sum U, sum U^2, -inf path count, terminal U) over one batch, one row per schedule.

    The batch runs ``TILE_PATHS`` paths at a time.  Each tile's increments
    are drawn into one buffer, reused for every tile, and shared by all runs
    (common random numbers).  A tile is one pass over the grid,
    ``TIME_CHUNK`` columns at a time: per chunk the (rows, w, B) state goes on
    from ``state[:, -1]``, each run's (w, B) log wealth from its ``log_x[-1]``,
    and U goes straight into the per-time sums, so no full-horizon wealth,
    state or utility array, and no batch-wide increments, are ever held.
    U comes in the engine's (w, B) layout; the terminal values and -inf
    flags are read from it, and its transpose, zeroed where non-finite, is
    the one path-major copy: rows ``1..n`` of the reused buffer, which
    ``_reduce_rows`` sums one path at a time in order across tiles, so the
    sums are those of the whole batch at once.  The flags and the zeroing
    run only for a chunk whose U holds a non-finite value.  A run's log
    wealth and U (a view of its term rows) are dropped once reduced, before
    the next run's are made.  Each tile runs under ``_row_buffer``.
    """
    grid, market = fpp.grid, fpp.market
    n_times = grid.n_steps + 1
    chunks = _time_chunks(n_times)
    tile = min(TILE_PATHS, len(path_ids))
    width = max(cols.stop - cols.start for cols in chunks)
    n_cols = market.d_w + market.d_wperp
    normals = np.empty(n_cols * grid.n_steps * tile)  # reused by every tile
    rows = np.empty((tile + 1) * width)  # reused by every chunk's reduction
    s1 = np.zeros((len(sps), n_times))
    s2 = np.zeros((len(sps), n_times))
    diverged = np.zeros((len(sps), len(path_ids)), dtype=bool)
    terminal = np.empty((len(sps), len(path_ids)))
    for lo in range(0, len(path_ids), tile):
        ids = path_ids[lo:lo + tile]
        paths = slice(lo, lo + len(ids))
        with _row_buffer(len(ids)):  # the tile's draws, chunks and reduction
            dw, dwp = brownian_batch(grid, market.d_w, market.d_wperp, seed, ids,
                                     out=normals[:n_cols * grid.n_steps * len(ids)]
                                     .reshape(n_cols, grid.n_steps, len(ids)))
            last = [None] * len(sps)  # each run's log wealth at the last column done
            carry = None  # the criterion state at the last column done
            for cols in chunks:
                state = fpp.state_paths(dw, dwp, cols, carry)
                carry = state[:, -1]  # a view; a copy among the chunk arrays raised peak RSS
                w = cols.stop - cols.start
                buf = rows[:(len(ids) + 1) * w].reshape(len(ids) + 1, w)
                for r, sp in enumerate(sps):
                    log_x = evolve_log_wealth_batch(X0, sp, fpp.lam_path, grid, dw, cols,
                                                    last[r])
                    last[r] = log_x[-1].copy()
                    u = fpp.utility_paths(state, log_x, cols)
                    terminal[r, paths] = u[-1]
                    finite = buf[1:]
                    finite[...] = u.T  # the one path-major copy of U
                    if not np.isfinite(u).all():  # diverged paths counted, zeroed
                        diverged[r, paths] |= np.isneginf(u).any(axis=0)
                        finite[~np.isfinite(finite)] = 0.0
                    _reduce_rows(s1[r, cols], buf)
                    np.square(finite, out=finite)
                    _reduce_rows(s2[r, cols], buf)
                    del u, log_x  # U holds its term rows: free both before the next run
    return s1, s2, np.sum(diverged, axis=1), terminal


def _report(mode, s1, s2, neg_inf, terminal, reference, grid, n_paths, seed):
    mean = s1 / n_paths
    var = np.maximum(s2 / n_paths - mean ** 2, 0.0) * n_paths / (n_paths - 1)
    se = np.sqrt(var / n_paths)
    t_fin = terminal[np.isfinite(terminal)]
    if t_fin.size > 3 and np.std(t_fin) > 0:
        zc = (t_fin - t_fin.mean()) / t_fin.std()
        kurt = float(np.mean(zc ** 4))
    else:
        kurt = float("nan")

    if not np.all(_margins(mode, mean, se, reference)[1:] >= 0.0):  # NaN fails
        verdict = VERDICT_VIOLATION
    elif mode == "supermartingale" and mean[-1] - reference < -SE_MULTIPLE * se[-1]:
        verdict = VERDICT_SUPER_STRICT
    else:
        verdict = VERDICT_MARTINGALE
    warnings = ()
    if neg_inf > NEGINF_WARN_FRACTION * n_paths:
        warnings = (f"degenerate utility: {neg_inf} of {n_paths} paths hit -inf",)
    return MartingaleReport(t_grid=grid.times.copy(), mean=mean, se=se,
                            reference=reference, verdict=verdict, mode=mode,
                            n_paths=n_paths, seed=seed, kurtosis_terminal=kurt,
                            warnings=warnings)


def martingale_test(fpp, runs: Sequence[tuple[np.ndarray, str]], *,
                    n_paths: int, seed: int,
                    threads: int = None) -> list[MartingaleReport]:
    """Ensemble tests of E[U_t(X_t)] against U_0(X0), one report per run.

    ``runs`` is a list of ``(sp, mode)``; a single test is a list of one.
    ``sp`` is the (N, d_w) sigma*pi schedule of ``evolve_log_wealth_batch``,
    one row per grid cell, shared by all paths.  ``fpp`` is a criterion
    bound to its grid: it exposes ``grid``, ``market`` (for the Brownian
    dimensions), ``lam_path`` (the (N, d_w) Sharpe path), ``u0(x)``,
    ``state_paths(dw, dwperp, cols, carry)`` (the state at the grid columns
    ``cols``, one (rows, len(cols), B) array, continuing from ``carry``, the
    previous chunk's ``state[:, -1]``, or None for the first chunk) and
    ``utility_paths(state, log_x, cols)`` (U at the (len(cols), B) log
    wealth ``log_x``, in its layout).  Each schedule is checked here, before
    any path is drawn, and again by every ``evolve_log_wealth_batch`` call.
    All runs ride the same Brownian batches and criterion state (common
    random numbers).  Every path starts at wealth ``X0``.  Paths are split
    into batches of ``DEFAULT_BATCH``, the unit of the reduction and of the
    thread split, and a batch runs ``TILE_PATHS`` paths at a time.  A tile
    is one pass over the grid in ``TIME_CHUNK`` columns: the state and every
    run's log wealth continue chunk by chunk from their carried last column,
    and are evaluated into the per-time sums, so a batch holds one tile's
    increments and one chunk's tile-sized work arrays at a time, whatever
    the batch size.  In martingale mode the verdict is consistent iff every
    grid time stays inside the 3-standard-error band around U_0; in
    supermartingale mode the mean must stay below U_0 plus the band
    everywhere, with a strict verdict when the terminal mean separates below
    by more than the band.

    Batches are combined in fixed order, and a batch's sums run over its
    paths in order across tiles, so the reports are bit-identical for any
    ``threads`` setting and any ``TILE_PATHS``, and equal to those of one-run
    calls.
    """
    if not runs:
        raise ValueError("need at least one run")
    for _, mode in runs:
        if mode not in ("martingale", "supermartingale"):
            raise ValueError(f"unknown mode {mode!r}")
    if n_paths < 2:
        raise ValueError("need at least two paths")
    grid = fpp.grid
    sps = [check_schedule(sp, grid, fpp.market.d_w) for sp, _ in runs]
    batches = [range(lo, min(lo + DEFAULT_BATCH, n_paths))
               for lo in range(0, n_paths, DEFAULT_BATCH)]

    def work(ids):
        return _batch_moments(fpp, sps, seed, ids)

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, batches))
    else:
        results = [work(ids) for ids in batches]

    # batch order fixes the bits; sum() starts from 0, and 0 + a has zeros + a's bits
    s1, s2, neg_inf = (sum(batch[i] for batch in results) for i in range(3))
    terminal = np.concatenate([batch[3] for batch in results], axis=1)
    reference = float(fpp.u0(X0))
    return [_report(mode, s1[r], s2[r], neg_inf[r], terminal[r], reference, grid,
                    n_paths, seed) for r, (_, mode) in enumerate(runs)]


# ---------------------------------------------------------------------------
# Structural scan in the wealth direction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureReport:
    passed: bool
    worst_increase_margin: float   # min first divided difference (> 0 required)
    worst_concavity_margin: float  # max second divided difference (< 0 required)
    worst_state_index: int

    def to_text(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"structure scan: {status} "
                f"(min dU = {self.worst_increase_margin:.3e}, "
                f"max d2U = {self.worst_concavity_margin:.3e}, "
                f"worst state {self.worst_state_index})")


def structure_scan(values, x_grid) -> StructureReport:
    """Check that every state's criterion is increasing and strictly concave in x.

    ``values`` is an (n_states, len(x_grid)) array: row s holds one state's
    criterion at the wealth points ``x_grid``, which must be log-spaced with
    at least 8 points; divided differences along each row handle the uneven
    spacing.  The worst margins across all states are reported, with the
    last state to set a new running worst in state order.  A non-finite
    divided difference (a NaN or infinite value) fails the scan at the first
    state that has one, with its margins.
    """
    x = np.asarray(x_grid, float)
    if x.size < 8:
        raise ValueError("need at least 8 grid points")
    check_finite(x_grid=x)
    if not np.all(np.diff(x) > 0):
        raise ValueError("x grid must be strictly increasing")
    u = np.asarray(values, float)
    if u.ndim != 2 or u.shape[0] < 1 or u.shape[1] != x.size:
        raise ValueError(f"values must be (n_states >= 1, {x.size}), got {u.shape}")
    h_plus = x[2:] - x[1:-1]
    h_minus = x[1:-1] - x[:-2]
    with np.errstate(invalid="ignore", over="ignore"):  # NaN or inf: fails the check below
        first = (u[:, 2:] - u[:, :-2]) / (x[2:] - x[:-2])
        second = 2.0 * ((u[:, 2:] - u[:, 1:-1]) / h_plus
                        - (u[:, 1:-1] - u[:, :-2]) / h_minus) / (h_plus + h_minus)
    inc = np.min(first, axis=1)
    conc = np.max(second, axis=1)
    finite = np.all(np.isfinite(first), axis=1) & np.all(np.isfinite(second), axis=1)
    if not finite.all():
        idx = int(np.argmin(finite))
        return StructureReport(passed=False, worst_increase_margin=float(inc[idx]),
                               worst_concavity_margin=float(conc[idx]), worst_state_index=idx)
    worst_inc, worst_conc = float(np.min(inc)), float(np.max(conc))
    # scanned in state order, a running worst is last set where its value first occurs
    return StructureReport(passed=worst_inc > 0.0 and worst_conc < 0.0,
                           worst_increase_margin=worst_inc,
                           worst_concavity_margin=worst_conc,
                           worst_state_index=max(int(np.argmin(inc)), int(np.argmax(conc))))
