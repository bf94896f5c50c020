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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .market import MarketSpec, TimeGrid, brownian_batch, evolve_log_wealth_batch

SE_MULTIPLE = 3.0
NEGINF_WARN_FRACTION = 1e-3
DEFAULT_BATCH = 20_000
TIME_CHUNK = 16  # grid times evaluated at once; bounds the per-batch working set

VERDICT_MARTINGALE = "consistent-with-martingale"
VERDICT_SUPER_STRICT = "supermartingale-strict"
VERDICT_VIOLATION = "violation"


@dataclass(frozen=True)
class MartingaleReport:
    """Per-time ensemble means of U_t(X_t) against the reference U_0(x0)."""

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

    def margins(self) -> np.ndarray:
        """Slack of each grid time against its acceptance band (>= 0 passes)."""
        band = SE_MULTIPLE * self.se
        if self.mode == "martingale":
            return band - np.abs(self.mean - self.reference)
        return self.reference + band - self.mean

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


def _streamed_moments(fpp, state, log_x):
    """(sum U, sum U^2, -inf path count, terminal U) of one run over one batch.

    U is evaluated ``TIME_CHUNK`` grid times at a time, straight into the
    per-time sums, so no full-horizon utility array is ever held.
    """
    n_paths, n_times = log_x.shape
    s1 = np.empty(n_times)
    s2 = np.empty(n_times)
    diverged = np.zeros(n_paths, dtype=bool)
    for cols in _time_chunks(n_times):
        u = fpp.utility_paths(state, log_x[:, cols], cols)
        diverged |= np.isneginf(u).any(axis=1)
        finite = np.where(np.isfinite(u), u, 0.0)  # diverged paths counted, zeroed
        s1[cols] = finite.sum(axis=0)
        s2[cols] = (finite ** 2).sum(axis=0)
    return s1, s2, int(np.sum(diverged)), u[:, -1].copy()


def _batch_moments(fpp, sps, market, lam_path, grid, seed, path_ids, x0):
    """``_streamed_moments`` of every allocation schedule over one batch.

    The increments and the criterion state are built once and shared by all
    runs (common random numbers).
    """
    dw, dwp = brownian_batch(grid, market.d_w, market.d_wperp, seed, path_ids)
    state = fpp.state_paths(grid, dw, dwp)
    return [_streamed_moments(fpp, state,
                              evolve_log_wealth_batch(x0, sp, lam_path, grid, dw))
            for sp in sps]


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

    band = SE_MULTIPLE * se[1:]
    dev = mean[1:] - reference
    if mode == "martingale":
        ok = bool(np.all(np.abs(dev) <= band))
        verdict = VERDICT_MARTINGALE if ok else VERDICT_VIOLATION
    else:
        ok = bool(np.all(dev <= band))
        if not ok:
            verdict = VERDICT_VIOLATION
        elif dev[-1] < -band[-1]:
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


def martingale_test(fpp, runs: Sequence[tuple[np.ndarray, str]], market: MarketSpec, *,
                    grid: TimeGrid, n_paths: int, seed: int, x0: float = 1.0,
                    batch_size: int = DEFAULT_BATCH,
                    threads: int = None) -> list[MartingaleReport]:
    """Ensemble tests of E[U_t(X_t)] against U_0(x0), one report per run.

    ``runs`` is a list of ``(sp, mode)``; a single test is a list of one.
    ``sp`` is the (N, d_w) sigma*pi schedule of ``evolve_log_wealth_batch``,
    one row per grid cell, shared by all paths.  ``fpp``
    exposes ``state_paths(grid, dw, dwperp)``, ``utility_paths(state, log_x,
    cols)`` (U at log wealth ``log_x`` for the grid columns ``cols``) and
    ``u0(x)``.  All runs ride the same Brownian batches and criterion state
    (common random numbers), built once per batch.  In martingale mode the
    verdict is consistent iff every grid time stays inside the
    3-standard-error band around U_0; in supermartingale mode the mean must
    stay below U_0 plus the band everywhere, with a strict verdict when the
    terminal mean separates below by more than the band.

    Batches are combined in fixed order, so the reports are bit-identical for
    any ``threads`` setting and equal to those of one-run calls.
    """
    if not runs:
        raise ValueError("need at least one run")
    for _, mode in runs:
        if mode not in ("martingale", "supermartingale"):
            raise ValueError(f"unknown mode {mode!r}")
    if n_paths < 2:
        raise ValueError("need at least two paths")
    n_times = grid.n_steps + 1
    sps = [sp for sp, _ in runs]
    lam_path = market.sharpe_path(grid)
    batches = [range(lo, min(lo + batch_size, n_paths))
               for lo in range(0, n_paths, batch_size)]

    def work(ids):
        return _batch_moments(fpp, sps, market, lam_path, grid, seed, ids, x0)

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, batches))
    else:
        results = [work(ids) for ids in batches]

    reference = float(fpp.u0(x0))
    reports = []
    for r, (_, mode) in enumerate(runs):
        s1 = np.zeros(n_times)
        s2 = np.zeros(n_times)
        terminal_parts = []
        neg_inf = 0
        for batch in results:  # fixed order keeps reduction deterministic
            bs1, bs2, bneg, bterm = batch[r]
            s1 += bs1
            s2 += bs2
            neg_inf += bneg
            terminal_parts.append(bterm)
        reports.append(_report(mode, s1, s2, neg_inf, np.concatenate(terminal_parts),
                               reference, grid, n_paths, seed))
    return reports


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


def structure_scan(evaluate: Callable, states: Sequence, x_grid) -> StructureReport:
    """Check that x -> evaluate(state, x) is increasing and strictly concave.

    ``x_grid`` must be log-spaced with at least 8 points; divided differences
    handle the uneven spacing.  The worst margins across all states are
    reported.
    """
    x = np.asarray(x_grid, float)
    if x.size < 8:
        raise ValueError("need at least 8 grid points")
    if np.any(np.diff(x) <= 0):
        raise ValueError("x grid must be strictly increasing")
    worst_inc = np.inf
    worst_conc = -np.inf
    worst_idx = -1
    for idx, state in enumerate(states):
        u = np.asarray(evaluate(state, x), float)
        first = (u[2:] - u[:-2]) / (x[2:] - x[:-2])
        h_plus = x[2:] - x[1:-1]
        h_minus = x[1:-1] - x[:-2]
        second = 2.0 * ((u[2:] - u[1:-1]) / h_plus - (u[1:-1] - u[:-2]) / h_minus) \
            / (h_plus + h_minus)
        inc = float(np.min(first))
        conc = float(np.max(second))
        if inc < worst_inc or conc > worst_conc:
            worst_idx = idx
        worst_inc = min(worst_inc, inc)
        worst_conc = max(worst_conc, conc)
    return StructureReport(passed=bool(worst_inc > 0.0 and worst_conc < 0.0),
                           worst_increase_margin=worst_inc,
                           worst_concavity_margin=worst_conc,
                           worst_state_index=worst_idx)
