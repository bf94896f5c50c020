"""Pooled investment of two power investors sharing one market view.

Setting
-------
One stock, geometric Brownian motion, constant Sharpe ratio ``lam``.  The two
investors hold time-monotone power criteria with powers ``p < q`` in (0, 1):

    U1_t(x) = A0 x^p exp(alpha t),   U2_t(x) = D0 x^q exp(delta t),

``alpha = -p lam^2 / (2(1-p))`` and ``delta = -q lam^2 / (2(1-q))``.  The
pooled strategy class fixes the risky mix and only scales it:
``sigma pi = lam / (1 - z)`` with ``z`` in (0, 1) (z = p and z = q recover the
two individual optimisers).  For constant z the expected joint utility has a
closed form,

    E[U_t] = A0 X0^p exp(-p (z-p)^2 lam^2 t / (2(1-p)(1-z)^2))
           + D0 X0^q exp(-q (z-q)^2 lam^2 t / (2(1-q)(1-z)^2)),

which this module evaluates, optimises over z (grid scan plus golden-section
refinement, reporting every interior local maximum), and cross-checks by
simulation.  Three rebalanced strategies are compared on common random
numbers: the best constant z, the wealth-feedback joint optimiser, and a
one-period greedy rule that re-optimises the closed form each period with
the current per-investor utility levels as weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from itertools import combinations
from typing import Callable

import numpy as np

from . import two_power
from .market import MAX_STEPS, TimeGrid, brownian_batch, evolve_log_wealth_batch

Z_EDGE = 1e-3       # scan clip: the objective has a pole at z = 1
Z_SCAN_STEP = 1e-3
Z_REFINE_TOL = 1e-6
Z_TIE_TOL = 1e-12   # maxima closer than this in value tie-break to smaller z
# Doubles in one row block of the greedy score scan: 64k x 8 B = 512 KB, small
# enough to stay in a core's L2 cache between the multiply, the add and the
# argmax that each pass over it.  On a 2-core x86-64 host (2 MB L2 per core)
# budgets of 8k-1M elements scanned fig3's window within 30% of each other,
# and all about 6x faster than the unblocked (20k rows x 203) 32 MB matrix.
SCAN_BLOCK_ELEMS = 1 << 16
# the z scan grid of both optimisers: (Z_EDGE, 1 - Z_EDGE) in steps of Z_SCAN_STEP
Z_GRID = np.linspace(Z_EDGE, 1.0 - Z_EDGE,
                     int(round((1.0 - 2.0 * Z_EDGE) / Z_SCAN_STEP)) + 1)
Z_GRID.flags.writeable = False

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-safe 1 / (1 + exp(-x))."""
    x = np.asarray(x, float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@dataclass(frozen=True)
class PoolSpec:
    """Two-investor pooling problem on a one-stock complete market."""

    p: float
    q: float
    a0: float
    d0: float
    lam: float
    x0: float
    horizon: float
    rebalance_dt: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if not (0.0 < self.p < self.q < 1.0):
            raise ValueError(f"need 0 < p < q < 1, got p={self.p}, q={self.q}")
        for name in ("a0", "d0", "x0", "horizon", "rebalance_dt"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        n = self.horizon / self.rebalance_dt
        if not 0.5 <= n <= MAX_STEPS:
            raise ValueError(f"horizon / rebalance_dt must be between 1 and "
                             f"{MAX_STEPS} periods")
        if abs(n - round(n)) > 1e-9:
            raise ValueError("horizon must be a whole number of rebalance periods")
        if not math.isfinite(self.lam * self.lam * self.horizon):
            raise ValueError(f"lam: lam^2 horizon must be finite, got lam = "
                             f"{self.lam:g} at horizon = {self.horizon:g}")

    @property
    def n_periods(self) -> int:
        return round(self.horizon / self.rebalance_dt)

    def drifts(self) -> tuple[float, float]:
        """Time-monotone decay rates (alpha, delta) of the two investors."""
        return two_power.coefficient_drifts(self.p, self.q, [self.lam], [0.0], [0.0])

    def weights(self) -> tuple[float, float]:
        """The investors' utilities at x0 and time 0: (a0 x0^p, d0 x0^q)."""
        return self.a0 * self.x0 ** self.p, self.d0 * self.x0 ** self.q

    def utility(self, t: float, log_x: np.ndarray) -> np.ndarray:
        """Pooled utility U1_t(x) + U2_t(x) = A0 e^{alpha t} x^p + D0 e^{delta t} x^q."""
        alpha, delta = self.drifts()
        return (self.a0 * np.exp(alpha * t + self.p * log_x)
                + self.d0 * np.exp(delta * t + self.q * log_x))


# the four bundled parameter sets behind the shipped surfaces/comparisons
POOL_PRESETS: dict[str, PoolSpec] = {
    "fig1": PoolSpec(p=0.1, q=0.3, a0=1.0, d0=1.0, lam=1.0, x0=1.0, horizon=30.0),
    "fig2": PoolSpec(p=0.1, q=0.3, a0=1.0, d0=1.0, lam=0.5, x0=1.0, horizon=30.0),
    "fig3": PoolSpec(p=0.1, q=0.3, a0=1.0, d0=1.0, lam=4.0, x0=1.0, horizon=30.0),
    "fig4": PoolSpec(p=0.1, q=0.6, a0=1.0, d0=1.0, lam=1.0, x0=1.0, horizon=30.0),
}


def preset(name: str, **overrides) -> PoolSpec:
    try:
        spec = POOL_PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown pool preset {name!r}; "
                       f"choose from {sorted(POOL_PRESETS)}") from None
    return replace(spec, **overrides) if overrides else spec


# ---------------------------------------------------------------------------
# Closed form and optimisers
# ---------------------------------------------------------------------------

def _objective_terms(z, p, q, lam2t):
    """The two factors e^{-p(z-p)^2 s / (2(1-p)(1-z)^2)} and e^{...q...}, s = lam^2 t."""
    z = np.asarray(z, float)
    ea = np.exp(-p * (z - p) ** 2 * lam2t / (2.0 * (1.0 - p) * (1.0 - z) ** 2))
    ed = np.exp(-q * (z - q) ** 2 * lam2t / (2.0 * (1.0 - q) * (1.0 - z) ** 2))
    return ea, ed


def _weighted_objective(z, wa, wd, p, q, lam2t):
    """wa ea(z) + wd ed(z) with the ``_objective_terms``.

    Broadcasts over z and over the weights, so one call can score a z-grid
    for a whole batch of weight pairs.
    """
    ea, ed = _objective_terms(z, p, q, lam2t)
    return wa * ea + wd * ed


def _lam2t(spec: PoolSpec, t, lead: str = "lam^2 t must be finite, got t"):
    """``lam^2 t`` for a horizon ``t`` (a number or an array of them).

    Raises ValueError, led by ``lead`` (which names the argument), unless
    every entry is finite: past float range the closed form scores NaN.
    """
    with np.errstate(over="ignore"):
        lam2t = spec.lam ** 2 * t
    if not np.all(np.isfinite(lam2t)):
        raise ValueError(f"{lead} = {np.max(t):g} at lam = {spec.lam:g}")
    return lam2t


def constant_z_expected_utility(z: float, t: float, spec: PoolSpec) -> float:
    """Expected joint utility of holding sigma*pi = lam/(1-z) up to time t."""
    if not (0.0 < z < 1.0):
        raise ValueError(f"z must lie strictly inside (0, 1), got {z}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    wa, wd = spec.weights()
    return float(_weighted_objective(z, wa, wd, spec.p, spec.q, _lam2t(spec, t)))


def _golden_max(f: Callable, a: float, b: float, tol: float) -> float:
    """Golden-section maximiser of a unimodal f on [a, b] to width tol."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _scan_local_maxima(f: Callable) -> list[tuple[float, float]]:
    """All interior local maxima of f on ``Z_GRID``, each golden-refined.

    Detection is by sign change of the discrete first difference on the scan
    grid; each bracket is then refined to width ``Z_REFINE_TOL``.  Degenerate
    objectives without an interior sign change (flat or monotone) fall back
    to the grid argmax so a deterministic maximiser always exists.
    """
    zs, vals = Z_GRID, f(Z_GRID)
    s = np.sign(np.diff(vals))
    peaks = [i for i in range(1, len(s)) if s[i - 1] > 0 and s[i] <= 0]
    maxima = []
    for i in peaks or [int(np.argmax(vals))]:
        if 0 < i < zs.size - 1:
            z = _golden_max(f, zs[i - 1], zs[i + 1], Z_REFINE_TOL)
        else:  # a grid-edge argmax has no bracket to refine
            z = float(zs[i])
        maxima.append((float(z), float(f(z))))
    return maxima


@dataclass(frozen=True)
class OptimizeResult:
    z_star: float
    value: float
    local_maxima: tuple[tuple[float, float], ...]  # sorted by value, best first


def _pick_global(maxima: list[tuple[float, float]]) -> OptimizeResult:
    if not maxima:
        raise ValueError("no interior local maximum found")
    ordered = sorted(maxima, key=lambda zv: (-zv[1], zv[0]))
    best_val = ordered[0][1]
    # near-ties resolve to the smaller z (the more risk-averse compromise)
    contenders = [zv for zv in ordered if best_val - zv[1] < Z_TIE_TOL]
    z_star, value = min(contenders, key=lambda zv: zv[0])
    return OptimizeResult(z_star=z_star, value=value, local_maxima=tuple(ordered))


def optimize_constant_z(spec: PoolSpec, t: float) -> OptimizeResult:
    """Best constant proportion at horizon t, with every local maximum found.

    The result depends on the spec and ``t`` only through ``p``, ``q``, the
    weight ratio ``d0 x0^q / (a0 x0^p)`` and ``lam^2 t``; for example fig2
    (lam = 0.5) at t = 30 gives the same z* as fig1 (lam = 1) at t = 7.5.
    For equal weights the small-horizon maximiser is ``(p^2+q^2)/(p+q)``.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    wa, wd = spec.weights()
    lam2t = _lam2t(spec, t)

    def f(z):
        return _weighted_objective(z, wa, wd, spec.p, spec.q, lam2t)

    return _pick_global(_scan_local_maxima(f))


def one_period_greedy(a_eff: float, d_eff: float, x: float, spec: PoolSpec,
                      dt: float = None) -> float:
    """Proportion maximising the next period's conditional expected utility.

    ``a_eff`` and ``d_eff`` are the investors' current multiplicative utility
    factors (A0 e^{alpha t} and D0 e^{delta t}); together with current wealth
    they weight the same closed form as the constant-z objective, applied
    over one period of length ``dt``.  This is the rule ``compare_strategies``
    applies per path, run on a batch of one.
    """
    dt = spec.rebalance_dt if dt is None else dt
    for name, value in (("a_eff", a_eff), ("d_eff", d_eff), ("x", x), ("dt", dt)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    lam2dt = _lam2t(spec, dt, "dt must keep lam^2 dt finite, got dt")
    log_ratio = math.log(d_eff) - math.log(a_eff) + (spec.q - spec.p) * math.log(x)
    return float(_greedy_z_batch(np.array([log_ratio]), spec.p, spec.q, lam2dt)[0])


def _first_argmax(r: np.ndarray, ea: np.ndarray, ed: np.ndarray) -> np.ndarray:
    """Each row's first argmax of ``ea + r[i] ed``, scanned in row blocks.

    The ``(len(r), len(ea))`` score matrix is never built: rows are scored
    ``SCAN_BLOCK_ELEMS // len(ea)`` at a time into one reused buffer.
    """
    n_rows, width = r.size, ea.size
    rows = max(SCAN_BLOCK_ELEMS // width, 1)
    buf = np.empty((min(rows, n_rows), width))
    idx = np.empty(n_rows, dtype=np.intp)
    for start in range(0, n_rows, rows):
        stop = min(start + rows, n_rows)
        blk = buf[:stop - start]
        np.multiply(r[start:stop, None], ed, out=blk)
        blk += ea
        np.argmax(blk, axis=1, out=idx[start:stop])
    return idx


def _reached(node: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``node`` (all in [0, size)) in ascending order,
    and each entry's position among them."""
    seen = np.zeros(size, dtype=bool)
    seen[node] = True
    rank = np.cumsum(seen)
    rank -= 1
    return np.flatnonzero(seen), rank[node]


def _greedy_z_batch(log_ratio: np.ndarray, p: float, q: float,
                    lam2dt: float) -> np.ndarray:
    """Vectorised greedy z for a batch of weight ratios log(wd/wa).

    The objective only depends on the weights through their ratio, so paths
    are scanned jointly on the shared z-grid and then refined by a
    fixed-length golden-section loop on a shared tree of brackets.

    Only a grid window around ``[p, q]`` is scanned: ``ea`` peaks at ``p``
    and ``ed`` at ``q``, both rise below ``p`` and fall above ``q``.  Rounding
    can break that monotonicity where the factors are flat to the last bit
    (a tiny ``lam2dt``), so the window is widened until the computed ``ea``
    and ``ed`` columns are non-decreasing left of it and non-increasing right
    of it.  Rounding is monotone, so ``ea + r ed`` then is too, for every
    ratio ``r``, and no grid point outside the window beats its edge.  The
    window values are the full-grid columns themselves, so the window argmax
    is bit for bit the full-grid one.  A row whose window argmax falls on a
    window edge that is not a grid edge (a tie with the points beyond it) is
    scanned again on the full grid, which keeps the full scan's first-maximum
    choice.

    Both scans go through ``_first_argmax``, which scores the rows in blocks
    of about ``SCAN_BLOCK_ELEMS`` doubles instead of building the whole
    (batch, window) score matrix.  The bits cannot change: each score is the
    same IEEE product ``r ed`` plus ``ea`` (addition is commutative, so
    ``r ed + ea == ea + r ed`` exactly), a row's argmax reads only that row,
    and ``np.argmax`` still takes the first maximum.

    The refinement starts each row on the bracket ``[z_{i-1}, z_{i+1}]``
    around its grid argmax ``i`` and takes ``n_iter`` golden-section steps:
    score ``ea + r ed`` at the bracket's two inner points ``c < d``, keep
    ``[a, d]`` when ``f(c) >= f(d)`` and ``[c, b]`` otherwise (also when a
    score is NaN).  A bracket, its inner points and their factors ``ea`` and
    ``ed`` depend only on the bracket, never on ``r``, and rows share
    brackets: every row starts on one of at most ``Z_GRID.size`` (all on one
    at the first period of a comparison), and rows with close ratios walk
    the same brackets down for many steps.  So the brackets alive at a step
    are kept once each in a table, sorted and compacted to the ones some row
    reached: each row holds the index of its bracket, the factors are
    computed once per bracket, and each row only gathers them to form its
    own two scores.  The left child of bracket ``t`` is ``2t`` and the right
    one ``2t + 1``.  Every value is the same elementwise IEEE expression of
    the same operands as in a per-row loop, so each row gets that loop's
    bits (``full_grid_greedy_z`` in the tests is that loop).
    """
    r = np.exp(log_ratio)
    zs, n = Z_GRID, Z_GRID.size
    ea, ed = _objective_terms(zs, p, q, lam2dt)
    dea, ded = np.diff(ea), np.diff(ed)
    w0 = max(int(np.searchsorted(zs, p)) - 1, 0)
    w1 = min(int(np.searchsorted(zs, q)) + 1, n - 1)
    not_rising = np.flatnonzero(~((dea >= 0) & (ded >= 0))[:w0])
    if not_rising.size:
        w0 = int(not_rising[0])
    not_falling = np.flatnonzero(~((dea <= 0) & (ded <= 0))[w1:])
    if not_falling.size:
        w1 += int(not_falling[-1]) + 1
    idx = w0 + _first_argmax(r, ea[w0:w1 + 1], ed[w0:w1 + 1])
    edge = ((idx == w0) & (w0 > 0)) | ((idx == w1) & (w1 < n - 1))
    if edge.any():
        idx[edge] = _first_argmax(r[edge], ea, ed)
    n_iter = int(math.ceil(math.log(Z_REFINE_TOL / (2 * Z_SCAN_STEP))
                           / math.log(_INVPHI)))
    # A table can hold a bracket per row (at the second period of a
    # comparison it nearly does), so each array is dropped as soon as it is
    # dead: idx here, the factors after each point, and each of a step's
    # table arrays as soon as the next table no longer needs it.  That keeps
    # the heap peak below the per-row loop's, and the RSS at its level
    # (dropping the step's arrays only at its end, or building the children
    # with np.where, left the pool-greedy peak 0.2 MB higher).
    kids, node = _reached(idx, n)  # the root brackets: the distinct grid argmaxes
    del idx
    a = zs[np.maximum(kids - 1, 0)]
    b = zs[np.minimum(kids + 1, n - 1)]
    fc, fd = np.empty(r.size), np.empty(r.size)
    for _ in range(n_iter):
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        for z, f in ((c, fc), (d, fd)):
            ea, ed = _objective_terms(z, p, q, lam2dt)
            np.take(ed, node, out=f)
            f *= r
            f += ea[node]
            del ea, ed
        node *= 2
        node += ~(fc >= fd)
        kids, node = _reached(node, 2 * a.size)
        parent, right = kids >> 1, (kids & 1).astype(bool)
        del kids
        # the left child keeps [a, d], the right one [c, b]
        a = a[parent]
        np.copyto(a, c[parent], where=right)
        del c
        hi = d[parent]
        del d
        np.copyto(hi, b[parent], where=right)
        b = hi
        del parent, right, hi
    return (0.5 * (a + b))[node]


# ---------------------------------------------------------------------------
# Surfaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UtilitySurface:
    z_grid: np.ndarray
    t_grid: np.ndarray
    values: np.ndarray  # (len(t_grid), len(z_grid))


def utility_surface(spec: PoolSpec, z_grid, t_grid) -> UtilitySurface:
    """Closed-form expected joint utility on a (t, z) grid."""
    z = np.asarray(z_grid, float)
    t = np.asarray(t_grid, float)
    if z.size == 0 or t.size == 0:
        raise ValueError("grids must be non-empty")
    if np.any((z <= 0.0) | (z >= 1.0)):
        raise ValueError("z grid must lie strictly inside (0, 1)")
    if np.any(t < 0.0):
        raise ValueError("t grid must be nonnegative")
    wa, wd = spec.weights()
    lam2t = _lam2t(spec, t)[:, None]
    vals = _weighted_objective(z[None, :], wa, wd, spec.p, spec.q, lam2t)
    return UtilitySurface(z_grid=z, t_grid=t, values=vals)


# ---------------------------------------------------------------------------
# Simulation: oracle for the closed form, and the strategy comparison
# ---------------------------------------------------------------------------

def simulated_expected_utility(spec: PoolSpec, z: float, t: float, n_paths: int,
                               seed: int, n_steps: int = 4) -> tuple[float, float]:
    """Monte Carlo estimate (mean, standard error) of E[U_t] under constant z.

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
    log_x = evolve_log_wealth_batch(spec.x0, sp, lam_path, grid, dw)[:, -1]
    u = spec.utility(t, log_x)
    return float(np.mean(u)), float(np.std(u, ddof=1) / np.sqrt(n_paths))


def _path_order_sum(x: np.ndarray, scratch: np.ndarray) -> np.float64:
    """``x`` summed one path at a time, in path order, through ``scratch``.

    This is the order in which numpy sums a column of a C-ordered
    ``(B, w >= 2)`` array over axis 0, row by row; a lone ``(B,)`` vector it
    sums pairwise.
    """
    return np.add.accumulate(x, out=scratch)[-1]


@dataclass(frozen=True)
class StrategyStats:
    mean_utility: np.ndarray     # (K+1,) ensemble mean of U_t(X_t)
    se_utility: np.ndarray       # (K+1,)
    mean_allocation: np.ndarray  # (K,) ensemble mean of z applied per period


@dataclass(frozen=True)
class ComparisonResult:
    """Three strategies on identical Brownian ensembles (common random numbers)."""

    t_grid: np.ndarray
    z_star: float
    strategies: dict[str, StrategyStats]
    n_paths: int
    seed: int
    terminal_paired_se: dict[frozenset[str], float]  # one entry per pair of strategies

    def paired_se(self, name_a: str, name_b: str) -> float:
        """Standard error of the paired difference of terminal utilities, either order."""
        return self.terminal_paired_se[frozenset((name_a, name_b))]


def compare_strategies(spec: PoolSpec, n_paths: int, seed: int) -> ComparisonResult:
    """Run constant-z*, the wealth-feedback optimiser, and the greedy rule.

    All three are rebalanced on the same period grid and driven by the same
    per-path increments, in lockstep: each keeps only its ``(B,)`` log
    wealth, and each period's utilities and allocations are reduced as they
    are made.  Utility is the pooled U1 + U2 with the time-monotone
    coefficient decay; allocations are recorded as the proportion z solving
    sigma*pi = lam/(1-z).

    Every statistic has the bits of the same reduction of the strategy's
    whole-horizon arrays, ``(B, K+1)`` utilities and ``(B, K)``
    allocations: numpy's ``.mean(axis=0)`` and ``.std(axis=0, ddof=1)`` of
    such an array sum each column row by row, in path order, which
    ``_path_order_sum`` repeats on one period's ``(B,)`` vector (``std`` is
    the root of the summed squared deviations from that mean over
    ``B - 1``).  numpy sums a one-wide array pairwise instead, so at K = 1
    the allocation means are ``z.mean()``.  The paired standard errors are
    ``np.std`` of the differences of the terminal utilities.
    """
    if n_paths < 2:
        raise ValueError("need at least two paths")
    n_per = spec.n_periods
    grid = TimeGrid.regular(spec.horizon, spec.rebalance_dt)
    dw, _ = brownian_batch(grid, 1, 0, seed, range(n_paths))
    dwk = dw[:, :, 0]
    alpha, delta = spec.drifts()
    lam = spec.lam
    p, q = spec.p, spec.q
    dt = spec.rebalance_dt
    z_star = optimize_constant_z(spec, spec.horizon).z_star
    log_wr0 = math.log(spec.d0 / spec.a0)
    root_n = np.sqrt(n_paths)

    def constant_rule(k, t, log_x):
        return np.full(log_x.shape, z_star)

    def feedback_rule(k, t, log_x):
        # the joint-optimiser allocation is z = w p + (1-w) q with the p-side
        # weight w = p A_t x^p / (p A_t x^p + q D_t x^q); lam then only scales
        # sigma*pi = lam/(1-z)
        log_r = (math.log(q / p) + log_wr0
                 + (delta - alpha) * t + (q - p) * log_x)
        omega = _sigmoid(-log_r)
        return omega * p + (1.0 - omega) * q

    def greedy_rule(k, t, log_x):
        log_r = log_wr0 + (delta - alpha) * t + (q - p) * log_x
        return _greedy_z_batch(log_r, p, q, lam * lam * dt)

    rules = {"constant_z_star": constant_rule, "pi_star": feedback_rule,
             "pi_e": greedy_rule}
    mean_u = np.empty((len(rules), n_per + 1))
    se_u = np.empty((len(rules), n_per + 1))
    mean_z = np.empty((len(rules), n_per))
    log_x = [np.full(n_paths, math.log(spec.x0)) for _ in rules]
    terminal = []
    scratch = np.empty(n_paths)
    for k in range(n_per + 1):
        t = k * dt
        for j, rule in enumerate(rules.values()):
            u = spec.utility(t, log_x[j])
            mean_u[j, k] = _path_order_sum(u, scratch) / n_paths
            np.subtract(u, mean_u[j, k], out=scratch)
            np.multiply(scratch, scratch, out=scratch)
            se_u[j, k] = np.sqrt(_path_order_sum(scratch, scratch) / (n_paths - 1)) / root_n
            if k == n_per:
                terminal.append(u)
                continue
            z = rule(k, t, log_x[j])
            mean_z[j, k] = (z.mean() if n_per == 1
                            else _path_order_sum(z, scratch) / n_paths)
            sp = lam / (1.0 - z)
            log_x[j] = log_x[j] + (sp * lam - 0.5 * sp * sp) * dt + sp * dwk[:, k]

    paired = {frozenset((a, b)): float(np.std(u_a - u_b, ddof=1) / root_n)
              for (a, u_a), (b, u_b) in combinations(zip(rules, terminal), 2)}
    strategies = {name: StrategyStats(mean_utility=mean_u[j], se_utility=se_u[j],
                                      mean_allocation=mean_z[j])
                  for j, name in enumerate(rules)}
    return ComparisonResult(t_grid=grid.times.copy(), z_star=z_star,
                            strategies=strategies, n_paths=n_paths, seed=seed,
                            terminal_paired_se=paired)
