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
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import two_power
from .market import TimeGrid, brownian_batch, evolve_log_wealth_batch

Z_EDGE = 1e-3       # scan clip: the objective has a pole at z = 1
Z_SCAN_STEP = 1e-3
Z_REFINE_TOL = 1e-6
Z_TIE_TOL = 1e-12   # maxima closer than this in value tie-break to smaller z

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
        if not (0.0 < self.p < self.q < 1.0):
            raise ValueError(f"need 0 < p < q < 1, got p={self.p}, q={self.q}")
        for name in ("a0", "d0", "x0", "horizon", "rebalance_dt"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        n = self.horizon / self.rebalance_dt
        if abs(n - round(n)) > 1e-9:
            raise ValueError("horizon must be a whole number of rebalance periods")

    @property
    def n_periods(self) -> int:
        return round(self.horizon / self.rebalance_dt)

    def drifts(self) -> tuple[float, float]:
        """Time-monotone decay rates (alpha, delta) of the two investors."""
        return two_power.coefficient_drifts(self.p, self.q, [self.lam], [0.0], [0.0])


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

def _weighted_objective(z, wa, wd, p, q, lam2t):
    """wa e^{-p(z-p)^2 s / (2(1-p)(1-z)^2)} + wd e^{...q...} with s = lam^2 t.

    Broadcasts over z and over the weights, so one call can score a z-grid
    for a whole batch of weight pairs.
    """
    z = np.asarray(z, float)
    ea = np.exp(-p * (z - p) ** 2 * lam2t / (2.0 * (1.0 - p) * (1.0 - z) ** 2))
    ed = np.exp(-q * (z - q) ** 2 * lam2t / (2.0 * (1.0 - q) * (1.0 - z) ** 2))
    return wa * ea + wd * ed


def constant_z_expected_utility(z: float, t: float, spec: PoolSpec) -> float:
    """Expected joint utility of holding sigma*pi = lam/(1-z) up to time t."""
    if not (0.0 < z < 1.0):
        raise ValueError(f"z must lie strictly inside (0, 1), got {z}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    wa = spec.a0 * spec.x0 ** spec.p
    wd = spec.d0 * spec.x0 ** spec.q
    return float(_weighted_objective(z, wa, wd, spec.p, spec.q, spec.lam ** 2 * t))


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


def _scan_local_maxima(f: Callable, eps: float = Z_EDGE, step: float = Z_SCAN_STEP,
                       tol: float = Z_REFINE_TOL) -> list[tuple[float, float]]:
    """All interior local maxima of f on (eps, 1-eps), each golden-refined.

    Detection is by sign change of the discrete first difference on the scan
    grid; each bracket is then refined to width ``tol``.  Degenerate
    objectives without an interior sign change (flat or monotone) fall back
    to the grid argmax so a deterministic maximiser always exists.
    """
    n = int(round((1.0 - 2.0 * eps) / step)) + 1
    zs = np.linspace(eps, 1.0 - eps, n)
    vals = f(zs)
    d = np.diff(vals)
    s = np.sign(d)
    maxima = []
    for i in range(1, len(s)):
        if s[i - 1] > 0 and s[i] <= 0:
            z = _golden_max(f, zs[i - 1], zs[i + 1], tol)
            maxima.append((float(z), float(f(z))))
    if not maxima:
        i = int(np.argmax(vals))
        if 0 < i < n - 1:
            z = _golden_max(f, zs[i - 1], zs[i + 1], tol)
        else:
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
    wa = spec.a0 * spec.x0 ** spec.p
    wd = spec.d0 * spec.x0 ** spec.q
    lam2t = spec.lam ** 2 * t

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
    if a_eff <= 0 or d_eff <= 0 or x <= 0:
        raise ValueError("effective coefficients and wealth must be positive")
    dt = spec.rebalance_dt if dt is None else dt
    if dt <= 0:
        raise ValueError("period length must be positive")
    log_ratio = math.log(d_eff) - math.log(a_eff) + (spec.q - spec.p) * math.log(x)
    return float(_greedy_z_batch(np.array([log_ratio]), spec.p, spec.q,
                                 spec.lam ** 2 * dt)[0])


def _greedy_z_batch(log_ratio: np.ndarray, p: float, q: float,
                    lam2dt: float) -> np.ndarray:
    """Vectorised greedy z for a batch of weight ratios log(wd/wa).

    The objective only depends on the weights through their ratio, so paths
    are scanned jointly on the shared z-grid and refined with a fixed-length
    golden-section loop per path.
    """
    r = np.exp(log_ratio)[:, None]  # (B, 1)
    n = int(round((1.0 - 2.0 * Z_EDGE) / Z_SCAN_STEP)) + 1
    zs = np.linspace(Z_EDGE, 1.0 - Z_EDGE, n)
    vals = _weighted_objective(zs[None, :], 1.0, r, p, q, lam2dt)  # (B, n)
    idx = np.argmax(vals, axis=1)
    lo = zs[np.maximum(idx - 1, 0)]
    hi = zs[np.minimum(idx + 1, n - 1)]

    def fvec(z):
        return _weighted_objective(z, 1.0, r[:, 0], p, q, lam2dt)

    a, b = lo.copy(), hi.copy()
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fvec(c), fvec(d)
    n_iter = int(math.ceil(math.log(Z_REFINE_TOL / (2 * Z_SCAN_STEP))
                           / math.log(_INVPHI)))
    for _ in range(n_iter):
        left = fc >= fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        fc, fd = fvec(c), fvec(d)
    return 0.5 * (a + b)


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
    wa = spec.a0 * spec.x0 ** spec.p
    wd = spec.d0 * spec.x0 ** spec.q
    lam2t = (spec.lam ** 2 * t)[:, None]
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
    grid = TimeGrid.regular(t, t / n_steps)
    dw, _ = brownian_batch(grid, 1, 0, seed, range(n_paths))
    sp = np.full((grid.n_steps, 1), spec.lam / (1.0 - z))
    lam_path = np.full((grid.n_steps, 1), spec.lam)
    log_x = evolve_log_wealth_batch(spec.x0, sp, lam_path, grid, dw)[:, -1]
    alpha, delta = spec.drifts()
    u = (spec.a0 * np.exp(alpha * t + spec.p * log_x)
         + spec.d0 * np.exp(delta * t + spec.q * log_x))
    return float(np.mean(u)), float(np.std(u, ddof=1) / np.sqrt(n_paths))


@dataclass(frozen=True)
class StrategyStats:
    mean_utility: np.ndarray     # (K+1,) ensemble mean of U_t(X_t)
    se_utility: np.ndarray       # (K+1,)
    mean_allocation: np.ndarray  # (K,) ensemble mean of z applied per period
    utility_paths: np.ndarray    # (B, K+1) per-path joint utility


@dataclass(frozen=True)
class ComparisonResult:
    """Three strategies on identical Brownian ensembles (common random numbers)."""

    t_grid: np.ndarray
    z_star: float
    strategies: dict[str, StrategyStats]
    n_paths: int
    seed: int

    def paired_se(self, name_a: str, name_b: str, k: int = -1) -> float:
        """Standard error of the paired utility difference at grid index k."""
        diff = (self.strategies[name_a].utility_paths[:, k]
                - self.strategies[name_b].utility_paths[:, k])
        return float(np.std(diff, ddof=1) / np.sqrt(diff.size))


def compare_strategies(spec: PoolSpec, n_paths: int, seed: int) -> ComparisonResult:
    """Run constant-z*, the wealth-feedback optimiser, and the greedy rule.

    All three are rebalanced on the same period grid and driven by the same
    per-path increments.  Utility is the pooled U1 + U2 with the
    time-monotone coefficient decay; allocations are recorded as the
    proportion z solving sigma*pi = lam/(1-z).
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

    def run(z_rule: Callable) -> StrategyStats:
        log_x = np.full(n_paths, math.log(spec.x0))
        utilities = np.empty((n_paths, n_per + 1))
        allocations = np.empty((n_paths, n_per))
        for k in range(n_per + 1):
            t = k * dt
            utilities[:, k] = (spec.a0 * np.exp(alpha * t + p * log_x)
                               + spec.d0 * np.exp(delta * t + q * log_x))
            if k == n_per:
                break
            z = z_rule(k, t, log_x)
            sp = lam / (1.0 - z)
            log_x = log_x + (sp * lam - 0.5 * sp * sp) * dt + sp * dwk[:, k]
            allocations[:, k] = z
        return StrategyStats(
            mean_utility=utilities.mean(axis=0),
            se_utility=utilities.std(axis=0, ddof=1) / np.sqrt(n_paths),
            mean_allocation=allocations.mean(axis=0),
            utility_paths=utilities,
        )

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

    strategies = {
        "constant_z_star": run(constant_rule),
        "pi_star": run(feedback_rule),
        "pi_e": run(greedy_rule),
    }
    return ComparisonResult(t_grid=grid.times.copy(), z_star=z_star,
                            strategies=strategies, n_paths=n_paths, seed=seed)
