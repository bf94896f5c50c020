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

which this module evaluates and optimises over z (grid scan plus
golden-section refinement, reporting every interior local maximum); the
tests cross-check it by simulation.  Three rebalanced strategies are
compared on common random numbers: the best constant z, the wealth-feedback
joint optimiser, and a one-period greedy rule that re-optimises the closed
form each period with the current per-investor utility levels as weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from itertools import combinations
from typing import Callable

import numpy as np

from . import two_power
from .market import MAX_STEPS, TimeGrid, brownian_batch

Z_EDGE = 1e-3       # scan clip: the objective has a pole at z = 1
Z_SCAN_STEP = 1e-3
Z_REFINE_TOL = 1e-6
Z_TIE_TOL = 1e-12   # maxima closer than this in log value tie-break to smaller z
Z_POLISH_GAP = 1e-9   # top two maxima this close in value are refined again,
Z_POLISH_TOL = 1e-13  # to this width, before the tie rule compares them
# Elements in one block of the greedy scan's work arrays (``_first_argmax``):
# rows of the pairwise interval bounds, and rows x candidates of the scores.
# 16k x 8 B = 128 KB per array keeps a 20k-row call's heap peak under the
# bracket tree's, which comes after it.
SCAN_BLOCK_ELEMS = 1 << 14
# The slack c and the interval-end widening of the greedy scan's candidate
# table, in units of u = 2^-53; ``_first_argmax`` derives both.
SCORE_SLACK = 2.0 ** -48    # 32 u
BOUND_WIDEN = 2.0 ** -50    # 8 u
# the z scan grid of both optimisers: (Z_EDGE, 1 - Z_EDGE) in steps of Z_SCAN_STEP
Z_GRID = np.linspace(Z_EDGE, 1.0 - Z_EDGE,
                     int(round((1.0 - 2.0 * Z_EDGE) / Z_SCAN_STEP)) + 1)
Z_GRID.flags.writeable = False

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PoolSpec:
    """Two-investor pooling problem on a one-stock complete market.

    A bad field raises a ValueError that names the field first (``a0: ...``).
    """

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
                raise ValueError(f"{f.name}: must be finite")
        two_power.check_powers(self.p, self.q)
        for name in ("a0", "d0", "x0", "horizon", "rebalance_dt"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: must be positive")
        n = self.horizon / self.rebalance_dt
        if not 0.5 <= n <= MAX_STEPS:
            raise ValueError(f"horizon: horizon / rebalance_dt must be between 1 and "
                             f"{MAX_STEPS} periods")
        if abs(n - round(n)) > 1e-9:
            raise ValueError("horizon: must be a whole number of rebalance periods")
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
    """``POOL_PRESETS[name]`` with ``overrides``; ValueError ``preset: ...`` if unknown."""
    if not isinstance(name, str) or name not in POOL_PRESETS:
        raise ValueError(f"preset: unknown preset {name!r}, "
                         f"choose from {sorted(POOL_PRESETS)}")
    spec = POOL_PRESETS[name]
    return replace(spec, **overrides) if overrides else spec


# ---------------------------------------------------------------------------
# Closed form and optimisers
# ---------------------------------------------------------------------------

def _objective_logs(z, p, q, lam2t):
    """The two exponents la = -p(z-p)^2 s / (2(1-p)(1-z)^2) and ld (...q...), s = lam^2 t."""
    z = np.asarray(z, float)
    la = -p * (z - p) ** 2 * lam2t / (2.0 * (1.0 - p) * (1.0 - z) ** 2)
    ld = -q * (z - q) ** 2 * lam2t / (2.0 * (1.0 - q) * (1.0 - z) ** 2)
    return la, ld


def _objective_terms(z, p, q, lam2t):
    """The two factors ea = e^la and ed = e^ld."""
    la, ld = _objective_logs(z, p, q, lam2t)
    return np.exp(la), np.exp(ld)


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
    return float(utility_surface(spec, [z], [t]).values[0, 0])


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
    to the grid argmax so a deterministic maximiser always exists.  A sharp
    maximum refined that far can lose 1e-10 of log value (fig4 at t = 300),
    more than ``Z_TIE_TOL``, so if the top two lie within ``Z_POLISH_GAP``,
    every maximum is refined again on ``z +- Z_REFINE_TOL`` to ``Z_POLISH_TOL``.
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
    top = sorted(v for _, v in maxima)[-2:]
    if len(top) == 2 and top[1] - top[0] < Z_POLISH_GAP:
        polished = [_golden_max(f, z - Z_REFINE_TOL, z + Z_REFINE_TOL, Z_POLISH_TOL)
                    for z, _ in maxima]
        maxima = [(z, float(f(z))) for z in polished]
    return maxima


@dataclass(frozen=True)
class OptimizeResult:
    z_star: float
    log_value: float  # log of the expected utility at z_star
    local_maxima: tuple[tuple[float, float], ...]  # (z, log value), best first


def _pick_global(maxima: list[tuple[float, float]]) -> OptimizeResult:
    ordered = sorted(maxima, key=lambda zv: (-zv[1], zv[0]))
    best_val = ordered[0][1]
    # near-ties resolve to the smaller z (the more risk-averse compromise)
    contenders = [zv for zv in ordered if best_val - zv[1] < Z_TIE_TOL]
    z_star, value = min(contenders, key=lambda zv: zv[0])
    return OptimizeResult(z_star=z_star, log_value=value, local_maxima=tuple(ordered))


def optimize_constant_z(spec: PoolSpec, t: float) -> OptimizeResult:
    """Best constant proportion at horizon t, with every local maximum found.

    The scan, the refinement and the tie rule use the log of the closed form,
    ``logaddexp(log wa + la, log wd + ld)``, so z* exists where both factors
    underflow on the whole grid.  The result depends on the spec and ``t``
    only through ``p``, ``q``, the weight ratio ``d0 x0^q / (a0 x0^p)`` and
    ``lam^2 t``; for example fig2 (lam = 0.5) at t = 30 gives the same z* as
    fig1 (lam = 1) at t = 7.5.  For equal weights the small-horizon
    maximiser is ``(p^2+q^2)/(p+q)``.
    """
    if not 0 < t < np.inf:
        raise ValueError(f"t must be positive and finite, got {t:g}")
    log_wa, log_wd = np.log(spec.weights())
    lam2t = _lam2t(spec, t)

    def f(z):
        la, ld = _objective_logs(z, spec.p, spec.q, lam2t)
        return np.logaddexp(log_wa + la, log_wd + ld)

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


def _candidate_table(ea: np.ndarray, ed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_first_argmax``'s table: the segment starts, ascending from 0, and
    each segment's candidate points in ascending order, one row per segment,
    padded by repeating its last candidate."""
    tiny = np.finfo(float).tiny
    ea_slack = ea + SCORE_SLACK * max(float(np.max(np.abs(ea))), tiny)
    ed_slack = ed + SCORE_SLACK * max(float(np.max(np.abs(ed))), tiny)
    # keep only the points j that no point k beats in both slack
    # coefficients: top_ed[i] is the largest ed from the i-th smallest ea up
    by_ea = np.argsort(ea, kind="stable")
    top_ed = np.append(np.maximum.accumulate(ed[by_ea][::-1])[::-1], -np.inf)
    kept = np.flatnonzero(top_ed[np.searchsorted(ea[by_ea], ea_slack)] < ed_slack)
    ea, ed, ea_slack, ed_slack = ea[kept], ed[kept], ea_slack[kept], ed_slack[kept]
    n = ea.size
    lo, hi = np.empty(n), np.empty(n)
    rows = max(SCAN_BLOCK_ELEMS // n, 1)
    for start in range(0, n, rows):
        blk = slice(start, start + rows)
        # alpha, beta and their negations, each one subtraction, so that an
        # exact zero is +0.  Dividing by beta where it is positive and by +0
        # elsewhere gives each lower bound -alpha/beta, +inf where point j
        # can never win (beta <= 0 < -alpha), and -inf or NaN where k sets
        # no lower bound; fmax skips the NaN.  The upper bounds alike, from
        # alpha clipped at 0: where alpha and beta are both negative, lo_j
        # is +inf already.
        alpha = ea_slack[blk, None] - ea
        neg_alpha = ea - ea_slack[blk, None]
        beta = ed_slack[blk, None] - ed
        neg_beta = ed - ed_slack[blk, None]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            bound = np.divide(neg_alpha, np.maximum(beta, 0.0, out=beta), out=neg_alpha)
            lo[blk] = np.fmax.reduce(bound, axis=1, initial=0.0)
            bound = np.divide(np.maximum(alpha, 0.0, out=alpha),
                              np.maximum(neg_beta, 0.0, out=neg_beta), out=alpha)
            hi[blk] = np.fmin.reduce(bound, axis=1, initial=np.inf)
        del alpha, neg_alpha, beta, neg_beta, bound
    lo = np.maximum(lo * (1.0 - BOUND_WIDEN) - tiny, 0.0)
    hi = hi * (1.0 + BOUND_WIDEN) + tiny
    live = (lo <= hi) & np.isfinite(lo)
    cols, lo, hi = kept[live], lo[live], hi[live]
    ends = np.sort(np.append(lo, 0.0))
    starts = ends[np.concatenate(([True], ends[1:] != ends[:-1]))]
    # point cols[i] is a candidate of the segments first[i] .. last[i]
    first = np.searchsorted(starts, lo)
    span = np.searchsorted(starts, hi, side="right") - first
    seg = np.repeat(first - np.cumsum(span) + span, span) + np.arange(span.sum())
    order = np.argsort(seg, kind="stable")
    cand = np.repeat(cols, span)[order]
    counts = np.bincount(seg, minlength=starts.size)
    head = np.cumsum(counts) - counts
    slot = np.minimum(np.arange(counts.max()), counts[:, None] - 1)
    return starts, cand[head[:, None] + slot]


def _first_argmax(r: np.ndarray, ea: np.ndarray, ed: np.ndarray) -> np.ndarray:
    """Each row's first argmax of ``ea + r[i] ed`` over the points, for finite
    ratios ``r >= 0``, scored only at the points that can win.

    At a fixed point ``j`` the score is the line ``ea_j + r ed_j`` in ``r``,
    and every row shares the lines, so which points can win depends on ``r``
    alone.  ``_candidate_table`` cuts ``[0, inf)`` into segments and lists,
    for each segment, the points whose score can be the computed maximum
    somewhere in it.  Each row is scored only at its segment's candidates,
    with the full scan's expression ``r ed + ea``, and the first maximum is
    kept.  The rows go in blocks, each sorted by ratio, so that one
    ``np.searchsorted`` of the segment starts into the block cuts it into
    its segments (a search per row, on unsorted ratios, is as fast on fig3's
    comparison traffic but about a third slower on fig1's).  On fig3's grid
    201 of the 999 points are left, at most two to a segment; on a nearly
    flat objective (``lam^2 dt`` of 1e-14) one segment holds 740 of them,
    and at ``lam^2 dt = 0`` all.

    Why this is ``np.argmax(ea + r ed)`` bit for bit.  Let ``u = 2^-53`` and
    ``A = max(max|ea|, m)``, ``E = max(max|ed|, m)``, with ``m = 2^-1022``
    the smallest normal double.  A computed score ``fl(fl(r ed_j) + ea_j)``
    is within ``2.01u (A + rE)`` of the exact one, plus at most ``2^-1074 <=
    2uA`` where a rounding falls among the subnormals.  So if point ``j``
    ties or beats point ``k`` in floats, then exactly

        (ea_j - ea_k + c0 A) + r (ed_j - ed_k + c0 E) >= 0,   c0 = 8.02u.

    The table forms ``alpha = fl(fl(ea_j + cA) - ea_k)`` and ``beta`` from
    ``ed`` alike, with ``c = SCORE_SLACK = 32u``.  Forming them errs by at
    most ``6uA`` (``6uE``), which leaves ``alpha`` and ``beta`` above the
    left side's coefficients, so ``alpha + r beta >= 0`` holds exactly for
    every ``k``.  For each ``j`` that is an interval ``[lo_j, hi_j]``:
    ``lo_j`` is the largest ``-alpha/beta`` over ``beta > 0`` (or 0),
    ``hi_j`` the smallest over ``beta < 0`` (or inf), and it is empty if some
    ``beta = 0`` has ``alpha < 0``.  Each computed quotient errs by ``u``
    relative, or ``2^-1075`` below ``m``, so its ends are moved out by
    ``BOUND_WIDEN = 8u`` relative and by ``m`` absolute; a quotient that
    overflows to inf excludes no finite ratio.  Every point outside its
    interval therefore scores strictly below the row's maximum, and the first
    maximum among the candidates, in ascending order, is the first maximum
    over all points.

    The table first drops each point ``j`` that some ``k`` beats in both
    slack coefficients, ``ea_k >= fl(ea_j + cA)`` and ``ed_k >= fl(ed_j +
    cE)``.  That sum errs by less than ``u(1 + c)A``, so ``ea_k - ea_j``
    exceeds ``c0 A`` by more than ``(32 - 1 - 8.02)uA``, and ``ed`` alike:
    the inequality above fails at every finite ``r >= 0``, and at ``r = inf``
    ``ed_k > ed_j``.  So ``j`` is never a row's first maximum, and bounding
    the points left by those alone only widens their intervals.

    A segment starts at 0 and at each ``lo_j``, so there are at most
    ``n + 1`` of them, and a segment's candidates are the ``j`` whose
    interval holds its start: since ``lo_j`` is a start, a ratio in
    ``[s_i, s_{i+1})`` lies in ``[lo_j, hi_j]`` only if
    ``lo_j <= s_i <= hi_j``.  The pairwise bounds
    and the rows' candidate scores are each formed in blocks of about
    ``SCAN_BLOCK_ELEMS`` elements.
    """
    starts, table = _candidate_table(ea, ed)
    rows = max(SCAN_BLOCK_ELEMS // table.shape[1], 1)
    idx = np.empty(r.size, dtype=np.intp)
    for start in range(0, r.size, rows):
        order = np.argsort(r[start:start + rows])
        order += start
        blk = r[order]
        # sorted by ratio, the block's rows fill the segments in turn
        cut = np.searchsorted(blk, starts)
        cand = table[np.repeat(np.arange(starts.size), np.diff(cut, append=blk.size))]
        score = ed[cand]
        score *= blk[:, None]
        score += ea[cand]
        best = np.argmax(score, axis=1)
        del score
        idx[order] = np.take_along_axis(cand, best[:, None], axis=1)[:, 0]
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

    The scan is one ``_first_argmax`` call on the whole grid, which scores
    each row only at the points that can be its computed maximum (found
    from a table of the lines ``ea_j + r ed_j`` that all rows share) and
    keeps the first maximum.  Each score is the same IEEE product ``r ed``
    plus ``ea`` (``r ed + ea == ea + r ed`` exactly), so each row gets
    ``np.argmax`` of its whole-grid scores bit for bit.

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

    A ratio past float range (a log ratio above about 709.78) overflows to
    ``r = inf``, where ``inf * 0`` scores NaN.  Its limit, ``ed`` alone, is
    the objective with the investors swapped at ratio 0:
    ``_objective_terms(z, q, p, s)`` is ``(ed, ea)`` bit for bit, and
    ``ed + 0 ea`` is ``ed`` as ``ea`` is finite.  One swapped call serves
    all such rows; the scan and the bracket tree see no infinite ratio.
    """
    with np.errstate(over="ignore"):
        r = np.exp(log_ratio)
    over = np.isposinf(r)
    if over.any():
        z = np.full(r.size, _greedy_z_batch(np.array([-np.inf]), q, p, lam2dt)[0])
        z[~over] = _greedy_z_batch(log_ratio[~over], p, q, lam2dt)
        return z
    del over
    zs, n = Z_GRID, Z_GRID.size
    idx = _first_argmax(r, *_objective_terms(zs, p, q, lam2dt))
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
    if not np.all((z > 0.0) & (z < 1.0)):
        raise ValueError("z grid must lie strictly inside (0, 1)")
    if not np.all(t >= 0.0):
        raise ValueError("t grid must be nonnegative")
    wa, wd = spec.weights()
    lam2t = _lam2t(spec, t)[:, None]
    vals = _weighted_objective(z[None, :], wa, wd, spec.p, spec.q, lam2t)
    return UtilitySurface(z_grid=z, t_grid=t, values=vals)


# ---------------------------------------------------------------------------
# Simulation: the strategy comparison
# ---------------------------------------------------------------------------

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
        omega = two_power._sigmoid(-log_r)
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
            log_x[j] = log_x[j] + (sp * lam - 0.5 * sp * sp) * dt + sp * dw[0][k]

    paired = {frozenset((a, b)): float(np.std(u_a - u_b, ddof=1) / root_n)
              for (a, u_a), (b, u_b) in combinations(zip(rules, terminal), 2)}
    strategies = {name: StrategyStats(mean_utility=mean_u[j], se_utility=se_u[j],
                                      mean_allocation=mean_z[j])
                  for j, name in enumerate(rules)}
    return ComparisonResult(t_grid=grid.times.copy(), z_star=z_star,
                            strategies=strategies, n_paths=n_paths, seed=seed,
                            terminal_paired_se=paired)
