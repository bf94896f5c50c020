"""Power-mixture forward performance criteria and their optimal portfolios.

A criterion is built from a finite positive measure on risk aversions
(atoms ``(gamma_i, w_i)``), a base aversion ``gamma0``, and two free
volatility choices: ``h0`` (the loading of the base aversion on W) and a
per-atom loading ``J`` on W_perp.  Along a path the criterion evaluates to

    U_t(x) = sum_i w_i x^(1-gamma_i)/(1-gamma_i) * E(M_i) * E(V_i),

with ``E(M) = exp(m - qv/2)`` the stochastic exponential of
``M_i = int H_i.dW + int J_i.dW_perp``, ``H_i`` tied to ``h0`` through

    H_i = ((gamma_i - gamma0)/gamma0) lam + (gamma_i/gamma0) h0,

and ``V_i`` the finite-variation part with rate

    v_i = -(1 - gamma_i)/(2 gamma_i) |lam + H_i|^2.

All atoms then share the single optimiser ``sigma pi* = (lam + h0)/gamma0``.
Evaluation is done in log space; values live in R union {-inf}.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import FactorDegeneracyError, InvalidExponentError
from .market import (MarketSpec, TimeGrid, check_finite, check_positive, check_schedule,
                     running_integral, solve_allocation, PINV_RCOND)

GAMMA_ONE_TOL = 1e-9  # risk aversions this close to 1 are rejected


def signed_exp_sum(logs: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Stable ``sum_i signs[i] * exp(logs[i])``, one term per row of ``logs``.

    The terms run along the first axis of the C-ordered ``logs``, so each
    step works on whole contiguous rows.  ``logs`` is the scratch buffer:
    it is overwritten, and the result is a view of its row 0, so the
    caller holds all of ``logs`` for as long as it holds the result.  The
    sum is formed in row 0 and, unless every sign is +1, its sign in row
    1; the per-cell max is the one row allocated (with the sign row, for a
    lone negative term).
    Overflows only when the true value leaves float range, in which case
    the IEEE infinity of the correct sign is returned (-inf is the
    legitimate sentinel for criteria that diverge below).  When every sign
    is +1 the sign bookkeeping is skipped; that gives the same bits, since
    ``1.0 * y == y`` and ``exp(m + log(part))`` equals
    ``sign(part) * exp(m + log|part|)`` for ``part >= 0`` and for NaN.
    """
    m = np.max(logs, axis=0, keepdims=True)  # kept axes: scalars stay arrays
    bad = np.isfinite(m)
    np.logical_not(bad, out=bad)  # one bool row, inverted in place
    m[bad] = 0.0
    logs -= m
    terms = np.exp(logs, out=logs)
    same_sign = bool(np.all(np.asarray(signs) == 1.0))
    if not same_sign:
        terms *= np.reshape(signs, (-1,) + (1,) * (m.ndim - 1))
    part = terms[:1]
    if part.size == 1:  # numpy sums a lone column pairwise
        part[...] = np.sum(terms, axis=0, keepdims=True)
    else:
        for row in terms[1:]:  # numpy's order over the first axis
            part += row
    with np.errstate(divide="ignore", over="ignore"):
        if same_sign:
            np.log(part, out=part)
        else:
            sign = np.sign(part, out=terms[1:2] if len(terms) > 1 else None)
            np.log(np.abs(part, out=part), out=part)
        np.exp(np.add(m, part, out=part), out=part)
    if not same_sign:
        np.multiply(sign, part, out=part)
    return part[0]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _check_kind(spec, kinds: dict) -> None:
    """Check ``spec.kind`` and store the fields ``kinds[kind]`` as finite float arrays.

    A field the kind does not read must be None.  Errors name the offending
    field first (``value: ...``).
    """
    if not isinstance(spec.kind, str) or spec.kind not in kinds:
        raise ValueError(f"kind: unknown kind {spec.kind!r}, choose from {list(kinds)}")
    for f in fields(spec):
        unread = f.name != "kind" and f.name not in kinds[spec.kind]
        if unread and getattr(spec, f.name) is not None:
            raise ValueError(f"{f.name}: kind {spec.kind!r} does not read it")
    for name in kinds[spec.kind]:
        try:
            arr = np.atleast_1d(np.asarray(getattr(spec, name), float))
        except (TypeError, ValueError):
            arr = None
        if arr is None or not np.all(np.isfinite(arr)):
            raise ValueError(f"{name}: kind {spec.kind!r} needs finite numbers")
        object.__setattr__(spec, name, arr)


def _check_shape(name: str, arr: np.ndarray, *shapes) -> None:
    if arr.shape not in shapes:
        raise ValueError(f"{name}: needs shape {' or '.join(map(str, shapes))}, "
                         f"got {arr.shape}")


@dataclass(frozen=True)
class H0Spec:
    """Free process for the base aversion's W-loading.

    Kinds: ``zero``; ``constant`` (a d_w vector); ``portfolio_inversion``
    (derive h0 = gamma0 sigma(t) pi_bar - lam(t) from a target allocation
    pi_bar of n_stocks entries, making that portfolio the optimiser).
    """

    kind: str = "zero"
    value: object = None

    KINDS = {"zero": (), "constant": ("value",), "portfolio_inversion": ("value",)}

    def __post_init__(self):
        _check_kind(self, self.KINDS)

    def check(self, market: MarketSpec) -> None:
        """Raise ValueError unless the value fits the market's dimensions."""
        if self.kind == "constant":
            _check_shape("value", self.value, (market.d_w,))
        elif self.kind == "portfolio_inversion":
            _check_shape("value", self.value, (market.n_stocks,))

    def path(self, grid: TimeGrid, market: MarketSpec, gamma0: float,
             lam_path: np.ndarray) -> np.ndarray:
        """h0 at the left endpoint of every grid cell, (N, d_w), given the
        market's ``sharpe_path`` ``lam_path`` there."""
        if self.kind == "constant":
            return np.broadcast_to(self.value, lam_path.shape)
        if self.kind == "portfolio_inversion":
            return gamma0 * (market.sigma.path(grid.times[:-1]) @ self.value) - lam_path
        return np.zeros(lam_path.shape)


@dataclass(frozen=True)
class JSpec:
    """Per-atom loading on W_perp.

    Kinds: ``zero``; ``constant`` (one d_wperp vector shared by all atoms, or
    one per atom as an (n_atoms, d_wperp) array); ``factor`` (J = A
    (rho'rho)^-1 rho' H, generated by a factor correlation pair (rho, A) of
    shapes (d_w, k) and (d_wperp, k)).
    """

    kind: str = "zero"
    value: object = None
    rho: np.ndarray = None
    a: np.ndarray = None

    KINDS = {"zero": (), "constant": ("value",), "factor": ("rho", "a")}

    def __post_init__(self):
        _check_kind(self, self.KINDS)

    def check(self, market: MarketSpec, n_atoms: int) -> None:
        """Raise ValueError unless the loadings fit the market and the atom count."""
        if self.kind == "constant":
            _check_shape("value", self.value, (market.d_wperp,),
                         (n_atoms, market.d_wperp))
        elif self.kind == "factor":
            rho, a = np.atleast_2d(self.rho, self.a)
            _check_shape("rho", rho, (market.d_w, rho.shape[1]))
            _check_shape("a", a, (market.d_wperp, rho.shape[1]))

    def loadings(self, h: np.ndarray, market: MarketSpec) -> np.ndarray:
        """J, C-ordered (..., n_atoms, d_wperp), for the W-loadings ``h``."""
        shape = h.shape[:-1] + (market.d_wperp,)
        if self.kind == "constant":
            return np.broadcast_to(self.value, shape).copy()
        if self.kind == "factor":
            return factor_j(self.rho, self.a, h)
        return np.zeros(shape)


@dataclass(frozen=True)
class RiskMixture:
    """One mixture criterion: a finite positive measure on risk aversions, the
    base aversion and the free loadings ``h0`` and ``j``.

    Atoms are ``(gamma_i, w_i)`` with ``gamma_i > 0``, ``gamma_i != 1`` and
    ``w_i > 0``; ``gamma0`` must lie in ``[min gamma_i, max gamma_i]``.
    ``h0`` and ``j`` default to their zero kind.  A bad field raises a
    ValueError that names the field first (``atoms[0].weight: ...``).
    """

    atoms: tuple[tuple[float, float], ...]
    gamma0: float
    h0: H0Spec = field(default_factory=H0Spec)
    j: JSpec = field(default_factory=JSpec)

    def __post_init__(self):
        atoms = tuple((float(g), float(w)) for g, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "gamma0", float(self.gamma0))
        if not atoms:
            raise ValueError("atoms: need at least one atom")
        for i, (g, w) in enumerate(atoms):
            check_positive(**{f"atoms[{i}].gamma": g, f"atoms[{i}].weight": w})
            if abs(g - 1.0) <= GAMMA_ONE_TOL:
                raise ValueError(f"atoms[{i}].gamma: risk aversion {g} is too close to 1")
        gs = [g for g, _ in atoms]
        if not (min(gs) <= self.gamma0 <= max(gs)):
            raise ValueError(
                f"gamma0: {self.gamma0} outside the atom range [{min(gs)}, {max(gs)}]")
        if abs(self.gamma0 - 1.0) <= GAMMA_ONE_TOL:
            raise ValueError("gamma0: too close to 1")

    @property
    def gammas(self) -> np.ndarray:
        return np.array([g for g, _ in self.atoms])

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms])

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

def _check_gamma0(gamma0: float) -> None:
    """Raise ValueError unless the reference aversion is finite and nonzero."""
    if not 0 < abs(gamma0) < np.inf:  # NaN fails it too
        raise ValueError(f"gamma0 must be nonzero, got {gamma0}")


def hgamma(gamma, gamma0: float, lam: np.ndarray, h0: np.ndarray) -> np.ndarray:
    """W-loading of atom gamma: ((gamma-gamma0)/gamma0) lam + (gamma/gamma0) h0.

    Broadcasts ``gamma`` (...) against ``lam`` and ``h0`` (..., d_w).
    """
    _check_gamma0(gamma0)
    g = np.asarray(gamma, float)[..., None]
    check_finite(gamma=g, lam=lam, h0=h0)
    return ((g - gamma0) / gamma0) * lam + (g / gamma0) * h0


def vgamma_rate(gamma, lam: np.ndarray, hg: np.ndarray):
    """Finite-variation rate -(1-gamma)/(2 gamma) |lam + hg|^2.

    Broadcasts like ``hgamma``; a float for one atom.  ``|u|^2`` is a
    stacked ``u @ u``, with the 1-d product's bits (einsum's differ).
    """
    g = np.asarray(gamma, float)
    if not np.all(np.isfinite(g) & (g != 0)):
        raise ValueError(f"gamma must be nonzero, got {gamma}")
    check_finite(lam=lam, hg=hg)
    u = np.atleast_1d(lam) + np.atleast_1d(hg)
    out = -(1.0 - g) / (2.0 * g) * (u[..., None, :] @ u[..., :, None])[..., 0, 0]
    return float(out) if out.ndim == 0 else out


def _check_gamma(gamma: float) -> None:
    """Raise ValueError unless the aversion is a finite number other than 0 and 1."""
    if not 0 < abs(gamma) < np.inf or gamma == 1.0:  # NaN fails the first test
        raise ValueError(f"gamma must avoid 0 and 1, got {gamma}")


def drift_term(gamma: float, sp: np.ndarray, lam: np.ndarray, hg: np.ndarray) -> float:
    """Drift of one atom's normalised utility under allocation sigma*pi = sp.

    Equals ``-(gamma/2) |sp - sp*|^2`` with ``sp* = (lam + hg)/gamma``: zero
    exactly at the optimiser, strictly negative elsewhere.
    """
    _check_gamma(gamma)
    check_finite(sp=sp, lam=lam, hg=hg)
    sp = np.atleast_1d(np.asarray(sp, float))
    u = np.atleast_1d(lam) + np.atleast_1d(hg)
    return float(vgamma_rate(gamma, lam, hg) / (1.0 - gamma) + sp @ u
                 - 0.5 * gamma * (sp @ sp))


def optimal_portfolio(lam: np.ndarray, h0: np.ndarray, gamma0: float,
                      sigma: np.ndarray) -> np.ndarray:
    """Minimum-norm pi solving sigma pi = (lam + h0)/gamma0.

    Raises
    ------
    NoExactSolutionError
        If the target is not hedgeable: the residual of its projection onto
        the column space of sigma exceeds ``market.HEDGE_RTOL`` (relative
        to the target).
    """
    _check_gamma0(gamma0)
    target = (np.atleast_1d(lam) + np.atleast_1d(h0)) / gamma0
    return solve_allocation(sigma, target)


def factor_j(rho: np.ndarray, a: np.ndarray, hg: np.ndarray) -> np.ndarray:
    """Factor-generated W_perp loading A (rho'rho)^-1 rho' hg, over hg's last axis."""
    rho = np.atleast_2d(np.asarray(rho, float))
    a = np.atleast_2d(np.asarray(a, float))
    hg = np.atleast_1d(np.asarray(hg, float))
    check_finite(rho=rho, a=a, hg=hg)
    gram = rho.T @ rho
    s = np.linalg.svd(gram, compute_uv=False)
    if s[-1] <= PINV_RCOND * max(s[0], 1.0):
        raise FactorDegeneracyError("rho'rho is singular")
    return (a @ np.linalg.solve(gram, rho.T @ hg[..., None]))[..., 0]


def market_view_density(m, qv_m):
    """Stochastic-exponential density exp(m - qv/2) of one atom's (H, J) pair."""
    check_finite(m=m, qv_m=qv_m)
    out = np.exp(np.asarray(m, float) - 0.5 * np.asarray(qv_m, float))
    return float(out) if out.ndim == 0 else out


def monotone_power_value(x: float, lam_plus_h: np.ndarray, gamma: float) -> float:
    """Time-monotone power criterion (x exp(-|lam+H|^2/(2 gamma)))^(1-gamma)/(1-gamma)."""
    check_positive(x=x)
    _check_gamma(gamma)
    check_finite(lam_plus_h=lam_plus_h)
    u = np.atleast_1d(np.asarray(lam_plus_h, float))
    return float(np.exp((1.0 - gamma) * (np.log(x) - (u @ u) / (2.0 * gamma)))
                 / (1.0 - gamma))


def power_logs(gammas, weights, log_x, shape=()):
    """Log-magnitudes and signs of the power terms w_i x^(1-g_i)/(1-g_i).

    Row i, over ``log_x``'s shape broadcast with ``shape``, is
    ``(1-g_i) log x + log|w_i| - log|1-g_i|`` in that order, with the sign
    ``sign(w_i) sign(1-g_i)``; a criterion adds its own exponents to the rows.
    """
    gammas = np.asarray(gammas, float)
    logs = np.empty(gammas.shape + np.broadcast_shapes(np.shape(log_x), shape))
    col = (-1,) + (1,) * (logs.ndim - 1)
    np.multiply(np.reshape(1.0 - gammas, col), log_x, out=logs)
    logs += np.reshape(np.log(np.abs(weights)) - np.log(np.abs(1.0 - gammas)), col)
    return logs, np.sign(weights) * np.sign(1.0 - gammas)


def mixture_value(gammas: np.ndarray, weights: np.ndarray, log_x, m, qv, v):
    """Mixture value at log wealth ``log_x`` given per-atom state (m, qv, v).

    Atoms lie along the first axis of ``m``, ``qv`` and ``v``, one per row as
    in ``signed_exp_sum`` (a scalar applies to every atom); each row is the
    ``power_logs`` row + m - qv/2 + v.  In log space, the value is -inf where
    the sum genuinely diverges below.  Weights may carry signs;
    ``RiskMixture``-validated criteria always pass positive ones.
    """
    n = np.size(gammas)
    m, qv, v = (np.broadcast_to(np.asarray(a, float), (n,) + np.shape(a)[1:])
                for a in (m, qv, v))
    logs, signs = power_logs(gammas, weights, log_x,
                             np.broadcast_shapes(m.shape[1:], qv.shape[1:], v.shape[1:]))
    for i in range(n):  # this order fixes the rounding
        row = logs[i, ...]  # a view even when the value is a scalar
        row += m[i]
        row -= 0.5 * qv[i]
        row += v[i]
    return signed_exp_sum(logs, signs)


# ---------------------------------------------------------------------------
# Path-level evaluator
# ---------------------------------------------------------------------------

class MixtureFpp:
    """A mixture criterion bound to a market and a time grid.

    Everything set by lam(t) and h0(t) is computed once, here, as whole-grid
    arrays after checking ``h0`` and ``j``: ``lam_path`` and ``sp_star`` =
    (lam + h0)/gamma0, (N, d_w) at the left endpoints, the (N, n_atoms, d)
    loadings ``h`` and ``j``, and the (n_atoms, N+1) ``qv`` and ``v``.
    """

    def __init__(self, mixture: RiskMixture, market: MarketSpec, grid: TimeGrid):
        mixture.h0.check(market)
        mixture.j.check(market, mixture.n_atoms)
        self.mixture = mixture
        self.market = market
        self.grid = grid
        gammas, gamma0 = mixture.gammas, mixture.gamma0
        self.lam_path = lam = market.sharpe_path(grid)
        h0 = mixture.h0.path(grid, market, gamma0, lam)
        self.sp_star = (lam + h0) / gamma0
        self.h = h = hgamma(gammas, gamma0, lam[:, None], h0[:, None])
        self.j = j = mixture.j.loadings(h, market)
        qvr = np.einsum("kad,kad->ka", h, h) + np.einsum("kad,kad->ka", j, j)
        vr = vgamma_rate(gammas, lam[:, None], h)
        self.qv, self.v = np.zeros((2, mixture.n_atoms, grid.n_steps + 1))
        np.cumsum(qvr.T * grid.dt, axis=1, out=self.qv[:, 1:])
        np.cumsum(vr.T * grid.dt, axis=1, out=self.v[:, 1:])

    def u0(self, x: float) -> float:
        """U_0(x) = sum_i w_i x^(1-gamma_i)/(1-gamma_i)."""
        check_positive(x=x)
        return float(mixture_value(self.mixture.gammas, self.mixture.weights,
                                   np.log(x), 0.0, 0.0, 0.0))

    def state_paths(self, dw: np.ndarray, dwperp: np.ndarray,
                    cols: slice = slice(None), carry=None):
        """Accumulated ``m`` along an ensemble, at the grid columns ``cols``.

        ``m`` is the C-ordered (n_atoms, len(cols), B) ``running_integral``:
        the state that ``utility_paths`` evaluates at the same ``cols``.
        ``dw`` and ``dwperp`` are the ``brownian_batch`` increments of the
        whole grid.  The whole horizon is the one-chunk case; a chunk past
        column 0 continues from ``carry``, the (n_atoms, B) ``m[:, -1]`` of
        the chunk before, as in ``running_integral``.
        """
        j = self.j if self.market.d_wperp else None  # dm = H.dW + J.dW_perp per cell
        return running_integral(self.h, dw, cols, carry, j=j, dwperp=dwperp)

    def utility_paths(self, state, log_x: np.ndarray,
                      cols: slice = slice(None)) -> np.ndarray:
        """U_t(X_t) at the grid columns ``cols``.

        ``state`` is the ``state_paths`` ``m`` of the same ``cols``, and
        ``log_x`` is log wealth at those columns, shape (len(cols), B).  The
        terms are evaluated in that layout, and U is returned in it, a
        C-ordered (len(cols), B) array.
        """
        return mixture_value(self.mixture.gammas, self.mixture.weights, log_x, state,
                             self.qv[:, cols, None], self.v[:, cols, None])


# ---------------------------------------------------------------------------
# Integrability constants and moment diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrueFppConstants:
    """Exponent bookkeeping for the genuine (not just local) criteria.

    ``cj_lower`` bounds the Novikov constant of the W_perp loadings and
    ``ch_lower(gamma)`` the one for h0; both scale with q = 2v/(v-1).
    """

    v: float
    u: float
    p1: float
    p2: float
    p3: float
    gamma0: float
    q: float
    cj_lower: float

    def ch_lower(self, gamma: float) -> float:
        branch1 = (self.u * self.v * self.p3 * (1.0 - gamma)
                   * (2.0 * self.u * self.v * self.p1 * (1.0 - gamma) - 1.0)
                   / self.gamma0 ** 2)
        branch2 = (0.5 * self.q * self.p3 * gamma
                   * (self.q * self.p1 * gamma - 1.0) / self.gamma0 ** 2)
        return max(branch1, branch2)


def _check_integrability(v: float, u: float) -> None:
    """Raise InvalidExponentError unless v and u are finite and exceed 1; NaN does not."""
    if not (1 < v < np.inf and 1 < u < np.inf):
        raise InvalidExponentError(f"need finite v > 1 and u > 1, got v={v}, u={u}")


def true_fpp_constants(v: float, u: float, p1: float, p2: float, p3: float,
                       gamma0: float) -> TrueFppConstants:
    """Derive q = 2v/(v-1) and the lower bounds for the Novikov constants.

    Raises
    ------
    InvalidExponentError
        Unless v, u, p1, p2, p3 are finite and > 1 and 1/p1 + 1/p2 + 1/p3 < 1.
    ValueError
        Unless gamma0 is finite and nonzero.
    """
    _check_integrability(v, u)
    if not all(1 < p < np.inf for p in (p1, p2, p3)):  # NaN exceeds nothing
        raise InvalidExponentError("all Holder exponents must be finite and exceed 1")
    if 1.0 / p1 + 1.0 / p2 + 1.0 / p3 >= 1.0:
        raise InvalidExponentError(
            f"Holder constraint violated: 1/{p1} + 1/{p2} + 1/{p3} >= 1")
    _check_gamma0(gamma0)
    q = 2.0 * v / (v - 1.0)
    cj = 0.5 * q * p2 * (q * p1 - 1.0)
    return TrueFppConstants(v=v, u=u, p1=p1, p2=p2, p3=p3, gamma0=gamma0, q=q,
                            cj_lower=cj)


@dataclass(frozen=True)
class MomentReport:
    """The admissibility moments of a deterministic sigma*pi schedule.

    Under such a schedule log wealth on the grid is Gaussian, so both
    moments are closed forms: the values are exact, not estimates.
    """

    integral_mean: float
    sup_moment: float
    sup_time: float
    v: float
    u: float


def check_admissibility_moments(sp: np.ndarray, market: MarketSpec,
                                mixture: RiskMixture, v: float, u: float,
                                grid: TimeGrid, x0: float = 1.0) -> MomentReport:
    """The time-integrated and running-sup admissibility moments, exactly.

    ``sp`` is the (N, d_w) sigma*pi schedule of ``evolve_log_wealth_batch``.
    Along it ``log X_{t_k}`` is N(mu_k, s_k), with
    mu_k = log x0 + sum_{j<k} (sp_j . lam_j - |sp_j|^2/2) dt_j and
    s_k = sum_{j<k} |sp_j|^2 dt_j, so E[X_{t_k}^a] = exp(a mu_k + a^2 s_k/2).
    The integral moment is sum_i w_i int E[X_t^(2v(1-g_i))] |sigma pi|^(2v) dt
    (left-endpoint rule on the grid); the sup moment is
    max_k sum_i w_i E[X_{t_k}^(2uv(1-g_i))], first attained at ``sup_time``.
    Both are summed in log space, so a moment past float range reads inf.
    """
    _check_integrability(v, u)
    check_positive(x0=x0)
    sp = check_schedule(sp, grid, market.d_w)
    norm = np.hypot.reduce(sp, axis=1)  # |sp| per cell, without overflow
    sp_lam = np.einsum("kd,kd->k", sp, market.sharpe_path(grid))
    log_w = np.log(mixture.weights)[:, None]

    def log_moment(c):  # log sum_i w_i E[X_{t_k}^(c (1-g_i))], k = 0..N
        a = c * (1.0 - mixture.gammas)[:, None]
        # a mu + a^2 s/2 per cell; a (a-1)/2 goes first so a = 1 reads 0, not 0 * inf
        cells = (a * sp_lam + 0.5 * a * (a - 1.0) * norm * norm) * grid.dt
        log_ex = a * np.log(x0) + np.pad(np.cumsum(cells, axis=1), ((0, 0), (1, 0)))
        return np.logaddexp.reduce(log_w + log_ex, axis=0)

    with np.errstate(over="ignore"):
        live = norm > 0  # a cell with sp = 0 adds exactly 0
        log_cells = (2.0 * v * np.log(norm[live]) + np.log(grid.dt[live])
                     + log_moment(2.0 * v)[:-1][live])
        integral = float(np.sum(np.exp(log_cells)))
        sup = np.exp(log_moment(2.0 * u * v))
    k_star = int(np.argmax(sup))
    return MomentReport(integral_mean=integral, sup_moment=float(sup[k_star]),
                        sup_time=float(grid.times[k_star]), v=v, u=u)
