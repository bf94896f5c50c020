"""Two-power mixtures U_t(x) = A_t x^p + D_t x^q with constant powers in (0,1).

For strictly positive coefficient semimartingales

    dA = alpha A dt + a A . dW + a_perp A . dW_perp   (likewise D),

the sum is a consistent criterion exactly when the coefficient drifts equal

    alpha = -p/(2(1-p)) |lam + a|^2,   delta = -q/(2(1-q)) |lam + d|^2,

and the consistency gap |(lam + a)/(1-p) - (lam + d)/(1-q)| vanishes, in
which case both summands are power criteria sharing one optimal portfolio.
Away from zero gap the joint drift at the pointwise optimiser is strictly
negative: the per-unit-time cost of pooling.

The module also ships validators for the random-power necessary conditions
(p nondecreasing, q nonincreasing, constant p forces constant q) and the
closed-form Legendre dual of the (1-2g, 1-g) double-aversion family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .market import check_finite, check_positive, solve_allocation

POWER_PATH_TOL = 1e-12  # monotonicity slack for sampled power paths


@dataclass(frozen=True)
class TwoPowerSpec:
    """Powers, initial coefficients, and the coefficients' loadings on W.

    A bad field raises a ValueError that names the field first (``a0: ...``).
    """

    p: float
    q: float
    a0: float
    d0: float
    a_vol: np.ndarray    # (d_w,) loading of A on W
    d_vol: np.ndarray    # (d_w,)

    def __post_init__(self):
        for name in ("a_vol", "d_vol"):
            try:
                value = np.atleast_1d(np.asarray(getattr(self, name), float))
            except (TypeError, ValueError):
                raise ValueError(f"{name}: not a number or an array of numbers") from None
            check_finite(**{name: value})
            object.__setattr__(self, name, value)
        check_powers(self.p, self.q)
        check_positive(a0=self.a0, d0=self.d0)

    def check(self, d_w: int) -> None:
        """Raise ValueError unless each W loading has 1 (shared) or d_w entries."""
        for name in ("a_vol", "d_vol"):
            n = getattr(self, name).size
            if n not in (1, d_w):
                raise ValueError(f"{name}: must have 1 or d_w = {d_w} entries, got {n}")


def check_powers(p: float, q: float) -> None:
    """Raise ValueError, naming the field at fault first, unless 0 < p < q < 1."""
    if not (0.0 < p < q < 1.0):
        raise ValueError(f"{'q' if 0.0 < p < 1.0 else 'p'}: need 0 < p < q < 1, "
                         f"got p={p}, q={q}")


def _check_unit_powers(p: float, q: float) -> None:
    """Raise ValueError unless p and q each lie in (0, 1); NaN does not, p = q may."""
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise ValueError("powers must lie in (0, 1)")


def _shifted_loadings(lam, a_vol, d_vol):
    """lam + a and lam + d as 1-d arrays; ValueError naming the first of lam,
    a_vol and d_vol with a non-finite entry."""
    check_finite(lam=lam, a_vol=a_vol, d_vol=d_vol)
    return (np.atleast_1d(lam) + np.atleast_1d(a_vol),
            np.atleast_1d(lam) + np.atleast_1d(d_vol))


def _one_power_targets(p: float, q: float, lam, a_vol, d_vol):
    """The one-power targets (lam + a)/(1-p) and (lam + d)/(1-q)."""
    _check_unit_powers(p, q)
    la, ld = _shifted_loadings(lam, a_vol, d_vol)
    return la / (1.0 - p), ld / (1.0 - q)


def coefficient_drifts(p: float, q: float, lam, a_vol, d_vol) -> tuple[float, float]:
    """Necessary drifts (alpha, delta) of the two coefficient processes."""
    _check_unit_powers(p, q)
    la, ld = _shifted_loadings(lam, a_vol, d_vol)
    alpha = -p / (2.0 * (1.0 - p)) * float(la @ la)
    delta = -q / (2.0 * (1.0 - q)) * float(ld @ ld)
    return alpha, delta


def consistency_gap(p: float, q: float, lam, a_vol, d_vol) -> float:
    """Norm of (lam + a)/(1-p) - (lam + d)/(1-q); zero iff the sum is consistent."""
    ta, td = _one_power_targets(p, q, lam, a_vol, d_vol)
    return float(np.linalg.norm(ta - td))


def zero_gap_d_vol(p: float, q: float, lam, a_vol) -> np.ndarray:
    """The unique d loading closing the consistency gap for given (p, q, lam, a)."""
    _check_unit_powers(p, q)
    la, _ = _shifted_loadings(lam, a_vol, 0.0)
    return (1.0 - q) / (1.0 - p) * la - np.atleast_1d(np.asarray(lam, float))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-safe 1 / (1 + exp(-x)): e / (1 + e) with e = exp(x) below 0."""
    e = np.exp(-np.abs(x))
    return np.where(np.asarray(x) >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _log_side_weights(p, q, a_coeff, d_coeff, x):
    """log of the positive weights p(1-p)A x^p and q(1-q)D x^q.

    Each log is a sum of logs, as in ``joint_drift``'s numerator: the
    product ``p(1-p)A`` underflows to 0 for a coefficient near the bottom
    of float range, whose own log is finite.
    """
    lx = np.log(float(x))
    wu = np.log(p * (1.0 - p)) + np.log(a_coeff) + p * lx
    wv = np.log(q * (1.0 - q)) + np.log(d_coeff) + q * lx
    return wu, wv


def mixture_sp_target(p: float, q: float, a_coeff: float, d_coeff: float, x: float,
                      lam, a_vol, d_vol) -> np.ndarray:
    """State-feedback allocation target sigma*pi for the joint criterion.

    A convex combination of the two one-power targets (lam+a)/(1-p) and
    (lam+d)/(1-q) with weights p(1-p)A x^p and q(1-q)D x^q, evaluated in log
    space so extreme wealth or coefficients cannot overflow.
    """
    check_positive(a_coeff=a_coeff, d_coeff=d_coeff, x=x)
    ta, td = _one_power_targets(p, q, lam, a_vol, d_vol)
    wu, wv = _log_side_weights(p, q, a_coeff, d_coeff, x)
    omega = _sigmoid(wu - wv)  # weight of the p side, in [0, 1]
    return omega * ta + (1.0 - omega) * td


def mixture_portfolio(p: float, q: float, a_coeff: float, d_coeff: float, x: float,
                      lam, a_vol, d_vol, sigma) -> np.ndarray:
    """Solve sigma pi = mixture_sp_target(...) for pi by pseudoinverse."""
    target = mixture_sp_target(p, q, a_coeff, d_coeff, x, lam, a_vol, d_vol)
    return solve_allocation(sigma, target)


def joint_drift(p: float, q: float, a_coeff: float, d_coeff: float, x: float,
                lam, a_vol, d_vol) -> float:
    """Drift of the joint criterion at its pointwise optimiser; <= 0 always.

        - pq(1-p)(1-q) A D x^(p+q) / (p(1-p)A x^p + q(1-q)D x^q) * gap^2

    Zero exactly when the consistency gap vanishes; the magnitude is the
    instantaneous cost of pooling the two investors.
    """
    check_positive(a_coeff=a_coeff, d_coeff=d_coeff, x=x)
    gap = consistency_gap(p, q, lam, a_vol, d_vol)
    if gap == 0.0:
        return 0.0
    wu, wv = _log_side_weights(p, q, a_coeff, d_coeff, x)
    log_num = (np.log(p * q * (1.0 - p) * (1.0 - q)) + np.log(a_coeff)
               + np.log(d_coeff) + (p + q) * np.log(x))
    log_den = np.logaddexp(wu, wv)
    return float(-np.exp(log_num - log_den) * gap ** 2)


def _check_double_aversion(a_coeff: float, d_coeff: float, gamma: float) -> None:
    """Raise ValueError unless 0 < A, D < inf and g lies in (0, 1/2); NaN fails both."""
    check_positive(a_coeff=a_coeff, d_coeff=d_coeff)
    if not (0.0 < gamma < 0.5):
        raise ValueError(f"gamma: must lie in (0, 1/2) so both powers are in (0, 1), "
                         f"got {gamma:g}")


def legendre_dual(y: float, a_coeff: float, d_coeff: float,
                  gamma: float) -> tuple[float, float]:
    """Closed-form dual of U(x) = A x^(1-2g)/(1-2g) + D x^(1-g)/(1-g), g in (0, 1/2).

    Returns the maximiser x* = ((-D + sqrt(D^2 + 4Ay)) / (2A))^(-1/g) of
    U(x) - xy and the dual value there; the first-order condition
    A x*^(-2g) + D x*^(-g) = y holds to machine precision.  Raises
    ValueError naming ``y`` when x* or the dual value leaves float range.
    """
    check_positive(y=y)
    _check_double_aversion(a_coeff, d_coeff, gamma)
    # (-D + sqrt(D^2 + 4Ay)) / (2A) in its cancellation-free form; the hypot
    # keeps D^2 + 4Ay from overflowing
    root = y / (0.5 * (d_coeff + np.hypot(d_coeff, 2.0 * np.sqrt(a_coeff) * np.sqrt(y))))
    with np.errstate(over="ignore"):
        x_star = float(root ** (-1.0 / gamma))
        u = (a_coeff * x_star ** (1.0 - 2.0 * gamma) / (1.0 - 2.0 * gamma)
             + d_coeff * x_star ** (1.0 - gamma) / (1.0 - gamma))
        value = float(u - x_star * y)
    if not (0.0 < x_star < np.inf and np.isfinite(value)):
        raise ValueError(f"y: {y:g} puts x* or the dual value outside float "
                         f"range at gamma = {gamma:g}")
    return x_star, value


def dual_marginal(x: float, a_coeff: float, d_coeff: float, gamma: float) -> float:
    """U'(x) = A x^(-2g) + D x^(-g) for the double-aversion family."""
    check_positive(x=x)
    _check_double_aversion(a_coeff, d_coeff, gamma)
    return float(a_coeff * x ** (-2.0 * gamma) + d_coeff * x ** (-gamma))


# ---------------------------------------------------------------------------
# Random-power validators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerPathViolation:
    index: int
    quantity: str
    value: float

    def __str__(self):
        return f"index {self.index}: {self.quantity} = {self.value:.6e}"


@dataclass(frozen=True)
class PowerPathReport:
    ok: bool
    violations: tuple[PowerPathViolation, ...]

    def to_text(self) -> str:
        if self.ok:
            return "power paths: ok"
        lines = ["power paths: violations found"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def validate_power_paths(p_path: Sequence[float], q_path: Sequence[float]) -> PowerPathReport:
    """Check sampled power paths against the necessary conditions.

    p may only rise, q may only fall, p_t < q_t throughout; and if p is
    constant (to ``POWER_PATH_TOL``) then q must be constant as well.  A
    non-finite entry raises ValueError: no comparison with NaN fails.
    """
    p = np.asarray(p_path, float)
    q = np.asarray(q_path, float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("p_path and q_path must be 1-d of equal length")
    finite = np.isfinite(p) & np.isfinite(q)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"p_path and q_path must be finite, got p = {p[i]:g}, "
                         f"q = {q[i]:g} at index {i}")
    bad: list[PowerPathViolation] = []
    dp = np.diff(p)
    dq = np.diff(q)
    for i in np.nonzero(dp < -POWER_PATH_TOL)[0]:
        bad.append(PowerPathViolation(int(i) + 1, "p decrease", float(dp[i])))
    for i in np.nonzero(dq > POWER_PATH_TOL)[0]:
        bad.append(PowerPathViolation(int(i) + 1, "q increase", float(dq[i])))
    for i in np.nonzero(p >= q)[0]:
        bad.append(PowerPathViolation(int(i), "p >= q", float(p[i] - q[i])))
    if p.size and np.max(np.abs(p - p[0])) <= POWER_PATH_TOL:
        drift = np.abs(q - q[0])
        if np.max(drift) > POWER_PATH_TOL:
            i = int(np.argmax(drift))
            bad.append(PowerPathViolation(i, "q varies while p constant",
                                          float(q[i] - q[0])))
    bad.sort(key=lambda viol: viol.index)
    return PowerPathReport(ok=not bad, violations=tuple(bad))
