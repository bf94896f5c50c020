"""Signed three-power mixture criterion with explicit validity certificates.

For gamma in (0, 1/3) the alternating combination of aversions
(gamma, 2*gamma, 3*gamma) with weights (+1, -1, +1), base aversion
2*gamma and vanishing free loadings collapses to the closed form

    U_t(x) = Z^-1 ( x^(1-g)/(1-g)   e^{-I/(8g)}
                  - x^(1-2g)/(1-2g) e^{-(1-2g) I/(4g)} Z
                  + x^(1-3g)/(1-3g) e^{(1 - 3/(8g)) I} Z^2 ),

with Z = exp(half int lam.dW) and I = int |lam|^2 ds.  Monotonicity and
concavity in x reduce to two quadratics in Z x^-g whose discriminants,
-3 e^{-(1-2g)/(2g)} and -8 e^{-(1-2g)/(2g)} (per unit of I), are negative on
the whole parameter range; the drift factorises into that strictly positive
quadratic times |lam|^2/(8g) - (sigma pi).lam/2 + g |sigma pi|^2/2, which
vanishes exactly at sigma pi = lam/(2g).

The middle weight is negative, yet the construction passes every criterion
check: positivity of all weights is necessary for two-power sums but not in
general.  Signed combinations stay confined to this module; the generic
mixture type keeps rejecting them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import (MarketSpec, TimeGrid, check_between, check_finite, check_positive,
                     running_integral)
from .mixture import power_logs, signed_exp_sum


@dataclass(frozen=True)
class ThreePowerSpec:
    """Base risk aversion of the signed construction; must lie in (0, 1/3)."""

    gamma: float

    def __post_init__(self):
        check_between(0, "1/3", gamma=self.gamma)


def _term_logs(log_x, log_z, int_lam2, g):
    """Log-magnitudes and signs of the three summands, one per row: the
    ``power_logs`` of atoms (g, 2g, 3g) with weights (+1, -1, +1), plus the
    closed form's I and log Z exponents, added in its left-to-right order.
    """
    i = np.asarray(int_lam2, float)
    lz = np.asarray(log_z, float)
    logs, signs = power_logs(g * np.arange(1.0, 4.0), (1.0, -1.0, 1.0), log_x,
                             np.broadcast_shapes(i.shape, lz.shape))
    l1, l2, l3 = (logs[k, ...] for k in range(3))  # views even for scalar terms
    l1 -= i / (8.0 * g)
    l1 -= lz
    l2 -= (1.0 - 2.0 * g) * i / (4.0 * g)
    l3 += (1.0 - 3.0 / (8.0 * g)) * i
    l3 += lz
    return logs, signs


def three_power_value(x, z_factor, int_lam2, spec: ThreePowerSpec):
    """Criterion value at wealth x given accumulated Z and I = int |lam|^2 ds.

    Evaluated in log space, so long horizons and extreme Z cannot overflow
    intermediate products.  Accepts arrays broadcastable against each other.
    """
    check_positive(x=x, z_factor=z_factor)
    check_finite(int_lam2=int_lam2)
    out = signed_exp_sum(*_term_logs(np.log(x), np.log(z_factor), int_lam2, spec.gamma))
    return float(out) if out.ndim == 0 else out


def concavity_discriminants(gamma: float) -> tuple[float, float]:
    """Discriminants certifying monotonicity and concavity (per unit of I).

    Both equal a negative constant times exp(-(1-2g)/(2g)) and stay strictly
    negative on (0, 1/3), so the two quadratics in Z x^-g have no real roots.
    """
    ThreePowerSpec(gamma)  # the one check of 0 < gamma < 1/3
    e = np.exp(-(1.0 - 2.0 * gamma) / (2.0 * gamma))
    return -3.0 * e, -8.0 * e


def three_power_drift_factors(x: float, z_factor: float, int_lam2: float,
                              lam, sp, spec: ThreePowerSpec) -> tuple[float, float]:
    """The two factors whose product (with sign flipped) is the drift.

    ``positive_factor`` is the concavity quadratic a - 2b y + 3c y^2 at
    y = Z x^-gamma (strictly positive by the discriminant certificate);
    ``quadratic_factor`` is |lam|^2/(8g) - (sp.lam)/2 + g |sp|^2 / 2, zero
    exactly at sp = lam/(2g).  The criterion's drift is
    -Z^-1 x^(1-g) * positive_factor * quadratic_factor <= 0.
    """
    g = spec.gamma
    check_positive(x=x, z_factor=z_factor)
    check_finite(int_lam2=int_lam2, lam=lam, sp=sp)
    i = float(int_lam2)
    a = np.exp(-i / (8.0 * g))
    b = np.exp(-(1.0 - 2.0 * g) * i / (4.0 * g))
    c = np.exp((1.0 - 3.0 / (8.0 * g)) * i)
    y = z_factor * x ** (-g)
    positive = float(a - 2.0 * b * y + 3.0 * c * y * y)
    lam = np.atleast_1d(np.asarray(lam, float))
    sp = np.atleast_1d(np.asarray(sp, float))
    quadratic = float((lam @ lam) / (8.0 * g) - 0.5 * (sp @ lam)
                      + 0.5 * g * (sp @ sp))
    return positive, quadratic


class ThreePowerFpp:
    """The signed criterion bound to a market and a time grid.

    ``lam_path`` and ``sp_star`` = lam/(2 gamma), (N, d_w) at the left
    endpoints, the (N, 1, d_w) loading ``h`` = lam/2 of log Z, and
    ``i_path`` = int |lam|^2 ds, (N+1,), are computed once, here.
    """

    def __init__(self, spec: ThreePowerSpec, market: MarketSpec, grid: TimeGrid):
        self.spec = spec
        self.market = market
        self.grid = grid
        self.lam_path = market.sharpe_path(grid)
        self.sp_star = self.lam_path / (2.0 * spec.gamma)
        self.h = 0.5 * self.lam_path[:, None, :]
        self.i_path = np.concatenate(
            [[0.0], np.cumsum(np.einsum("kd,kd->k", self.lam_path, self.lam_path)
                              * grid.dt)])

    def u0(self, x: float) -> float:
        return three_power_value(x, 1.0, 0.0, self.spec)

    def accumulators(self, dw: np.ndarray, cols: slice = slice(None), carry=None):
        """log Z along an ensemble, at the grid columns ``cols``.

        log Z is the C-ordered (1, len(cols), B) ``running_integral`` of the
        one loading ``h``; I is the deterministic ``i_path``.  ``dw`` holds
        the ``brownian_batch`` increments of the whole grid.  The whole
        horizon is the one-chunk case; a chunk past column 0 continues from
        ``carry``, the (1, B) ``log_z[:, -1]`` of the chunk before.
        """
        return running_integral(self.h, dw, cols, carry)

    def state_paths(self, dw: np.ndarray, dwperp: np.ndarray,
                    cols: slice = slice(None), carry=None):
        """The ``accumulators`` at ``cols``: the state ``utility_paths`` evaluates.

        ``carry`` is the (1, B) log Z at the column before ``cols``, as in
        ``MixtureFpp.state_paths``.  W_perp does not enter this criterion.
        """
        return self.accumulators(dw, cols, carry)

    def utility_paths(self, state, log_x: np.ndarray,
                      cols: slice = slice(None)) -> np.ndarray:
        """U_t(X_t) at the grid columns ``cols``.

        ``state`` is the ``state_paths`` log Z of the same ``cols``, and
        ``log_x`` is log wealth at those columns, shape (len(cols), B).  As
        in ``MixtureFpp.utility_paths`` the terms are evaluated in that
        layout and U is returned in it, a C-ordered (len(cols), B) array.
        """
        return signed_exp_sum(*_term_logs(log_x, state[0], self.i_path[cols, None],
                                          self.spec.gamma))
