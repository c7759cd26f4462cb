"""Covariance and correlation structure of the process and its increments.

With Sigma = sum_j lambda_j, the mean and variance of the count are

    E N(t)   = R t^alpha,            R = Sigma / Gamma(alpha + 1),
    Var N(t) = S t^(2 alpha) + T t^alpha,

where S and T are the quadratic and linear variance coefficients; the
three constants come from ``distribution._second_order``, which
``var_cfpp`` also reads.  For 0 < s <= t

    Cov(N(s), N(t)) = T s^alpha + Sigma^2 Cov(H(s), H(t)),

with H the inverse alpha-stable subordinator.  All returned values come
from these exact expressions; the power-law decay rates that classify the
long- and short-range dependence regimes live in the tests as expected
limits, never as computation paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import _second_order, var_cfpp
from .errors import DegenerateFitError, DomainError
from .special import complete_beta, incomplete_beta


@dataclass(frozen=True)
class DependenceParams:
    """The three constants (R, S, T) entering every second-order formula."""

    alpha: float
    mean_coeff: float  # R: E N(t) = R t^alpha
    var_quad: float  # S: coefficient of t^(2 alpha) in Var N(t)
    var_lin: float  # T: coefficient of t^alpha in Var N(t)
    sum_lambda: float

    @classmethod
    def from_model(cls, model, alpha):
        if not 0.0 < alpha <= 1.0:
            raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
        mean_coeff, var_quad, var_lin = _second_order(model, alpha)
        return cls(alpha, mean_coeff, var_quad, var_lin, model.sum_lambda())


def cov_inverse_stable(alpha: float, s: float, t: float) -> float:
    """Cov(H(s), H(t)) of the inverse alpha-stable subordinator, 0 < s <= t."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < s <= t:
        raise DomainError(f"need 0 < s <= t, got s={s}, t={t}")
    ga2 = math.gamma(alpha + 1.0) ** 2
    f = alpha * t ** (2.0 * alpha) * incomplete_beta(alpha, alpha + 1.0, s / t) - (t * s) ** alpha
    return (alpha * s ** (2.0 * alpha) * complete_beta(alpha, alpha + 1.0) + f) / ga2


def cov_cfpp(model, alpha: float, s: float, t: float) -> float:
    """Cov(N(s), N(t)) for 0 <= s <= t."""
    if not 0.0 <= s <= t:
        raise DomainError(f"need 0 <= s <= t, got s={s}, t={t}")
    p = DependenceParams.from_model(model, alpha)
    if s == 0.0:
        return 0.0
    if alpha == 1.0:
        # Levy case: the subordinator is deterministic and contributes nothing.
        return p.var_lin * s
    return p.var_lin * s**alpha + p.sum_lambda**2 * cov_inverse_stable(alpha, s, t)


def corr_cfpp(model, alpha: float, s: float, t: float) -> float:
    """Corr(N(s), N(t)); symmetric in (s, t), requires both times positive."""
    lo, hi = min(s, t), max(s, t)
    if lo <= 0:
        raise DomainError(f"correlation needs positive times, got s={s}, t={t}")
    denom = var_cfpp(model, alpha, lo) * var_cfpp(model, alpha, hi)
    if denom <= 0:
        raise DomainError("correlation undefined: zero variance")
    return cov_cfpp(model, alpha, lo, hi) / math.sqrt(denom)


# ---------------------------------------------------------------------------
# Increment process Z(t) = N(t + delta) - N(t)
# ---------------------------------------------------------------------------


def cov_increment(model, alpha: float, s: float, t: float, delta: float) -> float:
    """Cov(Z(s), Z(t)) for the lag-delta increments, exact four-term expansion.

    The expansion is valid for any s, t >= 0; the short-range-dependence
    regime of interest has s + delta <= t.
    """
    if delta <= 0:
        raise DomainError(f"delta must be positive, got {delta}")
    if s < 0 or t < 0:
        raise DomainError(f"times must be nonnegative, got s={s}, t={t}")

    def c(a, b):
        return cov_cfpp(model, alpha, min(a, b), max(a, b))

    return c(s + delta, t + delta) + c(s, t) - c(s + delta, t) - c(s, t + delta)


def var_increment(model, alpha: float, t: float, delta: float) -> float:
    """Var(Z(t)), algebraically identical to the four-term expansion at s = t.

    Grouping the terms removes the cancellation that makes the literal
    difference of variances lose all precision at large t:

        Var Z(t) = T d - R^2 d^2 + 2 R^2 alpha (t+delta)^(2 alpha)
                   * B(alpha+1, alpha; delta / (t+delta)),

    with d = (t + delta)^alpha - t^alpha.
    """
    if delta <= 0:
        raise DomainError(f"delta must be positive, got {delta}")
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t}")
    p = DependenceParams.from_model(model, alpha)
    if t == 0.0:
        return var_cfpp(model, alpha, delta)
    tp = t + delta
    d = t**alpha * math.expm1(alpha * math.log1p(delta / t))
    if alpha == 1.0:
        return p.var_lin * d  # stationary independent increments
    tail = incomplete_beta(alpha + 1.0, alpha, delta / tp)
    return (
        p.var_lin * d
        - p.mean_coeff**2 * d**2
        + 2.0 * p.mean_coeff**2 * alpha * tp ** (2.0 * alpha) * tail
    )


def corr_increment(model, alpha: float, s: float, t: float, delta: float) -> float:
    """Corr(Z(s), Z(t)); symmetric in (s, t)."""
    if s == t:
        return 1.0
    lo, hi = min(s, t), max(s, t)
    denom = var_increment(model, alpha, lo, delta) * var_increment(model, alpha, hi, delta)
    if denom <= 0:
        raise DomainError("increment correlation undefined: zero variance")
    return cov_increment(model, alpha, lo, hi, delta) / math.sqrt(denom)


# ---------------------------------------------------------------------------
# Tail-exponent fitting
# ---------------------------------------------------------------------------


def geometric_grid(t_min: float, t_max: float, points: int) -> np.ndarray:
    if not 0 < t_min < t_max:
        raise DomainError(f"need 0 < t_min < t_max, got {t_min}, {t_max}")
    if points < 2:
        raise DomainError(f"need at least 2 points, got {points}")
    return np.geomspace(t_min, t_max, points)


def fit_tail_exponent(curve, t_grid) -> float:
    """Least-squares slope of log |curve(t)| against log t.

    The grid must be geometric with at least 8 points spanning three or more
    decades; a curve that vanishes (or blows up) anywhere on the grid has no
    well-defined log-log slope and raises DegenerateFitError.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 8:
        raise DomainError(f"need >= 8 grid points, got {len(t_grid)}")
    if t_grid[0] <= 0 or np.any(np.diff(t_grid) <= 0):
        raise DomainError("grid must be positive and increasing")
    if t_grid[-1] / t_grid[0] < 1e3:
        raise DomainError("grid must span at least three decades")
    ratios = t_grid[1:] / t_grid[:-1]
    if not np.allclose(ratios, ratios[0], rtol=1e-6):
        raise DomainError("grid must be geometric (constant ratio)")
    values = np.array([curve(t) for t in t_grid], dtype=float)
    if np.any(values == 0.0) or not np.all(np.isfinite(values)):
        raise DegenerateFitError("curve vanishes or is non-finite on the grid")
    x = np.log(t_grid)
    y = np.log(np.abs(values))
    design = np.vstack([x, np.ones_like(x)]).T
    slope, _ = np.linalg.lstsq(design, y, rcond=None)[0]
    return float(slope)


def corr_decay_exponent(
    model, alpha: float, s: float, t_min: float = 1e2, t_max: float = 1e6, points: int = 17
) -> float:
    """Fitted tail exponent of t -> Corr(N(s), N(t))."""
    grid = geometric_grid(t_min, t_max, points)
    return fit_tail_exponent(lambda t: corr_cfpp(model, alpha, s, t), grid)


def increment_corr_decay_exponent(
    model,
    alpha: float,
    s: float,
    delta: float,
    t_min: float = 1e2,
    t_max: float = 1e6,
    points: int = 17,
) -> float:
    """Fitted tail exponent of t -> Corr(Z(s), Z(t)) at lag delta."""
    grid = geometric_grid(t_min, t_max, points)
    return fit_tail_exponent(lambda t: corr_increment(model, alpha, s, t, delta), grid)


def lrd_constant(model, alpha: float, s: float) -> float:
    """Level constant c0(s) of the large-t law Corr(N(s), N(t)) ~ c0(s) t^-alpha."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if s <= 0:
        raise DomainError(f"s must be positive, got {s}")
    p = DependenceParams.from_model(model, alpha)
    g2 = math.gamma(2.0 * alpha + 1.0)
    num = g2 * p.var_lin * s**alpha + p.sum_lambda**2 * s ** (2.0 * alpha)
    den = g2 * math.sqrt(var_cfpp(model, alpha, s)) * math.sqrt(p.var_quad)
    return num / den
