"""Covariance and correlation structure of the process and its increments.

With Sigma = sum_j lambda_j, the mean and variance of the count are

    E N(t)   = R t^alpha,            R = Sigma / Gamma(alpha + 1),
    Var N(t) = S t^(2 alpha) + T t^alpha,

where S and T are the quadratic and linear variance coefficients; the
three constants come from ``distribution._second_order``, which
``var_cfpp`` also reads.  For 0 < s <= t

    Cov(N(s), N(t)) = T s^alpha + Sigma^2 Cov(H(s), H(t)),

with H the inverse alpha-stable subordinator.  All returned values come
from these exact expressions; where they cancel, Cov(H(s), H(t)) and the
increment covariance sum ``special.beta_series`` without the cancelling
terms.  The power-law decay rates that classify the long- and short-range
dependence regimes live in the tests as expected limits, never as
computation paths.

Every time, lag and level argument must be finite, and a value that
overflows or is not finite is refused with DomainError rather than
returned.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .distribution import _second_order, var_cfpp
from .errors import DegenerateFitError, DomainError
from .special import beta_series, complete_beta, incomplete_beta


def _finite(func):
    """Refuse non-finite numbers among the arguments, and an overflow or a non-finite value."""

    @functools.wraps(func)
    def checked(*args):
        numbers = tuple(a for a in args if isinstance(a, (int, float)))
        if not all(math.isfinite(a) for a in numbers):
            raise DomainError(f"{func.__name__} needs finite arguments, got {numbers}")
        try:
            value = func(*args)
        except OverflowError as exc:
            raise DomainError(f"{func.__name__} overflows at {numbers}") from exc
        if not math.isfinite(value):
            raise DomainError(f"{func.__name__} is not finite at {numbers}")
        return value

    return checked


@_finite
def cov_inverse_stable(alpha: float, s: float, t: float) -> float:
    """Cov(H(s), H(t)) of the inverse alpha-stable subordinator, 0 < s <= t.

    With x = s / t, f = alpha t^(2 alpha) B(alpha, alpha + 1; x) - (ts)^alpha
    cancels as t grows, so for x <= 1/2 it is summed as (ts)^alpha alpha
    sum_(n>=1) e_n x^n / (alpha + n): ``beta_series`` without its n = 0
    term, which is the (ts)^alpha that cancels.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < s <= t:
        raise DomainError(f"need 0 < s <= t, got s={s}, t={t}")
    ga2 = math.gamma(alpha + 1.0) ** 2
    x = s / t
    if x <= 0.5:
        f = (t * s) ** alpha * alpha * beta_series(alpha, alpha + 1.0, x, start=1)
    else:
        f = alpha * t ** (2.0 * alpha) * incomplete_beta(alpha, alpha + 1.0, x) - (t * s) ** alpha
    return (alpha * s ** (2.0 * alpha) * complete_beta(alpha, alpha + 1.0) + f) / ga2


@_finite
def cov_cfpp(model, alpha: float, s: float, t: float) -> float:
    """Cov(N(s), N(t)) for 0 <= s <= t."""
    if not 0.0 <= s <= t:
        raise DomainError(f"need 0 <= s <= t, got s={s}, t={t}")
    _, _, var_lin = _second_order(model, alpha)
    if s == 0.0:
        return 0.0
    if alpha == 1.0:
        # Levy case: the subordinator is deterministic and contributes nothing.
        return var_lin * s
    return var_lin * s**alpha + model.sum_lambda() ** 2 * cov_inverse_stable(alpha, s, t)


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


@_finite
def cov_increment(model, alpha: float, s: float, t: float, delta: float) -> float:
    """Cov(Z(s), Z(t)) for the lag-delta increments, any s, t >= 0.

    Near the diagonal, and at alpha = 1, it is the four-term expansion
    c(s+d, t+d) + c(s, t) - c(s+d, t) - c(s, t+d) of ``cov_cfpp``.  With
    lo = min(s, t), hi = max(s, t) and r = (lo + d) / hi <= 0.9 those terms
    agree to many digits; their T lo^alpha and lo^(2 alpha) B terms cancel
    exactly, and what is left is summed term by term, every term positive:

        R^2 alpha sum_(n>=1) e_n / (alpha + n) [(lo+d)^(alpha+n) - lo^(alpha+n)]
                                           [(hi+d)^(alpha-n) - hi^(alpha-n)],

    R = Sigma / Gamma(alpha + 1), e_n the coefficients of (1 - u)^alpha.
    The brackets go through expm1 and log1p, and their powers are grouped
    as ((lo+d) hi)^alpha r^n, so none overflows when the value does not.
    """
    if delta <= 0:
        raise DomainError(f"delta must be positive, got {delta}")
    if s < 0 or t < 0:
        raise DomainError(f"times must be nonnegative, got s={s}, t={t}")
    lo, hi = min(s, t), max(s, t)
    if alpha == 1.0 or 0.9 * hi < lo + delta:  # r > 0.9 needs over 330 terms
        pairs = ((s + delta, t + delta), (s, t), (s + delta, t), (s, t + delta))
        c = [cov_cfpp(model, alpha, min(a, b), max(a, b)) for a, b in pairs]
        return c[0] + c[1] - c[2] - c[3]
    mean_coeff, lo_d = _second_order(model, alpha)[0], lo + delta
    log_lo = -math.log1p(delta / lo) if lo > 0 else -math.inf  # log(lo / (lo + d))
    log_hi = math.log1p(delta / hi)

    def brackets(n):
        return -math.expm1((alpha + n) * log_lo) * math.expm1((alpha - n) * log_hi)

    series = beta_series(alpha, alpha + 1.0, lo_d / hi, start=1, weight=brackets)
    return mean_coeff**2 * alpha * lo_d**alpha * (hi**alpha * series)


@_finite
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
    mean_coeff, _, var_lin = _second_order(model, alpha)
    if t == 0.0:
        return var_cfpp(model, alpha, delta)
    tp = t + delta
    d = t**alpha * math.expm1(alpha * math.log1p(delta / t))
    if alpha == 1.0:
        return var_lin * d  # stationary independent increments
    tail = incomplete_beta(alpha + 1.0, alpha, delta / tp)
    return var_lin * d - mean_coeff**2 * d**2 + 2.0 * mean_coeff**2 * alpha * tp ** (2.0 * alpha) * tail


@_finite
def corr_increment(model, alpha: float, s: float, t: float, delta: float) -> float:
    """Corr(Z(s), Z(t)); symmetric in (s, t), 1 on the diagonal once the arguments pass."""
    lo, hi = min(s, t), max(s, t)
    denom = var_increment(model, alpha, lo, delta) * var_increment(model, alpha, hi, delta)
    if denom <= 0:
        raise DomainError("increment correlation undefined: zero variance")
    if s == t:
        return 1.0
    return cov_increment(model, alpha, lo, hi, delta) / math.sqrt(denom)


# ---------------------------------------------------------------------------
# Tail-exponent fitting
# ---------------------------------------------------------------------------


def geometric_grid(t_min: float, t_max: float, points: int) -> np.ndarray:
    if not 0 < t_min < t_max < math.inf:
        raise DomainError(f"need 0 < t_min < t_max < inf, got {t_min}, {t_max}")
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


@_finite
def lrd_constant(model, alpha: float, s: float) -> float:
    """Level constant c0(s) of the large-t law Corr(N(s), N(t)) ~ c0(s) t^-alpha."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if s <= 0:
        raise DomainError(f"s must be positive, got {s}")
    _, var_quad, var_lin = _second_order(model, alpha)
    g2 = math.gamma(2.0 * alpha + 1.0)
    num = g2 * var_lin * s**alpha + model.sum_lambda() ** 2 * s ** (2.0 * alpha)
    den = g2 * math.sqrt(var_cfpp(model, alpha, s)) * math.sqrt(var_quad)
    return num / den
