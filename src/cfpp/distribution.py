"""Exact state probabilities, generating functions, transforms, and moments.

The count distribution at time t has the compound form

    p(n, t) = sum_{k=0}^{n}  Pr{X_1 + ... + X_k = n} * w_k(t),

where the X_i are iid jumps with law delta_j / lambda_0 and w_k(t) is the
k-th fractional-Poisson weight (lambda_0 t^alpha)^k E^{k+1}_{alpha, k alpha
+ 1}(-lambda_0 t^alpha).  The jump-sum probabilities are the coefficients of
the partition ("lambda") form of the distribution, accumulated here by the
convolution-power recurrence of their generating polynomial; the padded
("theta") and composition forms are kept as literal enumerations and used
as cross-checking oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import intensity as intens
from . import partitions, special
from .errors import DomainError

N_MAX_CEILING = 128
THETA_N_CEILING = 64  # padded-index enumeration cost explodes past this
COMPOSITION_N_CEILING = 20  # composition enumeration grows like 2^n

FORMULA_LAMBDA = "LambdaSum"
FORMULA_THETA = "ThetaSum"
FORMULA_COMPOSITION = "CompositionSum"
FORMULA_CPP = "CppClosedForm"


@dataclass(frozen=True)
class StateDistribution:
    """Probabilities p(0..n_max) at a fixed time, plus the mass left out."""

    alpha: float
    t: float
    probs: np.ndarray
    formula: str
    truncation_mass: float

    @property
    def n_max(self) -> int:
        return len(self.probs) - 1


@dataclass(frozen=True)
class MomentReport:
    mean: float
    variance: float
    raw_moments: tuple
    factorial_moments: tuple


def _validate_common(model, alpha, t):
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0 <= t < math.inf:
        raise DomainError(f"t must be finite and nonnegative, got {t}")
    if not isinstance(model, (intens.FiniteIntensity, intens.GeometricIntensity)):
        raise DomainError(f"not an intensity model: {model!r}")


def _check_n_max(n_max, ceiling=N_MAX_CEILING):
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    if n_max > ceiling:
        raise DomainError(f"n_max = {n_max} exceeds the ceiling {ceiling}")


def _convolution_powers(g, n):
    """Rows k = 0..n of the convolution powers g^k, each truncated at degree n."""
    out = np.zeros((n + 1, n + 1))
    out[0, 0] = 1.0
    for k in range(1, n + 1):
        out[k] = np.convolve(out[k - 1], g)[: n + 1]
    return out


def jump_sum_pmf(model, n_max: int) -> np.ndarray:
    """Matrix J[k, n] = Pr{X_1 + ... + X_k = n} for k, n = 0..n_max.

    Row k is the k-fold convolution power of the jump law; row 0 is a point
    mass at zero.  Jumps are at least 1, so J[k, n] = 0 for k > n.
    """
    lam0 = model.lambda_at(0)
    g = np.zeros(n_max + 1)
    for j in range(1, n_max + 1):
        g[j] = intens.delta(model, j) / lam0
    return _convolution_powers(g, n_max)


def _point_mass(alpha, t, n_max, formula):
    probs = np.zeros(n_max + 1)
    probs[0] = 1.0
    return StateDistribution(alpha, t, probs, formula, 0.0)


def _chernoff_n(model, alpha, t, tail_tol):
    """Smallest n with P{N(t) > n} <= tail_tol, by a Chernoff bound.

    P{N > n} <= u^-(n+1) E u^N for any u > 1 inside the pgf's radius; the
    pgf is bounded through E_alpha(x) <= (1/alpha) exp(x^(1/alpha)), so no
    series evaluation is needed.  Returns N_MAX_CEILING when no candidate
    tilt stays inside the accuracy domain.
    """
    if isinstance(model, intens.GeometricIntensity) and model.q > 0:
        pole = 1.0 / model.q
        candidates = [1.0 + f * (pole - 1.0) for f in (0.2, 0.35, 0.5, 0.65, 0.8)]
    else:
        candidates = [1.25, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0]
    best = N_MAX_CEILING
    for u in candidates:
        arg = t**alpha * intens.delta_series(model, u)
        if not 0 < arg <= 45.0:
            continue
        try:
            log_pgf = arg ** (1.0 / alpha) - math.log(alpha)
        except OverflowError:  # small alpha: the bound says nothing at this tilt
            continue
        n = math.ceil((log_pgf - math.log(tail_tol)) / math.log(u))
        best = min(best, n)
    return best


def default_n_max(model, alpha: float, t: float, tail_tol: float = 1e-7) -> int:
    """Auto-sized state ceiling, capped at N_MAX_CEILING.

    Starts from mean + 10 standard deviations and extends until a Chernoff
    bound puts the missing mass below tail_tol; the count tail is set by the
    jump law, which the standard deviation alone understates at small t.
    """
    _validate_common(model, alpha, t)
    if t == 0:
        return 8
    m = mean_cfpp(model, alpha, t)
    sd = math.sqrt(var_cfpp(model, alpha, t))
    base = max(8, math.ceil(m + 10.0 * sd))
    return min(N_MAX_CEILING, max(base, _chernoff_n(model, alpha, t, tail_tol)))


def pmf_cfpp(model, alpha: float, t: float, n_max: int | None = None) -> StateDistribution:
    """Count distribution p(n, t) for n = 0..n_max (lambda-form coefficients).

    With n_max omitted, the ceiling is auto-sized (mean + 10 standard
    deviations, extended by a tail bound, capped at 128); whatever mass
    lies beyond the ceiling is reported as ``truncation_mass``.
    """
    _validate_common(model, alpha, t)
    if n_max is None:
        n_max = default_n_max(model, alpha, t)
    _check_n_max(n_max)
    if t == 0:
        return _point_mass(alpha, t, n_max, FORMULA_LAMBDA)
    lam0 = model.lambda_at(0)
    w = special.ml_weights(alpha, lam0 * t**alpha, n_max)
    probs = jump_sum_pmf(model, n_max).T @ w
    return StateDistribution(alpha, t, probs, FORMULA_LAMBDA, 1.0 - float(probs.sum()))


def pmf_cfpp_theta(model, alpha: float, t: float, n_max: int | None = None) -> StateDistribution:
    """As pmf_cfpp, via literal enumeration of the padded index sets.

    Enumeration cost grows with the partition numbers, so this oracle path
    is capped at n_max <= 64.
    """
    _validate_common(model, alpha, t)
    if n_max is None:
        n_max = min(default_n_max(model, alpha, t), THETA_N_CEILING)
    _check_n_max(n_max, THETA_N_CEILING)
    if t == 0:
        return _point_mass(alpha, t, n_max, FORMULA_THETA)
    lam0 = model.lambda_at(0)
    w = special.ml_weights(alpha, lam0 * t**alpha, n_max)
    q = [w[k] / lam0**k for k in range(n_max + 1)]  # t^{k a} E^{k+1}(-lam0 t^a)
    d = intens.deltas(model, n_max)
    probs = np.zeros(n_max + 1)
    probs[0] = q[0]
    for n in range(1, n_max + 1):
        total = 0.0
        for k in range(1, n + 1):
            coef = 0.0
            for vec in partitions.iter_multiplicity_vectors(n, k, n):
                term = float(partitions.multinomial(k, vec))
                for dj, kj in zip(d, vec):
                    if kj:
                        term *= dj**kj
                coef += term
            total += coef * q[k]
        probs[n] = total
    return StateDistribution(alpha, t, probs, FORMULA_THETA, 1.0 - float(probs.sum()))


def pmf_cfpp_composition(model, alpha: float, t: float, n_max: int | None = None) -> StateDistribution:
    """As pmf_cfpp, via literal enumeration of ordered jump compositions.

    The number of compositions doubles with every extra state, so this
    oracle path is capped at n_max <= 20.
    """
    _validate_common(model, alpha, t)
    if n_max is None:
        n_max = min(default_n_max(model, alpha, t), COMPOSITION_N_CEILING)
    _check_n_max(n_max, COMPOSITION_N_CEILING)
    if t == 0:
        return _point_mass(alpha, t, n_max, FORMULA_COMPOSITION)
    lam0 = model.lambda_at(0)
    w = special.ml_weights(alpha, lam0 * t**alpha, n_max)
    q = [w[k] / lam0**k for k in range(n_max + 1)]
    d = [0.0] + intens.deltas(model, n_max)  # 1-indexed
    probs = np.zeros(n_max + 1)
    probs[0] = q[0]
    for n in range(1, n_max + 1):
        total = 0.0
        for k in range(1, n + 1):
            coef = 0.0
            for comp in partitions.enumerate_compositions(n, k):
                term = 1.0
                for m in comp:
                    term *= d[m]
                coef += term
            total += coef * q[k]
        probs[n] = total
    return StateDistribution(alpha, t, probs, FORMULA_COMPOSITION, 1.0 - float(probs.sum()))


def pmf_cpp(model, t: float, n_max: int | None = None) -> StateDistribution:
    """Count distribution of the alpha = 1 process, in closed form.

    p(n, t) = e^(-lambda_0 t) sum_k [coefficient] t^k with no k! in front:
    the k-th fractional weight collapses to t^k e^(-lambda_0 t) / k! when
    alpha = 1, and the k! of the partition sum cancels against it.
    """
    _validate_common(model, 1.0, t)
    if n_max is None:
        n_max = default_n_max(model, 1.0, t)
    _check_n_max(n_max)
    if t == 0:
        return _point_mass(1.0, t, n_max, FORMULA_CPP)
    lam0 = model.lambda_at(0)
    log_poisson = [
        -lam0 * t + k * math.log(lam0 * t) - math.lgamma(k + 1) if k else -lam0 * t
        for k in range(n_max + 1)
    ]
    w = np.exp(log_poisson)
    probs = jump_sum_pmf(model, n_max).T @ w
    return StateDistribution(1.0, t, probs, FORMULA_CPP, 1.0 - float(probs.sum()))


def pmf_tfpp(lambda0: float, alpha: float, t: float, n_max: int) -> np.ndarray:
    """Unit-jump (single-intensity) count probabilities for n = 0..n_max."""
    if lambda0 <= 0:
        raise DomainError(f"lambda_0 must be positive, got {lambda0}")
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t}")
    if t == 0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    return special.ml_weights(alpha, lambda0 * t**alpha, n_max)


# ---------------------------------------------------------------------------
# Generating functions and transforms
# ---------------------------------------------------------------------------


def pgf(model, alpha: float, t: float, u: float) -> float:
    """Probability generating function E u^N(t) for |u| <= 1."""
    _validate_common(model, alpha, t)
    if abs(u) > 1.0:
        raise DomainError(f"|u| must be <= 1, got u={u}")
    if t == 0:
        return 1.0
    return special.ml_one(alpha, t**alpha * intens.delta_series(model, u))


def mgf(model, alpha: float, t: float, w: float) -> float:
    """Moment generating function E e^(-w N(t)) on w >= 0."""
    if w < 0:
        raise DomainError(f"w must be nonnegative, got {w}")
    return pgf(model, alpha, t, math.exp(-w))


def laplace_pmf(model, alpha: float, n: int, s: float) -> float:
    """Laplace transform (in t) of p(n, t), evaluated at s > 0."""
    _validate_common(model, alpha, 0.0)
    if s <= 0:
        raise DomainError(f"s must be positive, got {s}")
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    lam0 = model.lambda_at(0)
    base = s ** (alpha - 1.0) / (s**alpha + lam0)
    if n == 0:
        return base
    J = jump_sum_pmf(model, n)
    total = 0.0
    for k in range(1, n + 1):
        total += J[k, n] * lam0**k * base / (s**alpha + lam0) ** k
    return total


def laplace_pgf(model, alpha: float, u: float, s: float) -> float:
    """Laplace transform (in t) of the pgf at u, evaluated at s > 0."""
    _validate_common(model, alpha, 0.0)
    if abs(u) > 1.0:
        raise DomainError(f"|u| must be <= 1, got u={u}")
    if s <= 0:
        raise DomainError(f"s must be positive, got {s}")
    denom = s**alpha - intens.delta_series(model, u)
    if denom <= 0:
        raise DomainError(f"transform denominator is nonpositive at u={u}, s={s}")
    return s ** (alpha - 1.0) / denom


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

R_MAX = 6


def mean_cfpp(model, alpha: float, t: float) -> float:
    """E N(t) = t^alpha (sum_j lambda_j) / Gamma(alpha + 1)."""
    _validate_common(model, alpha, t)
    return t**alpha * model.sum_lambda() / math.gamma(alpha + 1.0)


def var_cfpp(model, alpha: float, t: float) -> float:
    """Var N(t), four-term closed form."""
    _validate_common(model, alpha, t)
    ta = t**alpha
    ga = math.gamma(alpha + 1.0)
    sl = model.sum_lambda()
    sjl = model.sum_j_lambda()
    try:
        var = (
            ta * sl / ga
            + 2.0 * ta * sjl / ga
            + 2.0 * (ta * sl) ** 2 / math.gamma(2.0 * alpha + 1.0)
            - (ta * sl) ** 2 / ga**2
        )
    except OverflowError:
        var = math.inf
    if not math.isfinite(var):
        raise DomainError(f"the variance overflows at t={t}")
    return var


def _moments(model, alpha, t, r_max):
    """Raw and factorial moments of orders 0..r_max, as two arrays.

    The pgf is G(u) = E_alpha(t^alpha D(u)), and D(1 + z) = sum_m z^m
    sum_j (j)_m delta_j / m! (the m = 0 term telescopes to 0), so
    F_r / r! = sum_k t^(k alpha) / Gamma(k alpha + 1) [z^r] D(1 + z)^k.
    Substituting z = e^w - 1 into sum_r F_r z^r / r! gives the raw moments
    as the Taylor coefficients in w.  Every term is nonnegative.
    """
    _validate_common(model, alpha, t)
    if not 1 <= r_max <= R_MAX:
        raise DomainError(f"moment order must lie in 1..{R_MAX}, got {r_max}")
    fact_r = np.array([math.factorial(r) for r in range(r_max + 1)], dtype=float)
    inner = np.array([0.0] + [model.falling_factorial_delta_sum(m) for m in range(1, r_max + 1)])
    exp_minus_1 = np.append(0.0, 1.0 / fact_r[1:])
    k_alpha = alpha * np.arange(r_max + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        outer = t**k_alpha / np.array([math.gamma(a + 1.0) for a in k_alpha])
        taylor = outer @ _convolution_powers(inner / fact_r, r_max)
        raw = fact_r * (taylor @ _convolution_powers(exp_minus_1, r_max))
    fact = fact_r * taylor
    if not np.isfinite([raw, fact]).all():
        raise DomainError(f"moments up to order {r_max} overflow at t={t}")
    return raw, fact


def moment(model, alpha: float, t: float, r: int) -> float:
    """r-th raw moment E N(t)^r for r = 1..6."""
    return float(_moments(model, alpha, t, r)[0][r])


def factorial_moment(model, alpha: float, t: float, r: int) -> float:
    """r-th factorial moment E N(t)(N(t)-1)...(N(t)-r+1) for r = 1..6."""
    return float(_moments(model, alpha, t, r)[1][r])


def moment_report(model, alpha: float, t: float, r_max: int = 4) -> MomentReport:
    raw, fact = _moments(model, alpha, t, r_max)
    return MomentReport(
        mean=mean_cfpp(model, alpha, t),
        variance=var_cfpp(model, alpha, t),
        raw_moments=tuple(float(v) for v in raw[1:]),
        factorial_moments=tuple(float(v) for v in fact[1:]),
    )
