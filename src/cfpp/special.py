"""Mittag-Leffler functions and the incomplete beta function.

The three-parameter Mittag-Leffler function

    E[alpha, beta, gamma](x) = sum_k  Gamma(gamma + k) x^k
                                      / (Gamma(gamma) k! Gamma(k alpha + beta))

is evaluated for real |x| <= 50 and alpha, beta, gamma > 0.  For x < 0 the
series cancels by hundreds of orders of magnitude, so it is never summed:
for alpha < 1 the value is the inverse Laplace transform at t = 1 of
s^(alpha gamma - beta) / (s^alpha - x)^gamma, one trapezoid sum on a fixed
parabolic Bromwich contour (Weideman and Trefethen, Math. Comp. 76 (2007)
1341-1356; Garrappa, SIAM J. Numer. Anal. 53 (2015) 1350-1369).  The
contour is symmetric about the real axis and every transform here is real
on it, so the sum runs over the 256 nodes in the upper half plane and
doubles the real part of each node off the axis.  The even-indexed nodes
give the same rule at twice the step.  The sum is taken in real arithmetic:
Re(T w) = Re T Re w - Im T Im w, so the interleaved (re, im) pairs of the
transform meet one real (512, 2) weight matrix whose second column is the
difference between the rules at steps h and 2h.  One matrix product gives
the value and that gap, and a gap above 1e-12 relative to max(1, |value|)
raises NonConvergenceError.  The relative gap is never the larger, so the
estimate is the absolute gap where that already meets 1e-12 and the
relative gap otherwise.  Refusals happen near alpha = 1 at the top of the
domain, where the transform has a near-singularity just across the branch
cut.  The node powers s^alpha and s^(alpha - 1) are cached per alpha, and
so are the weights multiplied by s^(alpha - 1), which the fractional
Poisson transforms share.  Elsewhere: 1/Gamma(beta) at x = 0, the
positive-term series for x > 0, and at alpha = 1 e^x / Gamma(beta) when
gamma = beta, Kummer's function 1F1(gamma; beta; x) / Gamma(beta)
otherwise, or for the weight vector the Poisson pmf.

The incomplete beta is one binomial series, ``beta_series``, for a and b
in (0, 10]; the covariances of ``dependence`` sum the same terms.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError

# Accuracy domain documented for evaluation; outside it we refuse rather
# than silently degrade.
ML_MAX_ABS_ARGUMENT = 50.0
N_MAX_CEILING = 4096  # rows of ml_weights and of distribution.pmf_cfpp

# Contour s(theta) = 48 (0.1309 - 0.1194 theta^2 + 0.25 i theta) on
# -4 < theta < 4 at step h = 1/64; e^s < 1e-37 beyond theta = +-4.  The node
# at -theta is the conjugate of the one at theta, and every transform here
# is real on the real axis, so only the 256 nodes theta_k = k / 64,
# k = 0..255, are kept and the nodes with k >= 1 count twice.
_THETA = np.arange(256) / 64.0
_S = 48.0 * (0.1309 - 0.1194 * _THETA**2 + 0.25j * _THETA)
_LOG_S = np.log(_S)  # s^p = e^(p log s), which costs a third of _S**p
# e^s s'(theta) h / (2 pi i), doubled for k >= 1: the trapezoid weights of
# the inversion at t = 1 at step h.  The rule at step 2h takes the nodes
# with k even at twice the weight, so column 1, rule h minus rule 2h, is -w
# on even k and w on odd k.
_WEIGHTS = (np.exp(_S) * 48.0 * (0.25j - 0.2388 * _THETA) / (64.0 * 2j * math.pi)
            * np.where(_THETA > 0.0, 2.0, 1.0))
_W = np.stack([_WEIGHTS, np.where(np.arange(256) % 2 == 0, -_WEIGHTS, _WEIGHTS)], axis=1)
_CONTOUR_TOL = 1e-12


def _real_weights(w):
    """Read-only real (512, 2) form of complex (256, 2) weights w.

    Rows 2k and 2k + 1 hold Re w_k and -Im w_k, so a transform's
    ``.view(float)`` times it is Re(transform @ w).
    """
    out = np.empty((2 * w.shape[0], 2))
    out[0::2], out[1::2] = w.real, -w.imag
    out.flags.writeable = False
    return out


_WR = _real_weights(_W)


def _check_gap(err):
    """Raise NonConvergenceError unless the contour error estimate err is at most _CONTOUR_TOL."""
    if not err <= _CONTOUR_TOL:
        raise NonConvergenceError(
            f"Bromwich contour error estimate {err:.1e} exceeds {_CONTOUR_TOL:.0e}"
        )


def _check_n_max(n_max, ceiling=N_MAX_CEILING):
    """n_max as an int in 0..ceiling; a boolean or a non-integral value is refused."""
    try:
        if isinstance(n_max, bool):
            raise TypeError
        n = operator.index(n_max)
    except TypeError:
        raise DomainError(f"n_max must be an integer, got {n_max!r}") from None
    if n < 0:
        raise DomainError(f"n_max must be >= 0, got {n}")
    if n > ceiling:
        raise DomainError(f"n_max = {n} exceeds the ceiling {ceiling}")
    return n


@functools.lru_cache(maxsize=8)
def _node_powers(alpha):
    """Read-only s^alpha and s^(alpha - 1) on the nodes, and _WR with s^(alpha - 1) folded in."""
    sa = _S**alpha
    sa1 = sa / _S
    sa.flags.writeable = sa1.flags.writeable = False
    return sa, sa1, _real_weights(sa1[:, None] * _W)


@dataclass(frozen=True)
class MLParams:
    """Parameters (alpha, beta, gamma) of the three-parameter Mittag-Leffler."""

    alpha: float
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0 and self.gamma > 0):
            raise DomainError(
                f"Mittag-Leffler parameters must be positive, got "
                f"alpha={self.alpha}, beta={self.beta}, gamma={self.gamma}"
            )


def _ml_positive_series(alpha, beta, gamma, x):
    """The series at x > 0, where every term is positive."""
    total, prev, k = 0.0, 0.0, 0
    while True:
        log_term = (
            math.lgamma(gamma + k) - math.lgamma(gamma) - math.lgamma(k + 1.0)
            - math.lgamma(k * alpha + beta) + k * math.log(x)
        )
        if log_term > 709.0:
            raise DomainError(f"E^{gamma}_({alpha}, {beta})({x}) overflows double precision")
        term = math.exp(log_term)
        total += term
        # Once the terms fall, their ratio keeps falling, so the tail is
        # below the geometric series of the current ratio.
        ratio = math.exp(log_term - prev)
        if k > 0 and ratio < 1.0 and term * ratio / (1.0 - ratio) < 1e-17 * total:
            return total
        prev, k = log_term, k + 1


def ml_three(params: MLParams, x: float) -> float:
    """Three-parameter Mittag-Leffler function E^gamma_{alpha,beta}(x).

    Raises DomainError for |x| > 50 (documented accuracy domain), for a
    value that overflows, and for x < 0 with alpha > 1; raises
    NonConvergenceError where the contour's error estimate exceeds 1e-12.
    """
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    if not abs(x) <= ML_MAX_ABS_ARGUMENT:
        raise DomainError(
            f"|x| = {abs(x)} exceeds the accuracy domain |x| <= {ML_MAX_ABS_ARGUMENT}"
        )
    if x == 0.0:  # 1/Gamma(beta) through lgamma: Gamma(beta) overflows past beta = 171.6
        return math.exp(-math.lgamma(beta))
    if x > 0.0:
        return _ml_positive_series(alpha, beta, gamma, x)
    if alpha == 1.0:
        inv_gamma_beta = math.exp(-math.lgamma(beta))
        if gamma == beta:  # 1F1(beta; beta; x) = e^x
            return math.exp(x) * inv_gamma_beta
        # imported here: scipy.special adds about 0.3 s to every cfpp process
        import scipy.special as sc

        return float(sc.hyp1f1(gamma, beta, x) * inv_gamma_beta)
    if alpha > 1.0:
        raise DomainError(f"negative arguments need alpha <= 1, got alpha={alpha}")
    sa, sa1, _ = _node_powers(alpha)
    power = alpha * gamma - beta
    top = sa1 if power == alpha - 1.0 else np.exp(power * _LOG_S)
    bottom = sa - x if gamma == 1.0 else (sa - x) ** gamma
    # the rule of invert_rows on one value, in Python floats
    value, gap = (top / bottom).view(float).dot(_WR).tolist()
    _check_gap(abs(gap) / max(1.0, abs(value)))
    return value


def ml_two(alpha: float, beta: float, x: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(x)."""
    return ml_three(MLParams(alpha, beta, 1.0), x)


def ml_one(alpha: float, x: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(x) = E_{alpha,1}(x)."""
    return ml_three(MLParams(alpha, 1.0, 1.0), x)


def ml_deriv(alpha: float, beta: float, n: int, x: float) -> float:
    """n-th derivative of E_{alpha,beta} at x, via n! E^{n+1}_{alpha, n alpha + beta}(x)."""
    if n < 0 or n != int(n):
        raise DomainError(f"derivative order must be a nonnegative integer, got {n}")
    n = int(n)
    if n == 0:
        return ml_two(alpha, beta, x)
    return math.factorial(n) * ml_three(MLParams(alpha, n * alpha + beta, n + 1.0), x)


def ml_weights(alpha: float, x: float, n_max: int) -> np.ndarray:
    """Vector of x^k E^{k+1}_{alpha, k alpha + 1}(-x) for k = 0..n_max.

    These are the state probabilities of a fractional Poisson count with
    x = rate * t^alpha.  Their transforms s^(alpha-1) (x / (s^alpha + x))^k
    / (s^alpha + x) differ by a power, so repeated multiplication on the
    contour gives the rows of the whole vector, to an estimated absolute
    error <= 1e-12.  n_max is an integer of at most N_MAX_CEILING = 4096.

    numpy's floating-point warnings are left on: entering ``np.errstate``
    costs about 1 us, a tenth of a small call.  |x / (s^alpha + x)|
    stays below 1.27 on the nodes, so the rows cannot overflow before about
    2900 of them, and the CLI asks for at most ORACLE_N_CEILING = 128;
    ``pmf_cfpp`` silences the overflow of its own rows, whose NaN estimate
    still raises.
    """
    if not 0 < alpha <= 1:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0 <= x <= ML_MAX_ABS_ARGUMENT:
        raise DomainError(f"x must lie in [0, {ML_MAX_ABS_ARGUMENT}], got {x}")
    n_max = _check_n_max(n_max)
    if x == 0.0:
        return np.eye(1, n_max + 1)[0]
    if alpha == 1.0:  # the Poisson pmf
        return np.exp([k * math.log(x) - x - math.lgamma(k + 1.0) for k in range(n_max + 1)])
    # node_transforms' b and r, built in place: a small call is priced by
    # its numpy calls, not by its arithmetic
    rows = np.empty((n_max + 1, _S.size), dtype=complex)
    b = rows[0]
    np.reciprocal(np.add(_node_powers(alpha)[0], x, out=b), out=b)
    if n_max:
        r = x * b
        for k in range(1, n_max + 1):
            np.multiply(rows[k - 1], r, out=rows[k])
    values, err = invert_rows(rows, alpha)
    _check_gap(err)
    return values


def node_transforms(alpha: float, x: float):
    """b = 1 / (s^alpha + x) and r = x b on the contour nodes, for 0 < alpha < 1.

    s^(alpha-1) b is the transform of E_alpha(-x t^alpha), and multiplying
    by r takes a fractional Poisson transform up one event.  The factor
    s^(alpha-1) is left out: ``invert_rows`` holds it in its weights.
    """
    b = np.reciprocal(_node_powers(alpha)[0] + x)
    return b, x * b


def invert_rows(rows, alpha: float):
    """Inverse transforms at t = 1 of s^(alpha-1) times each row of transforms
    on the nodes, and their largest error estimate.

    The rows are probability transforms with their common factor
    s^(alpha-1) left out (see ``node_transforms``); one real product with
    the weights that hold it gives every value and its h/2h gap.  The
    estimate, for ``_check_gap``, is the largest absolute gap where that
    already meets 1e-12, and otherwise the largest gap relative to
    max(1, |value|), which is never larger; a NaN gap gives NaN.  Values
    are clipped at 0, since rounding can leave a far-tail probability a
    few ulps below it.
    """
    both = rows.view(float).dot(_node_powers(alpha)[2])
    err = abs(both[..., 1]).max()
    if not err <= _CONTOUR_TOL:  # the relative gap is never larger; NaN falls through too
        size = abs(both)
        err = (size[..., 1] / np.maximum(size[..., 0], 1.0)).max()
    return np.maximum(both[..., 0], 0.0), err


# ---------------------------------------------------------------------------
# Incomplete beta function
# ---------------------------------------------------------------------------


def complete_beta(a: float, b: float) -> float:
    """B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b)."""
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def beta_series(a, b, y, start=0, weight=None):
    """sum_(n >= start) e_n y^n / (a + n), times weight(n) when given.

    e_0 = 1 and e_n = e_(n-1) (n - b) / n are the coefficients of
    (1 - u)^(b - 1), so with start = 0 and no weight y^a times the sum is
    B(a, b; y).  The sum stops at the first term that is at most 1e-17 of
    it; past n = b the terms keep one sign and shrink by at least y.
    """
    e, y_n, total, n = 1.0, 1.0, 0.0, 0
    while True:
        if n >= start:
            term = e * y_n / (a + n) * (1.0 if weight is None else weight(n))
            total += term
            if abs(term) <= 1e-17 * abs(total):
                return total
        n += 1
        e *= (n - b) / n
        y_n *= y


def incomplete_beta(a: float, b: float, x: float) -> float:
    """Unregularized incomplete beta B(a, b; x) = int_0^x u^(a-1) (1-u)^(b-1) du.

    Sums ``beta_series`` for x < (a+1)/(a+b+2), and above that takes the
    complement B(a, b) - B(b, a; 1 - x), where the series converges fast.
    Past 10 its binomial coefficients alternate and cancel, so a or b
    outside (0, 10], or NaN, is refused.
    """
    if not (0 < a <= 10 and 0 < b <= 10):
        raise DomainError(f"beta parameters must lie in (0, 10], got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return complete_beta(a, b)
    if x < (a + 1.0) / (a + b + 2.0):
        return x**a * beta_series(a, b, x)
    return complete_beta(a, b) - (1.0 - x) ** b * beta_series(b, a, 1.0 - x)
