"""Exact state probabilities, generating functions, transforms, and moments.

The count distribution at time t depends on t only through x = lambda_0
t^alpha.  On each node s of the Bromwich contour in ``special``, its state
transforms obey

    P_0 = s^(alpha - 1) / (s^alpha + x),   P_n = r sum_{j>=1} g_j P_(n-j),

with r = x / (s^alpha + x) and g_j = delta_j / lambda_0 the jump law: the
Laplace-domain form of Panjer's recursion (ASTIN Bulletin 12 (1981) 22-26).
``pmf_cfpp`` builds the rows n = 0, 1, ... in blocks and inverts each block;
left to size itself, it stops after the first block at which the mass it
has computed is within TAIL_TOL of 1, or at N_MAX_CEILING.  At alpha = 1 the
law is compound Poisson and Panjer's recursion in t gives it directly.

The compound form

    p(n, t) = sum_{k=0}^{n}  J[k, n] w_k(t),   J[k, n] = Pr{X_1 + ... + X_k = n},

with w_k the weights of ``special.ml_weights``, is the one frame of the
oracle pmfs; each fills J its own way: padded ("theta") multiplicity
vectors, ordered compositions, or (``pmf_cpp``) ``jump_sum_pmf``.  The
constants (R, S, T) of E N(t) = R t^alpha and Var N(t) = S t^(2 alpha) +
T t^alpha are computed once, in ``_second_order``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import intensity as intens
from . import partitions, special
from .errors import DomainError
from .special import N_MAX_CEILING, _check_n_max

TAIL_TOL = 1e-7  # mass an auto-sized pmf_cfpp may leave out
FIRST_BLOCK = 16  # rows inverted first; each later block doubles the rows so far
ORACLE_N_CEILING = 128  # the jump-sum matrix is (n+1)^2, built by n convolutions
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
    mass at zero.  Jumps are at least 1, so J[k, n] = 0 for k > n.  The
    matrix costs n convolutions, so n_max is bounded by ORACLE_N_CEILING.
    """
    n_max = _check_n_max(n_max, ORACLE_N_CEILING)
    lam0 = model.lambda_at(0)
    g = np.zeros(n_max + 1)
    for j in range(1, n_max + 1):
        g[j] = intens.delta(model, j) / lam0
    return _convolution_powers(g, n_max)


def _point_mass(alpha, t, n_max, formula):
    probs = np.zeros(n_max + 1)
    probs[0] = 1.0
    return StateDistribution(alpha, t, probs, formula, 0.0)


def _jump_support(model):
    """Largest jump J of a finite model, or None for a geometric one."""
    if isinstance(model, intens.GeometricIntensity):
        return None
    return model.jump_support_max


def _block_sizes(n_max):
    """Rows per block: n_max + 1 at once, or with n_max None FIRST_BLOCK and
    then blocks that double the rows so far, up to N_MAX_CEILING + 1 rows."""
    if n_max is not None:
        yield n_max + 1
        return
    total = 0
    while total <= N_MAX_CEILING:
        m = min(max(total, FIRST_BLOCK), N_MAX_CEILING + 1 - total)
        yield m
        total += m


def _node_blocks(model, alpha, x, sizes):
    """Blocks of the state transforms P_0, P_1, ... on the contour nodes, one per size.

    P_n = r sum_j g_j P_(n-j) is one (J x nodes) product per row for jumps
    up to J.  Geometric jumps, g_j = (1 - q) q^(j-1), collapse it to
    P_1 = r (1 - q) P_0 and P_(n+1) = zeta P_n with zeta = q + (1 - q) r;
    unit jumps are the case q = 0.
    """
    p0, r = special.node_transforms(alpha, x)
    support = _jump_support(model)
    if support is None or support == 1:
        q = model.q if support is None else 0.0
        zeta = q + (1.0 - q) * r
        lag, first = 1, np.array([p0, r * (1.0 - q) * p0])
    else:
        g = np.array([intens.jump_pmf(model, j) for j in range(support, 0, -1)], dtype=complex)
        lag, first = support, p0[None, :]
    recent = np.zeros((lag, p0.size), dtype=complex)  # the last lag rows made
    for m in sizes:
        rows = np.empty((lag + m, p0.size), dtype=complex)
        rows[:lag] = recent
        head, first = first[:m], first[m:]  # rows given rather than made
        rows[lag : lag + len(head)] = head
        if lag == 1:
            for i in range(1 + len(head), 1 + m):
                np.multiply(rows[i - 1], zeta, out=rows[i])
        else:
            for i in range(lag + len(head), lag + m):
                np.multiply(np.dot(g, rows[i - lag : i]), r, out=rows[i])
        recent = rows[m:]
        yield rows[lag:]


def _panjer_probs(model, x):
    """p_0, p_1, ... of the compound Poisson law at alpha = 1 (Panjer's recursion).

    p_0 = e^-x and p_n = (x / n) sum_j j g_j p_(n-j); for geometric jumps
    this is the three-term (n + 1) p_(n+1) = (2 q n + x (1 - q)) p_n
    - q^2 (n - 1) p_(n-1).
    """
    p0 = math.exp(-x)
    yield p0
    support = _jump_support(model)
    if support is None:
        q = model.q
        prev, cur = 0.0, p0
        for n in itertools.count():
            prev, cur = cur, ((2.0 * q * n + x * (1.0 - q)) * cur - q * q * (n - 1) * prev) / (n + 1)
            yield cur
    jg = [j * intens.jump_pmf(model, j) for j in range(1, support + 1)]  # j g_j
    probs = [p0]
    for n in itertools.count(1):
        recent = probs[max(0, n - support):][::-1]  # p_(n-1), p_(n-2), ...
        probs.append(x / n * sum(a * b for a, b in zip(jg, recent)))
        yield probs[-1]


def _state_probs(model, alpha, x, n_max):
    """p_0..p_n_max, or with n_max None through the first block after which
    1 - sum p <= TAIL_TOL."""
    sizes = _block_sizes(n_max)
    if alpha == 1.0:
        stream = _panjer_probs(model, x)
        blocks = (np.fromiter(itertools.islice(stream, m), dtype=float, count=m) for m in sizes)
    else:
        blocks = map(special.invert_rows, _node_blocks(model, alpha, x, sizes))
    probs = np.empty(0)
    for block in blocks:
        probs = np.concatenate([probs, block])
        if n_max is None and 1.0 - probs.sum() <= TAIL_TOL:
            break
    return probs


def default_n_max(model, alpha: float, t: float) -> int:
    """The n_max at which the auto-sized pmf_cfpp stops (at most N_MAX_CEILING)."""
    return pmf_cfpp(model, alpha, t).n_max


def pmf_cfpp(model, alpha: float, t: float, n_max: int | None = None) -> StateDistribution:
    """Count distribution p(n, t) for n = 0..n_max, from Panjer's recursion.

    The state transforms are built row by row on the contour nodes and
    inverted in blocks (at alpha = 1 the recursion runs in t).  With n_max
    omitted, blocks are added until the missing mass 1 - sum p is at most
    TAIL_TOL = 1e-7, or until the row bound N_MAX_CEILING = 4096 is reached;
    whatever mass lies beyond the last row is reported as
    ``truncation_mass``.  Raises DomainError for lambda_0 t^alpha > 50 and
    NonConvergenceError where the contour's error estimate exceeds 1e-12.
    """
    _validate_common(model, alpha, t)
    if n_max is not None:
        n_max = _check_n_max(n_max)
    if t == 0:
        return _point_mass(alpha, t, n_max or 0, FORMULA_LAMBDA)
    x = model.lambda_at(0) * t**alpha
    if not x <= special.ML_MAX_ABS_ARGUMENT:
        raise DomainError(f"lambda_0 t^alpha must lie in [0, {special.ML_MAX_ABS_ARGUMENT}], got {x}")
    probs = _state_probs(model, alpha, x, n_max)
    return StateDistribution(alpha, t, probs, FORMULA_LAMBDA, 1.0 - float(probs.sum()))


def _compound_pmf(model, alpha, t, n_max, ceiling, formula, jump_sums):
    """p(n, t) = sum_k J[k, n] w_k(t) for n = 0..n_max, with J = jump_sums(model, n_max).

    With n_max omitted it is the auto-sized pmf_cfpp's, capped at ``ceiling``.
    """
    _validate_common(model, alpha, t)
    if n_max is None:
        n_max = min(default_n_max(model, alpha, t), ceiling)
    n_max = _check_n_max(n_max, ceiling)
    if t == 0:
        return _point_mass(alpha, t, n_max, formula)
    w = special.ml_weights(alpha, model.lambda_at(0) * t**alpha, n_max)
    probs = jump_sums(model, n_max).T @ w
    return StateDistribution(alpha, t, probs, formula, 1.0 - float(probs.sum()))


def _theta_jump_sums(model, n_max):
    """J[k, n] = sum over padded multiplicity vectors of k! / prod k_j! prod g_j^k_j."""
    g = [intens.jump_pmf(model, j) for j in range(1, n_max + 1)]
    out = np.zeros((n_max + 1, n_max + 1))
    out[0, 0] = 1.0
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            total = 0.0
            for vec in partitions.iter_multiplicity_vectors(n, k, n):
                term = float(partitions.multinomial(k, vec))
                for gj, kj in zip(g, vec):
                    if kj:
                        term *= gj**kj
                total += term
            out[k, n] = total
    return out


def _composition_jump_sums(model, n_max):
    """J[k, n] = sum over ordered compositions (m_1, ..., m_k) of n of prod g_m."""
    g = [0.0] + [intens.jump_pmf(model, j) for j in range(1, n_max + 1)]  # 1-indexed
    out = np.zeros((n_max + 1, n_max + 1))
    out[0, 0] = 1.0
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            total = 0.0
            for comp in partitions.enumerate_compositions(n, k):
                term = 1.0
                for m in comp:
                    term *= g[m]
                total += term
            out[k, n] = total
    return out


def pmf_cfpp_theta(model, alpha: float, t: float, n_max: int | None = None) -> StateDistribution:
    """As pmf_cfpp, via literal enumeration of the padded index sets.

    Enumeration cost grows with the partition numbers, so this oracle path
    is capped at n_max <= 64.
    """
    return _compound_pmf(model, alpha, t, n_max, THETA_N_CEILING, FORMULA_THETA, _theta_jump_sums)


def pmf_cfpp_composition(model, alpha: float, t: float, n_max: int | None = None) -> StateDistribution:
    """As pmf_cfpp, via literal enumeration of ordered jump compositions.

    The number of compositions doubles with every extra state, so this
    oracle path is capped at n_max <= 20.
    """
    return _compound_pmf(
        model, alpha, t, n_max, COMPOSITION_N_CEILING, FORMULA_COMPOSITION, _composition_jump_sums
    )


def pmf_cpp(model, t: float, n_max: int | None = None) -> StateDistribution:
    """Count distribution of the alpha = 1 process: Poisson weights on the jump-sum matrix.

    Like every exact pmf it is refused for lambda_0 t > 50.
    """
    return _compound_pmf(model, 1.0, t, n_max, ORACLE_N_CEILING, FORMULA_CPP, jump_sum_pmf)


def pmf_tfpp(lambda0: float, alpha: float, t: float, n_max: int) -> np.ndarray:
    """Unit-jump (single-intensity) count probabilities for n = 0..n_max."""
    if lambda0 <= 0:
        raise DomainError(f"lambda_0 must be positive, got {lambda0}")
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t}")
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
    """Laplace transform (in t) of p(n, t) at s > 0: s^(alpha - 1) / c sum_k J[k, n] r^k,
    with c = s^alpha + lambda_0, r = lambda_0 / c and J the jump-sum matrix."""
    _validate_common(model, alpha, 0.0)
    if s <= 0:
        raise DomainError(f"s must be positive, got {s}")
    lam0 = model.lambda_at(0)
    c = s**alpha + lam0
    column = jump_sum_pmf(model, n)[:, n]
    return s ** (alpha - 1.0) / c * float(column @ (lam0 / c) ** np.arange(n + 1))


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


def _second_order(model, alpha):
    """(R, S, T) with E N(t) = R t^alpha and Var N(t) = S t^(2 alpha) + T t^alpha.

    S is exactly 0 at alpha = 1.
    """
    ga = math.gamma(alpha + 1.0)
    sl = model.sum_lambda()
    try:
        var_quad = (2.0 / math.gamma(2.0 * alpha + 1.0) - 1.0 / ga**2) * sl**2
    except OverflowError as exc:
        raise DomainError(f"second-order coefficients overflow at sum lambda_j = {sl}") from exc
    return sl / ga, var_quad, (sl + 2.0 * model.sum_j_lambda()) / ga


def var_cfpp(model, alpha: float, t: float) -> float:
    """Var N(t) = S t^(2 alpha) + T t^alpha, with S and T of ``_second_order``."""
    _validate_common(model, alpha, t)
    _, var_quad, var_lin = _second_order(model, alpha)
    ta = t**alpha
    try:
        var = var_quad * ta**2 + var_lin * ta
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
