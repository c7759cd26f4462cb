"""Monte Carlo sampling of the counting process, with reproducible streams.

Two exact samplers are provided for the count at a fixed time t:

* ``TimeChange`` -- draw the inverse-stable time H(t) = (t / S)^alpha from a
  one-sided stable variate S, then a Poisson(lambda_0 H) number of iid jumps.
* ``RenewalCompound`` -- accumulate Mittag-Leffler waiting times until they
  pass t, scoring one iid jump per renewal as it arrives; the same loop
  gives each path's counts at several sorted times, a draw of the joint law.

Finite jump laws are drawn by inverse CDF, geometric ones by ``rng.geometric``.
Every sampler takes a size and returns an array of that many draws; one
count at time t is ``sample_cfpp_batch(model, alpha, t, rng, 1)[0]``.

A batch is drawn as consecutive blocks of BLOCK samples from one generator,
each block a complete draw, so a worker's per-sample arrays hold at most
BLOCK entries whatever its batch size; a batch of at most BLOCK samples is
one block.

Reproducibility contract: worker w draws from the substream spawned from
(seed, w) and contributes n_samples // workers samples, one more for the
first n_samples % workers workers, so a report holds exactly n_samples
counts; results are merged in worker order, so a report depends only on
(seed, n_samples, workers).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import intensity as intens
from .errors import DomainError

# Ceiling on the expected sum of the counts one batch draws.  Every jump is at
# least 1, so it also caps the number of jumps, and with them the run time and
# the jumps one block holds at once, and the largest count, which sizes the
# report's bincount (1e8 int64 jumps or float64 bins are about 0.8 GB).
MAX_EXPECTED_COUNT_TOTAL = 1e8

# Samples per block of a batch: each block draws its stable variates, Poisson
# counts and jumps (or its renewal paths) before the next one starts.
BLOCK = 32768

METHOD_TIME_CHANGE = "TimeChange"
METHOD_RENEWAL = "RenewalCompound"
_METHODS = (METHOD_TIME_CHANGE, METHOD_RENEWAL)


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    n_samples: int = 100_000
    workers: int = 1
    method: str = METHOD_TIME_CHANGE

    def __post_init__(self):
        if self.n_samples < 1:
            raise DomainError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.workers < 1:
            raise DomainError(f"workers must be >= 1, got {self.workers}")
        if self.method not in _METHODS:
            raise DomainError(f"method must be one of {_METHODS}, got {self.method!r}")


@dataclass(frozen=True)
class MCReport:
    empirical_pmf: np.ndarray
    pmf_se: np.ndarray
    sample_mean: float
    mean_se: float
    sample_var: float
    var_se: float
    n_samples: int
    seed: int
    workers: int
    method: str


def _log_sin(y):
    """log sin(y) for y in (0, pi], from the half-angle tangent: sin y = 2 tau / (1 + tau^2)."""
    tau = np.tan(y / 2.0)
    return np.log(2.0 * tau) - np.log1p(tau * tau)


def _log_stable(alpha, rng, n):
    """log S for n standard one-sided alpha-stable draws S, 0 < alpha < 1.

    Kanter's representation, S = sin(alpha phi) / sin(phi)^(1/alpha)
    (sin((1 - alpha) phi) / W)^((1 - alpha)/alpha) with phi uniform on
    (0, pi) and W standard exponential, taken in logs: at small alpha S
    itself overflows where S^(-alpha) does not.  phi = pi U is the
    Chambers-Mallows-Stuck angle v + pi/2 of the same uniform draw; U = 0,
    where every sine vanishes, is read as the next uniform, 2^-53.
    """
    phi = np.pi * np.maximum(rng.random(n), 2.0**-53)
    w = rng.exponential(1.0, n)
    log_ratio = _log_sin((1.0 - alpha) * phi) - np.log(w)
    return _log_sin(alpha * phi) - _log_sin(phi) / alpha + (1.0 - alpha) / alpha * log_ratio


def sample_stable(alpha: float, rng, size):
    """`size` standard one-sided alpha-stable variates with E e^(-s S) = e^(-s^alpha).

    The alpha = 1 limit is the point mass at 1 and is not covered here;
    callers branch on it.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"stable sampling needs 0 < alpha < 1, got {alpha}")
    return np.exp(_log_stable(alpha, rng, size))


def sample_inverse_stable(alpha: float, t: float, rng, size):
    """`size` draws of the inverse alpha-stable subordinator marginal H(t) = (t / S)^alpha."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0 < t < math.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    if alpha == 1.0:
        return np.full(size, float(t))
    return np.exp(alpha * (math.log(t) - _log_stable(alpha, rng, size)))


def ml_waiting_time(alpha: float, lambda0: float, rng, size):
    """`size` Mittag-Leffler waiting times with survival E_alpha(-lambda_0 t^alpha).

    Exponential-mixture form W = -ln(U) (Z / lambda_0)^(1/alpha)
    with Z = sin(alpha pi) / tan(alpha pi V) - cos(alpha pi); reduces to an
    Exponential(lambda_0) at alpha = 1.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0 < lambda0 < math.inf:
        raise DomainError(f"lambda_0 must be positive and finite, got {lambda0}")
    if alpha == 1.0:
        return rng.exponential(1.0 / lambda0, size)
    u = rng.random(size)
    v = rng.random(size)
    # V = 0 divides by zero, and at small alpha (Z / lambda_0)^(1/alpha)
    # overflows: W = inf is a path that renews at no finite t, which the
    # renewal loop retires.  It stays inf, not NaN, when U = 0 makes the
    # exponential factor 0.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = np.sin(alpha * np.pi) / np.tan(alpha * np.pi * v) - np.cos(alpha * np.pi)
        scale = (z / lambda0) ** (1.0 / alpha)
        return np.where(scale == np.inf, np.inf, -np.log1p(-u) * scale)


class JumpSampler:
    """Sampler for the jump-size law delta_j / lambda_0.

    Geometric intensities give a geometric jump law on {1, 2, ...}, drawn by
    ``Generator.geometric``.  Finite intensities keep their cumulative law
    over the bounded support, divided by its last entry so that it ends at
    exactly 1, and draw by inverse CDF: a uniform u in [0, 1) gives the
    jump 1 + #{j : cdf_j <= u}, so a jump of probability 0 is never drawn.
    """

    def __init__(self, model):
        if isinstance(model, intens.GeometricIntensity):
            self._p_success = 1.0 - model.q
            self._cdf = None
        else:
            cdf = np.cumsum(np.divide(model.deltas, model.lambda_at(0)))
            self._cdf = cdf / cdf[-1]

    def sample(self, rng, size):
        if self._cdf is None:
            out = rng.geometric(self._p_success, size)
        else:
            out = np.searchsorted(self._cdf, rng.random(size), side="right") + 1
        return out.astype(np.int64, copy=False)


def _jump_totals(jump_sampler, counts, rng):
    """Sum counts[i] iid jumps for every i, vectorized.

    Sample i owns the next counts[i] jumps, so its total is the difference of
    the jumps' prefix sums at the ends of its segment and of the one before.
    """
    total = int(counts.sum())
    if total == 0:
        return np.zeros(len(counts), dtype=np.int64)
    prefix = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(jump_sampler.sample(rng, total), out=prefix[1:])
    return np.diff(prefix[np.cumsum(counts)], prepend=0)


def sample_cfpp_batch(model, alpha, t, rng, size, method=METHOD_TIME_CHANGE):
    """Vector of `size` iid counts at time t, drawn in blocks of BLOCK samples.

    Refused with DomainError, before anything is drawn, when the expected
    sum of the counts, size t^alpha sum_j lambda_j / Gamma(1 + alpha),
    exceeds MAX_EXPECTED_COUNT_TOTAL.
    """
    if not 0 <= t < math.inf:
        raise DomainError(f"t must be finite and nonnegative, got {t}")
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if method not in _METHODS:
        raise DomainError(f"method must be one of {_METHODS}, got {method!r}")
    if t == 0:
        return np.zeros(size, dtype=np.int64)
    lam0 = model.lambda_at(0)
    expected_total = size * t**alpha * model.sum_lambda() / math.gamma(1.0 + alpha)
    if expected_total > MAX_EXPECTED_COUNT_TOTAL:
        raise DomainError(
            f"{size} samples at t={t} expect counts summing to {expected_total:.3g}, "
            f"more than {MAX_EXPECTED_COUNT_TOTAL:.0e}"
        )
    counts = np.empty(size, dtype=np.int64)
    blocks = [counts[start : start + BLOCK] for start in range(0, size, BLOCK)]
    if method == METHOD_RENEWAL:
        for block in blocks:
            block[:] = _renewal_counts(model, alpha, (t,), rng, block.size)[0]
        return counts
    sampler = JumpSampler(model)
    for block in blocks:
        h = sample_inverse_stable(alpha, t, rng, block.size)
        try:
            n_events = rng.poisson(lam0 * h)
        except ValueError as exc:  # NaN or huge rates: the stable draws broke down
            raise DomainError(f"no Poisson draw at alpha={alpha}, t={t}: {exc}") from exc
        block[:] = _jump_totals(sampler, n_events, rng)
    return counts


def _renewal_counts(model, alpha, times, rng, size):
    """Counts of `size` renewal paths at each of the sorted `times`, one int64 row per time.

    Each round draws a waiting time for every path whose clock has not yet
    passed the last time, then one jump for each path that arrived by it;
    the jump counts at every time the arrival is at or before.  Each event's
    jump is drawn together with its waiting time, so runs with the same seed
    give nested paths as the times grow.
    """
    sampler = JumpSampler(model)
    lam0 = model.lambda_at(0)
    counts = np.zeros((len(times), size), dtype=np.int64)
    clock = np.zeros(size)
    active = np.arange(size)
    while active.size:
        clock[active] += ml_waiting_time(alpha, lam0, rng, active.size)
        active = active[clock[active] <= times[-1]]
        if active.size:
            jumps = sampler.sample(rng, active.size)
            counts[-1][active] += jumps
            for row, time in zip(counts[:-1], times[:-1]):
                early = clock[active] <= time
                row[active[early]] += jumps[early]
    return counts


def _all_counts(model, alpha, t, cfg):
    base, extra = divmod(cfg.n_samples, cfg.workers)
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.workers)

    def draw(w):
        rng = np.random.default_rng(streams[w])
        return sample_cfpp_batch(model, alpha, t, rng, base + (w < extra), cfg.method)

    if cfg.workers == 1:
        chunks = [draw(0)]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            chunks = list(pool.map(draw, range(cfg.workers)))
    return np.concatenate(chunks)


def _report_from_counts(counts, cfg):
    n = len(counts)
    freq = np.bincount(counts)
    pmf = freq / n
    pmf_se = np.sqrt(pmf * (1.0 - pmf) / n)
    # Every moment is read off the count histogram; the integer sum is exact.
    levels = np.arange(freq.size)
    mean = float(freq @ levels) / n
    var = var_se = 0.0
    if n > 1:
        # The unbiased Var(s^2) = (m4 - (n - 3)/(n - 1) s^4) / n, as two terms
        # that stay >= 0 in floating point: m4 - m2^2, the mean square of
        # (squared deviation - m2), and (3n - 1)/(n - 1)^3 m2^2.  It is 0 only
        # when all counts are equal.
        sq = (levels - mean) ** 2
        sum_sq = float(freq @ sq)
        m2 = sum_sq / n
        var = sum_sq / (n - 1)
        var_se = math.sqrt((float(freq @ (sq - m2) ** 2) / n + (3 * n - 1) / (n - 1) ** 3 * m2**2) / n)
    return MCReport(
        empirical_pmf=pmf,
        pmf_se=pmf_se,
        sample_mean=mean,
        mean_se=math.sqrt(var / n),
        sample_var=var,
        var_se=var_se,
        n_samples=n,
        seed=cfg.seed,
        workers=cfg.workers,
        method=cfg.method,
    )


def mc_pmf(model, alpha, t, cfg: SamplerConfig) -> MCReport:
    """Empirical count distribution, mean and variance, with standard errors."""
    return _report_from_counts(_all_counts(model, alpha, t, cfg), cfg)
