"""Invariant checks shared by ``cfpp validate`` and the acceptance suite.

Each check is one row of the table in ``run_all``: a name, a tolerance and a
measure.  A measure computes the worst deviation over its cases and where it
occurred; ``run_all`` compares it with the tolerance times ``tolerance_scale``,
so a deliberately corrupted scale (much smaller than 1) must make the suite
fail -- a self-test that the harness actually compares numbers.  The acceptance
criteria call the same measures and assert their own literal tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dependence as dep
from . import distribution as dist
from . import simulate as sim
from .intensity import FiniteIntensity, GeometricIntensity

GRID_ALPHAS = (0.5, 0.7, 1.0)
GRID_MODELS = (
    GeometricIntensity(1.0, 0.5),
    FiniteIntensity([1.0]),
    FiniteIntensity([2.0, 1.0, 0.5]),
)
GRID_TIMES = (0.5, 1.0, 5.0)

# Long- and short-range dependence: heavy-tailed jumps, s = 1, t in [1e2, 1e6].
SLOPE_MODEL = GeometricIntensity(0.5, 0.9)
SLOPE_ALPHAS = (0.5, 0.7, 0.9)

# The Monte Carlo cases of `cfpp validate`, each run under both samplers.
# Every z-score is a chance of a false FAIL, so there are few of them.
MC_CASES = ((GeometricIntensity(1.0, 0.5), 0.7), (GeometricIntensity(1.0, 0.5), 1.0))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Measure:
    worst: float  # largest deviation over the cases; NaN if any deviation is NaN
    where: str  # the case that gave it
    extra: dict  # further figures that only the acceptance criteria assert


def _worst(cases, extra=None):
    """Measure of the largest (deviation, where) pair."""
    worst, where = max(cases, key=lambda c: np.nan_to_num(c[0], nan=np.inf))
    return Measure(float(worst), where, extra or {})


def _grid():
    for alpha in GRID_ALPHAS:
        for model in GRID_MODELS:
            for t in GRID_TIMES:
                yield alpha, model, t, f"alpha={alpha}, t={t}, {model.to_config()}"


def measure_normalization():
    """Truncation mass of the auto-sized pmf; extra ``min_prob``, its smallest entry."""
    cases = [(dist.pmf_cfpp(model, alpha, t), where) for alpha, model, t, where in _grid()]
    min_prob = float(np.min([sd.probs.min() for sd, _ in cases]))
    return _worst([(sd.truncation_mass, where) for sd, where in cases], {"min_prob": min_prob})


def measure_three_way_equivalence():
    """Largest pairwise gap between the lambda, theta and composition pmfs, n <= 12."""

    def gap(alpha, model, t):
        a = dist.pmf_cfpp(model, alpha, t, 12).probs
        b = dist.pmf_cfpp_theta(model, alpha, t, 12).probs
        c = dist.pmf_cfpp_composition(model, alpha, t, 12).probs
        return max(float(np.abs(x - y).max()) for x, y in ((a, b), (b, c), (a, c)))

    return _worst([(gap(alpha, model, t), where) for alpha, model, t, where in _grid()])


def measure_variance_consistency():
    """Largest of |m1 - mean|, |m2 - m1^2 - var| and, for alpha < 1, |cov(t, t) - var|."""

    def gap(alpha, model, t):
        m1 = dist.moment(model, alpha, t, 1)
        m2 = dist.moment(model, alpha, t, 2)
        v = dist.var_cfpp(model, alpha, t)
        gaps = [abs(m1 - dist.mean_cfpp(model, alpha, t)), abs(m2 - m1**2 - v)]
        if alpha < 1:
            gaps.append(abs(dep.cov_cfpp(model, alpha, t, t) - v))
        return max(gaps)

    return _worst([(gap(alpha, model, t), where) for alpha, model, t, where in _grid()])


def _z(deviation, se):
    # a report of identical counts has SE 0: a deviation is then infinitely many SE
    return abs(deviation) / se if se > 0 else (0.0 if deviation == 0 else np.inf)


def measure_mc_agreement(cases, n_samples, seed, workers=1):
    """Largest z-score at t = 1 over (model, alpha) ``cases``, each under both samplers.

    The pmf cells n <= 10 use the exact-probability standard error
    sqrt(p (1 - p) / n_samples), which an empirical frequency of 0 cannot
    shrink; the mean and the variance use the report's own standard errors.
    extra ``chi2_max``: the largest chi-square of one report's pmf cells.
    """
    scores, chi2 = [], []
    for model, alpha in cases:
        p = dist.pmf_cfpp(model, alpha, 1.0, 10).probs
        mean, var = dist.mean_cfpp(model, alpha, 1.0), dist.var_cfpp(model, alpha, 1.0)
        for method in (sim.METHOD_TIME_CHANGE, sim.METHOD_RENEWAL):
            cfg = sim.SamplerConfig(seed=seed, n_samples=n_samples, workers=workers, method=method)
            rep = sim.mc_pmf(model, alpha, 1.0, cfg)
            p_hat = np.zeros(len(p))
            seen = min(len(p), len(rep.empirical_pmf))
            p_hat[:seen] = rep.empirical_pmf[:seen]
            z = np.abs(p_hat - p) / np.sqrt(p * (1.0 - p) / rep.n_samples)
            at = f"alpha={alpha}, {model.to_config()}, {method}"
            scores += [(float(v), f"{at}, n={n}") for n, v in enumerate(z)]
            scores.append((_z(rep.sample_mean - mean, rep.mean_se), f"{at}, mean"))
            scores.append((_z(rep.sample_var - var, rep.var_se), f"{at}, variance"))
            chi2.append(float(rep.n_samples * ((p_hat - p) ** 2 / p).sum()))
    return _worst(scores, {"chi2_max": max(chi2)})


def measure_process_slopes():
    """Largest error of the fitted exponent of Corr(N(1), N(t)) from -alpha.

    extra, per alpha in SLOPE_ALPHAS: ``slopes`` and, at t = 1e6,
    ``level_errors`` |Corr / (lrd_constant t^-alpha) - 1|.
    """
    slopes, levels = [], []
    for alpha in SLOPE_ALPHAS:
        slopes.append(dep.corr_decay_exponent(SLOPE_MODEL, alpha, 1.0, 1e2, 1e6, 17))
        corr = dep.corr_cfpp(SLOPE_MODEL, alpha, 1.0, 1e6)
        levels.append(abs(corr / (dep.lrd_constant(SLOPE_MODEL, alpha, 1.0) * 1e6**-alpha) - 1.0))
    errors = [(abs(s + a), f"process slope alpha={a}") for a, s in zip(SLOPE_ALPHAS, slopes)]
    return _worst(errors, {"slopes": slopes, "level_errors": levels})


def measure_increment_slopes():
    """Largest error of the fitted increment-correlation exponent from -(3 - alpha)/2.

    extra ``slopes``, per alpha in SLOPE_ALPHAS.
    """
    slopes = [dep.increment_corr_decay_exponent(SLOPE_MODEL, a, 1.0, 1.0, 1e2, 1e6, 17)
              for a in SLOPE_ALPHAS]
    errors = [(abs(s + (3.0 - a) / 2.0), f"increment slope alpha={a}")
              for a, s in zip(SLOPE_ALPHAS, slopes)]
    return _worst(errors, {"slopes": slopes})


def run_all(tolerance_scale=1.0, mc_samples=20_000, seed=99):
    slopes = (measure_process_slopes(), measure_increment_slopes())
    checks = (  # (name, tolerance, measure)
        ("normalization", 1e-6, measure_normalization()),
        ("three-way-pmf-equivalence", 1e-10, measure_three_way_equivalence()),
        ("variance-consistency", 1e-10, measure_variance_consistency()),
        ("mc-agreement", 3.0, measure_mc_agreement(MC_CASES, mc_samples, seed)),
        ("dependence-slopes", 0.05, _worst([(m.worst, m.where) for m in slopes])),
    )
    results = []
    for name, tolerance, m in checks:
        tol = tolerance * tolerance_scale
        detail = f"worst deviation {m.worst:.3g} (tol {tol:.3g}) at {m.where}"
        results.append(CheckResult(name, bool(m.worst <= tol), detail))
    return results
