"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line (with the measured worst-case figure) after
its assertions hold, and also asserts its wall-clock budget, so the suite
doubles as a runtime regression check.  Monte Carlo criteria use fixed
seeds: a failure is reproducible, never a flake.
"""

import json
import math
import time

import numpy as np
from scipy import integrate

import cfpp
from cfpp import validate as val
from cfpp import (
    FiniteIntensity,
    GeometricIntensity,
    factorial_moment,
    mean_cfpp,
    ml_deriv,
    ml_three,
    ml_two,
    moment,
    pmf_cfpp,
    pmf_cpp,
    sample_inverse_stable,
    var_cfpp,
)
from cfpp.cli import EXIT_OK, main
from cfpp.distribution import jump_sum_pmf, laplace_pmf
from cfpp.partitions import bell_ordinary, enumerate_lambda, enumerate_theta
from cfpp.special import MLParams
from cfpp.validate import GRID_ALPHAS, GRID_MODELS, GRID_TIMES

MC_SEED = 99


def _report(number, name, detail, elapsed, budget):
    assert elapsed < budget, f"criterion {number} exceeded budget: {elapsed:.1f}s >= {budget}s"
    print(f"ACCEPTANCE {number:02d} PASS {name}: {detail} [{elapsed:.2f}s / {budget}s]")


def test_criterion_01_pmf_validity():
    start = time.monotonic()
    m = val.measure_normalization()  # auto-sized n_max over the grid
    assert m.worst <= 1e-6  # every case sums to >= 1 - 1e-6
    assert m.extra["min_prob"] >= 0
    _report(1, "pmf validity", f"worst missing mass {m.worst:.2e} (tol 1e-6)",
            time.monotonic() - start, 10.0)


def test_criterion_02_three_formula_equivalence():
    start = time.monotonic()
    worst = val.measure_three_way_equivalence().worst  # n <= 12 over the grid
    assert worst <= 1e-10
    _report(2, "three-formula equivalence", f"worst pairwise gap {worst:.2e} (tol 1e-10)",
            time.monotonic() - start, 5.0)


def test_criterion_03_reduction_chain():
    start = time.monotonic()
    worst_cpp = 0.0
    for model in GRID_MODELS:
        for t in (0.5, 2.0):
            a = pmf_cfpp(model, 1.0, t, 25).probs
            b = pmf_cpp(model, t, 25).probs
            worst_cpp = max(worst_cpp, float(np.abs(a - b).max()))
    assert worst_cpp <= 1e-12

    # single intensity at alpha < 1: the closed fractional-Poisson form
    lam, alpha, t = 1.0, 0.6, 1.5
    sd = pmf_cfpp(FiniteIntensity([lam]), alpha, t, 10)
    x = lam * t**alpha
    worst_tfpp = max(
        abs(sd.probs[n] - x**n * ml_three(MLParams(alpha, n * alpha + 1, n + 1), -x))
        for n in range(11)
    )
    assert worst_tfpp <= 1e-12

    # combined: alpha = 1 and unit jumps give the Poisson law
    lam, t = 1.5, 2.0
    sd = pmf_cfpp(FiniteIntensity([lam]), 1.0, t, 20)
    worst_poisson = max(
        abs(sd.probs[n] - math.exp(-lam * t) * (lam * t) ** n / math.factorial(n))
        for n in range(21)
    )
    assert worst_poisson <= 1e-12
    _report(3, "reduction chain",
            f"cpp gap {worst_cpp:.1e}, unit-jump gap {worst_tfpp:.1e}, "
            f"poisson gap {worst_poisson:.1e} (tol 1e-12)",
            time.monotonic() - start, 1.0)


def test_criterion_04_laplace_cross_check():
    start = time.monotonic()
    model = GeometricIntensity(1.0, 0.5)
    lam0 = model.lambda_at(0)
    worst = 0.0
    for alpha in (0.5, 0.8):
        J = jump_sum_pmf(model, 4)

        def p_n(t, n, alpha=alpha, J=J):
            if t <= 0.0:
                return 1.0 if n == 0 else 0.0
            w = cfpp.ml_weights(alpha, lam0 * t**alpha, n)
            return float(J[: n + 1, n] @ w)

        for n in range(5):
            for s in (0.5, 1.0, 2.0):
                t_cut = math.log(1e9 / s) / s  # e^{-s t}/s tail below 1e-9
                val, _ = integrate.quad(
                    lambda t: math.exp(-s * t) * p_n(t, n),
                    0.0, t_cut, limit=200, epsabs=1e-9, epsrel=1e-9,
                )
                worst = max(worst, abs(val - laplace_pmf(model, alpha, n, s)))
    assert worst <= 1e-6
    _report(4, "laplace transform cross-check", f"worst |quad - closed| {worst:.2e} (tol 1e-6)",
            time.monotonic() - start, 30.0)


def test_criterion_05_moments():
    start = time.monotonic()
    # |m1 - mean|, |m2 - m1^2 - var| and |cov(t, t) - var| over the grid
    worst_ident = val.measure_variance_consistency().worst
    assert worst_ident <= 1e-10

    worst_pmf = 0.0
    alpha, t = 0.7, 0.4
    for model in GRID_MODELS:
        sd = pmf_cfpp(model, alpha, t, 90)
        ns = np.arange(91, dtype=float)
        for r in (1, 2, 3, 4):
            worst_pmf = max(
                worst_pmf, abs(moment(model, alpha, t, r) - float((ns**r * sd.probs).sum()))
            )
            ff = ns.copy()
            for i in range(1, r):
                ff *= ns - i
            worst_pmf = max(
                worst_pmf,
                abs(factorial_moment(model, alpha, t, r) - float((ff * sd.probs).sum())),
            )
    assert worst_pmf <= 1e-6
    _report(5, "moment identities",
            f"closed-form gap {worst_ident:.1e} (tol 1e-10), pmf-sum gap {worst_pmf:.1e} (tol 1e-6)",
            time.monotonic() - start, 5.0)


def test_criterion_06_monte_carlo_agreement():
    start = time.monotonic()
    cases = [(GeometricIntensity(1.0, q), alpha) for alpha in GRID_ALPHAS for q in (0.0, 0.5)]
    m = val.measure_mc_agreement(cases, 100_000, MC_SEED, workers=4)
    assert m.worst < 3.0, m.where
    _report(6, "monte carlo agreement",
            f"worst deviation {m.worst:.2f} SE at {m.where} (limit 3); "
            f"family-wise chi-square <= {m.extra['chi2_max']:.1f} on 11 cells",
            time.monotonic() - start, 60.0)


def test_criterion_07_inverse_stable_moments():
    start = time.monotonic()
    n = 100_000
    worst = 0.0
    for alpha, t in ((0.5, 1.0), (0.7, 2.0), (0.9, 1.0)):
        rng = np.random.default_rng(MC_SEED)
        h = sample_inverse_stable(alpha, t, rng, n)
        mean_exact = t**alpha / math.gamma(alpha + 1)
        var_exact = t ** (2 * alpha) * (
            2.0 / math.gamma(2 * alpha + 1) - 1.0 / math.gamma(alpha + 1) ** 2
        )
        z_mean = abs(h.mean() - mean_exact) / (h.std(ddof=1) / math.sqrt(n))
        centered = h - h.mean()
        se_var = math.sqrt((np.mean(centered**4) - h.var(ddof=1) ** 2) / n)
        z_var = abs(h.var(ddof=1) - var_exact) / se_var
        worst = max(worst, z_mean, z_var)
    assert worst < 3.0
    _report(7, "inverse-stable moments", f"worst deviation {worst:.2f} SE (limit 3)",
            time.monotonic() - start, 10.0)


def test_criterion_08_overdispersion():
    start = time.monotonic()
    worst_exact = 0.0
    for model in GRID_MODELS:
        for t in GRID_TIMES:
            gap = var_cfpp(model, 1.0, t) - mean_cfpp(model, 1.0, t)
            worst_exact = max(worst_exact, abs(gap - 2.0 * t * model.sum_j_lambda()))
    assert worst_exact <= 1e-10
    for alpha in (0.5, 0.7):
        for model in GRID_MODELS:
            for t in GRID_TIMES:
                assert var_cfpp(model, alpha, t) - mean_cfpp(model, alpha, t) > 0
    _report(8, "overdispersion", f"closed-form gap {worst_exact:.1e}; strict positivity on grid",
            time.monotonic() - start, 1.0)


def test_criterion_09_lrd_exponent():
    start = time.monotonic()
    m = val.measure_process_slopes()  # alpha 0.5, 0.7, 0.9 on t in [1e2, 1e6]
    assert all(-1.0 < slope < 0.0 for slope in m.extra["slopes"])
    worst_slope = m.worst
    worst_level = max(m.extra["level_errors"])
    assert worst_slope <= 0.05
    assert worst_level <= 0.05
    _report(9, "long-range dependence",
            f"worst slope error {worst_slope:.3f} (tol 0.05), level error {worst_level:.3f} (tol 5%)",
            time.monotonic() - start, 5.0)


def test_criterion_10_srd_exponent():
    start = time.monotonic()
    m = val.measure_increment_slopes()
    assert all(1.0 < -slope < 2.0 for slope in m.extra["slopes"])  # short-range regime
    worst = m.worst
    assert worst <= 0.05
    _report(10, "short-range dependence of increments",
            f"worst slope error {worst:.3f} (tol 0.05); decay order inside (1, 2)",
            time.monotonic() - start, 5.0)


def test_criterion_11_special_function_identities():
    start = time.monotonic()
    # derivative identity vs central differences
    worst_deriv = 0.0
    h = 1e-4
    for alpha in (0.5, 0.7, 0.9):
        for beta in (1.0, 1.5):
            for x in (-2.0, -0.5, 0.3):
                fd = (ml_two(alpha, beta, x + h) - ml_two(alpha, beta, x - h)) / (2 * h)
                worst_deriv = max(worst_deriv, abs(ml_deriv(alpha, beta, 1, x) - fd))
    assert worst_deriv <= 1e-6

    # summation identity
    worst_sum = 0.0
    for alpha in (0.5, 0.7, 0.9):
        t, x, y = 1.2, -1.4, 0.8
        xa, ya = x * t**alpha, y * t**alpha
        total = 0.0
        for k in range(160):
            term = ya**k * ml_three(MLParams(alpha, k * alpha + 1, k + 1), xa)
            total += term
            if k > 10 and abs(term) < 1e-14:
                break
        worst_sum = max(worst_sum, abs(total - ml_two(alpha, 1.0, (x + y) * t**alpha)))
    assert worst_sum <= 1e-8

    # Bell-polynomial generating identities at n <= 8
    rng = np.random.default_rng(3)
    worst_bell = 0.0
    for n in range(1, 9):
        u = rng.uniform(-1.5, 1.5, n)
        poly = np.zeros(n + 1)
        poly[1:] = u
        power = np.array([1.0])
        series = np.zeros(n + 1)
        series[0] = 1.0
        x = 0.9
        for k in range(1, n + 1):
            power = np.convolve(power, poly)[: n + 1]
            coeff = power[n] if n < len(power) else 0.0
            worst_bell = max(worst_bell, abs(bell_ordinary(n, k, u) - coeff))
            series[: len(power)] += x**k / math.factorial(k) * power
        exp_coeff = sum(
            bell_ordinary(n, k, u) * x**k / math.factorial(k) for k in range(1, n + 1)
        )
        worst_bell = max(worst_bell, abs(series[n] - exp_coeff))
    assert worst_bell <= 1e-10

    # index-set bijection up to n = 12
    for n in range(1, 13):
        for k in range(1, n + 1):
            padded = {vec + (0,) * (k - 1) for vec in enumerate_lambda(n, k)}
            assert padded == set(enumerate_theta(n, k))
    _report(11, "special-function identities",
            f"derivative {worst_deriv:.1e} (1e-6), summation {worst_sum:.1e} (1e-8), "
            f"bell {worst_bell:.1e} (1e-10), index bijection n<=12",
            time.monotonic() - start, 10.0)


def test_criterion_12_cli_determinism(tmp_path):
    start = time.monotonic()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"intensity": {"type": "geometric", "lambda0": 1.0, "q": 0.5}, "alpha": 0.7, "t": 1.0}
        )
    )
    for fmt in ("csv", "json"):
        a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        argv = [
            "simulate", "--config", str(cfg), "--seed", "42", "--samples", "20000",
            "--workers", "4", "--format", fmt,
        ]
        assert main(argv + ["--output", str(a)]) == EXIT_OK
        assert main(argv + ["--output", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
    _report(12, "cli determinism", "csv and json outputs byte-identical across reruns",
            time.monotonic() - start, 30.0)
