"""Samplers against distributional oracles, plus reproducibility contracts."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cfpp.distribution import mean_cfpp, pmf_cfpp, var_cfpp
from cfpp.errors import DomainError
from cfpp.intensity import FiniteIntensity, GeometricIntensity, delta, jump_pmf
from cfpp.simulate import (
    BLOCK,
    METHOD_RENEWAL,
    METHOD_TIME_CHANGE,
    MCReport,
    SamplerConfig,
    JumpSampler,
    _log_stable,
    _report_from_counts,
    mc_pmf,
    ml_waiting_time,
    sample_cfpp_batch,
    sample_inverse_stable,
    sample_stable,
)
from cfpp.special import ml_one

GEO = GeometricIntensity(1.0, 0.5)
N = 100_000


class Draws:
    """Stub generator: each `random` call hands out the next fixed array of
    uniforms, and `exponential` the fixed exponentials."""

    def __init__(self, *uniforms, exponentials=()):
        self.uniforms = [np.asarray(u, dtype=float) for u in uniforms]
        self.exponentials = np.asarray(exponentials, dtype=float)

    def random(self, n):
        u = self.uniforms.pop(0)
        assert n == u.size
        return u

    def exponential(self, scale, n):
        assert scale == 1.0 and n == self.exponentials.size
        return self.exponentials


def log_stable_cms(alpha, v, w):
    """Chambers-Mallows-Stuck log S at angle v in (-pi/2, pi/2), the oracle for Kanter's form."""
    shifted = alpha * (v + np.pi / 2.0)
    log_ratio = np.log(np.cos(v - shifted)) - np.log(w)
    return np.log(np.sin(shifted)) - np.log(np.cos(v)) / alpha + (1.0 - alpha) / alpha * log_ratio


class TestStableSampler:
    def test_laplace_transform(self):
        rng = np.random.default_rng(101)
        for alpha in (0.5, 0.7, 0.9):
            s_draws = sample_stable(alpha, rng, N)
            assert np.all(s_draws > 0)
            for s in (0.5, 1.0, 2.0):
                vals = np.exp(-s * s_draws)
                se = vals.std(ddof=1) / math.sqrt(N)
                assert abs(vals.mean() - math.exp(-(s**alpha))) < 3 * se

    def test_alpha_one_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            sample_stable(1.0, rng, 1)

    @pytest.mark.parametrize("alpha", [0.01, 0.3, 0.7, 0.99])
    def test_kanter_form_matches_chambers_mallows_stuck(self, alpha):
        # the same draws: Kanter at phi = pi U, CMS at v = phi - pi/2
        rng = np.random.default_rng(505)
        u, w = rng.random(10_000), rng.exponential(1.0, 10_000)
        got = _log_stable(alpha, Draws(u, exponentials=w), u.size)
        want = log_stable_cms(alpha, np.pi * u - np.pi / 2.0, w)
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("alpha", [0.01, 0.5, 0.99])
    def test_zero_uniform_gives_a_finite_draw(self, alpha):
        # U = 0 is phi = 0, where every sine of the form vanishes
        log_s = _log_stable(alpha, Draws([0.0, 0.5], exponentials=[1.0, 1.0]), 2)
        assert np.all(np.isfinite(log_s))


class TestInverseStable:
    @pytest.mark.parametrize("alpha,t", [(0.5, 1.0), (0.7, 2.0), (0.9, 0.6)])
    def test_mean_and_variance(self, alpha, t):
        rng = np.random.default_rng(202)
        h = sample_inverse_stable(alpha, t, rng, N)
        mean_exact = t**alpha / math.gamma(alpha + 1)
        var_exact = t ** (2 * alpha) * (
            2.0 / math.gamma(2 * alpha + 1) - 1.0 / math.gamma(alpha + 1) ** 2
        )
        se_mean = h.std(ddof=1) / math.sqrt(N)
        assert abs(h.mean() - mean_exact) < 3 * se_mean
        centered = h - h.mean()
        se_var = math.sqrt((np.mean(centered**4) - h.var(ddof=1) ** 2) / N)
        assert abs(h.var(ddof=1) - var_exact) < 3 * se_var

    def test_degenerate_at_alpha_one(self):
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(sample_inverse_stable(1.0, 2.5, rng, 3), [2.5] * 3)

    def test_subordination_identity(self):
        # running the alpha=1 generating function on the sampled random
        # clock reproduces the fractional generating function
        from cfpp.distribution import pgf
        from cfpp.intensity import delta_series

        alpha, t, u = 0.7, 1.2, 0.6
        rng = np.random.default_rng(404)
        h = sample_inverse_stable(alpha, t, rng, N)
        vals = np.exp(delta_series(GEO, u) * h)
        se = vals.std(ddof=1) / math.sqrt(N)
        assert abs(vals.mean() - pgf(GEO, alpha, t, u)) < 3 * se


class TestWaitingTimes:
    @pytest.mark.parametrize("alpha", [0.5, 0.7, 0.9])
    def test_survival_matches_mittag_leffler(self, alpha):
        # the guard the sampler must pass before the renewal method uses it
        lam0 = 1.3
        rng = np.random.default_rng(303)
        w = ml_waiting_time(alpha, lam0, rng, N)
        for t in (0.5, 1.0, 2.0):
            exact = ml_one(alpha, -lam0 * t**alpha)
            emp = (w > t).mean()
            se = math.sqrt(exact * (1 - exact) / N)
            assert abs(emp - exact) < 3 * se

    def test_small_rate_overflow_is_no_renewal(self):
        # (Z / lambda_0)^(1/alpha) overflows at alpha 0.01, lambda_0 1e-4
        w = ml_waiting_time(0.01, 1e-4, np.random.default_rng(3), 3)
        assert not np.any(np.isnan(w)) and np.all(w >= 0) and np.any(w == np.inf)

    def test_zero_uniforms_give_no_nan(self):
        # U = 0 makes the exponential factor 0 and V = 0 the scale infinite
        w = ml_waiting_time(0.7, 1.0, Draws([0.0, 0.0, 0.5, 0.5], [0.0, 0.5, 0.0, 0.5]), 4)
        assert w[0] == np.inf and w[2] == np.inf
        assert np.all(np.isfinite(w[[1, 3]])) and w[1] == 0.0 and w[3] > 0

    def test_unit_rate_bits_unchanged(self):
        # at lambda_0 = 1 the waiting time is -log(1 - U) Z^(1/alpha), bit for bit
        alpha = 0.7
        w = ml_waiting_time(alpha, 1.0, np.random.default_rng(9), 1000)
        rng = np.random.default_rng(9)
        u, v = rng.random(1000), rng.random(1000)
        z = np.sin(alpha * np.pi) / np.tan(alpha * np.pi * v) - np.cos(alpha * np.pi)
        np.testing.assert_array_equal(w, -np.log1p(-u) * z ** (1.0 / alpha))

    def test_alpha_one_is_exponential(self):
        rng = np.random.default_rng(1)
        w = ml_waiting_time(1.0, 2.0, rng, N)
        exact = math.exp(-2.0 * 0.7)
        emp = (w > 0.7).mean()
        se = math.sqrt(exact * (1 - exact) / N)
        assert abs(emp - exact) < 3 * se


class TestJumpSampler:
    def test_unit_jump_point_mass(self):
        rng = np.random.default_rng(4)
        draws = JumpSampler(FiniteIntensity([2.0])).sample(rng, 1000)
        assert np.all(draws == 1)

    def test_geometric_law(self):
        rng = np.random.default_rng(5)
        draws = JumpSampler(GEO).sample(rng, N)
        freq = np.bincount(draws) / N
        for j in range(1, 6):
            p = 0.5 * 0.5 ** (j - 1)
            assert abs(freq[j] - p) < 3 * math.sqrt(p * (1 - p) / N)

    def test_finite_law(self):
        model = FiniteIntensity([2.0, 1.0, 0.5])
        rng = np.random.default_rng(6)
        draws = JumpSampler(model).sample(rng, N)
        freq = np.bincount(draws, minlength=4) / N
        for j in (1, 2, 3):
            p = jump_pmf(model, j)
            assert abs(freq[j] - p) < 3 * math.sqrt(p * (1 - p) / N)
        assert freq[0] == 0.0

    def test_inverse_cdf_skips_zero_probability_jumps(self):
        # delta_1 = 0 and delta_2 = delta_3 = 0.5: the normalised cdf is
        # [0, 0.5, 1], and a uniform at 0 or at a cdf boundary lands on the
        # next jump, so jump 1 is never drawn
        sampler = JumpSampler(FiniteIntensity([1.0, 1.0, 0.5]))
        u = [0.0, np.nextafter(0.5, 0.0), 0.5, np.nextafter(1.0, 0.0)]
        np.testing.assert_array_equal(sampler.sample(Draws(u), 4), [2, 2, 3, 3])

    def test_empirical_mean(self):
        model = FiniteIntensity([2.0, 1.0, 0.5])
        rng = np.random.default_rng(7)
        draws = JumpSampler(model).sample(rng, N)
        want = sum(j * delta(model, j) for j in range(1, 5)) / model.lambda_at(0)
        se = draws.std(ddof=1) / math.sqrt(N)
        assert abs(draws.mean() - want) < 3 * se


class TestCountSampler:
    def test_zero_time(self):
        rng = np.random.default_rng(0)
        assert np.all(sample_cfpp_batch(GEO, 0.7, 0.0, rng, 100) == 0)

    def test_classical_poisson_case(self):
        rng = np.random.default_rng(8)
        lam, t = 1.0, 2.0
        counts = sample_cfpp_batch(FiniteIntensity([lam]), 1.0, t, rng, N)
        freq = np.bincount(counts) / N
        for n in range(8):
            p = math.exp(-lam * t) * (lam * t) ** n / math.factorial(n)
            assert abs(freq[n] - p) < 3 * math.sqrt(p * (1 - p) / N)

    @pytest.mark.parametrize("method", [METHOD_TIME_CHANGE, METHOD_RENEWAL])
    def test_against_exact_pmf(self, method):
        rng = np.random.default_rng(99)
        alpha, t = 0.7, 1.0
        counts = sample_cfpp_batch(GEO, alpha, t, rng, N, method)
        exact = pmf_cfpp(GEO, alpha, t, max(10, counts.max()))
        freq = np.bincount(counts, minlength=11) / N
        for n in range(11):
            p = exact.probs[n]
            assert abs(freq[n] - p) < 3 * math.sqrt(p * (1 - p) / N)

    @pytest.mark.parametrize("method", [METHOD_TIME_CHANGE, METHOD_RENEWAL])
    def test_zero_count_probability(self, method):
        rng = np.random.default_rng(10)
        alpha, t = 0.6, 1.5
        counts = sample_cfpp_batch(GEO, alpha, t, rng, N, method)
        exact = ml_one(alpha, -(t**alpha))
        emp = (counts == 0).mean()
        assert abs(emp - exact) < 3 * math.sqrt(exact * (1 - exact) / N)

    def test_renewal_counts_are_monotone_in_t(self):
        # identical seed -> identical waiting-time sequence -> coupled paths
        for seed in range(40):
            c1 = sample_cfpp_batch(GEO, 0.7, 0.8, np.random.default_rng(seed), 1, METHOD_RENEWAL)[0]
            c2 = sample_cfpp_batch(GEO, 0.7, 2.0, np.random.default_rng(seed), 1, METHOD_RENEWAL)[0]
            assert c1 <= c2

    def test_levy_characteristic_function_at_alpha_one(self):
        # empirical char. fn vs exp(-t sum_j delta_j (1 - e^{i xi j}))
        rng = np.random.default_rng(11)
        t = 1.0
        counts = sample_cfpp_batch(GEO, 1.0, t, rng, N)
        for xi in (0.5, 1.0):
            exponent = -t * sum(
                delta(GEO, j) * (1.0 - np.exp(1j * xi * j)) for j in range(1, 200)
            )
            want = np.exp(exponent)
            vals = np.exp(1j * xi * counts)
            emp = vals.mean()
            se_re = vals.real.std(ddof=1) / math.sqrt(N)
            se_im = vals.imag.std(ddof=1) / math.sqrt(N)
            assert abs(emp.real - want.real) < 3 * se_re
            assert abs(emp.imag - want.imag) < 3 * se_im

    @pytest.mark.parametrize("method", [METHOD_TIME_CHANGE, METHOD_RENEWAL])
    @pytest.mark.parametrize("alpha", [0.7, 1.0])
    def test_blocks_continue_one_stream(self, method, alpha):
        # a batch one block and five samples long is a block, then five more
        # samples drawn in sequence from the same generator
        batch = sample_cfpp_batch(GEO, alpha, 1.0, np.random.default_rng(31), BLOCK + 5, method)
        rng = np.random.default_rng(31)
        first = sample_cfpp_batch(GEO, alpha, 1.0, rng, BLOCK, method)
        rest = sample_cfpp_batch(GEO, alpha, 1.0, rng, 5, method)
        np.testing.assert_array_equal(batch, np.concatenate([first, rest]))

    @pytest.mark.parametrize("method", [METHOD_TIME_CHANGE, METHOD_RENEWAL])
    def test_small_alpha_mean(self, method):
        # at alpha = 0.01 a stable draw S overflows, but S^(-alpha) does not
        rep = mc_pmf(GEO, 0.01, 1.0, SamplerConfig(seed=12, n_samples=N, method=method))
        assert abs(rep.sample_mean - mean_cfpp(GEO, 0.01, 1.0)) < 3 * rep.mean_se


class TestMonteCarloReports:
    @pytest.mark.parametrize("n_samples,workers", [(4000, 3), (2 * BLOCK + 1, 1)])
    def test_determinism_contract(self, n_samples, workers):
        cfg = SamplerConfig(seed=77, n_samples=n_samples, workers=workers, method=METHOD_TIME_CHANGE)
        r1 = mc_pmf(GEO, 0.7, 1.0, cfg)
        r2 = mc_pmf(GEO, 0.7, 1.0, cfg)
        np.testing.assert_array_equal(r1.empirical_pmf, r2.empirical_pmf)
        assert r1.sample_mean == r2.sample_mean
        assert r1.sample_var == r2.sample_var

    def test_worker_partitioning(self):
        cfg = SamplerConfig(seed=1, n_samples=10, workers=3)
        rep = mc_pmf(GEO, 0.7, 1.0, cfg)
        assert rep.n_samples == 10  # workers draw 4, 3 and 3

    def test_pmf_normalization_and_se(self):
        cfg = SamplerConfig(seed=5, n_samples=20_000, workers=2)
        rep = mc_pmf(GEO, 0.7, 1.0, cfg)
        np.testing.assert_allclose(rep.empirical_pmf.sum(), 1.0, atol=1e-12)
        expected_se = np.sqrt(rep.empirical_pmf * (1 - rep.empirical_pmf) / rep.n_samples)
        np.testing.assert_allclose(rep.pmf_se, expected_se, rtol=1e-12)

    def test_moments_against_closed_forms(self):
        cfg = SamplerConfig(seed=12, n_samples=N, workers=4)
        rep = mc_pmf(GEO, 0.7, 1.0, cfg)
        assert abs(rep.sample_mean - mean_cfpp(GEO, 0.7, 1.0)) < 3 * rep.mean_se
        assert abs(rep.sample_var - var_cfpp(GEO, 0.7, 1.0)) < 3 * rep.var_se
        assert isinstance(rep, MCReport)

    @pytest.mark.parametrize("counts", [[0, 2], [1, 3, 7], [4, 0, 0, 9, 1]])
    def test_variance_se_is_the_unbiased_estimate(self, counts):
        # (m4 - (n-3)/(n-1) s^4) / n and s^2 in exact rationals; 2-3 distinct
        # counts give a positive SE, which m4 - s^4 (negative there) would not
        n = len(counts)
        mean = Fraction(sum(counts), n)
        m4 = sum((c - mean) ** 4 for c in counts) / n
        s2 = sum((c - mean) ** 2 for c in counts) / (n - 1)
        want = math.sqrt((m4 - Fraction(n - 3, n - 1) * s2**2) / n)
        rep = _report_from_counts(np.array(counts), SamplerConfig(seed=0))
        assert rep.var_se > 0
        np.testing.assert_allclose(rep.var_se, want, rtol=1e-14)
        np.testing.assert_allclose(rep.sample_var, float(s2), rtol=1e-14)

    def test_variance_se_is_zero_only_for_equal_counts(self):
        assert _report_from_counts(np.array([3, 3, 3]), SamplerConfig(seed=0)).var_se == 0.0
        assert _report_from_counts(np.array([5]), SamplerConfig(seed=0)).var_se == 0.0

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SamplerConfig(seed=1, n_samples=0)
        with pytest.raises(DomainError):
            SamplerConfig(seed=1, workers=0)
        with pytest.raises(DomainError):
            SamplerConfig(seed=1, method="bogus")
        with pytest.raises(DomainError):
            sample_cfpp_batch(GEO, 0.7, 1.0, np.random.default_rng(0), 10, "bogus")
        # non-finite times, and times whose expected jump count no batch can hold
        for t in (math.nan, math.inf, 1e150):
            for method in (METHOD_TIME_CHANGE, METHOD_RENEWAL):
                with pytest.raises(DomainError):
                    sample_cfpp_batch(GEO, 0.5, t, np.random.default_rng(0), 10, method)
        # non-finite times and rates in the sampler helpers, at both branches
        for alpha in (0.5, 1.0):
            for bad in (math.nan, math.inf):
                with pytest.raises(DomainError):
                    sample_inverse_stable(alpha, bad, np.random.default_rng(0), 10)
                with pytest.raises(DomainError):
                    ml_waiting_time(alpha, bad, np.random.default_rng(0), 10)

    def test_count_total_bound_refuses_before_drawing(self):
        # q near 1 gives jumps of about 1e9, so ten samples expect counts that
        # sum to about 1e10: more than a report's bincount can hold, although
        # the expected number of jumps is only about 10
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"the batch drew {name} before refusing")

        model = GeometricIntensity(1.0, 1.0 - 1e-9)
        for method in (METHOD_TIME_CHANGE, METHOD_RENEWAL):
            with pytest.raises(DomainError, match="summing to"):
                sample_cfpp_batch(model, 0.7, 1.0, NoDraws(), 10, method)

