"""Mittag-Leffler and incomplete-beta evaluators against independent oracles."""

import math
import os
import re
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import cfpp
from cfpp.errors import DomainError, NonConvergenceError
from cfpp.special import (
    _CONTOUR_TOL,
    _LOG_S,
    _S,
    _WR,
    N_MAX_CEILING,
    _node_powers,
    MLParams,
    complete_beta,
    incomplete_beta,
    invert_rows,
    ml_deriv,
    ml_one,
    ml_three,
    ml_two,
    ml_weights,
    node_transforms,
)


def ml_series_oracle(alpha, beta, gamma, x, dps=160, terms=4000):
    """Direct high-precision summation, independent of the library path.

    All parameter arithmetic stays in mpf; mixing in float operations (for
    example k * alpha + beta in double) perturbs the gamma arguments by one
    double ulp, which is already visible at the 1e-11 comparison level.
    """
    with mp.workdps(dps):
        a, b, g, xm = mp.mpf(alpha), mp.mpf(beta), mp.mpf(gamma), mp.mpf(x)
        total = mp.mpf(0)
        for k in range(terms):
            term = (
                mp.gamma(g + k) * xm**k / (mp.gamma(g) * mp.factorial(k) * mp.gamma(k * a + b))
            )
            total += term
            if k > 20 and abs(term) < mp.mpf("1e-40") * max(abs(total), mp.mpf(1)):
                break
        return float(total)


class TestMittagLefflerValues:
    def test_zero_argument_is_one_over_gamma_beta(self):
        assert ml_three(MLParams(0.7, 1.0, 1.0), 0.0) == 1.0
        assert ml_two(0.5, 1.0, 0.0) == 1.0
        np.testing.assert_allclose(
            ml_two(0.6, 2.5, 0.0), 1.0 / math.gamma(2.5), rtol=1e-14
        )

    def test_large_beta_does_not_overflow(self):
        # Gamma(200) overflows a double; 1/Gamma(200) ~ 4e-373 rounds to 0
        assert ml_two(0.5, 200.0, 0.0) == 0.0
        assert math.isfinite(ml_three(MLParams(1.0, 200.0, 1.0), -1.0))

    def test_exponential_special_case(self):
        np.testing.assert_allclose(ml_three(MLParams(1, 1, 1), 1.0), math.e, rtol=1e-13)
        np.testing.assert_allclose(ml_two(1, 1, -1.0), math.exp(-1), rtol=1e-13)
        np.testing.assert_allclose(ml_one(1.0, -10.0), math.exp(-10), rtol=1e-12)

    @pytest.mark.parametrize("x", [-0.3, -2.5, -17.0, -49.5])
    def test_alpha_one_is_the_exponential_exactly(self, x):
        assert ml_one(1, x) == math.exp(x)
        assert ml_one(1.0, x) == math.exp(x)

    @pytest.mark.parametrize("x", [-0.3, -2.5, -17.0])
    def test_alpha_one_kummer_branch(self, x):
        # gamma != beta keeps 1F1: E_{1,2}(x) = (e^x - 1) / x
        with mp.workdps(40):
            want = float(mp.expm1(mp.mpf(x)) / mp.mpf(x))
        np.testing.assert_allclose(ml_two(1, 2, x), want, rtol=1e-13)
        np.testing.assert_allclose(ml_two(1, 2, x), ml_series_oracle(1.0, 2.0, 1.0, x), rtol=1e-11)

    def test_alpha_one_pgf_leaves_scipy_special_unloaded(self):
        src = os.path.dirname(os.path.dirname(cfpp.__file__))
        code = (
            "import sys\n"
            "from cfpp.distribution import pgf\n"
            "from cfpp.intensity import GeometricIntensity\n"
            "value = pgf(GeometricIntensity(1.0, 0.5), 1.0, 1.3, 0.4)\n"
            "print(0 < value < 1, 'scipy.special' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["True", "False"]

    def test_gamma_collapse_to_exponential(self):
        # Gamma(2+k) / (k! Gamma(k+2)) = 1/k!, so E^2_{1,2}(x) sums to e^x
        np.testing.assert_allclose(
            ml_three(MLParams(1, 2, 2), 0.5), math.exp(0.5), rtol=1e-13
        )

    def test_erfc_identity_at_half(self):
        # E_{1/2,1}(-1) = e * erfc(1), a second independent oracle
        np.testing.assert_allclose(
            ml_two(0.5, 1, -1.0), math.e * math.erfc(1.0), rtol=1e-12
        )

    @pytest.mark.parametrize("alpha", [0.4, 0.6, 0.85, 1.0])
    @pytest.mark.parametrize("x", [-8.0, -2.5, -0.3, 0.7, 3.0])
    def test_against_series_oracle(self, alpha, x):
        got = ml_three(MLParams(alpha, 1.2, 2.0), x)
        want = ml_series_oracle(alpha, 1.2, 2.0, x)
        np.testing.assert_allclose(got, want, rtol=1e-11)

    def test_heavy_cancellation_region(self):
        # x = -30 at alpha = 0.6 loses > 20 digits in double precision
        got = ml_one(0.6, -30.0)
        want = ml_series_oracle(0.6, 1.0, 1.0, -30.0, dps=200)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_two_vs_three_parameter_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            alpha = rng.uniform(0.3, 1.0)
            beta = rng.uniform(0.5, 3.0)
            x = rng.uniform(-5.0, 2.0)
            np.testing.assert_allclose(
                ml_two(alpha, beta, x),
                ml_three(MLParams(alpha, beta, 1.0), x),
                rtol=1e-12,
            )


class TestContourCache:
    """The node powers are cached per alpha; results must not depend on it."""

    ALPHAS = (0.3, 0.55, 0.8, 0.95)

    def _values(self, alphas):
        return {
            a: (ml_weights(a, 3.0, 12), ml_one(a, -2.0), ml_two(a, 1.7, -2.0),
                ml_three(MLParams(a, 1.4, 2.5), -2.0))
            for a in alphas
        }

    @staticmethod
    def _assert_identical(first, again):
        for a, vals in first.items():
            np.testing.assert_array_equal(vals[0], again[a][0])
            assert vals[1:] == again[a][1:]

    def test_interleaved_alphas_repeat_bit_for_bit(self):
        first = self._values(self.ALPHAS)
        self._assert_identical(first, self._values(self.ALPHAS[::-1]))
        self._assert_identical(first, self._values(self.ALPHAS[1::2] + self.ALPHAS[::2]))

    def test_evicted_alphas_repeat_bit_for_bit(self):
        first = self._values(self.ALPHAS)
        for a in np.linspace(0.2, 0.9, 80):  # more alphas than the cache holds
            ml_one(float(a), -1.0)
        self._assert_identical(first, self._values(self.ALPHAS))

    def test_cached_weights_are_read_only_and_stable(self):
        # s^alpha, s^(alpha - 1) and the weights with s^(alpha - 1) folded in
        first = {a: [arr.copy() for arr in _node_powers(a)] for a in self.ALPHAS}
        for arr in (_WR, *_node_powers(0.55)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        for a in self.ALPHAS[::-1] + tuple(np.linspace(0.2, 0.9, 80)) + self.ALPHAS:
            _node_powers(float(a))
            if a in first:
                for want, got in zip(first[a], _node_powers(a)):
                    np.testing.assert_array_equal(got, want)

    def test_writing_into_a_result_leaves_the_next_call_alone(self):
        w = ml_weights(0.6, 3.0, 10)
        want = w.copy()
        w[:] = -1.0
        np.testing.assert_array_equal(ml_weights(0.6, 3.0, 10), want)
        np.testing.assert_array_equal(ml_weights(0.6, 3.0, 4), want[:5])

    @pytest.mark.parametrize("gamma", [0.7, 2.5, 4.0])
    @pytest.mark.parametrize("x", [-6.0, -0.8])
    def test_general_gamma_against_series_oracle(self, gamma, x):
        got = ml_three(MLParams(0.65, 1.3, gamma), x)
        np.testing.assert_allclose(got, ml_series_oracle(0.65, 1.3, gamma, x), rtol=1e-11)

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("beta", [1.0, 1.6])
    def test_derivative_against_differentiated_series(self, n, beta):
        # d^n/dx^n sum_k x^k / Gamma(k alpha + beta), term by term in mpmath:
        # independent of the n! E^{n+1} identity that ml_deriv uses
        alpha, x = 0.75, -3.0
        with mp.workdps(60):
            a, b, xm = mp.mpf(alpha), mp.mpf(beta), mp.mpf(x)
            want, k = mp.mpf(0), 0
            while True:
                term = mp.ff(k + n, n) * xm**k / mp.gamma((k + n) * a + b)
                want += term
                if k > 20 and abs(term) < mp.mpf("1e-40"):
                    break
                k += 1
        np.testing.assert_allclose(ml_deriv(alpha, beta, n, x), float(want), rtol=1e-11)


class TestNodePowers:
    # numpy's complex power takes special paths (repeated multiplication,
    # square root) at integer and half-integer exponents, so the grid
    # avoids them; there e^(p log s) agrees to a few ulps instead
    POWERS = [p / 20.0 + 0.013 for p in range(-60, 60)] + [
        0.6 * (n + 1) - (n * 0.6 + beta) for n in range(1, 13) for beta in (1.0, 1.3)
    ]  # the last are the powers of ml_deriv at alpha 0.6

    def test_exp_log_is_the_complex_power_bit_for_bit(self):
        for p in self.POWERS:
            np.testing.assert_array_equal(np.exp(p * _LOG_S), _S**p)

    def test_special_exponents_within_a_few_ulps(self):
        for p in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
            np.testing.assert_allclose(np.exp(p * _LOG_S), _S**p, rtol=4e-15)


class TestMittagLefflerDomain:
    def test_accuracy_domain_enforced(self):
        with pytest.raises(DomainError):
            ml_two(0.5, 1.0, -51.0)
        with pytest.raises(DomainError):
            ml_three(MLParams(0.8, 1, 1), 50.5)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            MLParams(-0.5, 1, 1)
        with pytest.raises(DomainError):
            MLParams(0.5, 0.0, 1)


class TestDerivative:
    def test_exp_derivative_at_zero(self):
        np.testing.assert_allclose(ml_deriv(1, 1, 1, 0.0), 1.0, rtol=1e-14)

    def test_zeroth_derivative_is_the_function(self):
        assert ml_deriv(0.7, 1.3, 0, -0.4) == ml_two(0.7, 1.3, -0.4)

    @pytest.mark.parametrize("alpha,beta", [(0.5, 1.0), (0.7, 1.0), (0.9, 1.5)])
    @pytest.mark.parametrize("x", [-2.0, -0.3, 0.5])
    def test_first_derivative_vs_central_difference(self, alpha, beta, x):
        h = 1e-4
        fd = (ml_two(alpha, beta, x + h) - ml_two(alpha, beta, x - h)) / (2 * h)
        np.testing.assert_allclose(ml_deriv(alpha, beta, 1, x), fd, atol=1e-6, rtol=1e-6)

    def test_second_derivative_vs_central_difference(self):
        alpha, beta, x, h = 0.5, 1.0, -0.3, 1e-4
        fd = (
            ml_two(alpha, beta, x + h) - 2 * ml_two(alpha, beta, x) + ml_two(alpha, beta, x - h)
        ) / h**2
        np.testing.assert_allclose(ml_deriv(alpha, beta, 2, x), fd, atol=1e-6, rtol=1e-5)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            ml_deriv(0.5, 1.0, -1, 0.0)


class TestSummationIdentity:
    @pytest.mark.parametrize("alpha", [0.5, 0.7, 0.9])
    def test_weighted_sum_telescopes(self, alpha):
        # sum_k (y t^a)^k E^{k+1}_{a, k a + 1}(x t^a) = E_a((x+y) t^a)
        t, x, y = 1.3, -1.1, 0.6
        xa, ya = x * t**alpha, y * t**alpha
        total, k = 0.0, 0
        while k < 200:
            term = ya**k * ml_three(MLParams(alpha, k * alpha + 1.0, k + 1.0), xa)
            total += term
            if abs(term) < 1e-14 and k > 5:
                break
            k += 1
        np.testing.assert_allclose(total, ml_one(alpha, (x + y) * t**alpha), atol=1e-8)

    def test_normalization_case(self):
        # y = lambda_0, x = -lambda_0: the weights sum to E_alpha(0) = 1
        for alpha in (0.5, 0.8):
            w = ml_weights(alpha, 2.4, 80)
            np.testing.assert_allclose(w.sum(), 1.0, atol=1e-9)


class TestWeightVector:
    def test_matches_single_evaluations(self):
        for alpha, x in ((0.6, 3.0), (0.85, 12.0), (1.0, 5.0)):
            w = ml_weights(alpha, x, 10)
            single = np.array(
                [x**k * ml_three(MLParams(alpha, k * alpha + 1, k + 1), -x) for k in range(11)]
            )
            np.testing.assert_allclose(w, single, rtol=1e-10, atol=1e-16)

    def test_entries_are_probabilities(self):
        w = ml_weights(0.7, 8.0, 60)
        assert np.all(w >= 0)
        assert np.all(w <= 1)
        assert w.sum() <= 1 + 1e-12

    def test_zero_argument(self):
        w = ml_weights(0.5, 0.0, 5)
        np.testing.assert_array_equal(w, [1, 0, 0, 0, 0, 0])

    @pytest.mark.parametrize("alpha,x", [(0.5, 45.0), (0.3, 20.0), (0.1, 50.0)])
    def test_closed_form_identities_deep_in_domain(self, alpha, x):
        # sum_k w_k = E_alpha(0) = 1, sum_k k w_k = x / Gamma(1 + alpha) and
        # sum_k k (k-1) w_k = 2 x^2 / Gamma(1 + 2 alpha): closed forms that
        # share no code with the evaluator
        w = ml_weights(alpha, x, 2000)
        k = np.arange(w.size, dtype=float)
        np.testing.assert_allclose(w.sum(), 1.0, rtol=1e-12)
        np.testing.assert_allclose(k @ w, x / math.gamma(1.0 + alpha), rtol=1e-12)
        np.testing.assert_allclose(
            (k * (k - 1.0)) @ w, 2.0 * x**2 / math.gamma(1.0 + 2.0 * alpha), rtol=1e-12
        )

    def test_half_order_survival_is_scaled_erfc(self):
        # E_{1/2}(-x) = e^(x^2) erfc(x) = erfcx(x)
        np.testing.assert_allclose(ml_weights(0.5, 45.0, 0)[0], special.erfcx(45.0), rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(0.05, 0.999),
        x=st.floats(0.0, 50.0),
        m=st.integers(0, 299),
        extra=st.integers(1, 300),
    )
    def test_a_shorter_vector_is_a_prefix(self, alpha, x, m, extra):
        # each row is inverted on its own; only the BLAS summation order,
        # which can depend on the number of rows, may move the last bits
        n = min(m + extra, 300)
        try:
            short, full = ml_weights(alpha, x, m), ml_weights(alpha, x, n)
        except NonConvergenceError:  # near alpha = 1 at large x and n
            return
        np.testing.assert_allclose(short, full[: m + 1], rtol=0, atol=5e-14)

    @settings(max_examples=8, deadline=None)
    @given(alpha=st.floats(0.4, 0.9), x=st.floats(0.05, 30.0))
    @example(alpha=0.46889067325638234, x=21.8046875)
    def test_first_rows_against_mpmath(self, alpha, x):
        # w_k inverts x^k s^(alpha-1) / (s^alpha + x)^(k+1); folding that
        # transform onto the branch cut s = u^(1/alpha) e^(i pi) gives
        # w_k = x^k / (alpha pi) int_0^inf e^(-u^(1/alpha)) Im(e^(i alpha pi)
        # / (u e^(i alpha pi) + x)^(k+1)) du, a real integral, no contour.
        # At 20 digits mp.quad misses w_2 by 2e-12 at the example above.
        with mp.workdps(30):
            a, xm = mp.mpf(alpha), mp.mpf(x)
            turn = mp.expjpi(a)
            want = [
                float(xm**k / (a * mp.pi) * mp.quad(
                    lambda u: mp.exp(-u ** (1 / a)) * mp.im(turn / (u * turn + xm) ** (k + 1)),
                    [0, xm, mp.inf],
                ))
                for k in range(5)
            ]
        np.testing.assert_allclose(ml_weights(alpha, x, 4), want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "alpha,x,n_max,estimate",
        [(0.9, 45.0, 300, "8.6e-01"), (0.95, 45.0, 300, "6.9e+13"), (0.999, 50.0, 128, "2.1e-10")],
    )
    def test_refusals_report_the_relative_estimate(self, alpha, x, n_max, estimate):
        # the absolute gap fails first here, and the message quotes the gap
        # relative to max(1, |value|)
        with pytest.raises(NonConvergenceError, match=re.escape(f"estimate {estimate} exceeds 1e-12")):
            ml_weights(alpha, x, n_max)

    def test_unresolved_near_singularity_raises(self):
        # at alpha -> 1 and x = 50 the transform is nearly singular just
        # across the branch cut; the contour must refuse, not return noise
        with pytest.raises(NonConvergenceError):
            ml_weights(0.999, 50.0, 128)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            ml_weights(1.5, 1.0, 4)
        with pytest.raises(DomainError):
            ml_weights(0.5, -1.0, 4)
        with pytest.raises(DomainError):
            ml_weights(0.5, 60.0, 4)
        # n_max is an integer row count up to the ceiling: no boolean, no
        # fraction, and no allocation of (n_max + 1) x 256 rows past 4096
        for n_max in (True, 2.5, -1, N_MAX_CEILING + 1):
            with pytest.raises(DomainError):
                ml_weights(0.5, 1.0, n_max)


def _recurrence_rows(alpha, x, n):
    """b, b r, ..., b r^n from node_transforms, as pmf_cfpp's unit-jump rows."""
    b, r = node_transforms(alpha, x)
    rows = np.empty((n + 1, b.size), dtype=complex)
    rows[0] = b
    for k in range(1, n + 1):
        np.multiply(rows[k - 1], r, out=rows[k])
    return rows


class TestInversionEstimate:
    """invert_rows returns the absolute h/2h gap where that meets 1e-12 and
    the gap relative to max(1, |value|) otherwise."""

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(0.05, 0.999),
        x=st.floats(0.0, 50.0),
        n=st.integers(0, 40),
        scale=st.floats(-14.0, 8.0),
    )
    @example(alpha=0.999, x=50.0, n=128, scale=0.0)
    @example(alpha=0.6, x=3.0, n=4, scale=8.0)
    def test_estimate_passes_exactly_when_the_relative_gap_does(self, alpha, x, n, scale):
        # scaled rows reach values far above 1, where the absolute gap fails
        # and the relative one can pass
        rows = _recurrence_rows(alpha, x, n) * 10.0**scale
        both = rows.view(float).dot(_node_powers(alpha)[2])
        relative = (abs(both[:, 1]) / np.maximum(abs(both[:, 0]), 1.0)).max()
        _, err = invert_rows(rows, alpha)
        assert (err <= _CONTOUR_TOL) == (relative <= _CONTOUR_TOL)
        if err <= _CONTOUR_TOL:
            assert relative <= err
        else:
            assert err == relative

    def test_a_nan_row_gives_a_nan_estimate(self):
        rows = _recurrence_rows(0.6, 3.0, 4)
        rows[2, 7] = complex(math.inf, 0.0)
        with np.errstate(invalid="ignore"):
            _, err = invert_rows(rows, 0.6)
        assert math.isnan(err)

    @pytest.mark.parametrize("n", [0, 1, 4, 300])
    @pytest.mark.parametrize("alpha,x", [(0.3, 20.0), (0.6, 3.0), (0.85, 12.0)])
    def test_ml_weights_inverts_the_node_transform_rows(self, alpha, x, n):
        # ml_weights builds its rows in place; pmf_cfpp builds them from
        # node_transforms.  Both must invert the same transforms, bit for bit.
        values, err = invert_rows(_recurrence_rows(alpha, x, n), alpha)
        assert err <= _CONTOUR_TOL
        np.testing.assert_array_equal(ml_weights(alpha, x, n), values)


class TestIncompleteBeta:
    def test_uniform_integrand(self):
        np.testing.assert_allclose(incomplete_beta(1, 1, 0.3), 0.3, rtol=1e-14)

    def test_complete_value_at_one(self):
        for a, b in ((0.5, 1.5), (2.0, 3.0), (0.7, 0.7)):
            want = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
            np.testing.assert_allclose(incomplete_beta(a, b, 1.0), want, rtol=1e-13)

    @pytest.mark.parametrize(
        "a,b,x",
        [(0.5, 1.5, 0.5), (0.7, 1.7, 0.25), (2.5, 0.8, 0.9), (0.6, 0.6, 0.97), (3.0, 4.0, 0.02)],
    )
    def test_against_quadrature_oracle(self, a, b, x):
        want, err = integrate.quad(
            lambda u: u ** (a - 1) * (1 - u) ** (b - 1), 0.0, x,
            epsabs=1e-13, epsrel=1e-13, points=[0.0, x],
        )
        assert err < 1e-11
        np.testing.assert_allclose(incomplete_beta(a, b, x), want, rtol=1e-10, atol=1e-12)

    def test_monotone_in_x(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, b = rng.uniform(0.3, 3.0, 2)
            xs = np.sort(rng.uniform(0, 1, 12))
            vals = [incomplete_beta(a, b, x) for x in xs]
            assert all(v2 >= v1 - 1e-15 for v1, v2 in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            incomplete_beta(-1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            incomplete_beta(1.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            incomplete_beta(1.0, 1.0, 1.5)

    def test_complement_region_accuracy(self):
        # x above the symmetry switch exercises the complement route
        a, b, x = 0.5, 0.6, 0.999
        want, _ = integrate.quad(
            lambda u: u ** (a - 1) * (1 - u) ** (b - 1), 0.0, x,
            epsabs=1e-13, epsrel=1e-13, points=[0.0, x],
        )
        np.testing.assert_allclose(incomplete_beta(a, b, x), want, rtol=1e-9)

    def test_complete_beta_helper(self):
        np.testing.assert_allclose(complete_beta(2.0, 3.0), 1.0 / 12.0, rtol=1e-13)


class TestIncompleteBetaSeries:
    # a and b start at 0.01: above the switch the complement
    # B(a, b) - B(b, a; 1 - x) cancels about log10(1 / b) digits of B(a, b)
    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.01, 10.0),
        st.floats(0.01, 10.0),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_against_mpmath(self, a, b, x):
        with mp.workdps(40):
            want = float(mp.betainc(a, b, 0, x))
        # results below 1e-300 are subnormal or round to 0 on both sides
        np.testing.assert_allclose(incomplete_beta(a, b, x), want, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize(
        "a,b,x",
        [(30.0, 30.0, 0.5), (0.5, 11.0, 0.2), (11.0, 0.5, 0.2), (math.nan, 1.0, 0.5),
         (1.0, math.nan, 0.5), (math.inf, 1.0, 0.5), (1.0, math.inf, 0.5)],
    )
    def test_parameters_outside_the_series_domain_are_refused(self, a, b, x):
        # past 10 the binomial coefficients alternate and cancel, and a NaN or
        # infinite parameter would never end the sum
        with pytest.raises(DomainError):
            incomplete_beta(a, b, x)

    def test_exact_switch_point(self):
        # x = (a+1)/(a+b+2) takes the complement, which sums the series directly
        np.testing.assert_allclose(incomplete_beta(2.0, 2.0, 0.5), 1.0 / 12.0, rtol=1e-14)
