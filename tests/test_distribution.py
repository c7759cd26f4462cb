"""State probabilities, generating functions, transforms, and moments."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from cfpp.cli import EXIT_OK, main
from cfpp.dependence import DependenceParams
from cfpp.distribution import (
    FORMULA_CPP,
    N_MAX_CEILING,
    ORACLE_N_CEILING,
    TAIL_TOL,
    factorial_moment,
    jump_sum_pmf,
    laplace_pgf,
    laplace_pmf,
    mean_cfpp,
    mgf,
    moment,
    moment_report,
    pgf,
    pmf_cfpp,
    pmf_cfpp_composition,
    pmf_cfpp_theta,
    pmf_cpp,
    pmf_tfpp,
    var_cfpp,
)
from cfpp.errors import DomainError, NonConvergenceError
from cfpp.intensity import FiniteIntensity, GeometricIntensity, delta_series
from cfpp.special import MLParams, ml_one, ml_three, ml_weights
from cfpp.validate import SLOPE_MODEL

GEO = GeometricIntensity(1.0, 0.5)
UNIT = FiniteIntensity([1.0])
STEP = FiniteIntensity([2.0, 1.0, 0.5])

# Models for the property tests: lambda_0 t^alpha stays <= 10, inside the
# domain where the Mittag-Leffler contour meets its 1e-12 absolute error.
MODELS = st.one_of(
    st.builds(GeometricIntensity, st.floats(0.1, 2.0), st.floats(0.0, 0.9)),
    st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4)
    .filter(lambda v: max(v) > 0.1)
    .map(lambda v: FiniteIntensity(sorted(v, reverse=True))),
)


class TestStateProbabilities:
    def test_hand_computed_values_at_alpha_one(self):
        sd = pmf_cfpp(GEO, 1.0, 1.0, 10)
        e1 = math.exp(-1.0)
        np.testing.assert_allclose(sd.probs[0], e1, rtol=1e-12)
        np.testing.assert_allclose(sd.probs[1], 0.5 * e1, rtol=1e-12)
        np.testing.assert_allclose(sd.probs[2], 0.375 * e1, rtol=1e-12)

    def test_point_mass_at_time_zero(self):
        for fn in (pmf_cfpp, pmf_cfpp_theta, pmf_cfpp_composition):
            sd = fn(GEO, 0.7, 0.0, 6)
            np.testing.assert_array_equal(sd.probs, [1, 0, 0, 0, 0, 0, 0])

    def test_unit_jump_reduces_to_fractional_poisson(self):
        # single intensity: p(n) = (lam t^a)^n E^{n+1}_{a, n a + 1}(-lam t^a),
        # checked against one-at-a-time evaluations on the scalar path
        lam, alpha, t = 1.3, 0.65, 1.7
        sd = pmf_cfpp(FiniteIntensity([lam]), alpha, t, 12)
        x = lam * t**alpha
        for n in range(13):
            closed = x**n * ml_three(MLParams(alpha, n * alpha + 1, n + 1), -x)
            np.testing.assert_allclose(sd.probs[n], closed, rtol=1e-10, atol=1e-18)

    def test_single_state_closed_form(self):
        # p(1) = delta_1 t^alpha E^2_{alpha, alpha+1}(-lambda_0 t^alpha)
        for model, alpha, t in ((GEO, 0.6, 1.4), (STEP, 0.9, 0.8)):
            lam0 = model.lambda_at(0)
            want = (
                (lam0 - model.lambda_at(1))
                * t**alpha
                * ml_three(MLParams(alpha, alpha + 1.0, 2.0), -lam0 * t**alpha)
            )
            for fn in (pmf_cfpp, pmf_cfpp_theta, pmf_cfpp_composition):
                np.testing.assert_allclose(fn(model, alpha, t, 3).probs[1], want, rtol=1e-10)

    def test_zero_state_is_survival_function(self):
        ts = [0.1, 0.5, 1.0, 2.0, 5.0]
        p0 = [pmf_cfpp(GEO, 0.6, t, 4).probs[0] for t in ts]
        for t, p in zip(ts, p0):
            np.testing.assert_allclose(p, ml_one(0.6, -(t**0.6)), rtol=1e-11)
        assert all(b < a for a, b in zip(p0, p0[1:]))

    @pytest.mark.parametrize("model", [GEO, UNIT, STEP])
    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
    def test_three_formula_agreement(self, model, alpha):
        t, n_max = 1.5, 12
        a = pmf_cfpp(model, alpha, t, n_max).probs
        b = pmf_cfpp_theta(model, alpha, t, n_max).probs
        c = pmf_cfpp_composition(model, alpha, t, n_max).probs
        np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(a, c, atol=1e-12)

    def test_truncation_mass_is_small_and_nonnegative(self):
        sd = pmf_cfpp(GEO, 0.7, 1.0)
        assert -1e-9 <= sd.truncation_mass < 1e-6
        assert np.all(sd.probs >= 0)
        assert sd.probs.sum() <= 1 + 1e-9

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        model=MODELS,
        alpha=st.floats(0.1, 1.0),
        t=st.floats(0.0, 5.0),
        n_max=st.one_of(st.none(), st.integers(0, 128)),
    )
    def test_pmf_is_nonnegative_and_sums_to_at_most_one(self, model, alpha, t, n_max):
        sd = pmf_cfpp(model, alpha, t, n_max)
        assert np.all(sd.probs >= 0)
        assert sd.truncation_mass >= -1e-12

    def test_n_max_ceilings(self):
        with pytest.raises(DomainError):
            pmf_cfpp(GEO, 0.7, 1.0, N_MAX_CEILING + 1)
        with pytest.raises(DomainError):
            pmf_cfpp_theta(GEO, 0.7, 1.0, 65)
        with pytest.raises(DomainError):
            pmf_cfpp_composition(GEO, 0.7, 1.0, 21)
        with pytest.raises(DomainError):
            pmf_tfpp(1.0, 0.5, 1.0, N_MAX_CEILING + 1)

    # The jump-sum matrix times the fractional-Poisson weights: the engine
    # pmf_cfpp ran before the contour recurrence, kept as its reference.
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        model=st.one_of(
            st.builds(GeometricIntensity, st.floats(0.1, 2.0), st.floats(0.0, 0.95, exclude_max=True)),
            st.lists(st.floats(0.0, 2.0), min_size=1, max_size=6)
            .filter(lambda v: max(v) > 0.1)
            .map(lambda v: FiniteIntensity(sorted(v, reverse=True))),
        ),
        alpha=st.floats(0.1, 1.0, exclude_max=True),
        x=st.floats(0.0, 50.0, exclude_min=True),
        n_max=st.integers(0, ORACLE_N_CEILING),
    )
    def test_recurrence_matches_the_jump_sum_engine(self, model, alpha, x, n_max):
        lam0 = model.lambda_at(0)
        t = (x / lam0) ** (1.0 / alpha)
        try:
            want = jump_sum_pmf(model, n_max).T @ ml_weights(alpha, lam0 * t**alpha, n_max)
        except (DomainError, NonConvergenceError) as exc:
            with pytest.raises(type(exc)):
                pmf_cfpp(model, alpha, t, n_max)
            return
        got = pmf_cfpp(model, alpha, t, n_max).probs
        assert np.abs(got - want).max() <= 1e-14

    @pytest.mark.parametrize("n", [ORACLE_N_CEILING + 1, 1000, 10**6])
    def test_jump_sum_oracle_is_bounded(self, n):
        with pytest.raises(DomainError):
            jump_sum_pmf(GEO, n)
        with pytest.raises(DomainError):
            laplace_pmf(GEO, 0.7, n, 1.0)

    @pytest.mark.parametrize("n", [2.5, True, 0.0])
    def test_state_count_must_be_an_integer(self, n):
        for call in (pmf_cfpp, pmf_cfpp_theta, pmf_cfpp_composition):
            with pytest.raises(DomainError):
                call(GEO, 0.7, 1.0, n)
        with pytest.raises(DomainError):
            jump_sum_pmf(GEO, n)
        with pytest.raises(DomainError):
            laplace_pmf(GEO, 0.7, n, 1.0)
        for t in (0.0, 1.0):
            with pytest.raises(DomainError):
                pmf_tfpp(1.0, 0.5, t, n)

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            pmf_cfpp(GEO, 1.2, 1.0, 4)
        with pytest.raises(DomainError):
            pmf_cfpp(GEO, 0.5, -1.0, 4)
        for t in (math.nan, math.inf):
            for fn in (pmf_cfpp, mean_cfpp, var_cfpp):
                with pytest.raises(DomainError):
                    fn(GEO, 0.5, t)


class TestCppReduction:
    def test_cpp_equals_alpha_one_cfpp(self):
        for model in (GEO, STEP):
            for t in (0.4, 1.0, 3.0):
                a = pmf_cfpp(model, 1.0, t, 30).probs
                b = pmf_cpp(model, t, 30).probs
                np.testing.assert_allclose(a, b, atol=1e-13)

    def test_cpp_hand_value(self):
        sd = pmf_cpp(GEO, 1.0, 5)
        np.testing.assert_allclose(sd.probs[2], 0.375 * math.exp(-1.0), rtol=1e-13)
        assert sd.formula == FORMULA_CPP

    def test_poisson_special_case(self):
        lam, t = 2.0, 1.3
        sd = pmf_cpp(FiniteIntensity([lam]), t, 20)
        poisson = [math.exp(-lam * t) * (lam * t) ** n / math.factorial(n) for n in range(21)]
        np.testing.assert_allclose(sd.probs, poisson, atol=1e-14)

    def test_cpp_refuses_beyond_the_weight_domain(self):
        # lambda_0 t = 60 > 50: the Poisson weights of ml_weights are refused
        with pytest.raises(DomainError):
            pmf_cpp(GEO, 60.0, 100)

    @pytest.mark.parametrize("k", range(7))
    def test_ml_weight_collapse_at_alpha_one(self, k):
        # k! E^{k+1}_{1, k+1}(-x) = e^{-x}: the reason the alpha = 1 weights
        # that pmf_cpp reads are the Poisson pmf; asserted rather than assumed.
        for x in (0.3, 2.0, 7.5):
            got = math.factorial(k) * ml_three(MLParams(1.0, k + 1.0, k + 1.0), -x)
            np.testing.assert_allclose(got, math.exp(-x), rtol=1e-11)

    def test_tfpp_helper_matches_poisson_at_alpha_one(self):
        w = pmf_tfpp(1.5, 1.0, 2.0, 15)
        poisson = [math.exp(-3.0) * 3.0**n / math.factorial(n) for n in range(16)]
        np.testing.assert_allclose(w, poisson, rtol=1e-11, atol=1e-16)


class TestGeneratingFunctions:
    def test_pgf_normalization_and_zero(self):
        for model in (GEO, STEP):
            for alpha in (0.5, 1.0):
                np.testing.assert_allclose(pgf(model, alpha, 1.3, 1.0), 1.0, rtol=1e-12)
                np.testing.assert_allclose(
                    pgf(model, alpha, 1.3, 0.0),
                    pmf_cfpp(model, alpha, 1.3, 2).probs[0],
                    rtol=1e-11,
                )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        model=MODELS,
        alpha=st.floats(0.1, 1.0),
        t=st.floats(0.0, 5.0),
        u=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6).map(sorted),
    )
    def test_pgf_is_monotone_in_u(self, model, alpha, t, u):
        values = [pgf(model, alpha, t, x) for x in u]
        assert np.all(np.diff(values) >= -1e-12)

    def test_pgf_cpp_closed_form(self):
        lam0, q, t = 1.0, 0.5, 1.7
        m = GeometricIntensity(lam0, q)
        for u in (-0.8, 0.2, 0.9):
            want = math.exp(t * lam0 * ((1 - q) * u / (1 - q * u) - 1.0))
            np.testing.assert_allclose(pgf(m, 1.0, t, u), want, rtol=1e-12)

    def test_pgf_matches_series_sum(self):
        sd = pmf_cfpp(GEO, 0.7, 1.0, 60)
        for u in (-0.5, 0.3, 0.8):
            series = sum(u**n * p for n, p in enumerate(sd.probs))
            np.testing.assert_allclose(pgf(GEO, 0.7, 1.0, u), series, atol=1e-9)

    def test_pgf_derivative_recovers_mean(self):
        h = 1e-5
        for model, alpha in ((GEO, 0.6), (STEP, 0.85)):
            fd = (pgf(model, alpha, 1.0, 1.0) - pgf(model, alpha, 1.0, 1.0 - h)) / h
            np.testing.assert_allclose(fd, mean_cfpp(model, alpha, 1.0), rtol=1e-4)

    def test_pgf_domain(self):
        with pytest.raises(DomainError):
            pgf(GEO, 0.7, 1.0, 1.5)

    def test_mgf_identities(self):
        np.testing.assert_allclose(mgf(GEO, 0.7, 1.2, 0.0), 1.0, rtol=1e-12)
        rng = np.random.default_rng(2)
        for w in rng.uniform(0, 3, 5):
            np.testing.assert_allclose(
                mgf(GEO, 0.7, 1.2, w), pgf(GEO, 0.7, 1.2, math.exp(-w)), rtol=1e-13
            )
        with pytest.raises(DomainError):
            mgf(GEO, 0.7, 1.2, -0.1)

    def test_mgf_unit_jump_closed_form(self):
        lam, alpha, t = 1.4, 0.6, 0.9
        m = FiniteIntensity([lam])
        for w in (0.2, 1.0):
            want = ml_one(alpha, lam * t**alpha * (math.exp(-w) - 1.0))
            np.testing.assert_allclose(mgf(m, alpha, t, w), want, rtol=1e-12)

    def test_pgf_solves_caputo_equation(self):
        # L1 discretization of the fractional derivative of the pgf in t
        # reproduces G * delta-series to ~1e-4 at this grid size.
        n_grid, t_end = 512, 1.0
        for alpha, u in ((0.6, 0.3), (0.9, 0.7)):
            ds = delta_series(GEO, u)
            dt = t_end / n_grid
            tg = np.linspace(0.0, t_end, n_grid + 1)
            f = np.array([ml_one(alpha, ds * t**alpha) for t in tg])
            j = np.arange(n_grid)
            b = (j + 1) ** (1 - alpha) - j ** (1 - alpha)
            caputo = dt ** (-alpha) / math.gamma(2 - alpha) * (b * (f[n_grid - j] - f[n_grid - j - 1])).sum()
            np.testing.assert_allclose(caputo, f[-1] * ds, rtol=1e-3)


class TestMoments:
    def test_mean_and_variance_hand_values(self):
        np.testing.assert_allclose(mean_cfpp(GEO, 1.0, 3.0), 6.0, rtol=1e-13)
        np.testing.assert_allclose(var_cfpp(GEO, 1.0, 1.0), 6.0, rtol=1e-13)
        assert mean_cfpp(GEO, 0.7, 0.0) == 0.0
        assert var_cfpp(GEO, 0.7, 0.0) == 0.0

    @pytest.mark.parametrize("model", [GEO, STEP])
    def test_levy_variance_is_linear(self, model):
        # S is exactly 0 at alpha = 1, so nothing cancels at large t
        var_lin = DependenceParams.from_model(model, 1.0).var_lin
        for t in (1e12, 1e15):
            assert var_cfpp(model, 1.0, t) == var_lin * t

    def test_first_moment_is_mean(self):
        for model, alpha, t in ((GEO, 0.5, 0.8), (STEP, 0.9, 2.0), (UNIT, 1.0, 1.0)):
            np.testing.assert_allclose(
                moment(model, alpha, t, 1), mean_cfpp(model, alpha, t), rtol=1e-12
            )
            np.testing.assert_allclose(
                factorial_moment(model, alpha, t, 1), mean_cfpp(model, alpha, t), rtol=1e-12
            )

    def test_second_moment_hand_value(self):
        # E N^2 = Var + Mean^2 = 6 + 4 at alpha = 1, t = 1
        np.testing.assert_allclose(moment(GEO, 1.0, 1.0, 2), 10.0, rtol=1e-12)

    def test_moment_variance_consistency(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            alpha = rng.uniform(0.3, 1.0)
            t = rng.uniform(0.2, 3.0)
            model = GeometricIntensity(rng.uniform(0.5, 2.0), rng.uniform(0, 0.8))
            m1 = moment(model, alpha, t, 1)
            m2 = moment(model, alpha, t, 2)
            np.testing.assert_allclose(m2 - m1**2, var_cfpp(model, alpha, t), rtol=1e-10)

    def test_second_factorial_moment_closed_form(self):
        for model, alpha, t in ((GEO, 0.6, 1.1), (STEP, 0.85, 0.7)):
            sl, sjl = model.sum_lambda(), model.sum_j_lambda()
            want = (
                2.0 * t ** (2 * alpha) * sl**2 / math.gamma(2 * alpha + 1)
                + 2.0 * t**alpha * sjl / math.gamma(alpha + 1)
            )
            np.testing.assert_allclose(factorial_moment(model, alpha, t, 2), want, rtol=1e-12)

    def test_factorial_vs_raw_identity(self):
        for model, alpha, t in ((GEO, 0.7, 1.3), (STEP, 1.0, 0.5)):
            m1 = moment(model, alpha, t, 1)
            m2 = moment(model, alpha, t, 2)
            np.testing.assert_allclose(
                factorial_moment(model, alpha, t, 2), m2 - m1, rtol=1e-12
            )

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_moments_match_pmf_sums(self, r):
        alpha, t = 0.7, 0.4  # small t: truncation far below the tolerance
        sd = pmf_cfpp(GEO, alpha, t, 80)
        ns = np.arange(81, dtype=float)
        want = float((ns**r * sd.probs).sum())
        np.testing.assert_allclose(moment(GEO, alpha, t, r), want, atol=1e-6, rtol=1e-8)

    def test_moment_order_bounds(self):
        with pytest.raises(DomainError):
            moment(GEO, 0.7, 1.0, 7)
        with pytest.raises(DomainError):
            factorial_moment(GEO, 0.7, 1.0, 0)

    def test_moment_report_invariants(self):
        rep = moment_report(GEO, 0.8, 1.4, 4)
        assert rep.variance >= 0
        np.testing.assert_allclose(rep.raw_moments[0], rep.mean, rtol=1e-12)
        np.testing.assert_allclose(rep.factorial_moments[0], rep.mean, rtol=1e-12)

    def test_moment_report_at_time_zero(self):
        rep = moment_report(STEP, 0.6, 0.0, 6)
        assert rep.raw_moments == (0.0,) * 6
        assert rep.factorial_moments == (0.0,) * 6

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0])
    @pytest.mark.parametrize("r", range(1, 7))
    def test_unit_jump_factorial_moments(self, alpha, r):
        # fractional Poisson count: E (N)_r = r! (lam t^alpha)^r / Gamma(r alpha + 1)
        lam, t = 1.3, 1.7
        want = math.factorial(r) * (lam * t**alpha) ** r / math.gamma(r * alpha + 1)
        got = factorial_moment(FiniteIntensity([lam]), alpha, t, r)
        np.testing.assert_allclose(got, want, rtol=1e-13)

    # The oracle is the pmf at fixed n_max = 128 and drops the mass beyond
    # it, which n^6 magnifies: at alpha = 0.2 with q = 0.6, or with four
    # equal values, the dropped part alone exceeds 1e-6 relative.  On the
    # ranges drawn here it stays below 1e-9 at every corner.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        model=st.one_of(
            st.builds(GeometricIntensity, st.floats(0.1, 2.0), st.floats(0.0, 0.5)),
            st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3)
            .filter(lambda v: max(v) > 0.1)
            .map(lambda v: FiniteIntensity(sorted(v, reverse=True))),
        ),
        alpha=st.floats(0.4, 1.0),
        t=st.floats(0.01, 0.5),
        r=st.integers(1, 6),
    )
    def test_moments_match_pmf_sums_property(self, model, alpha, t, r):
        probs = pmf_cfpp(model, alpha, t, 128).probs
        want = float((np.arange(129.0) ** r * probs).sum())
        got = moment(model, alpha, t, r)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(got))

    def test_overdispersion(self):
        # alpha = 1: variance - mean = 2 t sum_j j lambda_j, exactly
        for model in (GEO, STEP):
            for t in (0.5, 2.0):
                gap = var_cfpp(model, 1.0, t) - mean_cfpp(model, 1.0, t)
                np.testing.assert_allclose(gap, 2.0 * t * model.sum_j_lambda(), rtol=1e-12)
        # fractional case: strictly positive whenever jumps can exceed 1
        for alpha in (0.5, 0.7, 0.9):
            for t in (0.5, 1.0, 5.0):
                assert var_cfpp(GEO, alpha, t) - mean_cfpp(GEO, alpha, t) > 0


class TestLaplaceTransforms:
    def test_zero_state_closed_form(self):
        for alpha, s in ((0.5, 0.7), (0.9, 2.0)):
            want = s ** (alpha - 1) / (s**alpha + 1.0)
            np.testing.assert_allclose(laplace_pmf(GEO, alpha, 0, s), want, rtol=1e-13)

    def test_one_state_closed_form(self):
        alpha, s = 0.7, 1.3
        want = 0.5 * s ** (alpha - 1) / (s**alpha + 1.0) ** 2
        np.testing.assert_allclose(laplace_pmf(GEO, alpha, 1, s), want, rtol=1e-13)

    def test_quadrature_cross_check(self):
        alpha, n, s = 0.8, 2, 1.0
        t_cut = math.log(1e9 / s) / s
        val, _ = integrate.quad(
            lambda t: math.exp(-s * t) * pmf_cfpp(GEO, alpha, t, n).probs[n] if t > 0 else 0.0,
            0.0,
            t_cut,
            limit=200,
        )
        np.testing.assert_allclose(laplace_pmf(GEO, alpha, n, s), val, atol=1e-6)

    def test_pgf_transform_endpoints(self):
        alpha, s = 0.6, 0.9
        np.testing.assert_allclose(
            laplace_pgf(GEO, alpha, 0.0, s), laplace_pmf(GEO, alpha, 0, s), rtol=1e-13
        )
        np.testing.assert_allclose(laplace_pgf(GEO, alpha, 1.0, s), 1.0 / s, rtol=1e-13)

    def test_pgf_transform_quadrature(self):
        alpha, u, s = 0.7, 0.5, 1.2
        t_cut = math.log(1e9 / s) / s
        val, _ = integrate.quad(
            lambda t: math.exp(-s * t) * pgf(GEO, alpha, t, u), 0.0, t_cut, limit=200
        )
        np.testing.assert_allclose(laplace_pgf(GEO, alpha, u, s), val, atol=1e-6)

    def test_validation(self):
        with pytest.raises(DomainError):
            laplace_pmf(GEO, 0.7, 0, -1.0)
        with pytest.raises(DomainError):
            laplace_pgf(GEO, 0.7, 1.4, 1.0)


class TestSizingAndExport:
    def test_default_n_max_covers_the_tail(self):
        for alpha in (0.5, 1.0):
            for t in (0.5, 5.0):
                sd = pmf_cfpp(GEO, alpha, t)
                assert sd.truncation_mass < 1e-6

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9, 0.95])
    def test_auto_size_meets_the_tail_tolerance_across_the_domain(self, alpha):
        for x in (1, 2, 5, 10, 20, 30, 45):
            assert pmf_cfpp(GEO, alpha, x ** (1 / alpha)).truncation_mass <= TAIL_TOL

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 0.9])
    def test_auto_size_meets_the_tail_tolerance_for_heavy_jumps(self, alpha):
        # geometric(0.5, 0.9) at x = 8 needs hundreds to over a thousand rows
        t = (8.0 / SLOPE_MODEL.lambda_at(0)) ** (1 / alpha)
        assert pmf_cfpp(SLOPE_MODEL, alpha, t).truncation_mass <= TAIL_TOL

    def test_jump_sum_rows_are_distributions(self):
        J = jump_sum_pmf(STEP, 24)
        sums = J.sum(axis=1)
        # row k sums to P{sum of k jumps <= 24}; early rows are complete
        np.testing.assert_allclose(sums[:8], 1.0, rtol=1e-12)
        assert np.all((J >= 0) & (J <= 1))

    def test_csv_schema(self, tmp_path):
        # the pmf CSV is written by the CLI; a config n_max sizes its rows
        cfg = tmp_path / "geo.json"
        cfg.write_text(json.dumps({"intensity": GEO.to_config(), "alpha": 0.7, "t": 1.0, "n_max": 3}))
        out = tmp_path / "pmf.csv"
        assert main(["pmf", "--config", str(cfg), "--output", str(out)]) == EXIT_OK
        sd = pmf_cfpp(GEO, 0.7, 1.0, 3)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,p,formula,alpha,t"
        assert len(lines) == 5
        n, p, formula, alpha, t = lines[1].split(",")
        assert (n, formula) == ("0", "LambdaSum")
        np.testing.assert_allclose(float(p), sd.probs[0], rtol=1e-15)
