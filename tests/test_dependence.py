"""Covariance/correlation formulas, increment process, and decay exponents."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfpp.dependence import (
    corr_cfpp,
    corr_decay_exponent,
    corr_increment,
    cov_cfpp,
    cov_increment,
    cov_inverse_stable,
    fit_tail_exponent,
    geometric_grid,
    increment_corr_decay_exponent,
    lrd_constant,
    var_increment,
)
from cfpp.distribution import _second_order, var_cfpp
from cfpp.errors import DegenerateFitError, DomainError
from cfpp.intensity import FiniteIntensity, GeometricIntensity
from cfpp.simulate import _renewal_counts, sample_stable

GEO = GeometricIntensity(1.0, 0.5)
HEAVY = GeometricIntensity(0.5, 0.9)


def mc_inverse_stable_pair(alpha, s, t, n_paths=30_000, du=2e-3, seed=515):
    """Sample (H(s), H(t)) from a common discretized stable path.

    Advances each path's subordinator by stable increments of operational
    time du until it passes level t; H(level) is du times the number of
    steps spent at or below the level.
    """
    rng = np.random.default_rng(seed)
    chunk = 512
    scale = du ** (1.0 / alpha)
    d = np.zeros(n_paths)
    h_s = np.zeros(n_paths)
    h_t = np.zeros(n_paths)
    active = np.arange(n_paths)
    while active.size:
        incs = scale * sample_stable(alpha, rng, (active.size, chunk))
        paths = d[active, None] + np.cumsum(incs, axis=1)
        h_s[active] += du * (paths <= s).sum(axis=1)
        h_t[active] += du * (paths <= t).sum(axis=1)
        d[active] = paths[:, -1]
        active = active[paths[:, -1] <= t]
    return h_s, h_t


def mp_cov_increment(model, alpha, s, t, delta, dps=80):
    """Cov(Z(s), Z(t)) as the four-term expansion of Cov(N(a), N(b)) in dps digits."""
    _, _, var_lin = _second_order(model, alpha)
    with mp.workdps(dps):
        a, sigma, lin = mp.mpf(alpha), mp.mpf(model.sum_lambda()), mp.mpf(var_lin)

        def c(x, y):
            lo, hi = mp.mpf(min(x, y)), mp.mpf(max(x, y))
            if lo == 0:
                return mp.mpf(0)
            f = a * hi ** (2 * a) * mp.betainc(a, a + 1, 0, lo / hi) - (lo * hi) ** a
            cov_h = (a * lo ** (2 * a) * mp.beta(a, a + 1) + f) / mp.gamma(a + 1) ** 2
            return lin * lo**a + sigma**2 * cov_h

        ms, mt, md = mp.mpf(s), mp.mpf(t), mp.mpf(delta)
        return float(c(ms + md, mt + md) + c(ms, mt) - c(ms + md, mt) - c(ms, mt + md))


class TestInverseStableCovariance:
    @pytest.mark.parametrize("alpha", [0.4, 0.6, 0.9])
    def test_diagonal_collapses_to_variance(self, alpha):
        for t in (0.5, 2.0, 7.0):
            want = t ** (2 * alpha) * (
                2.0 / math.gamma(2 * alpha + 1) - 1.0 / math.gamma(alpha + 1) ** 2
            )
            np.testing.assert_allclose(cov_inverse_stable(alpha, t, t), want, rtol=1e-12)

    def test_monte_carlo_oracle(self):
        alpha, s, t = 0.5, 1.0, 4.0
        h_s, h_t = mc_inverse_stable_pair(alpha, s, t)
        n = len(h_s)
        prod = (h_s - h_s.mean()) * (h_t - h_t.mean())
        emp = prod.mean()
        se = prod.std(ddof=1) / math.sqrt(n)
        exact = cov_inverse_stable(alpha, s, t)
        assert abs(emp - exact) < 3 * se

    def test_nonnegative_on_grid(self):
        for alpha in (0.3, 0.5, 0.8):
            for s in (0.5, 1.0, 3.0):
                for t in (1.0, 4.0, 50.0):
                    if s <= t:
                        assert cov_inverse_stable(alpha, s, t) >= 0

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.7, 0.9, 0.99])
    def test_against_mpmath_far_apart(self, alpha):
        # alpha t^(2 alpha) B(alpha, alpha + 1; s/t) - (ts)^alpha cancels as
        # t / s grows; in 80 digits the difference keeps 50 or more of them
        with mp.workdps(80):
            a = mp.mpf(alpha)
            for s in (0.01, 1.0, 37.0):
                for ratio in (1.0, 1.5, 2.0, 10.0, 1e4, 1e8, 1e16, 1e25):
                    t = s * ratio
                    ms, mt = mp.mpf(s), mp.mpf(t)
                    f = a * mt ** (2 * a) * mp.betainc(a, a + 1, 0, ms / mt) - (mt * ms) ** a
                    want = (a * ms ** (2 * a) * mp.beta(a, a + 1) + f) / mp.gamma(a + 1) ** 2
                    np.testing.assert_allclose(cov_inverse_stable(alpha, s, t), float(want), rtol=1e-11)

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            cov_inverse_stable(0.5, 4.0, 1.0)
        with pytest.raises(DomainError):
            cov_inverse_stable(1.0, 1.0, 2.0)


class TestProcessCovariance:
    def test_diagonal_equals_variance(self):
        for model in (GEO, HEAVY, FiniteIntensity([2, 1, 0.5])):
            for alpha in (0.4, 0.7, 1.0):
                for s in (0.5, 2.0, 10.0):
                    np.testing.assert_allclose(
                        cov_cfpp(model, alpha, s, s),
                        var_cfpp(model, alpha, s),
                        rtol=1e-10,
                    )

    def test_levy_case_hand_value(self):
        np.testing.assert_allclose(cov_cfpp(GEO, 1.0, 2.0, 5.0), 12.0, rtol=1e-13)

    def test_monte_carlo_joint_law(self):
        # the renewal construction reproduces the joint law of the
        # time-changed process, so its empirical covariance must match
        alpha, t1, t2, n = 0.7, 1.0, 4.0, 200_000
        c1, c2 = _renewal_counts(GEO, alpha, (t1, t2), np.random.default_rng(909), n)
        prod = (c1 - c1.mean()) * (c2 - c2.mean())
        se = prod.std(ddof=1) / math.sqrt(n)
        assert abs(prod.mean() - cov_cfpp(GEO, alpha, t1, t2)) < 3 * se

    @pytest.mark.parametrize("alpha", [0.5, 0.7])
    def test_monte_carlo_process_and_increment_covariance(self, alpha):
        # one set of renewal paths read at s, s + d, t, t + d gives both the
        # LRD side, Cov(N(s), N(t)), and the SRD side, Cov(Z(s), Z(t)) of the
        # increments Z(u) = N(u + d) - N(u)
        s, t, d, n = 1.0, 3.0, 1.0, 200_000
        rng = np.random.default_rng(31)
        n_s, n_sd, n_t, n_td = _renewal_counts(GEO, alpha, (s, s + d, t, t + d), rng, n)
        for a, b, exact in (
            (n_s, n_t, cov_cfpp(GEO, alpha, s, t)),
            (n_sd - n_s, n_td - n_t, cov_increment(GEO, alpha, s, t, d)),
        ):
            prod = (a - a.mean()) * (b - b.mean())
            se = prod.std(ddof=1) / math.sqrt(n)
            assert abs(prod.mean() - exact) < 3 * se

    def test_zero_time(self):
        assert cov_cfpp(GEO, 0.7, 0.0, 3.0) == 0.0

    def test_ordering(self):
        with pytest.raises(DomainError):
            cov_cfpp(GEO, 0.7, 3.0, 1.0)

    def test_correlation_is_one_on_diagonal(self):
        np.testing.assert_allclose(corr_cfpp(GEO, 0.6, 3.0, 3.0), 1.0, rtol=1e-12)

    def test_correlation_symmetric_and_bounded(self):
        for s, t in ((1.0, 9.0), (9.0, 1.0), (2.0, 2.0)):
            c = corr_cfpp(GEO, 0.7, s, t)
            assert c == corr_cfpp(GEO, 0.7, t, s)
            assert 0 < c <= 1 + 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        model=st.one_of(
            st.builds(GeometricIntensity, st.floats(0.1, 2.0), st.floats(0.0, 0.9)),
            st.lists(st.floats(0.1, 2.0), min_size=1, max_size=4)
            .map(lambda v: FiniteIntensity(sorted(v, reverse=True))),
        ),
        alpha=st.floats(0.1, 1.0),
        times=st.lists(st.floats(0.01, 100.0), min_size=2, max_size=8),
    )
    def test_covariance_matrix_is_symmetric_psd(self, model, alpha, times):
        # cov_cfpp takes s <= t only; corr_cfpp takes the two times in either order
        assert all(
            corr_cfpp(model, alpha, s, t) == corr_cfpp(model, alpha, t, s)
            for s in times for t in times
        )
        cov = np.array(
            [[cov_cfpp(model, alpha, min(s, t), max(s, t)) for t in times] for s in times]
        )
        eig = np.linalg.eigvalsh(cov)
        assert eig.min() >= -1e-9 * eig.max()

    def test_zero_variance_rejected(self):
        with pytest.raises(DomainError):
            corr_cfpp(GEO, 0.7, 0.0, 1.0)

    def test_params_signs(self):
        for alpha in (0.3, 0.6, 0.99):
            mean_coeff, var_quad, var_lin = _second_order(GEO, alpha)
            assert mean_coeff > 0 and var_lin > 0 and var_quad > 0
        assert _second_order(GEO, 1.0)[1] == 0.0


class TestIncrements:
    def test_levy_increment_variance(self):
        var_lin = _second_order(GEO, 1.0)[2]
        for t, d in ((0.0, 0.5), (1.0, 0.5), (100.0, 2.0)):
            np.testing.assert_allclose(
                var_increment(GEO, 1.0, t, d), var_lin * d, rtol=1e-12
            )

    def test_stable_form_matches_four_term_expansion(self):
        # at moderate t the literal difference is still accurate; the two
        # routes must agree there
        for alpha in (0.5, 0.8):
            for t in (0.5, 2.0, 20.0):
                d = 1.0
                literal = (
                    var_cfpp(GEO, alpha, t + d)
                    + var_cfpp(GEO, alpha, t)
                    - 2.0 * cov_cfpp(GEO, alpha, t, t + d)
                )
                np.testing.assert_allclose(
                    var_increment(GEO, alpha, t, d), literal, rtol=1e-9
                )

    def test_increment_covariance_positive_and_vanishing(self):
        # approaches zero from above as the lag separation grows
        prev = None
        for t in (1e2, 1e3, 1e4, 1e5, 1e6):
            c = cov_increment(GEO, 0.7, 1.0, t, 1.0)
            assert c > 0
            if prev is not None:
                assert c < prev
            prev = c

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_against_mpmath(self, alpha):
        # the four cov_cfpp terms agree to many digits as t grows; in 80
        # digits their difference keeps 50 or more of them up to t = 1e12.
        # t crosses the series switch at (s + 1) / 0.9 and 2 (s + 1)
        for s in (0.0, 1.0, 10.0):
            for t in (1.05, 1.5, 2.0, 2.3, 3.9, 4.1, 11.5, 12.5, 16.0, 21.9, 22.1,
                      1e2, 1e4, 1e6, 1e8, 1e10, 1e12):
                want = mp_cov_increment(HEAVY, alpha, s, t, 1.0)
                np.testing.assert_allclose(cov_increment(HEAVY, alpha, s, t, 1.0), want, rtol=1e-12)

    def test_far_apart_large_times_stay_finite(self):
        # (lo + 1)^(alpha + n) overflows from n = 5 on, and the four terms
        # cancel by more than 120 digits
        got = cov_increment(HEAVY, 0.7, 1e60, 1e62, 1.0)
        assert math.isfinite(got) and got > 0
        want = mp_cov_increment(HEAVY, 0.7, 1e60, 1e62, 1.0, dps=250)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_increment_correlation_diagonal(self):
        assert corr_increment(GEO, 0.6, 2.0, 2.0, 1.0) == 1.0

    @pytest.mark.parametrize(
        "alpha,s,t,delta", [(0.6, 2.0, 2.0, -1.0), (5.0, 2.0, 2.0, 1.0), (0.6, -3.0, -3.0, 1.0)]
    )
    def test_diagonal_correlation_checks_its_arguments(self, alpha, s, t, delta):
        with pytest.raises(DomainError):
            corr_increment(GEO, alpha, s, t, delta)

    def test_validation(self):
        with pytest.raises(DomainError):
            cov_increment(GEO, 0.7, 1.0, 2.0, 0.0)
        with pytest.raises(DomainError):
            var_increment(GEO, 0.7, -1.0, 0.5)

    def test_increment_covariance_mc(self):
        # alpha = 1: increments are independent, so the covariance is 0 for
        # non-overlapping windows and T*overlap otherwise
        var_lin = _second_order(GEO, 1.0)[2]
        np.testing.assert_allclose(cov_increment(GEO, 1.0, 1.0, 5.0, 1.0), 0.0, atol=1e-10)
        np.testing.assert_allclose(
            cov_increment(GEO, 1.0, 1.0, 1.5, 1.0), var_lin * 0.5, rtol=1e-10
        )


# Each call puts the value v where a power of it overflows at 1e250 or
# 1e300: at the earlier time, at both times, in the lag, or in a variance.
AT_TIME = {
    "cov_inverse_stable": lambda v: cov_inverse_stable(0.7, v, v),
    "cov_cfpp": lambda v: cov_cfpp(GEO, 0.7, v, v),
    "cov_increment": lambda v: cov_increment(GEO, 0.7, v, v, 1.0),
    "cov_increment_lag": lambda v: cov_increment(GEO, 0.7, 1.0, 2.0, v),
    "var_increment": lambda v: var_increment(GEO, 0.7, v, 1.0),
    "var_increment_lag": lambda v: var_increment(GEO, 0.7, 1.0, v),
    "corr_increment": lambda v: corr_increment(GEO, 0.7, 1.0, v, 1.0),
    "lrd_constant": lambda v: lrd_constant(GEO, 0.7, v),
}
# ... and the later time alone, where a huge finite value is a finite answer
AT_LATER_TIME = {
    "cov_inverse_stable_t": lambda v: cov_inverse_stable(0.7, 1.0, v),
    "cov_cfpp_t": lambda v: cov_cfpp(GEO, 0.7, 1.0, v),
    "cov_increment_t": lambda v: cov_increment(GEO, 0.7, 1.0, v, 1.0),
}


@pytest.mark.parametrize("bad", [math.inf, math.nan, 1e250, 1e300])
@pytest.mark.parametrize("name", list(AT_TIME))
def test_non_finite_or_overflowing_times_are_refused(name, bad):
    # inf and NaN are refused on entry; 1e250 and 1e300 overflow a power
    # or give a non-finite value, and either is a DomainError
    with pytest.raises(DomainError):
        AT_TIME[name](bad)


@pytest.mark.parametrize("name", list(AT_LATER_TIME))
def test_non_finite_later_time_is_refused(name):
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            AT_LATER_TIME[name](bad)
    assert math.isfinite(AT_LATER_TIME[name](1e300))


class TestTailExponentFitting:
    def test_synthetic_power_law_is_exact(self):
        grid = geometric_grid(1e2, 1e6, 12)
        slope = fit_tail_exponent(lambda t: 3.7 * t**-2.0, grid)
        np.testing.assert_allclose(slope, -2.0, atol=1e-12)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            fit_tail_exponent(lambda t: t, np.geomspace(1, 10, 12))  # small span
        with pytest.raises(DomainError):
            fit_tail_exponent(lambda t: t, np.geomspace(1, 1e4, 5))  # few points
        with pytest.raises(DomainError):
            fit_tail_exponent(lambda t: t, np.linspace(1, 1e4, 12))  # not geometric

    def test_degenerate_curve(self):
        grid = geometric_grid(1e2, 1e6, 10)
        with pytest.raises(DegenerateFitError):
            fit_tail_exponent(lambda t: 0.0, grid)

    def test_process_decay_matches_order(self):
        slope = corr_decay_exponent(HEAVY, 0.7, 1.0)
        assert abs(slope + 0.7) <= 0.05

    def test_increment_decay_matches_order(self):
        slope = increment_corr_decay_exponent(HEAVY, 0.7, 1.0, 1.0)
        assert abs(slope + (3 - 0.7) / 2) <= 0.05

    def test_level_constant(self):
        t_max = 1e6
        for alpha in (0.5, 0.9):
            ratio = corr_cfpp(HEAVY, alpha, 1.0, t_max) / (
                lrd_constant(HEAVY, alpha, 1.0) * t_max**-alpha
            )
            assert abs(ratio - 1.0) < 0.05
