"""Covariance/correlation formulas, increment process, and decay exponents."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfpp.dependence import (
    DependenceParams,
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
from cfpp.distribution import var_cfpp
from cfpp.errors import DegenerateFitError, DomainError
from cfpp.intensity import FiniteIntensity, GeometricIntensity

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
        v = rng.uniform(-np.pi / 2, np.pi / 2, (active.size, chunk))
        w = rng.exponential(1.0, (active.size, chunk))
        shifted = alpha * (v + np.pi / 2)
        incs = scale * (np.sin(shifted) / np.cos(v) ** (1 / alpha)) * (
            np.cos(v - shifted) / w
        ) ** ((1 - alpha) / alpha)
        paths = d[active, None] + np.cumsum(incs, axis=1)
        h_s[active] += du * (paths <= s).sum(axis=1)
        h_t[active] += du * (paths <= t).sum(axis=1)
        d[active] = paths[:, -1]
        active = active[paths[:, -1] <= t]
    return h_s, h_t


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

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            cov_inverse_stable(0.5, 4.0, 1.0)
        with pytest.raises(DomainError):
            cov_inverse_stable(1.0, 1.0, 2.0)


def mc_joint_counts(model, alpha, t1, t2, n_paths, seed):
    """Sample (N(t1), N(t2)) jointly from coupled renewal paths."""
    from cfpp.simulate import JumpSampler, ml_waiting_time

    rng = np.random.default_rng(seed)
    sampler = JumpSampler(model)
    lam0 = model.lambda_at(0)
    c1 = np.zeros(n_paths, dtype=np.int64)
    c2 = np.zeros(n_paths, dtype=np.int64)
    clock = np.zeros(n_paths)
    active = np.arange(n_paths)
    while active.size:
        clock[active] += ml_waiting_time(alpha, lam0, rng, active.size)
        arrived = clock[active] <= t2
        active = active[arrived]
        if active.size:
            jumps = sampler.sample(rng, active.size)
            c2[active] += jumps
            early = clock[active] <= t1
            c1[active[early]] += jumps[early]
    return c1, c2


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
        c1, c2 = mc_joint_counts(GEO, alpha, t1, t2, n, seed=909)
        prod = (c1 - c1.mean()) * (c2 - c2.mean())
        se = prod.std(ddof=1) / math.sqrt(n)
        assert abs(prod.mean() - cov_cfpp(GEO, alpha, t1, t2)) < 3 * se

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
            p = DependenceParams.from_model(GEO, alpha)
            assert p.mean_coeff > 0 and p.var_lin > 0 and p.var_quad > 0
        assert DependenceParams.from_model(GEO, 1.0).var_quad == 0.0


class TestIncrements:
    def test_levy_increment_variance(self):
        p = DependenceParams.from_model(GEO, 1.0)
        for t, d in ((0.0, 0.5), (1.0, 0.5), (100.0, 2.0)):
            np.testing.assert_allclose(
                var_increment(GEO, 1.0, t, d), p.var_lin * d, rtol=1e-12
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

    def test_increment_correlation_diagonal(self):
        assert corr_increment(GEO, 0.6, 2.0, 2.0, 1.0) == 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            cov_increment(GEO, 0.7, 1.0, 2.0, 0.0)
        with pytest.raises(DomainError):
            var_increment(GEO, 0.7, -1.0, 0.5)

    def test_increment_covariance_mc(self):
        # alpha = 1: increments are independent, so the covariance is 0 for
        # non-overlapping windows and T*overlap otherwise
        p = DependenceParams.from_model(GEO, 1.0)
        np.testing.assert_allclose(cov_increment(GEO, 1.0, 1.0, 5.0, 1.0), 0.0, atol=1e-10)
        np.testing.assert_allclose(
            cov_increment(GEO, 1.0, 1.0, 1.5, 1.0), p.var_lin * 0.5, rtol=1e-10
        )


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
