"""Intensity models: closed-form sums, jump laws, and validation."""

import numpy as np
import pytest

from cfpp.errors import DomainError
from cfpp.intensity import (
    FiniteIntensity,
    GeometricIntensity,
    delta,
    delta_series,
    from_config,
    jump_pmf,
    lambda_at,
)


class TestLambdaAt:
    def test_geometric_values(self):
        m = GeometricIntensity(1.0, 0.5)
        assert lambda_at(m, 2) == 0.25
        assert lambda_at(m, 0) == 1.0

    def test_negative_index_convention(self):
        assert lambda_at(GeometricIntensity(1.0, 0.5), -3) == 0.0
        assert lambda_at(FiniteIntensity([2, 1]), -1) == 0.0

    def test_finite_tail(self):
        assert lambda_at(FiniteIntensity([2, 1, 0.5]), 5) == 0.0


class TestDelta:
    def test_geometric_differences(self):
        m = GeometricIntensity(1.0, 0.5)
        assert delta(m, 1) == 0.5
        np.testing.assert_allclose(delta(m, 3), 0.125)

    def test_equal_consecutive_intensities(self):
        assert delta(FiniteIntensity([1, 1, 0]), 1) == 0.0

    def test_nonpositive_index_rejected(self):
        with pytest.raises(DomainError):
            delta(GeometricIntensity(1, 0.5), 0)
        with pytest.raises(DomainError):
            GeometricIntensity(1, 0.5).delta(-1)

    def test_always_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            vals = np.sort(rng.uniform(0, 3, 6))[::-1]
            vals[0] = max(vals[0], 0.1)
            m = FiniteIntensity(vals)
            assert all(delta(m, j) >= 0 for j in range(1, 10))


class TestSums:
    def test_geometric_closed_forms(self):
        m = GeometricIntensity(1.0, 0.5)
        assert m.sum_lambda() == 2.0
        assert m.sum_j_lambda() == 2.0

    def test_finite_direct_sums(self):
        m = FiniteIntensity([3.0, 1.0])
        assert m.sum_lambda() == 4.0
        assert m.sum_j_lambda() == 1.0

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.8])
    def test_geometric_sums_vs_truncated_series(self, q):
        m = GeometricIntensity(1.7, q)
        js = np.arange(0, 2000)
        lams = 1.7 * q**js
        np.testing.assert_allclose(m.sum_lambda(), lams.sum(), rtol=1e-12)
        np.testing.assert_allclose(m.sum_j_lambda(), (js * lams).sum(), rtol=1e-12)


class TestJumpLaw:
    def test_geometric_closed_form(self):
        m = GeometricIntensity(1.0, 0.5)
        assert jump_pmf(m, 1) == 0.5
        for j in range(1, 8):
            np.testing.assert_allclose(jump_pmf(m, j), 0.5 * 0.5 ** (j - 1), rtol=1e-13)

    def test_unit_jump_point_mass(self):
        m = FiniteIntensity([2.5])
        assert jump_pmf(m, 1) == 1.0
        assert jump_pmf(m, 2) == 0.0

    def test_jump_law_normalizes(self):
        # telescoping: sum_j delta_j = lambda_0
        for m in (
            GeometricIntensity(2.0, 0.6),
            FiniteIntensity([2, 1, 0.5]),
            FiniteIntensity([1.0, 1.0, 0.25]),
        ):
            total = sum(jump_pmf(m, j) for j in range(1, 400))
            np.testing.assert_allclose(total, 1.0, rtol=1e-12)


class TestDerivedSeries:
    def test_delta_series_endpoints(self):
        for m in (GeometricIntensity(1.5, 0.4), FiniteIntensity([2, 1, 0.5])):
            np.testing.assert_allclose(delta_series(m, 1.0), 0.0, atol=1e-14)
            np.testing.assert_allclose(delta_series(m, 0.0), -m.lambda_at(0), rtol=1e-14)

    def test_geometric_series_vs_direct_sum(self):
        m = GeometricIntensity(1.2, 0.55)
        for u in (-1.0, -0.3, 0.5, 0.99):
            direct = -1.2 + sum(u**j * delta(m, j) for j in range(1, 400))
            np.testing.assert_allclose(delta_series(m, u), direct, rtol=1e-11, atol=1e-13)

    @pytest.mark.parametrize("m_order", range(1, 7))
    def test_falling_factorial_sum_vs_direct(self, m_order):
        for model in (GeometricIntensity(0.8, 0.6), FiniteIntensity([2, 1, 0.5])):
            def ff(j):
                out = 1.0
                for i in range(m_order):
                    out *= j - i
                return out

            direct = sum(ff(j) * delta(model, j) for j in range(1, 800))
            np.testing.assert_allclose(
                model.falling_factorial_delta_sum(m_order), direct, rtol=1e-9
            )


class TestValidationAndConfig:
    def test_constructor_rejects_bad_models(self):
        with pytest.raises(DomainError):
            GeometricIntensity(1.0, 1.2)
        with pytest.raises(DomainError):
            GeometricIntensity(0.0, 0.5)
        with pytest.raises(DomainError):
            FiniteIntensity([1.0, 2.0])  # increasing
        with pytest.raises(DomainError):
            FiniteIntensity([])
        with pytest.raises(DomainError):
            FiniteIntensity([1.0, -0.1])
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DomainError):
                GeometricIntensity(bad, 0.5)
            with pytest.raises(DomainError):
                FiniteIntensity([bad, 1.0])

    def test_config_round_trip(self):
        for m in (GeometricIntensity(1.0, 0.5), FiniteIntensity([1.0, 0.5, 0.25])):
            assert from_config(m.to_config()) == m

    def test_config_errors(self):
        with pytest.raises(DomainError):
            from_config({"type": "exotic"})
        with pytest.raises(DomainError):
            from_config({})
        with pytest.raises(DomainError):
            from_config({"type": "geometric", "lambda0": 1.0})

    def test_q_zero_is_unit_jump(self):
        m = GeometricIntensity(2.0, 0.0)
        assert jump_pmf(m, 1) == 1.0
        assert m.sum_lambda() == 2.0
        assert m.sum_j_lambda() == 0.0
