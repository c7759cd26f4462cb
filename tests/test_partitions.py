"""Index-set enumeration and Bell polynomials against brute-force oracles."""

import itertools
import math

import numpy as np
import pytest

from cfpp.errors import DomainError
from cfpp.partitions import (
    bell_ordinary,
    enumerate_compositions,
    enumerate_lambda,
    enumerate_theta,
    multinomial,
)


def brute_force_vectors(n, k, length):
    """Exhaustive search over all candidate multiplicity vectors."""
    out = []
    for vec in itertools.product(range(k + 1), repeat=length):
        if sum(vec) == k and sum((j + 1) * v for j, v in enumerate(vec)) == n:
            out.append(vec)
    return sorted(out)


class TestThetaEnumeration:
    def test_known_small_cases(self):
        assert enumerate_theta(2, 1) == [(0, 1)]
        assert enumerate_theta(4, 2) == [(0, 2, 0, 0), (1, 0, 1, 0)]
        assert enumerate_theta(3, 3) == [(3, 0, 0)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exhaustive_oracle(self, n):
        for k in range(1, n + 1):
            assert enumerate_theta(n, k) == brute_force_vectors(n, k, n)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            enumerate_theta(3, 4)
        with pytest.raises(DomainError):
            enumerate_theta(3, 0)


class TestLambdaEnumeration:
    def test_known_small_cases(self):
        assert enumerate_lambda(4, 2) == [(0, 2, 0), (1, 0, 1)]
        assert enumerate_lambda(1, 1) == [(1,)]
        assert enumerate_lambda(5, 4) == [(3, 1)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exhaustive_oracle(self, n):
        for k in range(1, n + 1):
            assert enumerate_lambda(n, k) == brute_force_vectors(n, k, n - k + 1)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_zero_padding_bijection_with_theta(self, n):
        """Padding each trimmed vector to length n yields exactly the padded set."""
        for k in range(1, n + 1):
            padded = {
                vec + (0,) * (k - 1) for vec in enumerate_lambda(n, k)
            }
            assert padded == set(enumerate_theta(n, k))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_cardinalities_match(self, n):
        for k in range(1, n + 1):
            assert len(enumerate_lambda(n, k)) == len(enumerate_theta(n, k))

    def test_constraints_hold_on_random_cases(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 15))
            k = int(rng.integers(1, n + 1))
            vecs = enumerate_lambda(n, k)
            assert vecs == sorted(vecs)
            assert len(set(vecs)) == len(vecs)
            for vec in vecs:
                assert len(vec) == n - k + 1
                assert sum(vec) == k
                assert sum((j + 1) * v for j, v in enumerate(vec)) == n


class TestBellPolynomials:
    def test_single_variable_cube(self):
        np.testing.assert_allclose(bell_ordinary(3, 3, [2.0]), 8.0)

    def test_two_known_expansions(self):
        u = [1.5, -2.0, 3.0]
        np.testing.assert_allclose(bell_ordinary(3, 2, u), 2 * u[0] * u[1])
        np.testing.assert_allclose(bell_ordinary(4, 2, u), u[1] ** 2 + 2 * u[0] * u[2])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_power_series_identity(self, n):
        """Coefficient of t^n in (sum_j u_j t^j)^k equals the Bell value."""
        rng = np.random.default_rng(n)
        u = rng.uniform(-2, 2, n)
        for k in range(1, n + 1):
            poly = np.zeros(n + 1)
            poly[1 : n + 1] = u  # coefficient of t^j is u_j
            power = np.array([1.0])
            for _ in range(k):
                power = np.convolve(power, poly)[: n + 1]
            coeff = power[n] if n < len(power) else 0.0
            np.testing.assert_allclose(
                bell_ordinary(n, k, u), coeff, rtol=1e-10, atol=1e-10
            )

    @pytest.mark.parametrize("n", range(1, 8))
    def test_exponential_series_identity(self, n):
        """Coefficient of t^n in exp(x sum u_j t^j) equals sum_k B(n,k) x^k / k!."""
        rng = np.random.default_rng(100 + n)
        u = rng.uniform(-1, 1, n)
        x = 0.7
        poly = np.zeros(n + 1)
        poly[1 : n + 1] = u
        series = np.zeros(n + 1)
        series[0] = 1.0
        power = np.array([1.0])
        for m in range(1, n + 1):
            power = np.convolve(power, poly)[: n + 1]
            series[: len(power)] += x**m / math.factorial(m) * power
        want = sum(
            bell_ordinary(n, k, u) * x**k / math.factorial(k) for k in range(1, n + 1)
        )
        np.testing.assert_allclose(series[n], want, rtol=1e-10, atol=1e-12)

    def test_length_validation(self):
        with pytest.raises(DomainError):
            bell_ordinary(4, 2, [1.0, 2.0])  # needs n - k + 1 = 3 entries

    def test_multinomial_exact(self):
        assert multinomial(4, (2, 2)) == 6
        assert multinomial(3, (3,)) == 1
        assert multinomial(5, (1, 1, 1, 1, 1)) == 120


class TestCompositions:
    def test_known_cases(self):
        assert enumerate_compositions(3, 2) == [(1, 2), (2, 1)]
        assert enumerate_compositions(4, 1) == [(4,)]
        assert len(enumerate_compositions(5, 3)) == math.comb(4, 2)

    @pytest.mark.parametrize("n,k", [(6, 3), (7, 4), (8, 2)])
    def test_stars_and_bars_count(self, n, k):
        comps = enumerate_compositions(n, k)
        assert len(comps) == math.comb(n - 1, k - 1)
        assert len(set(comps)) == len(comps)
        assert all(sum(c) == n and min(c) >= 1 for c in comps)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            enumerate_compositions(2, 3)
