"""Intensity sequences {lambda_j} and their derived quantities.

A model is a non-increasing summable sequence lambda_0 >= lambda_1 >= ... >= 0
with lambda_0 > 0 (and lambda_j = 0 for j < 0 by convention).  The successive
differences delta_j = lambda_(j-1) - lambda_j, j >= 1, are nonnegative, sum
to lambda_0 by telescoping, and delta_j / lambda_0 is the jump-size law of
the associated compound representation.

Two families are first-class:

* ``FiniteIntensity`` -- finitely many nonzero values, covering the unit-jump
  (single value) and bounded-jump cases exactly.
* ``GeometricIntensity`` -- lambda_j = lambda_0 q^j with 0 <= q < 1, whose
  jump law is geometric on {1, 2, ...} and whose series sums close in form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import DomainError

@dataclass(frozen=True)
class FiniteIntensity:
    """Intensities (lambda_0, ..., lambda_J), identically zero beyond J."""

    values: tuple

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if not all(math.isfinite(v) for v in values):
            raise DomainError(f"intensities must be finite, got {values}")
        if not values or values[0] <= 0:
            raise DomainError("finite intensity needs lambda_0 > 0")
        if any(v < 0 for v in values):
            raise DomainError("intensities must be nonnegative")
        if any(a < b for a, b in zip(values, values[1:])):
            raise DomainError("intensity sequence must be non-increasing")
        object.__setattr__(self, "values", values)

    def delta(self, j: int) -> float:
        return delta(self, j)

    def lambda_at(self, j: int) -> float:
        if j < 0 or j >= len(self.values):
            return 0.0
        return self.values[j]

    @property
    def jump_support_max(self) -> int:
        """Largest j with delta_j > 0 (jumps never exceed len(values))."""
        for j in range(len(self.values), 0, -1):
            if self.lambda_at(j - 1) - self.lambda_at(j) > 0:
                return j
        return 1

    def sum_lambda(self) -> float:
        return sum(self.values)

    def sum_j_lambda(self) -> float:
        return sum(j * v for j, v in enumerate(self.values))

    def falling_factorial_delta_sum(self, m: int) -> float:
        if m < 0:
            raise DomainError(f"order must be >= 0, got {m}")
        return sum(math.perm(j, m) * self.delta(j) for j in range(1, len(self.values) + 1))

    def to_config(self) -> dict:
        return {"type": "finite", "values": list(self.values)}


@dataclass(frozen=True)
class GeometricIntensity:
    """Geometric intensities lambda_j = lambda_0 q^j, 0 <= q < 1."""

    lambda0: float
    q: float

    def __post_init__(self):
        if not 0 < self.lambda0 < math.inf:
            raise DomainError(f"lambda_0 must be positive and finite, got {self.lambda0}")
        if not 0.0 <= self.q < 1.0:
            raise DomainError(f"q must lie in [0, 1), got {self.q}")

    def lambda_at(self, j: int) -> float:
        if j < 0:
            return 0.0
        return self.lambda0 * self.q**j

    def delta(self, j: int) -> float:
        return delta(self, j)

    def sum_lambda(self) -> float:
        return self.lambda0 / (1.0 - self.q)

    def sum_j_lambda(self) -> float:
        return self.lambda0 * self.q / (1.0 - self.q) ** 2

    def falling_factorial_delta_sum(self, m: int) -> float:
        # sum_j (j)_m delta_j = lambda_0 m! q^(m-1) / (1-q)^m
        if m < 0:
            raise DomainError(f"order must be >= 0, got {m}")
        if m == 0:
            return self.lambda0
        return (
            self.lambda0
            * math.factorial(m)
            * self.q ** (m - 1)
            / (1.0 - self.q) ** m
        )

    def to_config(self) -> dict:
        return {"type": "geometric", "lambda0": self.lambda0, "q": self.q}


IntensityModel = Union[FiniteIntensity, GeometricIntensity]


def lambda_at(model: IntensityModel, j: int) -> float:
    """lambda_j, with lambda_j = 0 for j < 0 and beyond any finite support."""
    return model.lambda_at(j)


def delta(model: IntensityModel, j: int) -> float:
    """delta_j = lambda_(j-1) - lambda_j for j >= 1 (always nonnegative)."""
    if j < 1:
        raise DomainError(f"delta is defined for j >= 1, got j={j}")
    return model.lambda_at(j - 1) - model.lambda_at(j)


def jump_pmf(model: IntensityModel, j: int) -> float:
    """Jump-size probability delta_j / lambda_0."""
    return delta(model, j) / model.lambda_at(0)


def delta_series(model: IntensityModel, u: float) -> float:
    """sum_{j>=0} u^j delta~_j with delta~_0 = -lambda_0, delta~_j = delta_j.

    This is the argument driving the probability generating function; it
    telescopes to 0 at u = 1 and to -lambda_0 at u = 0.
    """
    lam0 = model.lambda_at(0)
    if isinstance(model, GeometricIntensity):
        # sum_{j>=1} u^j delta_j = lambda_0 (1-q) u / (1 - q u)
        return lam0 * (1.0 - model.q) * u / (1.0 - model.q * u) - lam0
    total = -lam0
    for j in range(1, model.jump_support_max + 1):
        total += u**j * delta(model, j)
    return total


def config_number(value) -> float:
    """A config value as float; a JSON boolean is not a number."""
    if isinstance(value, bool):
        raise DomainError(f"a boolean is not a number, got {value!r}")
    return float(value)


def from_config(config: dict) -> IntensityModel:
    """Build a model from {"type": "geometric", "lambda0": .., "q": ..} or
    {"type": "finite", "values": [..]}."""
    try:
        kind = config["type"]
    except (TypeError, KeyError):
        raise DomainError("intensity config needs a 'type' field") from None
    if kind == "geometric":
        try:
            lambda0, q = config["lambda0"], config["q"]
            return GeometricIntensity(config_number(lambda0), config_number(q))
        except KeyError as exc:
            raise DomainError(f"geometric intensity config missing {exc}") from None
    if kind == "finite":
        try:
            return FiniteIntensity([config_number(v) for v in config["values"]])
        except KeyError as exc:
            raise DomainError(f"finite intensity config missing {exc}") from None
    raise DomainError(f"unknown intensity type {kind!r}")
