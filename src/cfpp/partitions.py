"""Constrained partition index sets, compositions, and ordinary Bell polynomials.

Two index sets drive the count-distribution formulas: vectors of part
multiplicities (k_1, ..., k_m) with

    sum_j k_j = k     and     sum_j j * k_j = n,

in a padded form of length m = n (``theta``) and a trimmed form of length
m = n - k + 1 (``lambda``).  Both describe the partitions of n into exactly
k parts; the trimmed length suffices because no part can exceed n - k + 1.
Enumeration order is lexicographic on the multiplicity vector so golden
tests are deterministic.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import DomainError


def _check_n_k(n: int, k: int) -> None:
    if k < 1 or n < 1:
        raise DomainError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if k > n:
        raise DomainError(f"need k <= n, got n={n}, k={k}")


def iter_multiplicity_vectors(n, k, length):
    """Yield the multiplicity vectors of the given length, lexicographically.

    Streaming matters: the padded sets hold millions of vectors near the
    enumeration ceiling, so consumers that only need a running sum must not
    force the whole list into memory.
    """
    vec = [0] * length

    def fill(j, k_rem, n_rem):
        if j == length:
            # remaining parts all have size == length
            if n_rem == length * k_rem:
                vec[j - 1] = k_rem
                yield tuple(vec)
                vec[j - 1] = 0
            return
        # the k_rem - kj parts of size > j must sum to n_rem - j*kj, and
        # every part size is at most `length`; both constraints are linear
        # in kj, so they translate into exact loop bounds.
        lo = max(0, (j + 1) * k_rem - n_rem)
        hi = min(k_rem, n_rem // j, (length * k_rem - n_rem) // (length - j))
        for kj in range(lo, hi + 1):
            vec[j - 1] = kj
            yield from fill(j + 1, k_rem - kj, n_rem - j * kj)
            vec[j - 1] = 0

    yield from fill(1, k, n)


def enumerate_lambda(n: int, k: int) -> list[tuple[int, ...]]:
    """Multiplicity vectors of length n - k + 1 with part count k and weight n."""
    _check_n_k(n, k)
    return list(iter_multiplicity_vectors(n, k, n - k + 1))


def enumerate_theta(n: int, k: int) -> list[tuple[int, ...]]:
    """Multiplicity vectors of length n with part count k and weight n.

    Equals enumerate_lambda(n, k) zero-padded to length n; enumerated
    directly so the two routes stay independent checks of each other.
    """
    _check_n_k(n, k)
    return list(iter_multiplicity_vectors(n, k, n))


def multinomial(k: int, parts: Sequence[int]) -> int:
    """k! / prod(parts!), exact."""
    out = math.factorial(k)
    for p in parts:
        if p > 1:
            out //= math.factorial(p)
    return out


def bell_ordinary(n: int, k: int, u: Sequence[float]) -> float:
    """Ordinary Bell polynomial in the variables u_1, ..., u_(n-k+1).

    Sums k! * prod_j u_j^(k_j) / k_j! over the trimmed multiplicity vectors.
    Coefficients are exact integers; only the final float product rounds.
    """
    _check_n_k(n, k)
    if len(u) < n - k + 1:
        raise DomainError(
            f"need at least n - k + 1 = {n - k + 1} variables, got {len(u)}"
        )
    total = 0.0
    for vec in iter_multiplicity_vectors(n, k, n - k + 1):
        coef = multinomial(k, vec)
        prod = 1.0
        for uj, kj in zip(u, vec):
            if kj:
                prod *= uj**kj
        total += coef * prod
    return total


def enumerate_compositions(n: int, k: int) -> list[tuple[int, ...]]:
    """Ordered k-tuples of positive integers summing to n."""
    _check_n_k(n, k)
    out: list[tuple[int, ...]] = []
    vec = [0] * k

    def fill(pos, rem):
        if pos == k - 1:
            vec[pos] = rem
            out.append(tuple(vec))
            return
        for m in range(1, rem - (k - pos - 1) + 1):
            vec[pos] = m
            fill(pos + 1, rem - m)

    fill(0, n)
    return out
