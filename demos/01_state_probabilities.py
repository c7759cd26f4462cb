#!/usr/bin/env python3
"""Walkthrough: exact count distributions and their special cases.

The process counts events whose jump sizes follow the law delta_j/lambda_0
built from a non-increasing intensity sequence, run on a fractional clock
of order alpha.  Setting alpha = 1 gives the classical compound Poisson
case; a single intensity gives unit jumps (the fractional Poisson count);
both together give the plain Poisson law.
"""

import math

import numpy as np

from cfpp import FiniteIntensity, GeometricIntensity, pmf_cfpp, pmf_cpp

# A geometric intensity sequence: lambda_j = 1.0 * 0.5^j.
# Its jump law is geometric: P{jump = j} = 0.5^j.
model = GeometricIntensity(1.0, 0.5)

print("count distribution at t = 1 for several fractional orders")
print(f"{'n':>3} " + " ".join(f"a={a:<10}" for a in (0.5, 0.7, 1.0)))
dists = [pmf_cfpp(model, a, 1.0, 10) for a in (0.5, 0.7, 1.0)]
for n in range(11):
    row = " ".join(f"{sd.probs[n]:<12.8f}" for sd in dists)
    print(f"{n:>3} {row}")

# The heavier tail at small alpha is the clock effect: the fractional clock
# spends long stretches frozen, then bursts.

# Auto-sizing: leaving n_max unset adds states in blocks until the mass
# computed so far is within 1e-7 of 1 (at most 4096 states), and reports
# exactly how much is missing.
sd = pmf_cfpp(model, 0.5, 5.0)
print(f"\nauto-sized n_max at alpha=0.5, t=5: {sd.n_max}")
print(f"sum of probabilities: {sd.probs.sum():.12f}")
print(f"reported truncation mass: {sd.truncation_mass:.3e}")

# Special case 1: alpha = 1 is the compound Poisson process.
a1 = pmf_cfpp(model, 1.0, 2.0, 15).probs
cpp = pmf_cpp(model, 2.0, 15).probs
print(f"\nmax |alpha=1 pmf - compound-Poisson closed form| = {np.abs(a1 - cpp).max():.2e}")

# Special case 2: a single intensity makes every jump equal to 1, and
# alpha = 1 on top of that gives the textbook Poisson distribution.
lam, t = 1.5, 2.0
unit = pmf_cfpp(FiniteIntensity([lam]), 1.0, t, 12).probs
poisson = [math.exp(-lam * t) * (lam * t) ** n / math.factorial(n) for n in range(13)]
print(f"max |unit-jump alpha=1 pmf - Poisson| = {np.abs(unit - poisson).max():.2e}")

# The zero state doubles as the survival function of the first waiting time:
# P{no event by t} = E_alpha(-lambda_0 t^alpha), decreasing in t.
print("\nfirst-event survival P{N(t) = 0}:")
for t in (0.25, 0.5, 1.0, 2.0, 4.0):
    print(f"  t={t:<5} {pmf_cfpp(model, 0.7, t, 2).probs[0]:.6f}")
