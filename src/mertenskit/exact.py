"""Exact rational arithmetic over a shared power-of-lcm denominator.

ExactRational is the stdlib Fraction: always in lowest terms, positive
denominator, arithmetic never rounds.  Bulk identity checks avoid
per-term Fraction normalization by working with integer numerators over
a fixed denominator L = lcm(1..n): every 1/k with k <= n is the integer
L//k, every truncated sum of such terms is an integer, and a residual is
zero iff its scaled numerator is zero.
"""

from fractions import Fraction
from math import prod

import numpy as np

from .arith import primes_up_to

ExactRational = Fraction

__all__ = ["ExactRational", "ScaledSums", "lcm_upto"]


def lcm_upto(n: int) -> int:
    """lcm(1, 2, ..., n); lcm_upto(0) = 1.

    The product over primes p <= n of the largest power of p not above n.
    """
    powers = []
    for p in primes_up_to(n).tolist():
        q = p
        while q * p <= n:
            q *= p
        powers.append(q)
    return prod(powers)


class ScaledSums:
    """Integer numerators for harmonic/oscillatory prefix sums over L.

    L = lcm(1..lcm_limit) with lcm_limit >= n, so L//d is exact for any
    divisor argument d <= lcm_limit (not just d <= n).  With w_k = L//k:

        harmonic_num[k]    = sum_{i<=k} w_i            -> H_k     = ./L
        oscillatory_num[k] = sum_{i<=k} mu_i * w_i     -> m-value = ./L

    All entries are plain Python ints (they exceed 64 bits quickly).
    """

    def __init__(self, n: int, mu: np.ndarray | None = None,
                 lcm_limit: int | None = None):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        self.lcm_limit = max(n, lcm_limit or n)
        self.denominator = lcm_upto(self.lcm_limit)
        L = self.denominator
        self.weights = [0] + [L // k for k in range(1, n + 1)]
        acc = 0
        self.harmonic_num = [0]
        for k in range(1, n + 1):
            acc += self.weights[k]
            self.harmonic_num.append(acc)
        self.oscillatory_num = None
        if mu is not None:
            if len(mu) < n + 1:
                raise ValueError("mu must cover indices 0..n")
            acc = 0
            nums = [0]
            for k in range(1, n + 1):
                m = int(mu[k])
                if m:
                    acc += m * self.weights[k]
                nums.append(acc)
            self.oscillatory_num = nums

    def weight(self, d: int) -> int:
        """L//d, exact whenever d <= lcm_limit (d always divides L then)."""
        if not 1 <= d <= self.lcm_limit:
            raise ValueError(f"divisor {d} outside [1, {self.lcm_limit}]")
        return self.denominator // d

    def harmonic(self, k: int) -> Fraction:
        return Fraction(self.harmonic_num[k], self.denominator)

    def oscillatory(self, k: int) -> Fraction:
        if self.oscillatory_num is None:
            raise ValueError("no mu table was supplied at construction")
        return Fraction(self.oscillatory_num[k], self.denominator)
