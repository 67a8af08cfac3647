"""Exact rational arithmetic over a shared power-of-lcm denominator.

Bulk identity checks avoid per-term Fraction normalization by working
with integer numerators over a fixed denominator L = lcm(1..n): every
1/k with k <= n is the integer L//k, every truncated sum of such terms
is an integer, and a residual is zero iff its scaled numerator is zero.
"""

from fractions import Fraction
from math import prod

import numpy as np

from .arith import primes_up_to
from .config import check_capacity

__all__ = ["ScaledSums", "lcm_upto"]


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

    L = lcm(1..n), so every 1/k with k <= n is the integer w_k = L//k:

        weights[k]         = w_k
        harmonic_num[k]    = sum_{i<=k} w_i            -> H_k     = ./L
        oscillatory_num[k] = sum_{i<=k} mu_i * w_i     -> m-value = ./L

    where mu_i is mu[i], given at i = 0..n.  Each is a numpy object array
    of plain Python ints (they exceed 64 bits quickly), indexable by k
    or by an integer array of k.
    """

    def __init__(self, n: int, mu: np.ndarray):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if len(mu) < n + 1:
            raise ValueError("mu must cover indices 0..n")
        self.n = n
        self.denominator = L = lcm_upto(n)
        # Peak: 4 arrays of pointers to ints of <= bits(L) bits, 30 per 4 B.
        check_capacity(4 * (n + 1) * (L.bit_length() // 7 + 36),
                       "exact prefix sums")
        self.weights = np.empty(n + 1, dtype=object)
        self.weights[0] = 0
        self.weights[1:] = [L // k for k in range(1, n + 1)]
        self.harmonic_num = np.cumsum(self.weights)
        self.oscillatory_num = np.cumsum(
            np.asarray(mu[:n + 1], dtype=object) * self.weights)

    def harmonic(self, k: int) -> Fraction:
        return Fraction(self.harmonic_num[k], self.denominator)

    def oscillatory(self, k: int) -> Fraction:
        return Fraction(self.oscillatory_num[k], self.denominator)
