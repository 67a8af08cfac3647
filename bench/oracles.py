"""Independent reference values for the benchmark's output checks.

Nothing here imports mertenskit.  Each oracle is a separate plain
implementation or a published constant, so a fault in the package
cannot hide behind its own code.
"""

import math

import numpy as np

# OEIS A084237: M(10^n).
PUBLISHED_MERTENS = {10 ** 8: 1928, 10 ** 9: -222, 10 ** 10: -33722,
                     10 ** 11: -87856}

# Euler-Mascheroni constant from its published decimal digits.
EULER_GAMMA = float("0.57721566490153286060651209008240243104215933593992")

# The double-sum estimate equals 2 H_x - H_{x^2} in exact arithmetic, and
# the Euler-Maclaurin expansion of H_n gives
#   2 H_x - H_{x^2} - gamma = 1/x - 2/(3x^2) + (1/12 + 1/60)/x^4 + O(x^-6).
# The envelope allows twice that x^-4 coefficient, plus a float allowance
# for a sum of ~x^2 rounded terms of total weight (log x)^2.
GAMMA_X4_COEFF = 0.2
GAMMA_FLOAT_SLACK = 1e-12


def mobius_plain(n: int) -> np.ndarray:
    """mu(0..n) as int8 (mu(0) = 0) from a textbook prime sieve.

    Every prime p flips the sign of its multiples and zeroes the
    multiples of p^2.
    """
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = False
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    for p in np.nonzero(is_prime)[0].tolist():
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    return mu


def mobius_trial(n: int) -> int:
    """mu(n) by trial division."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    sign = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1 if p == 2 else 2
    return -sign if n > 1 else sign


def prefix_fsums(terms: np.ndarray, ends) -> list[float]:
    """sum(terms[1..n]) for each n in the ascending list `ends`.

    Each stretch between consecutive ends is summed with math.fsum
    (exactly rounded), and each prefix is the fsum of those stretch
    sums, so the error is at most half an ulp per stretch.
    """
    stretch_sums = []
    out = []
    lo = 1
    for n in ends:
        stretch_sums.append(math.fsum(terms[lo:n + 1].tolist()))
        lo = n + 1
        out.append(math.fsum(stretch_sums))
    return out


def harmonic_terms(n: int) -> np.ndarray:
    """1/k for k = 0..n with slot 0 zero."""
    out = np.zeros(n + 1, dtype=np.float64)
    out[1:] = 1.0 / np.arange(1, n + 1, dtype=np.float64)
    return out


def gamma_envelope_gap(x: int, estimate: float) -> float:
    """How far `estimate` sits outside the error envelope (<= 0 is inside)."""
    remainder = estimate - EULER_GAMMA - (1.0 / x - 2.0 / (3.0 * x * x))
    return abs(remainder) - (GAMMA_X4_COEFF / x ** 4 + GAMMA_FLOAT_SLACK)


def mertens_square(y: int, mu: np.ndarray) -> int:
    """M(y^2) from the floor double sum, using mu only up to y.

    M(y^2) = 2 M(y) - sum_{i,j<=y} mu(i) mu(j) floor(y^2 / ij), and
    floor(y^2/ij) = floor(floor(y^2/i)/j) lets each row be one dot product
    over the squarefree j.
    """
    squarefree = np.nonzero(mu[1:y + 1])[0] + 1
    signs = mu[squarefree].astype(np.int64)
    yy = y * y
    total = 0
    for i, mi in zip(squarefree.tolist(), signs.tolist()):
        total += mi * int(np.dot(signs, (yy // i) // squarefree))
    return 2 * int(signs.sum()) - total
