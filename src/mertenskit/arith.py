"""Mobius sieving.

The Mobius function mu(k) is 0 when k has a squared prime factor and
(-1)^r when k is a product of r distinct primes (mu(1) = 1, the empty
product).  Everything downstream is built from contiguous mu tables.
"""

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .config import check_capacity

__all__ = [
    "MobiusTable",
    "mobius_sieve",
    "mobius_segment",
    "primes_up_to",
]

# Peak bytes per sieved value of _mobius_range under tracemalloc: 10.0 B
# below hi = 2^31 (int32 product and k range), 18.0 B above (int64).
_SIEVE_BYTES = 20

# Values per window of _mobius_windows, the one loop that sieves mu in
# windows.  A window's arrays set the scan's peak memory, and each
# window pays 2 pi(sqrt(hi)) strided passes.  2^20 is the smallest size
# no slower than 2^22 at lo = 1 and 10^10 (ns per value, fastest of 3
# in-process scans of _mertens_segments, three runs on a loaded 2-core
# x86-64 host).  The figures include that scan's int64 cumsum of every
# value, which the induction square table no longer pays:
#
#   window                     2^18      2^19     2^20     2^21     2^22
#   lo = 1,     3.6e7 values   20-26     17-23    17-22    19-22    22-28
#   lo = 10^10, 2^24 values    83-105    58-92    44-54    39-46    49-54
#   lo = 10^12, 2^23 values   869-1100  377-558  199-222  100-125  79-102
#
# At lo = 10^12 the per-window passes dominate, so there a scan longer
# than one window takes about twice as long as with 2^22.
_SEGMENT = 1 << 20


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n, ascending (int64)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


@dataclass(frozen=True)
class MobiusTable:
    """mu values for the contiguous range [lo, lo + len(values) - 1].

    values is an int8 array; entry j holds mu(lo + j) and is one of
    -1, 0, +1.  Instances are immutable and safe to share across workers.
    """

    lo: int
    values: np.ndarray

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def __getitem__(self, k: int) -> int:
        if not self.lo <= k <= self.hi:
            raise IndexError(f"mu({k}) outside table range [{self.lo}, {self.hi}]")
        return int(self.values[k - self.lo])

    def __len__(self) -> int:
        return len(self.values)


def _mobius_range(lo: int, hi: int) -> np.ndarray:
    """mu on [lo, hi], 1 <= lo <= hi; int8 array.

    prod holds the product of -p over the distinct primes p <= sqrt(hi)
    dividing k, or 0 once a p^2 divides k, so |prod| <= k <= hi at every
    step and int32 holds it below 2^31.  A k with |prod| != k has one
    prime factor above sqrt(hi) left, which flips the sign once more.
    The flip is whole-array int8 arithmetic: mu times (2 flip - 1), then
    negated, with no masked write.
    """
    dtype = np.int32 if hi < 2 ** 31 else np.int64
    prod = np.ones(hi - lo + 1, dtype=dtype)
    for p in primes_up_to(isqrt(hi)).tolist():
        prod[-lo % p::p] *= -p
        prod[-lo % (p * p)::p * p] = 0
    mu = np.sign(prod).astype(np.int8)
    flip = (np.abs(prod, out=prod)
            != np.arange(lo, hi + 1, dtype=dtype)).view(np.int8)
    flip *= 2
    flip -= 1
    mu *= flip
    return np.negative(mu, out=mu)


def mobius_sieve(n: int) -> MobiusTable:
    """Sieve mu(1..n) in one pass.

    Raises CapacityError when the working arrays would exceed the memory
    budget (_SIEVE_BYTES per entry).
    """
    if n < 1:
        raise ValueError(f"sieve length must be >= 1, got {n}")
    check_capacity(_SIEVE_BYTES * n, f"mobius_sieve({n})")
    return MobiusTable(lo=1, values=_mobius_range(1, n))


def mobius_segment(lo: int, hi: int) -> MobiusTable:
    """mu on an arbitrary window [lo, hi], 1 <= lo <= hi.

    Matches mobius_sieve(hi) restricted to the window, without allocating
    below lo.  Primes up to sqrt(hi) are sieved internally.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    check_capacity(_SIEVE_BYTES * (hi - lo + 1) + 2 * isqrt(hi),
                   f"mobius_segment({lo}, {hi})")
    return MobiusTable(lo=lo, values=_mobius_range(lo, hi))


def _scan_bytes(n: int, held: int = 9) -> int:
    """Peak bytes of a scan of n values in windows, beside what the caller
    keeps: the next window is sieved while `held` bytes per value of the
    last one are still referenced (9 in _mertens_segments: its mu, int8,
    and running sums, int64)."""
    return (_SIEVE_BYTES + held) * min(n, _SEGMENT)


def _mobius_windows(lo: int, hi: int, mu=None):
    """Windows (seg_lo, mu) covering [lo, hi] in order, each of at most
    _SEGMENT values: mu on [seg_lo, seg_lo + len(mu) - 1].

    Each window's mu comes from mobius_segment, unless `mu` (mu at
    lo..hi, an int array) is given; then its slices replace the sieve.
    """
    for seg_lo in range(lo, hi + 1, _SEGMENT):
        seg_hi = min(seg_lo + _SEGMENT - 1, hi)
        yield seg_lo, (mobius_segment(seg_lo, seg_hi).values if mu is None
                       else mu[seg_lo - lo:seg_hi - lo + 1])


def _mertens_segments(lo: int, hi: int, base: int = 0):
    """The sieved windows of _mobius_windows as (seg_lo, mu, running),
    where running = base + the sums of mu from lo on, as int64."""
    for seg_lo, seg_mu in _mobius_windows(lo, hi):
        running = np.cumsum(seg_mu, dtype=np.int64)
        running += base
        base = int(running[-1])
        yield seg_lo, seg_mu, running
