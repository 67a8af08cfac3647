"""Prefix sequences over the Mobius function and their evaluators.

Central objects, for a fixed truncation point x:

    mertens(x)            M_x       = sum_{k<=x} mu(k)
    oscillatory(x, s)     M_x(s)    = sum_{k<=x} mu(k) / k^s
    harmonic(x, s)        H_x(s)    = sum_{k<=x} 1 / k^s

s = 0 collapses to integer counting (H_x(0) = x), s = 1 is the main
object of study (written m_x for M_x(1)).

Float paths are reproducible by construction: one-shot sums use
math.fsum (exactly rounded, hence order independent) and prefix tables
use a Neumaier compensated running sum in ascending k, vectorised and
bit-identical to the sequential loop.  Exact paths use
integers (s = 0) or Fraction (s = 1, bounded input size).
"""

from dataclasses import dataclass
from fractions import Fraction
from math import fsum, isqrt

import numpy as np

from .arith import _mertens_segments, _scan_bytes
from .config import RATIONAL_BOUND, check_capacity
from .exact import ScaledSums

# Euler-Mascheroni constant, 50 published decimal digits; the float
# keeps the correctly rounded 17 significant digits.
EULER_GAMMA_DIGITS = "0.57721566490153286060651209008240243104215933593992"
EULER_GAMMA = float(EULER_GAMMA_DIGITS)

__all__ = [
    "EULER_GAMMA",
    "EULER_GAMMA_DIGITS",
    "ExactModeError",
    "OscillatoryValue",
    "RationalBoundError",
    "SequenceCache",
    "harmonic",
    "mertens_sublinear",
    "oscillatory",
]


class ExactModeError(ValueError):
    """Exact mode was requested for an exponent outside {0, 1}."""


class RationalBoundError(ValueError):
    """Exact s = 1 evaluation was requested beyond the rational bound."""


def _compensated_cumsum(terms: np.ndarray) -> np.ndarray:
    """Running sums of `terms` with Neumaier compensation, ascending,
    after the empty sum 0.0 in slot 0 (length len(terms) + 1).

    The sequential loop

        t = total + v
        comp += (total - t) + v  if |total| >= |v|  else  (v - t) + total
        total = t;  out = total + comp

    vectorised: np.cumsum accumulates in index order, so `total` is the
    loop's running sum bit for bit.  Each step's error term (Fast2Sum of
    the larger and the smaller operand) depends only on the old total,
    the term and the new total, so all of them come at once, and a
    second np.cumsum adds them in the loop's order.  The result is
    bit-identical to the loop.
    """
    sums = np.empty(len(terms) + 1, dtype=np.float64)
    sums[0] = 0.0
    np.cumsum(terms, out=sums[1:])
    prev, total = sums[:-1], sums[1:]
    prev_larger = np.abs(prev) >= np.abs(terms)
    comp = np.where(prev_larger, prev, terms)
    comp -= total
    comp += np.where(prev_larger, terms, prev)
    total += np.cumsum(comp, out=comp)
    return sums


class SequenceCache:
    """Shared prefix tables over 1..limit, indexed by absolute k.

    Eager: mu (int8) and the Mertens prefix (int32).  Everything else
    (float prefix tables per exponent, the one exact ScaledSums table,
    the memo of mertens_sublinear over this cache's prefix) is built on
    first use and kept.  A cache is single-threaded: the
    lazy tables are built without a lock.  Arrays have length limit+1
    with slot 0 a zero pad, so table[k] is the value at k with no
    offset bookkeeping.

    A function that takes `cache` uses it when it reaches the range the
    call needs, and builds its own otherwise.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        check_capacity(5 * (limit + 1) + _scan_bytes(limit), "sequence cache")
        self.limit = limit
        self.mu = np.zeros(limit + 1, dtype=np.int8)
        # |M(k)| < 0.6 sqrt(k) for k <= 10^16 (Hurst 2018), so int32 holds it.
        self.mertens = np.zeros(limit + 1, dtype=np.int32)
        for lo, mu, running in _mertens_segments(1, limit):
            self.mu[lo:lo + len(mu)] = mu
            self.mertens[lo:lo + len(mu)] = running
        self._float_tables: dict[tuple[str, float], np.ndarray] = {}
        self._exact_sums: ScaledSums | None = None
        self._sublinear_memo: dict[int, int] = {}

    def _float_prefix(self, kind: str, s: float) -> np.ndarray:
        key = (kind, float(s))
        got = self._float_tables.get(key)
        if got is not None:
            return got
        check_capacity(8 * (self.limit + 1), f"float {kind} prefix")
        k = np.arange(1, self.limit + 1, dtype=np.float64)
        powers = k ** -float(s)
        if kind == "oscillatory":
            powers *= self.mu[1:]
        out = _compensated_cumsum(powers)
        self._float_tables[key] = out
        return out

    def oscillatory_float(self, s: float) -> np.ndarray:
        """Prefix table of M_k(s) as float64, k = 0..limit."""
        return self._float_prefix("oscillatory", s)

    def harmonic_float(self, s: float) -> np.ndarray:
        """Prefix table of H_k(s) as float64, k = 0..limit."""
        return self._float_prefix("harmonic", s)

    def exact_sums(self, n: int) -> ScaledSums:
        """Scaled exact prefixes reaching n <= limit.  The kept table over
        1..min(limit, RATIONAL_BOUND) is built once and serves every n it
        reaches; a larger n gets a table over 1..n for this call only, so
        later calls keep the smaller common denominator."""
        keep = min(self.limit, RATIONAL_BOUND)
        if n > keep:
            return ScaledSums(n, self.mu)
        if self._exact_sums is None:
            self._exact_sums = ScaledSums(keep, self.mu)
        return self._exact_sums


def _covering(cache: SequenceCache | None, n: int) -> SequenceCache:
    """`cache` when it reaches n, else a new SequenceCache(n)."""
    if cache is not None and cache.limit >= n:
        return cache
    return SequenceCache(n)


# Grow-only base of mertens_sublinear for queries no caller's cache
# covers, shared across calls so they reuse its sieve and its memo.  A
# query that needs a larger base replaces it, and the memo goes with it.
_base_cache: SequenceCache | None = None


def _mertens_recurse(v: int, tab: np.ndarray, tab_limit: int,
                     memo: dict[int, int]) -> int:
    """M(v) = 1 - sum_{i=2..v} M(v//i), grouped over quotient blocks;
    `memo` holds M(v) for the v above tab_limit seen so far."""
    if v <= tab_limit:
        return int(tab[v])
    hit = memo.get(v)
    if hit is not None:
        return hit
    d = isqrt(v)
    total = 0
    # Head: distinct i = 2..d.  Arguments above the base table recurse;
    # depth is logarithmic because v//i shrinks geometrically.
    args = v // np.arange(2, d + 1, dtype=np.int64)
    big = args > tab_limit
    if big.any():
        total += sum(_mertens_recurse(int(a), tab, tab_limit, memo)
                     for a in args[big])
        args = args[~big]
    total += int(tab[args].sum())
    # Tail: group the i > d by the shared quotient q = v//i; the count
    # of i in (d, v] with v//i == q is v//q - max(v//(q+1), d), and one
    # division over q = 1..q_max+1 gives both quotients.
    q_max = v // (d + 1)
    if q_max > 0:
        t = v // np.arange(1, q_max + 2, dtype=np.int64)
        counts = t[:-1] - np.maximum(t[1:], d)
        total += int(np.dot(counts, tab[1:q_max + 1]))
    result = 1 - total
    memo[v] = result
    return result


def mertens_sublinear(x: int, cache: SequenceCache | None = None) -> int:
    """M_x without sieving to x, via the divisor-sum recursion.

    Runs on a base SequenceCache of size ~x^(2/3) plus memoized
    recursion over the quotient set of x; practical well past 10^8.
    The base is `cache` when it covers the needed range, else the
    module's grow-only cache; either way the recursion memoizes into
    that cache, so its entries go when the cache goes.
    """
    global _base_cache
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    need = min(x, max(1024, int(round(x ** (2.0 / 3.0)))))
    if cache is None or cache.limit < need:
        if _base_cache is None or _base_cache.limit < need:
            _base_cache = None  # free the old base before the new one is built
            _base_cache = SequenceCache(need)
        cache = _base_cache
    return _mertens_recurse(x, cache.mertens, cache.limit,
                            cache._sublinear_memo)


@dataclass(frozen=True)
class OscillatoryValue:
    """One evaluation of M_x(s) with its provenance pinned."""

    x: int
    s: float
    mode: str                      # "exact" | "float"
    value: int | Fraction | float


def _check_mode(x: int, s: float, mode: str) -> None:
    """Reject an (x, s, mode) that oscillatory and harmonic cannot serve."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if mode == "exact":
        if s not in (0, 1):
            raise ExactModeError(
                f"exact mode requires s in {{0, 1}}, got s = {s}")
        if s == 1 and x > RATIONAL_BOUND:
            raise RationalBoundError(
                f"exact s=1 limited to x <= {RATIONAL_BOUND}, got {x}")
    elif mode != "float":
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")


def oscillatory(x: int, s: float, mode: str = "float",
                cache: SequenceCache | None = None) -> OscillatoryValue:
    """M_x(s) = sum_{k<=x} mu(k)/k^s.

    Exact mode supports s = 0 (integer M_x) and s = 1 (Fraction, x
    bounded so denominators stay manageable); float mode supports any
    real s via exactly rounded summation.
    """
    _check_mode(x, s, mode)
    if mode == "exact" and s == 0:
        return OscillatoryValue(x, 0.0, "exact", mertens_sublinear(x, cache))
    cache = _covering(cache, x)
    if mode == "exact":
        return OscillatoryValue(x, 1.0, "exact",
                                cache.exact_sums(x).oscillatory(x))
    ks = np.arange(1, x + 1, dtype=np.float64)
    terms = cache.mu[1:x + 1] * ks ** (-float(s))
    return OscillatoryValue(x, float(s), "float", fsum(terms.tolist()))


def harmonic(x: int, s: float, mode: str = "float") -> int | Fraction | float:
    """H_x(s) = sum_{k<=x} 1/k^s; H_x(0) = x exactly."""
    _check_mode(x, s, mode)
    if mode == "exact":
        return x if s == 0 else SequenceCache(x).exact_sums(x).harmonic(x)
    ks = np.arange(1, x + 1, dtype=np.float64)
    return fsum((ks ** (-float(s))).tolist())
