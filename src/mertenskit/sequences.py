"""Prefix sequences over the Mobius function and their evaluators.

Central objects, for a fixed truncation point x:

    mertens(x)            M_x       = sum_{k<=x} mu(k)
    oscillatory(x, s)     M_x(s)    = sum_{k<=x} mu(k) / k^s
    harmonic(x, s)        H_x(s)    = sum_{k<=x} 1 / k^s

s = 0 collapses to integer counting (H_x(0) = x), s = 1 is the main
object of study (written m_x for M_x(1)).

Float paths are reproducible by construction: one-shot sums are
exactly rounded, hence order independent (_exact_sum: error-free
extraction passes over the whole array, then math.fsum, bit-identical
to math.fsum of the terms), and prefix tables use a Neumaier
compensated running sum in ascending k, vectorised and bit-identical to
the sequential loop.  Exact paths use integers (s = 0) or Fraction
(s = 1, bounded input size).

The square identities and the gamma series sum over the products
p = ij <= x^2 of i, j <= x, weighted by c_p (the number of such pairs,
or the sum of mu(i)mu(j) over them).  The cache keeps those (p, c_p)
per kind in a grow-only state: raising x adds only the new shells k, so
a sweep over ascending x builds each product once.
"""

from fractions import Fraction
from math import frexp, fsum, isfinite, isqrt, ldexp

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


# Below this many terms _exact_parts returns them as they are.
_EXTRACT_MIN = 64


def _exact_sum(terms: np.ndarray) -> float:
    """The exactly rounded sum of a float64 array: fsum(terms.tolist())
    bit for bit, from whole-array passes and no list of all the terms."""
    return fsum(_exact_parts(terms))


def _exact_parts(terms: np.ndarray) -> list[float]:
    """A few floats with the exact sum of a float64 array, so fsum of
    them, or of the parts of several arrays together, rounds as fsum of
    all the terms does.

    Each pass is the error-free extraction of Rump, Ogita and Oishi
    ("Accurate floating-point summation, part I", SIAM J. Sci. Comput.
    31(1), 2008).  With 2^M >= n + 2 and 2^E > max|t|, every term t
    splits against sigma = 2^(M + E) into q = (sigma + t) - sigma and
    t - q, both exact.  The q are multiples of 2^-53 sigma, each at most
    2^E in size, so every partial sum of them is below sigma and np.sum
    adds them without rounding, in any order.  The nonzero remainders
    go to the next pass.  The pass totals and the last remainders have
    the input's exact sum; they are the parts.  Non-finite input, and a
    sigma that would overflow or whose grid 2^-53 sigma would be
    subnormal, leave the rest in the parts as is.
    """
    totals = []
    while len(terms) >= _EXTRACT_MIN:
        # A nan makes both extremes nan.
        top = max(float(terms.max()), -float(terms.min()))
        if not isfinite(top):
            break
        k = frexp(top)[1] + (len(terms) + 1).bit_length()
        if not -1022 + 53 <= k <= 1023:
            break
        sigma = ldexp(1.0, k)
        high = terms + sigma
        high -= sigma
        totals.append(float(np.sum(high)))
        rest = np.subtract(terms, high, out=high)
        terms = rest[rest != 0]
    return totals + terms.tolist()


class _SquareProducts:
    """The distinct products p = ij of i, j <= x and their weights c_p,
    grown shell by shell as x rises.

    kind "plain":  c_p = #{(i, j) : ij = p};
    kind "mobius": c_p = sum of mu(i)mu(j) over those pairs, so only
    squarefree i and j enter.
    Shell k adds k*j for each j < k that enters, twice, and k^2 once.
    `counts` holds c_p at index p (its length may exceed x^2 + 1); `ps`
    holds the products in the order first seen.

    A count still 0 just before a shell adds to it marks a new product.
    For the Mobius kind too: if i, j are squarefree and ij = p, then
    g = gcd(i, j) is the product of the primes that appear squared in p,
    so mu(i)mu(j) = mu(p/g^2) is the same for every such pair, and a
    c_p once touched never returns to 0.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.x = 0
        self.counts = np.zeros(1, dtype=np.int64)
        self.ps = np.empty(0, dtype=np.int64)

    def reach(self, x: int, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(ps, cs) at x, with mu covering 1..x; an x below the one
        reached rebuilds the state from zero."""
        if x < self.x:
            self.__init__(self.kind)
        if x > self.x:
            self._grow(x, mu)
        return self.ps, self.counts[self.ps]

    def _grow(self, x: int, mu: np.ndarray) -> None:
        x0, old = self.x, self.counts
        xx = x * x
        # Products the new shells touch, at most (one per pair j <= k).
        added = (x * (x + 1) - x0 * (x0 + 1)) // 2
        # A step past the end at least doubles the count array, so a
        # sweep over ascending x copies it O(log x) times.
        size = max(xx + 1, 2 * len(old)) if len(old) <= xx else 0
        # The grown and the old count array side by side, the old and
        # the new products with their copy, and the caller's cs.
        check_capacity(8 * (size + len(old)) + 24 * (len(self.ps) + added),
                       f"square products to x = {x}")
        if size:
            self.counts = np.zeros(size, dtype=np.int64)
            self.counts[:len(old)] = old
        del old  # freed before the shells add their products
        if self.kind == "plain":
            ks = np.arange(1, x + 1, dtype=np.int64)
            a = np.ones(x, dtype=np.int64)
        else:
            ks = np.flatnonzero(mu[1:x + 1]) + 1
            a = mu[ks].astype(np.int64)
        first = int(np.searchsorted(ks, x0, side="right"))
        fresh = [self.ps]
        fresh += [self._shell(ks, a, t) for t in range(first, len(ks))]
        self.ps = np.concatenate(fresh)
        self.x = x

    def _shell(self, ks: np.ndarray, a: np.ndarray, t: int) -> np.ndarray:
        """Add shell k = ks[t], the products k*j over j = ks[:t + 1]
        weighted 2a(k)a(j), less 1 at k^2; return its new products."""
        k, counts = int(ks[t]), self.counts
        idx = k * ks[:t + 1]
        new = idx[counts[idx] == 0]
        counts[idx] += (2 * int(a[t])) * a[:t + 1]
        counts[k * k] -= 1
        return new


class SequenceCache:
    """Shared prefix tables over 1..limit, indexed by absolute k.

    Eager: mu (int8) and the Mertens prefix (int32).  Everything else
    (float prefix tables per exponent, the one exact ScaledSums slot,
    the memo of mertens_sublinear over this cache's prefix, the square
    products per kind) is built on first use and kept.  A cache is
    single-threaded: the lazy tables are built without a lock.  Arrays
    have length limit+1 with slot 0 a zero pad, so table[k] is the
    value at k with no offset bookkeeping.

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
        self._square_products = {kind: _SquareProducts(kind)
                                 for kind in ("plain", "mobius")}

    def _products(self, x: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """(ps, cs): the distinct products p = ij of i, j <= x, x <= limit,
        and their weights c_p of `kind` ("plain" or "mobius"), from the
        kind's grow-only state."""
        return self._square_products[kind].reach(x, self.mu)

    def _float_prefix(self, kind: str, s: float) -> np.ndarray:
        key = (kind, float(s))
        got = self._float_tables.get(key)
        if got is not None:
            return got
        # The table keeps 8 B per entry, but the build holds the powers and
        # _compensated_cumsum's temporaries beside it: traced peaks of 33.0 B
        # per entry at 10^6 entries (both kinds) and 2.7 kB at one entry.
        check_capacity(36 * (self.limit + 1) + 4096, f"float {kind} prefix")
        powers = np.arange(1, self.limit + 1, dtype=np.float64) ** -float(s)
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
        """Scaled exact prefixes over 1..max(n, min(limit, RATIONAL_BOUND)),
        n <= limit, in one slot rebuilt only when that size changes; verify
        runs its cases by x, then reach, so calls at one size come together."""
        size = max(n, min(self.limit, RATIONAL_BOUND))
        if self._exact_sums is None or self._exact_sums.n != size:
            self._exact_sums = None  # free the old table first
            self._exact_sums = ScaledSums(size, self.mu)
        return self._exact_sums


def _covering(cache: SequenceCache | None, n: int) -> SequenceCache:
    """`cache` when it reaches n, else a new SequenceCache(n)."""
    if cache is not None and cache.limit >= n:
        return cache
    return SequenceCache(n)


# Grow-only base of mertens_sublinear for queries no caller's cache
# serves, shared across calls so they reuse its sieve and its memo.  A
# query it does not serve replaces it, and the memo goes with it.
_base_cache: SequenceCache | None = None


def _quotients(v: int, ks: np.ndarray) -> np.ndarray:
    """v // ks as int64, for v >= 0 and a float64 array ks of integers >= 1.

    Below 2^53 one float division is exact.  v and each i convert
    exactly, and v/i is correctly rounded, off by less than
    v/(2^53 i) < 1/i.  A v/i that is not an integer lies at least 1/i
    below the next integer, which is representable, so the rounded
    quotient stays below it and the cast's truncation gives v//i.  From
    2^53 on v itself may not convert, so the division runs in int64."""
    if v < 2 ** 53:
        return (v / ks).astype(np.int64)
    return v // ks.astype(np.int64)


def _mertens_recurse(x: int, tab: np.ndarray, tab_limit: int,
                     memo: dict[int, int]) -> int:
    """M(x) from M(v) = 1 - sum_{i=2..v} M(v//i), one node per quotient
    v = x//n above the table, for n = N down to 1, N = x//(tab_limit+1)
    (Deleglise & Rivat, Experiment. Math. 5(4), 1996).  `memo` holds M(v)
    for the v above tab_limit seen so far.

    Exact when `tab` holds M up to max(tab_limit, isqrt(x)).  A head
    argument v//i = x//(ni), i <= isqrt(v), is above tab_limit exactly
    when ni <= N, and then it is big[ni], filled before big[n]; the
    others and the tail read `tab`."""
    if x <= tab_limit:
        return int(tab[x])
    hit = memo.get(x)
    if hit is not None:
        return hit
    top = x // (tab_limit + 1)
    big = np.zeros(top + 1, dtype=np.int64)  # big[n] = M(x//n)
    ks = np.arange(1, isqrt(x) + 2, dtype=np.float64)
    for n in range(top, 0, -1):
        v = x // n
        hit = memo.get(v)
        if hit is None:
            d = isqrt(v)
            # One division serves head and tail: t[i - 1] = v//i, i <= d+1.
            t = _quotients(v, ks[:d + 1])
            # Head: i = 2..k read big[ni], i = k+1..d read the table.
            k = min(top // n, d)
            head = big[2 * n:k * n + 1:n].sum() + np.take(tab, t[k:d]).sum()
            # Tail: group the i > d by the shared quotient q = v//i, q =
            # 1..q_max with q_max = v//(d+1); v//q - v//(q+1) of them
            # share q.  Since d^2 <= v < (d+1)^2, q_max is d - 1 or d, so
            # t holds v//q for q = 1..q_max+1, and v >= d (q_max+1), so no
            # i <= d is counted.
            q_max = int(t[d])
            tail = np.dot(t[:q_max] - t[1:q_max + 1], tab[1:q_max + 1])
            hit = memo[v] = 1 - int(head) - int(tail)
        big[n] = hit
    return int(big[1])


def mertens_sublinear(x: int, cache: SequenceCache | None = None) -> int:
    """M_x without sieving to x, via the divisor-sum recursion.

    Runs on a base SequenceCache of size ~x^(2/3) plus one memoized loop
    over the quotients x//n above it.  M(10^10) takes 0.15-0.18 s in a
    fresh process, base included (2-core x86-64 host).
    The base is `cache` when it serves the query, else the module's
    grow-only cache, rebuilt at the needed size when it does not; either
    way the recursion memoizes into that cache, so its entries go when
    the cache goes.  A table serves a query when 2 * limit >= need, with
    need = min(x, max(1024, x^(2/3))): half of need always reaches
    isqrt(x), which is all _mertens_recurse needs to be exact, so a
    query just past the last base reuses it instead of re-sieving from 1.
    """
    global _base_cache
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    need = min(x, max(1024, int(round(x ** (2.0 / 3.0)))))
    if cache is None or 2 * cache.limit < need:
        if _base_cache is None or 2 * _base_cache.limit < need:
            _base_cache = None  # free the old base before the new one is built
            _base_cache = SequenceCache(need)
        cache = _base_cache
    return _mertens_recurse(x, cache.mertens, cache.limit,
                            cache._sublinear_memo)


def _check_exact(x: int, s: float, bound: int) -> None:
    """Refuse exact mode at an s outside {0, 1}, or at s = 1 past `bound`."""
    if s not in (0, 1):
        raise ExactModeError(
            f"exact mode requires s in {{0, 1}}, got s = {s}")
    if s == 1 and x > bound:
        raise RationalBoundError(f"exact mode at s = {s} limited to x <= "
                                 f"{bound}, got x = {x}")


def _check_mode(x: int, s: float, mode: str) -> None:
    """Reject an (x, s, mode) that oscillatory and harmonic cannot serve."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if mode == "exact":
        _check_exact(x, s, RATIONAL_BOUND)
    elif mode != "float":
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")


def oscillatory(x: int, s: float, mode: str = "float",
                cache: SequenceCache | None = None) -> int | Fraction | float:
    """M_x(s) = sum_{k<=x} mu(k)/k^s.

    Exact mode supports s = 0 (integer M_x) and s = 1 (Fraction, x
    bounded so denominators stay manageable); float mode supports any
    real s via exactly rounded summation.
    """
    _check_mode(x, s, mode)
    if mode == "exact" and s == 0:
        return mertens_sublinear(x, cache)
    cache = _covering(cache, x)
    if mode == "exact":
        return cache.exact_sums(x).oscillatory(x)
    ks = np.arange(1, x + 1, dtype=np.float64)
    terms = cache.mu[1:x + 1] * ks ** (-float(s))
    return _exact_sum(terms)


def harmonic(x: int, s: float, mode: str = "float") -> int | Fraction | float:
    """H_x(s) = sum_{k<=x} 1/k^s; H_x(0) = x exactly."""
    _check_mode(x, s, mode)
    if mode == "exact":
        return x if s == 0 else SequenceCache(x).exact_sums(x).harmonic(x)
    ks = np.arange(1, x + 1, dtype=np.float64)
    return _exact_sum(ks ** (-float(s)))
