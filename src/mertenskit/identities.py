"""Verifiers for the square/truncation identity family.

Each identity relates truncated Mobius sums M_x(s) and harmonic sums
H_x(s) through floor-quotient rearrangements.  The catalogue, in the
tool's own numbering (eq1..eq18, gaps where a variant is folded into
its parent as an order-swap cross-check):

    eq1   sum_{i<=x} i^-s M_{floor(x/i)}(s) = 1
    eq2   eq1 at x' = floor(x^2/j), j in [x, x^2], via nested floors
    eq3   sum_{j=x+1..x^2} j^-s sum_{i<=x} i^-s M_{floor(x^2/ij)}(s)
              = H_{x^2}(s) - H_x(s)      (both summation orders agree)
    eq5   H_{x^2}(s) = 2 H_x(s) - sum_{i,j<=x} (ij)^-s M_{floor(x^2/ij)}(s)
    eq6   eq5 at s = 0:  x^2 = 2x - sum_{i,j<=x} floor-count convolution
    eq7   eq5 at s = 1
    eq11  sum_{i<=x} mu(i) i^-s H_{floor(x/i)}(s) = 1
    eq12  eq11 at x' = floor(x^2/j), j in [x, x^2]
    eq13  sum_{j=x+1..x^2} mu(j) j^-s sum_{i<=x} mu(i) i^-s H_{floor(x^2/ij)}(s)
              = M_{x^2}(s) - M_x(s)      (both summation orders agree)
    eq15  M_{x^2}(s) = 2 M_x(s) - sum_{i,j<=x} mu(i)mu(j)(ij)^-s H_{floor(x^2/ij)}(s)
    eq16  eq15 at s = 1
    eq17  eq15 at s = 0:  M_{x^2} = 2 M_x - sum mu(i)mu(j) floor(x^2/ij)
    eq18  M_{x^2} = 2 M_x - x^2 m_x^2 + sum mu(i)mu(j) frac(x^2/ij)

Exact modes (s = 0 integers, s = 1 scaled rationals) certify residuals
are identically zero; float mode reports a residual against a tolerance.
Double sums over i, j <= x with summand depending only on p = ij are
grouped through convolution coefficients c_p, shrinking x^2 terms to
the number of products realized below x^2.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import fsum

import numpy as np

from .arith import mobius_sieve, quotient_blocks
from .config import (
    DEFAULT_TOLERANCE,
    RATIONAL_BOUND,
    RATIONAL_SQUARE_BOUND,
    TRIPLE_LOOP_EXACT_BOUND,
    TRIPLE_LOOP_FLOAT_BOUND,
    check_capacity,
)
from .exact import ScaledSums
from .sequences import RationalBoundError, ExactModeError, SequenceCache

__all__ = [
    "ConvolutionCoefficients",
    "Identity",
    "IdentityCase",
    "Residual",
    "WINDOW_EXACT",
    "convolution_coeffs",
    "verify_case",
    "verify_eq1",
    "verify_eq2",
    "verify_eq3",
    "verify_eq5",
    "verify_eq6",
    "verify_eq7",
    "verify_eq11",
    "verify_eq12",
    "verify_eq13",
    "verify_eq15",
    "verify_eq16",
    "verify_eq17",
    "verify_eq18",
]


class Identity(Enum):
    EQ1 = "eq1"
    EQ2 = "eq2"
    EQ3 = "eq3"
    EQ5 = "eq5"
    EQ6 = "eq6"
    EQ7 = "eq7"
    EQ11 = "eq11"
    EQ12 = "eq12"
    EQ13 = "eq13"
    EQ15 = "eq15"
    EQ16 = "eq16"
    EQ17 = "eq17"
    EQ18 = "eq18"


_NEEDS_J = {Identity.EQ2, Identity.EQ12}
# Identities whose exact s = 1 path reads SequenceCache.exact_sums().
WINDOW_EXACT = frozenset({Identity.EQ1, Identity.EQ2, Identity.EQ11,
                          Identity.EQ12, Identity.EQ18})
_FIXED_S = {Identity.EQ6: 0.0, Identity.EQ7: 1.0, Identity.EQ16: 1.0,
            Identity.EQ17: 0.0, Identity.EQ18: 1.0}


@dataclass(frozen=True)
class IdentityCase:
    """One concrete check: an identity at a point, in a chosen mode."""

    identity: Identity
    x: int
    j: int | None = None
    s: float = 1.0
    mode: str = "auto"

    def __post_init__(self):
        if self.x < 1:
            raise ValueError(f"x must be >= 1, got {self.x}")
        if self.mode not in ("exact", "float", "auto"):
            raise ValueError(f"bad mode {self.mode!r}")
        if self.identity in _NEEDS_J:
            if self.j is None:
                raise ValueError(f"{self.identity.value} requires j")
            if not self.x <= self.j <= self.x * self.x:
                raise ValueError(
                    f"j must lie in [x, x^2] = [{self.x}, {self.x * self.x}], "
                    f"got {self.j}")
        elif self.j is not None:
            raise ValueError(f"{self.identity.value} takes no j")
        fixed = _FIXED_S.get(self.identity)
        if fixed is not None and float(self.s) != fixed:
            raise ValueError(
                f"{self.identity.value} is pinned at s = {fixed}, got {self.s}")


@dataclass(frozen=True)
class Residual:
    """Outcome of one identity check: lhs - rhs plus pass criterion.

    kind "exact": exact_value is an int or Fraction and must be 0.
    kind "float": |float_value| must be <= tolerance.  Checks with an
    internal cross-form comparison fold a violation into the value, so
    passed stays a single predicate on this record.
    """

    kind: str
    lhs: object
    rhs: object
    exact_value: int | Fraction | None = None
    float_value: float | None = None
    tolerance: float | None = None

    @property
    def value(self):
        return self.exact_value if self.kind == "exact" else self.float_value

    @property
    def passed(self) -> bool:
        if self.kind == "exact":
            return self.exact_value == 0
        return abs(self.float_value) <= self.tolerance


@dataclass(frozen=True)
class ConvolutionCoefficients:
    """Multiplicities c_p of products p = ij over i, j <= x.

    kind "plain":  c_p = #{(i, j) : ij = p},
    kind "mobius": c_p = sum over those pairs of mu(i) mu(j).
    Stored dense: coeffs[p] for p = 0..x^2 (0 and non-products are 0).
    """

    x: int
    kind: str
    coeffs: np.ndarray

    def __getitem__(self, p: int) -> int:
        return int(self.coeffs[p])

    def nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        ps = np.nonzero(self.coeffs)[0]
        return ps, self.coeffs[ps]


def convolution_coeffs(x: int, kind: str = "plain",
                       cache: SequenceCache | None = None) -> ConvolutionCoefficients:
    """Build c_p for p <= x^2 by accumulating each row i at stride i."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if kind not in ("plain", "mobius"):
        raise ValueError(f"kind must be 'plain' or 'mobius', got {kind!r}")
    check_capacity(8 * (x * x + 1), "convolution coefficient table")
    c = np.zeros(x * x + 1, dtype=np.int64)
    if kind == "plain":
        for i in range(1, x + 1):
            c[i:i * x + 1:i] += 1
    else:
        mu = _mu_to(x, cache)
        row = mu[1:].astype(np.int64)
        for i in range(1, x + 1):
            mi = int(mu[i])
            if mi:
                c[i:i * x + 1:i] += mi * row
    return ConvolutionCoefficients(x=x, kind=kind, coeffs=c)


def _mu_to(n: int, cache: SequenceCache | None) -> np.ndarray:
    """Mobius values indexed 1..n with a zero pad at 0."""
    if cache is not None and cache.limit >= n:
        return cache.mu[:n + 1]
    return np.concatenate((np.zeros(1, dtype=np.int8), mobius_sieve(n).values))


def _window_sums(x: int, cache: SequenceCache | None,
                 mu: np.ndarray) -> ScaledSums:
    """Exact prefixes to x: the cache's shared table when it reaches x,
    else a table of its own over `mu`.  A larger common denominator
    changes no value, since every result is a normalised Fraction."""
    if cache is not None and cache.limit >= x:
        return cache.exact_sums()
    return ScaledSums(x, mu=mu)


def _ensure_cache(cache: SequenceCache | None, need: int) -> SequenceCache:
    if cache is not None and cache.limit >= need:
        return cache
    return SequenceCache(need)


def _resolve_mode(mode: str, s: float, x: int, exact_bound: int,
                  s0_bound: int | None = None) -> str:
    """Pick exact when s permits and x is within the per-identity bound."""
    if mode not in ("exact", "float", "auto"):
        raise ValueError(f"mode must be 'exact', 'float' or 'auto', got {mode!r}")
    if mode == "auto":
        if s == 0 and x <= (s0_bound if s0_bound is not None else exact_bound):
            return "exact"
        if s == 1 and x <= exact_bound:
            return "exact"
        return "float"
    if mode == "exact":
        if s not in (0, 1):
            raise ExactModeError(f"exact mode requires s in {{0, 1}}, got s = {s}")
        bound = (s0_bound if (s == 0 and s0_bound is not None) else exact_bound)
        if x > bound:
            raise RationalBoundError(
                f"exact mode at s = {s} limited to x <= {bound}, got x = {x}")
    return mode


def _exact(value, lhs, rhs) -> Residual:
    return Residual(kind="exact", lhs=lhs, rhs=rhs, exact_value=value)


def _float(value, lhs, rhs, tolerance) -> Residual:
    tol = DEFAULT_TOLERANCE if tolerance is None else tolerance
    return Residual(kind="float", lhs=lhs, rhs=rhs, float_value=value,
                    tolerance=tol)


def _fsum(arr) -> float:
    return fsum(arr.tolist())


# --- eq1 / eq2: closure of the quotient recursion -----------------------

def verify_eq1(x: int, s: float = 1.0, mode: str = "auto",
               cache: SequenceCache | None = None,
               tolerance: float | None = None) -> Residual:
    """sum_{i<=x} i^-s M_{floor(x/i)}(s) = 1."""
    mode = _resolve_mode(mode, s, x, RATIONAL_BOUND, s0_bound=10 ** 9)
    if mode == "exact" and s == 0:
        cache = _ensure_cache(cache, x)
        total = sum((i_hi - i_lo + 1) * int(cache.mertens[q])
                    for q, i_lo, i_hi in quotient_blocks(x))
        return _exact(total - 1, total, 1)
    if mode == "exact":
        ss = _window_sums(x, cache, _mu_to(x, cache))
        L = ss.denominator
        num = sum(ss.weights[i] * ss.oscillatory_num[x // i]
                  for i in range(1, x + 1))
        lhs = Fraction(num, L * L)
        return _exact(lhs - 1, lhs, 1)
    cache = _ensure_cache(cache, x)
    osc = cache.oscillatory_float(s)
    i = np.arange(1, x + 1, dtype=np.int64)
    terms = i.astype(np.float64) ** (-float(s)) * osc[x // i]
    lhs = _fsum(terms)
    return _float(lhs - 1.0, lhs, 1.0, tolerance)


def verify_eq2(x: int, j: int, s: float = 1.0, mode: str = "auto",
               cache: SequenceCache | None = None,
               tolerance: float | None = None) -> Residual:
    """sum_{i<=x} i^-s M_{floor(x^2/ij)}(s) = 1 for x <= j <= x^2.

    Quotient arguments floor(x^2/ij) = floor(floor(x^2/j)/i) stay <= x,
    so this is the closure restated at the nested point floor(x^2/j).
    """
    if not x <= j <= x * x:
        raise ValueError(f"j must lie in [x, x^2] = [{x}, {x * x}], got {j}")
    mode = _resolve_mode(mode, s, x, RATIONAL_BOUND, s0_bound=10 ** 9)
    xx = x * x
    if mode == "exact" and s == 0:
        cache = _ensure_cache(cache, x)
        total = sum(int(cache.mertens[xx // (j * i)]) for i in range(1, x + 1))
        return _exact(total - 1, total, 1)
    if mode == "exact":
        ss = _window_sums(x, cache, _mu_to(x, cache))
        L = ss.denominator
        num = sum(ss.weights[i] * ss.oscillatory_num[xx // (j * i)]
                  for i in range(1, x + 1))
        lhs = Fraction(num, L * L)
        return _exact(lhs - 1, lhs, 1)
    cache = _ensure_cache(cache, x)
    osc = cache.oscillatory_float(s)
    i = np.arange(1, x + 1, dtype=np.int64)
    terms = i.astype(np.float64) ** (-float(s)) * osc[xx // (j * i)]
    lhs = _fsum(terms)
    return _float(lhs - 1.0, lhs, 1.0, tolerance)


# --- eq3 / eq13: tail double sums -----------------------------------------

def _triple_terms_float(x: int, s: float, table: np.ndarray,
                        weight_mu: np.ndarray | None) -> tuple[float, float]:
    """Tail sum over j in (x, x^2], i <= x; returns (flat, i-grouped).

    weight_mu None gives unit outer/inner weights; otherwise mu weights
    apply to both indices.  The flat value is the canonical one (fsum is
    exactly rounded), the regrouped value guards the evaluation code.
    """
    xx = x * x
    i = np.arange(1, x + 1, dtype=np.int64)
    wi = i.astype(np.float64) ** (-float(s))
    if weight_mu is not None:
        wi = wi * weight_mu[1:x + 1]
    chunks = []
    for j in range(x + 1, xx + 1):
        if weight_mu is not None and not weight_mu[j]:
            continue
        wj = float(j) ** (-float(s))
        if weight_mu is not None:
            wj *= float(weight_mu[j])
        chunks.append(wj * wi * table[xx // (j * i)])
    if not chunks:
        return 0.0, 0.0
    flat = np.concatenate(chunks)
    grouped = fsum(fsum(col.tolist()) for col in np.stack(chunks).T)
    return _fsum(flat), grouped


def verify_eq3(x: int, s: float = 1.0, mode: str = "auto",
               cache: SequenceCache | None = None,
               tolerance: float | None = None) -> Residual:
    """Tail sum of i^-s j^-s M_{floor(x^2/ij)}(s) equals H_{x^2} - H_x.

    Also checks the complementary form (tail = H_x - head double sum
    over i, j <= x) and, in float mode, that regrouping the summation
    order moves the value by at most the tolerance.
    """
    mode = _resolve_mode(mode, s, x, TRIPLE_LOOP_EXACT_BOUND,
                         s0_bound=TRIPLE_LOOP_FLOAT_BOUND)
    if x > TRIPLE_LOOP_FLOAT_BOUND:
        raise ValueError(
            f"tail double sum capped at x <= {TRIPLE_LOOP_FLOAT_BOUND}, got {x}")
    xx = x * x
    if mode == "exact" and s == 0:
        cache = _ensure_cache(cache, xx)
        mer = cache.mertens
        i = np.arange(1, x + 1, dtype=np.int64)
        lhs = sum(int(mer[xx // (j * i)].sum()) for j in range(x + 1, xx + 1))
        head = sum(int(mer[xx // (j * i)].sum()) for j in range(1, x + 1))
        rhs = xx - x
        main = lhs - rhs
        return _exact(main if main else lhs - (x - head), lhs, rhs)
    if mode == "exact":
        mu = _mu_to(xx, cache)
        ss = ScaledSums(xx, mu=mu, lcm_limit=x ** 3)
        L = ss.denominator
        a = ss.oscillatory_num
        lhs_num = sum(ss.weight(j * i) * a[xx // (j * i)]
                      for j in range(x + 1, xx + 1) for i in range(1, x + 1))
        head_num = sum(ss.weight(j * i) * a[xx // (j * i)]
                       for j in range(1, x + 1) for i in range(1, x + 1))
        rhs_num = L * (ss.harmonic_num[xx] - ss.harmonic_num[x])
        alt_num = L * ss.harmonic_num[x] - head_num
        main = lhs_num - rhs_num
        val = Fraction(main if main else lhs_num - alt_num, L * L)
        return _exact(val, Fraction(lhs_num, L * L), Fraction(rhs_num, L * L))
    cache = _ensure_cache(cache, xx)
    osc = cache.oscillatory_float(s)
    har = cache.harmonic_float(s)
    lhs, regrouped = _triple_terms_float(x, s, osc, None)
    rhs = har[xx] - har[x]
    tol = DEFAULT_TOLERANCE if tolerance is None else tolerance
    resid = lhs - rhs
    if abs(resid) <= tol and abs(lhs - regrouped) > tol:
        resid = lhs - regrouped
    return _float(resid, lhs, rhs, tolerance)


def verify_eq13(x: int, s: float = 1.0, mode: str = "auto",
                cache: SequenceCache | None = None,
                tolerance: float | None = None) -> Residual:
    """Tail sum of mu(i)mu(j)(ij)^-s H_{floor(x^2/ij)}(s) equals
    M_{x^2}(s) - M_x(s); complementary head form checked alongside."""
    mode = _resolve_mode(mode, s, x, TRIPLE_LOOP_EXACT_BOUND,
                         s0_bound=TRIPLE_LOOP_FLOAT_BOUND)
    if x > TRIPLE_LOOP_FLOAT_BOUND:
        raise ValueError(
            f"tail double sum capped at x <= {TRIPLE_LOOP_FLOAT_BOUND}, got {x}")
    xx = x * x
    if mode == "exact" and s == 0:
        cache = _ensure_cache(cache, xx)
        mu = cache.mu
        mu_i = mu[1:x + 1].astype(np.int64)
        i = np.arange(1, x + 1, dtype=np.int64)
        lhs = sum(int(mu[j]) * int(np.dot(mu_i, xx // (j * i)))
                  for j in range(x + 1, xx + 1) if mu[j])
        head = sum(int(mu[j]) * int(np.dot(mu_i, xx // (j * i)))
                   for j in range(1, x + 1) if mu[j])
        rhs = int(cache.mertens[xx]) - int(cache.mertens[x])
        main = lhs - rhs
        alt = int(cache.mertens[x]) - head
        return _exact(main if main else lhs - alt, lhs, rhs)
    if mode == "exact":
        mu = _mu_to(xx, cache)
        ss = ScaledSums(xx, mu=mu, lcm_limit=x ** 3)
        L = ss.denominator
        h = ss.harmonic_num
        lhs_num = sum(int(mu[j]) * int(mu[i]) * ss.weight(j * i) * h[xx // (j * i)]
                      for j in range(x + 1, xx + 1) if mu[j]
                      for i in range(1, x + 1) if mu[i])
        head_num = sum(int(mu[j]) * int(mu[i]) * ss.weight(j * i) * h[xx // (j * i)]
                       for j in range(1, x + 1) if mu[j]
                       for i in range(1, x + 1) if mu[i])
        rhs_num = L * (ss.oscillatory_num[xx] - ss.oscillatory_num[x])
        alt_num = L * ss.oscillatory_num[x] - head_num
        main = lhs_num - rhs_num
        val = Fraction(main if main else lhs_num - alt_num, L * L)
        return _exact(val, Fraction(lhs_num, L * L), Fraction(rhs_num, L * L))
    cache = _ensure_cache(cache, xx)
    har = cache.harmonic_float(s)
    osc = cache.oscillatory_float(s)
    mu_f = cache.mu[:xx + 1].astype(np.float64)
    lhs, regrouped = _triple_terms_float(x, s, har, mu_f)
    rhs = osc[xx] - osc[x]
    tol = DEFAULT_TOLERANCE if tolerance is None else tolerance
    resid = lhs - rhs
    if abs(resid) <= tol and abs(lhs - regrouped) > tol:
        resid = lhs - regrouped
    return _float(resid, lhs, rhs, tolerance)


# --- eq5/eq6/eq7 and eq15/eq16/eq17: square identities ---------------------

def verify_eq5(x: int, s: float = 1.0, mode: str = "auto",
               cache: SequenceCache | None = None,
               tolerance: float | None = None) -> Residual:
    """H_{x^2}(s) = 2 H_x(s) - sum_{i,j<=x} (ij)^-s M_{floor(x^2/ij)}(s)."""
    mode = _resolve_mode(mode, s, x, RATIONAL_SQUARE_BOUND, s0_bound=10 ** 5)
    xx = x * x
    cc = convolution_coeffs(x, "plain", cache)
    ps, cs = cc.nonzero()
    if mode == "exact" and s == 0:
        cache = _ensure_cache(cache, xx)
        inner = int(np.dot(cs, cache.mertens[xx // ps]))
        return _exact(xx - (2 * x - inner), xx, 2 * x - inner)
    if mode == "exact":
        ss = ScaledSums(xx, mu=_mu_to(xx, cache))
        L = ss.denominator
        a = ss.oscillatory_num
        inner = sum(int(c) * ss.weight(int(p)) * a[xx // int(p)]
                    for p, c in zip(ps, cs))
        lhs = Fraction(ss.harmonic_num[xx], L)
        rhs = Fraction(2 * L * ss.harmonic_num[x] - inner, L * L)
        return _exact(lhs - rhs, lhs, rhs)
    cache = _ensure_cache(cache, xx)
    har = cache.harmonic_float(s)
    osc = cache.oscillatory_float(s)
    inner = _fsum(cs * ps.astype(np.float64) ** (-float(s)) * osc[xx // ps])
    lhs = float(har[xx])
    rhs = 2.0 * har[x] - inner
    return _float(lhs - rhs, lhs, rhs, tolerance)


def verify_eq6(x: int, cache: SequenceCache | None = None) -> Residual:
    """Counting form of eq5: x^2 = 2x - sum_{i,j<=x} M(floor(x^2/ij))."""
    return verify_eq5(x, s=0.0, mode="exact", cache=cache)


def verify_eq7(x: int, mode: str = "auto",
               cache: SequenceCache | None = None,
               tolerance: float | None = None) -> Residual:
    """eq5 at s = 1, the harmonic/oscillatory square identity."""
    return verify_eq5(x, s=1.0, mode=mode, cache=cache, tolerance=tolerance)


def verify_eq11(x: int, s: float = 1.0, mode: str = "auto",
                cache: SequenceCache | None = None,
                tolerance: float | None = None) -> Residual:
    """sum_{i<=x} mu(i) i^-s H_{floor(x/i)}(s) = 1, the mirror closure."""
    mode = _resolve_mode(mode, s, x, RATIONAL_BOUND, s0_bound=10 ** 9)
    mu = _mu_to(x, cache)
    if mode == "exact" and s == 0:
        i = np.arange(1, x + 1, dtype=np.int64)
        total = int(np.dot(mu[1:].astype(np.int64), x // i))
        return _exact(total - 1, total, 1)
    if mode == "exact":
        ss = _window_sums(x, cache, mu)
        L = ss.denominator
        num = sum(int(mu[i]) * ss.weights[i] * ss.harmonic_num[x // i]
                  for i in range(1, x + 1) if mu[i])
        lhs = Fraction(num, L * L)
        return _exact(lhs - 1, lhs, 1)
    cache = _ensure_cache(cache, x)
    har = cache.harmonic_float(s)
    i = np.arange(1, x + 1, dtype=np.int64)
    terms = mu[1:] * i.astype(np.float64) ** (-float(s)) * har[x // i]
    lhs = _fsum(terms)
    return _float(lhs - 1.0, lhs, 1.0, tolerance)


def verify_eq12(x: int, j: int, s: float = 1.0, mode: str = "auto",
                cache: SequenceCache | None = None,
                tolerance: float | None = None) -> Residual:
    """Mirror closure at the nested point floor(x^2/j), x <= j <= x^2."""
    if not x <= j <= x * x:
        raise ValueError(f"j must lie in [x, x^2] = [{x}, {x * x}], got {j}")
    mode = _resolve_mode(mode, s, x, RATIONAL_BOUND, s0_bound=10 ** 9)
    xx = x * x
    mu = _mu_to(x, cache)
    if mode == "exact" and s == 0:
        total = sum(int(mu[i]) * (xx // (j * i)) for i in range(1, x + 1))
        return _exact(total - 1, total, 1)
    if mode == "exact":
        ss = _window_sums(x, cache, mu)
        L = ss.denominator
        num = sum(int(mu[i]) * ss.weights[i] * ss.harmonic_num[xx // (j * i)]
                  for i in range(1, x + 1) if mu[i])
        lhs = Fraction(num, L * L)
        return _exact(lhs - 1, lhs, 1)
    cache = _ensure_cache(cache, x)
    har = cache.harmonic_float(s)
    i = np.arange(1, x + 1, dtype=np.int64)
    terms = mu[1:] * i.astype(np.float64) ** (-float(s)) * har[xx // (j * i)]
    lhs = _fsum(terms)
    return _float(lhs - 1.0, lhs, 1.0, tolerance)


def verify_eq15(x: int, s: float = 1.0, mode: str = "auto",
                cache: SequenceCache | None = None,
                tolerance: float | None = None) -> Residual:
    """M_{x^2}(s) = 2 M_x(s) - sum_{i,j<=x} mu(i)mu(j)(ij)^-s H_{floor(x^2/ij)}(s)."""
    mode = _resolve_mode(mode, s, x, RATIONAL_SQUARE_BOUND, s0_bound=10 ** 5)
    xx = x * x
    cc = convolution_coeffs(x, "mobius", cache)
    ps, cs = cc.nonzero()
    if mode == "exact" and s == 0:
        cache = _ensure_cache(cache, xx)
        inner = int(np.dot(cs, xx // ps))
        lhs = int(cache.mertens[xx])
        rhs = 2 * int(cache.mertens[x]) - inner
        return _exact(lhs - rhs, lhs, rhs)
    if mode == "exact":
        ss = ScaledSums(xx, mu=_mu_to(xx, cache))
        L = ss.denominator
        h = ss.harmonic_num
        inner = sum(int(c) * ss.weight(int(p)) * h[xx // int(p)]
                    for p, c in zip(ps, cs))
        lhs = Fraction(ss.oscillatory_num[xx], L)
        rhs = Fraction(2 * L * ss.oscillatory_num[x] - inner, L * L)
        return _exact(lhs - rhs, lhs, rhs)
    cache = _ensure_cache(cache, xx)
    har = cache.harmonic_float(s)
    osc = cache.oscillatory_float(s)
    inner = _fsum(cs * ps.astype(np.float64) ** (-float(s)) * har[xx // ps])
    lhs = float(osc[xx])
    rhs = 2.0 * osc[x] - inner
    return _float(lhs - rhs, lhs, rhs, tolerance)


def verify_eq16(x: int, mode: str = "auto",
                cache: SequenceCache | None = None,
                tolerance: float | None = None) -> Residual:
    """eq15 at s = 1."""
    return verify_eq15(x, s=1.0, mode=mode, cache=cache, tolerance=tolerance)


def verify_eq17(x: int, cache: SequenceCache | None = None) -> Residual:
    """Integer form of eq15: M_{x^2} = 2 M_x - sum mu(i)mu(j) floor(x^2/ij)."""
    return verify_eq15(x, s=0.0, mode="exact", cache=cache)


def verify_eq18(x: int, mode: str = "auto",
                cache: SequenceCache | None = None,
                tolerance: float | None = None) -> Residual:
    """M_{x^2} = 2 M_x - x^2 m_x^2 + sum_{i,j<=x} mu(i)mu(j) frac(x^2/ij).

    The floor/fraction split x^2/ij = floor + frac ties this to eq17:
    sum mu mu floor(x^2/ij) + sum mu mu frac(x^2/ij) = x^2 m_x^2, and the
    exact path certifies that bridge together with the identity itself.
    Exact mode accumulates floor and remainder from one divmod per pair,
    then cross-checks the floor total against the grouped eq17 route.
    """
    mode = _resolve_mode(mode, 1.0, x, RATIONAL_BOUND)
    xx = x * x
    cache = _ensure_cache(cache, xx)
    mu = cache.mu
    lhs = int(cache.mertens[xx])
    m_x = int(cache.mertens[x])
    sqfree = [i for i in range(1, x + 1) if mu[i]]
    if mode == "exact":
        ss = _window_sums(x, cache, mu)
        L = ss.denominator
        a_num = ss.oscillatory_num[x]
        floor_sum = 0
        frac_num = 0
        for i in sqfree:
            mi, wi = int(mu[i]), ss.weights[i]
            for j in sqfree:
                q, r = divmod(xx, i * j)
                w = mi * int(mu[j])
                floor_sum += w * q
                frac_num += w * r * wi * ss.weights[j]
        # Bridge: floor and fractional parts recombine to x^2 m_x^2.
        bridge = xx * a_num * a_num - frac_num - L * L * floor_sum
        resid_num = (lhs - 2 * m_x) * L * L + xx * a_num * a_num - frac_num
        rhs = Fraction(2 * m_x * L * L - xx * a_num * a_num + frac_num, L * L)
        val = Fraction(resid_num, L * L)
        if val == 0 and bridge != 0:
            val = Fraction(bridge, L * L)
        grouped = verify_eq17(x, cache)
        if val == 0 and (2 * m_x - floor_sum) != grouped.rhs:
            val = Fraction((2 * m_x - floor_sum) - grouped.rhs)
        return _exact(val, lhs, rhs)
    m_f = float(cache.oscillatory_float(1.0)[x])
    chunks = []
    for i in sqfree:
        js = np.array(sqfree, dtype=np.int64)
        prods = i * js
        rems = xx - (xx // prods) * prods
        w = float(mu[i]) * mu[js].astype(np.float64)
        chunks.append(w * rems / prods)
    frac_sum = _fsum(np.concatenate(chunks))
    rhs = 2.0 * m_x - xx * m_f * m_f + frac_sum
    return _float(lhs - rhs, float(lhs), rhs, tolerance)


_DISPATCH = {
    Identity.EQ1: lambda c, cache, tol: verify_eq1(c.x, c.s, c.mode, cache, tol),
    Identity.EQ2: lambda c, cache, tol: verify_eq2(c.x, c.j, c.s, c.mode, cache, tol),
    Identity.EQ3: lambda c, cache, tol: verify_eq3(c.x, c.s, c.mode, cache, tol),
    Identity.EQ5: lambda c, cache, tol: verify_eq5(c.x, c.s, c.mode, cache, tol),
    Identity.EQ6: lambda c, cache, tol: verify_eq6(c.x, cache),
    Identity.EQ7: lambda c, cache, tol: verify_eq7(c.x, c.mode, cache, tol),
    Identity.EQ11: lambda c, cache, tol: verify_eq11(c.x, c.s, c.mode, cache, tol),
    Identity.EQ12: lambda c, cache, tol: verify_eq12(c.x, c.j, c.s, c.mode, cache, tol),
    Identity.EQ13: lambda c, cache, tol: verify_eq13(c.x, c.s, c.mode, cache, tol),
    Identity.EQ15: lambda c, cache, tol: verify_eq15(c.x, c.s, c.mode, cache, tol),
    Identity.EQ16: lambda c, cache, tol: verify_eq16(c.x, c.mode, cache, tol),
    Identity.EQ17: lambda c, cache, tol: verify_eq17(c.x, cache),
    Identity.EQ18: lambda c, cache, tol: verify_eq18(c.x, c.mode, cache, tol),
}


def verify_case(case: IdentityCase, cache: SequenceCache | None = None,
                tolerance: float | None = None) -> Residual:
    """Dispatch one IdentityCase to its verifier."""
    return _DISPATCH[case.identity](case, cache, tolerance)
