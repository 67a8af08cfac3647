"""Verifiers for the square/truncation identity family.

Each identity relates truncated Mobius sums M_x(s) and harmonic sums
H_x(s) through floor-quotient rearrangements.  The family comes in
mirror pairs: a statement about the Dirichlet pair (a, b) = (1, mu) is
also true with 1 and mu swapped.  With A the prefix sum of a and B the
prefix sum of b,

    pair (1, mu):  a = 1,   A = H_k(s),  B = M_k(s)
    pair (mu, 1):  a = mu,  A = M_k(s),  B = H_k(s)

and three shapes, each written once and run for either pair, with the
weight w(k) = k^-s:

    closure  sum_{i<=x} a(i) w(i) B_{floor(n/i)} = 1
                 n = x:                         eq1 (1, mu), eq11 (mu, 1)
                 n = floor(x^2/j), x<=j<=x^2:   eq2 (1, mu), eq12 (mu, 1)
    tail     sum_{i<=x} sum_{x<j<=x^2/i} a(i)a(j) w(ij) B_{floor(x^2/ij)}
                 = A_{x^2} - A_x                eq3 (1, mu), eq13 (mu, 1)
             (B_0 = 0 ends column i at j = floor(x^2/i), so about
             x^2 ln x terms; the head form over j <= x and the sum
             grouped by i are checked alongside)
    square   A_{x^2} = 2 A_x - sum_{i,j<=x} a(i)a(j) w(ij) B_{floor(x^2/ij)}
                 eq5 (1, mu), with eq6 at s = 0 and eq7 at s = 1;
                 eq15 (mu, 1), with eq17 at s = 0 and eq16 at s = 1

plus one standalone identity,

    eq18  M_{x^2} = 2 M_x - x^2 m_x^2 + sum mu(i)mu(j) frac(x^2/ij)

Each shape is one sum of weights times B at floor quotients, evaluated
in one of three arithmetics that supply the weight, the tables A and B,
the total of such a sum and the reading of the result:

    float          w(k) = k^-s in float64, the float prefix tables at s,
                   exactly rounded sums (extraction passes, then
                   math.fsum: bit-identical to math.fsum of the terms);
                   a float residual is judged against a tolerance
    exact, s = 0   w(k) = 1, H_k(0) = k and the integer Mertens table,
                   integer sums
    exact, s = 1   w(k) = L//k over L = lcm(1..n) (or a multiple), the
                   ScaledSums numerators over L, integer sums; a total
                   of terms with p scaled factors is read back as a
                   Fraction over L^p

An exact total adds the weights of each quotient first (once a sum is
long enough to pay for the sort), then multiplies each table entry
once.  An exact residual is identically zero or the check fails.  The
square shape groups its double sum by product p = ij with multiplicity
c_p, shrinking x^2 terms to the number of products realized below x^2.
The (p, c_p) come from the cache's grow-only product state, so a sweep
over ascending x adds only each new shell k.  convolution_coeffs builds
the same c_p as a dense table, independently.
eq18 takes floor and remainder of x^2/ij from one divmod per pair of
squarefree i, j <= x, and checks its pairwise floor sum equal to the
sum eq17 groups, sum_p c_p floor(x^2/p) over the product state.

IdentityCase refuses a case its entry cannot run; verify_case resolves
"auto", and its memo lets cases that resolve alike (verifier, pair, x,
j, s and mode) share one evaluation within a run: at s = 1 eq7 is eq5's
case and eq16 is eq15's, and at s = 0 eq6 is eq5's.

CATALOGUE holds, per identity, its shape, pair, pinned exponent and
mode bounds; the CLI reads the catalogue order and metadata from it.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import fsum
from typing import Callable, NamedTuple

import numpy as np

from .config import (
    DEFAULT_TOLERANCE,
    RATIONAL_BOUND,
    RATIONAL_SQUARE_BOUND,
    TAIL_EXACT_BOUND,
    check_capacity,
)
from .sequences import (
    SequenceCache,
    _check_exact,
    _covering,
    _exact_parts,
    _exact_sum,
)

__all__ = [
    "CATALOGUE",
    "CatalogueEntry",
    "ConvolutionCoefficients",
    "Identity",
    "IdentityCase",
    "Residual",
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


@dataclass(frozen=True)
class IdentityCase:
    """One check of an identity at a point, in a mode its entry can run."""

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
        entry = CATALOGUE[self.identity]
        if entry.needs_j:
            if self.j is None:
                raise ValueError(f"{self.identity.value} requires j")
            if not self.x <= self.j <= self.x * self.x:
                raise ValueError(
                    f"j must lie in [x, x^2] = [{self.x}, {self.x * self.x}], "
                    f"got {self.j}")
        elif self.j is not None:
            raise ValueError(f"{self.identity.value} takes no j")
        if entry.s is not None and float(self.s) != entry.s:
            raise ValueError(
                f"{self.identity.value} is pinned at s = {entry.s}, got {self.s}")
        if self.mode == "exact":
            _check_exact(self.x, self.s if entry.s is None else entry.s,
                         entry.exact_bound)


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
    """Build c_p for p <= x^2 by accumulating each row i at stride i.

    The verifiers read c_p from SequenceCache's product state instead;
    this dense table is the independent reference for it."""
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
        mu = _covering(cache, x).mu[:x + 1]
        row = mu[1:].astype(np.int64)
        for i in range(1, x + 1):
            mi = int(mu[i])
            if mi:
                c[i:i * x + 1:i] += mi * row
    return ConvolutionCoefficients(x=x, kind=kind, coeffs=c)


# --- the Dirichlet pairs ----------------------------------------------------

class _Pair(NamedTuple):
    """A Dirichlet pair (a, A, B): a is 1 or mu, A the prefix sum of a, B
    the prefix sum of its Dirichlet inverse."""

    mobius: bool

    def ab(self, h, m):
        """(A, B) from the harmonic and oscillatory forms of one table."""
        return (m, h) if self.mobius else (h, m)

    def values(self, mu: np.ndarray) -> np.ndarray:
        """a(k) over the indices of `mu`."""
        return mu if self.mobius else np.ones_like(mu)

    @property
    def kind(self) -> str:
        """convolution_coeffs kind of a(i)a(j) summed over ij = p."""
        return "mobius" if self.mobius else "plain"


_ONE_MU = _Pair(False)
_MU_ONE = _Pair(True)


# --- the three arithmetics --------------------------------------------------

class _Count:
    """H_k(0) = k as a table: _Count()[k] is k, for an int or an int array."""

    def __getitem__(self, k):
        return k


class _Lazy:
    """A float prefix table at s, read through the cache's accessor
    (harmonic_float or oscillatory_float) on each index, so a shape
    builds only the tables it reads."""

    def __init__(self, table: Callable, s: float):
        self.table, self.s = table, s

    def __getitem__(self, k):
        return self.table(self.s)[k]


# Shorter exact sums are not grouped: the sort costs more than the
# products it saves.  An exact s = 1 closure sum took 5.0 us ungrouped and
# 6.5 grouped at x = 48, 11.4 and 9.6 at x = 96 (2-core x86-64 host).
_GROUP_MIN = 64


def _grouped_sum(weights: np.ndarray, qs: np.ndarray, B) -> int:
    """sum weights * B[qs] as a Python int, from the products read out as
    Python ints (summing np.int64 scalars could wrap).  From _GROUP_MIN
    terms on the weights of each quotient are added first, so each table
    entry, a big integer in the scaled arithmetic, is multiplied once."""
    if len(qs) >= _GROUP_MIN:
        order = qs.argsort()
        qs = qs[order]
        first = np.ones(len(qs), dtype=bool)  # where a new quotient starts
        np.not_equal(qs[1:], qs[:-1], out=first[1:])
        starts = first.nonzero()[0]
        weights = np.add.reduceat(weights[order], starts,
                                  dtype=np.result_type(weights, np.int64))
        qs = qs[starts]
    return sum((weights * B[qs]).tolist())


class _Arith(NamedTuple):
    """One arithmetic for the sums of a Dirichlet pair with tables to n.

    Every shape sums weights * B[qs]: parts reduces that sum to a few
    numbers, add gives their exact total (rounded once, for floats) and
    total does both.  A weight is a(.) or c_p times w(k) factors.  In the
    scaled arithmetic each weight and table entry is a numerator over L,
    so a total of terms with p such factors is over L^p, and value(total,
    p) reads it back; the other two ignore p.
    """

    a: np.ndarray        # a(k), k = 0..n
    A: object            # prefix sums of a, indexed by k or an int array
    B: object            # prefix sums of the Dirichlet inverse of a
    weight: Callable     # w(k) = k^-s over an int array
    weight_each: Callable  # the same, one scalar w(k) per k
    value: Callable      # (total, p) -> float, int or Fraction
    one: int | float     # the closure's right-hand side
    kind: str            # Residual kind: "exact" or "float"

    def parts(self, weights: np.ndarray, qs: np.ndarray) -> list:
        """The extraction parts of the float terms, or the exact total."""
        if self.kind == "float":
            return _exact_parts(weights * self.B[qs])
        return [_grouped_sum(weights, qs, self.B)]

    def add(self, parts) -> int | float:
        return fsum(parts) if self.kind == "float" else sum(parts)

    def total(self, weights: np.ndarray, qs: np.ndarray) -> int | float:
        return self.add(self.parts(weights, qs))

    def residual(self, value, lhs, rhs, tolerance) -> Residual:
        if self.kind == "exact":
            return Residual("exact", lhs, rhs, exact_value=value)
        return Residual("float", lhs, rhs, float_value=value, tolerance=(
            DEFAULT_TOLERANCE if tolerance is None else tolerance))


def _arith(pair: _Pair, n: int, s: float, mode: str,
           cache: SequenceCache | None) -> _Arith:
    """The arithmetic of `mode` ("exact" or "float") at s for tables to
    n, as the module docstring lists them.  Exact at s = 1 reads the
    cache's ScaledSums for n, over lcm(1..n) or a multiple of it; a
    larger denominator changes no value, since every result is a
    normalised Fraction."""
    cache = _covering(cache, n)
    a = pair.values(cache.mu[:n + 1])
    if mode == "float":
        e = -float(s)

        def power_each(k):
            # Python's pow, which can differ from numpy's array pow in
            # the last bit; the reports pin both.
            return np.fromiter((v ** e for v in k.tolist()), np.float64,
                               len(k))

        A, B = pair.ab(_Lazy(cache.harmonic_float, s),
                       _Lazy(cache.oscillatory_float, s))
        return _Arith(a, A, B, lambda k: k.astype(np.float64) ** e,
                      power_each, lambda v, p: float(v), 1.0, "float")
    if s == 0:
        A, B = pair.ab(_Count(), cache.mertens)
        return _Arith(a, A, B, lambda k: 1, lambda k: 1, lambda v, p: int(v),
                      1, "exact")
    ss = cache.exact_sums(n)
    L = ss.denominator
    A, B = pair.ab(ss.harmonic_num, ss.oscillatory_num)
    return _Arith(a, A, B, ss.weights.__getitem__, ss.weights.__getitem__,
                  lambda v, p: Fraction(v, L ** p), 1, "exact")


# --- the three shapes -------------------------------------------------------

def _closure(pair: _Pair, x: int, s: float, mode: str,
             cache: SequenceCache | None, tolerance: float | None,
             j: int | None = None) -> Residual:
    """sum_{i<=x} a(i) w(i) B_{floor(n/i)} = 1, n = x or floor(x^2/j).

    floor(x^2/ij) = floor(floor(x^2/j)/i), so the nested form is the
    closure restated at n = floor(x^2/j) <= x.
    """
    n = x if j is None else x * x // j
    ar = _arith(pair, x, s, mode, cache)
    i = np.arange(1, x + 1, dtype=np.int64)
    lhs = ar.value(ar.total(ar.a[1:x + 1] * ar.weight(i), n // i), 2)
    return ar.residual(lhs - ar.one, lhs, ar.one, tolerance)


def _tail(pair: _Pair, x: int, s: float, mode: str,
          cache: SequenceCache | None, tolerance: float | None) -> Residual:
    """The tail, column i over x < j <= floor(x^2/i):
    sum (w(j)a(j))(w(i)a(i)) B_{floor(x^2/ij)} = A_{x^2} - A_x.

    A pair with ij > x^2 would read B_0 = 0, so the columns hold about
    x^2 ln x terms.  The complementary head form (A_x minus the same
    double sum over i, j <= x) and the tail grouped column by column are
    checked too; one that disagrees while the main check passes is
    reported instead.  Each column is kept only as its parts, so the
    work holds the per-j weights and one column at a time.
    """
    xx = x * x
    ar = _arith(pair, xx, s, mode, cache)
    a, i = ar.a, np.arange(1, x + 1, dtype=np.int64)
    wa_i = ar.weight(i) * a[1:x + 1]
    js = np.flatnonzero(a[1:xx + 1]) + 1  # the j <= x^2 with a(j) != 0
    # Floats peak near 57 bytes per j (js, weights, and the ints read by
    # power_each or a column); exact s = 1 takes more, but only to x = 12.
    check_capacity(64 * len(js), "tail sum weights and columns")
    wa_j = ar.weight_each(js) * a[js]
    h = int(np.searchsorted(js, x, side="right"))  # js[:h] are the j <= x
    head = ar.total(np.multiply.outer(wa_j[:h], wa_i).ravel(),
                    (xx // np.multiply.outer(js[:h], i)).ravel())
    head_form = ar.value(ar.A[x], 1) - ar.value(head, 3)
    ends = np.searchsorted(js, xx // i, side="right").tolist()
    columns = [ar.parts(wa_j[h:end] * w, xx // (js[h:end] * col))
               for col, w, end in zip(range(1, x + 1), wa_i, ends)]
    lhs = ar.value(ar.add(v for parts in columns for v in parts), 3)
    rhs = ar.value(ar.A[xx] - ar.A[x], 1)
    grouped = ar.value(ar.add(ar.add(parts) for parts in columns), 3)
    res = ar.residual(lhs - rhs, lhs, rhs, tolerance)
    for other in (head_form, grouped):
        check = ar.residual(lhs - other, lhs, rhs, tolerance)
        if res.passed and not check.passed:
            res = check
    return res


def _square(pair: _Pair, x: int, s: float, mode: str,
            cache: SequenceCache | None, tolerance: float | None) -> Residual:
    """A_{x^2} = 2 A_x - sum_p c_p w(p) B_{floor(x^2/p)}, where c_p sums
    a(i)a(j) over the products ij = p with i, j <= x; (p, c_p) come from
    the cache's grow-only product state.
    """
    xx = x * x
    cache = _covering(cache, xx)
    ps, cs = cache._products(x, pair.kind)
    ar = _arith(pair, xx, s, mode, cache)
    inner = ar.value(ar.total(cs * ar.weight(ps), xx // ps), 2)
    lhs = ar.value(ar.A[xx], 1)
    rhs = 2 * ar.value(ar.A[x], 1) - inner
    return ar.residual(lhs - rhs, lhs, rhs, tolerance)


def _fraction_form(pair: _Pair, x: int, s: float, mode: str,
                   cache: SequenceCache | None,
                   tolerance: float | None) -> Residual:
    """eq18.  The floor/fraction split x^2/ij = floor + frac ties it to
    eq17: sum mu mu floor(x^2/ij) + sum mu mu frac(x^2/ij) = x^2 m_x^2,
    and the exact path certifies that bridge together with the identity
    itself.  Both modes take floor and remainder from one divmod per
    pair (i, j) of squarefree i, j <= x; exact mode then checks the
    pairwise floor total equal to sum_p c_p floor(x^2/p) over the
    cache's Mobius products, the sum eq17 groups by quotient.  eq18
    exists only for (mu, 1) at s = 1: m_x is the arithmetic's A at x,
    and M_{x^2} is read from the cache's integer table.
    """
    xx = x * x
    cache = _covering(cache, xx)
    ar = _arith(pair, x, s, mode, cache)
    lhs, mertens_x = int(cache.mertens[xx]), int(cache.mertens[x])
    sq = np.flatnonzero(cache.mu[1:x + 1]) + 1
    mu_sq = cache.mu[sq].astype(np.int64)
    prods = np.multiply.outer(sq, sq)
    q, r = np.divmod(xx, prods)
    if mode == "exact":
        m, w = ar.A[x], ar.weight(sq)  # m_x and the w(i), over L
        # x^2 <= RATIONAL_BOUND^2, so the floor total fits in int64; the
        # remainders meet the big-integer weights once per row.
        floor_sum = int(mu_sq @ q @ mu_sq)
        frac_num = int(np.dot(mu_sq * w, (r * mu_sq).astype(object) @ w))
        # x^2 m_x^2 less the fractional parts is the floor total.
        floors = ar.value(xx * m * m - frac_num, 2)
        rhs = 2 * mertens_x - floors
        val = lhs - rhs
        if val == 0 and floors != floor_sum:
            val = floors - floor_sum
        ps, cs = cache._products(x, "mobius")
        by_product = int(np.dot(cs, xx // ps))
        if val == 0 and floor_sum != by_product:
            val = Fraction(by_product - floor_sum)
        return ar.residual(val, lhs, rhs, tolerance)
    m_f = ar.value(ar.A[x], 1)
    mu_f = mu_sq.astype(np.float64)
    frac_sum = _exact_sum((np.multiply.outer(mu_f, mu_f) * r / prods).ravel())
    rhs = 2.0 * mertens_x - xx * m_f * m_f + frac_sum
    return ar.residual(lhs - rhs, float(lhs), rhs, tolerance)


# --- the catalogue ----------------------------------------------------------

class CatalogueEntry(NamedTuple):
    """How one identity is checked."""

    verify: Callable[..., Residual]  # (pair, x, s, mode, cache, tolerance[, j])
    pair: _Pair
    exact_bound: int                 # largest x run exact at s = 1
    reach: int                       # its tables index up to x ** reach
    s: float | None = None           # pinned exponent (None: the caller's)
    needs_j: bool = False            # takes the nested point j in [x, x^2]


_CLOSURE = dict(verify=_closure, exact_bound=RATIONAL_BOUND, reach=1)
_TAIL = dict(verify=_tail, exact_bound=TAIL_EXACT_BOUND, reach=2)
_SQUARE = dict(verify=_square, exact_bound=RATIONAL_SQUARE_BOUND, reach=2)

# In catalogue order, which is the order of Identity.
CATALOGUE = {
    Identity.EQ1: CatalogueEntry(pair=_ONE_MU, **_CLOSURE),
    Identity.EQ2: CatalogueEntry(pair=_ONE_MU, needs_j=True, **_CLOSURE),
    Identity.EQ3: CatalogueEntry(pair=_ONE_MU, **_TAIL),
    Identity.EQ5: CatalogueEntry(pair=_ONE_MU, **_SQUARE),
    Identity.EQ6: CatalogueEntry(pair=_ONE_MU, s=0.0, **_SQUARE),
    Identity.EQ7: CatalogueEntry(pair=_ONE_MU, s=1.0, **_SQUARE),
    Identity.EQ11: CatalogueEntry(pair=_MU_ONE, **_CLOSURE),
    Identity.EQ12: CatalogueEntry(pair=_MU_ONE, needs_j=True, **_CLOSURE),
    Identity.EQ13: CatalogueEntry(pair=_MU_ONE, **_TAIL),
    Identity.EQ15: CatalogueEntry(pair=_MU_ONE, **_SQUARE),
    Identity.EQ16: CatalogueEntry(pair=_MU_ONE, s=1.0, **_SQUARE),
    Identity.EQ17: CatalogueEntry(pair=_MU_ONE, s=0.0, **_SQUARE),
    Identity.EQ18: CatalogueEntry(
        verify=_fraction_form, pair=_MU_ONE, exact_bound=RATIONAL_BOUND,
        reach=2, s=1.0),
}


def verify_case(case: IdentityCase, cache: SequenceCache | None = None,
                tolerance: float | None = None, *,
                memo: dict | None = None) -> Residual:
    """Run one IdentityCase through its catalogue entry.

    Identities pinned at s = 0 are integer counting forms and always run
    exact.  Otherwise "auto" runs exact at s = 0, and at s = 1 when x is
    within the entry's exact bound, and float elsewhere.  IdentityCase
    has refused the cases its entry cannot run.

    `memo`, when given, maps each resolved case (verifier, pair, x, j,
    s, mode) to its Residual, so cases that resolve alike share one
    evaluation: eq7 reuses eq5 at s = 1, eq16 reuses eq15, and eq6
    reuses eq5 at s = 0.  A memo serves one cache and one tolerance.
    """
    entry = CATALOGUE[case.identity]
    x, s, mode = case.x, case.s, case.mode
    if entry.s is not None:
        s = entry.s
        mode = "exact" if s == 0 else mode
    bound = entry.exact_bound
    if mode == "auto":
        mode = "exact" if s == 0 or (s == 1 and x <= bound) else "float"
    key = (entry.verify, entry.pair, x, case.j, s, mode)
    if memo is not None and key in memo:
        return memo[key]
    args = (entry.pair, x, s, mode, cache, tolerance)
    args += (case.j,) if entry.needs_j else ()
    res = entry.verify(*args)
    if memo is not None:
        memo[key] = res
    return res


# --- public verifiers, one per identity -------------------------------------

def _run(identity: Identity, x: int, j: int | None, s: float, mode: str,
         cache: SequenceCache | None, tolerance: float | None) -> Residual:
    return verify_case(IdentityCase(identity, x, j, s, mode), cache, tolerance)


def verify_eq1(x: int, s: float = 1.0, mode: str = "auto",
               cache: SequenceCache | None = None,
               tolerance: float | None = None) -> Residual:
    """sum_{i<=x} i^-s M_{floor(x/i)}(s) = 1."""
    return _run(Identity.EQ1, x, None, s, mode, cache, tolerance)


def verify_eq2(x: int, j: int, s: float = 1.0, mode: str = "auto",
               cache: SequenceCache | None = None,
               tolerance: float | None = None) -> Residual:
    """sum_{i<=x} i^-s M_{floor(x^2/ij)}(s) = 1 for x <= j <= x^2."""
    return _run(Identity.EQ2, x, j, s, mode, cache, tolerance)


def verify_eq3(x: int, s: float = 1.0, mode: str = "auto",
               cache: SequenceCache | None = None,
               tolerance: float | None = None) -> Residual:
    """Tail sum of i^-s j^-s M_{floor(x^2/ij)}(s) equals H_{x^2} - H_x."""
    return _run(Identity.EQ3, x, None, s, mode, cache, tolerance)


def verify_eq5(x: int, s: float = 1.0, mode: str = "auto",
               cache: SequenceCache | None = None,
               tolerance: float | None = None) -> Residual:
    """H_{x^2}(s) = 2 H_x(s) - sum_{i,j<=x} (ij)^-s M_{floor(x^2/ij)}(s)."""
    return _run(Identity.EQ5, x, None, s, mode, cache, tolerance)


def verify_eq6(x: int, cache: SequenceCache | None = None) -> Residual:
    """Counting form of eq5: x^2 = 2x - sum_{i,j<=x} M(floor(x^2/ij))."""
    return _run(Identity.EQ6, x, None, 0.0, "exact", cache, None)


def verify_eq7(x: int, mode: str = "auto",
               cache: SequenceCache | None = None,
               tolerance: float | None = None) -> Residual:
    """eq5 at s = 1, the harmonic/oscillatory square identity."""
    return _run(Identity.EQ7, x, None, 1.0, mode, cache, tolerance)


def verify_eq11(x: int, s: float = 1.0, mode: str = "auto",
                cache: SequenceCache | None = None,
                tolerance: float | None = None) -> Residual:
    """sum_{i<=x} mu(i) i^-s H_{floor(x/i)}(s) = 1, the mirror closure."""
    return _run(Identity.EQ11, x, None, s, mode, cache, tolerance)


def verify_eq12(x: int, j: int, s: float = 1.0, mode: str = "auto",
                cache: SequenceCache | None = None,
                tolerance: float | None = None) -> Residual:
    """Mirror closure at the nested point floor(x^2/j), x <= j <= x^2."""
    return _run(Identity.EQ12, x, j, s, mode, cache, tolerance)


def verify_eq13(x: int, s: float = 1.0, mode: str = "auto",
                cache: SequenceCache | None = None,
                tolerance: float | None = None) -> Residual:
    """Tail sum of mu(i)mu(j)(ij)^-s H_{floor(x^2/ij)}(s) equals
    M_{x^2}(s) - M_x(s); complementary head form checked alongside."""
    return _run(Identity.EQ13, x, None, s, mode, cache, tolerance)


def verify_eq15(x: int, s: float = 1.0, mode: str = "auto",
                cache: SequenceCache | None = None,
                tolerance: float | None = None) -> Residual:
    """M_{x^2}(s) = 2 M_x(s) - sum_{i,j<=x} mu(i)mu(j)(ij)^-s H_{floor(x^2/ij)}(s)."""
    return _run(Identity.EQ15, x, None, s, mode, cache, tolerance)


def verify_eq16(x: int, mode: str = "auto",
                cache: SequenceCache | None = None,
                tolerance: float | None = None) -> Residual:
    """eq15 at s = 1."""
    return _run(Identity.EQ16, x, None, 1.0, mode, cache, tolerance)


def verify_eq17(x: int, cache: SequenceCache | None = None) -> Residual:
    """Integer form of eq15: M_{x^2} = 2 M_x - sum mu(i)mu(j) floor(x^2/ij)."""
    return _run(Identity.EQ17, x, None, 0.0, "exact", cache, None)


def verify_eq18(x: int, mode: str = "auto",
                cache: SequenceCache | None = None,
                tolerance: float | None = None) -> Residual:
    """M_{x^2} = 2 M_x - x^2 m_x^2 + sum_{i,j<=x} mu(i)mu(j) frac(x^2/ij).

    An exact pass also checks the pairwise floor total equal to
    sum_p c_p floor(x^2/p) over the cache's Mobius products, the sum
    eq17 groups by quotient (eq17's zero residual certifies that).
    """
    return _run(Identity.EQ18, x, None, 1.0, mode, cache, tolerance)
