"""Identity verifiers: exact-zero certification and float agreement.

Oracles here are independent brute-force evaluations (naive double and
triple loops over (i, j) with no grouping), compared against the grouped
paths bit-for-bit where both sides are integer-valued.
"""

from fractions import Fraction
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mertenskit import (
    Identity,
    IdentityCase,
    Residual,
    SequenceCache,
    convolution_coeffs,
    verify_case,
    verify_eq1,
    verify_eq2,
    verify_eq3,
    verify_eq5,
    verify_eq6,
    verify_eq7,
    verify_eq11,
    verify_eq12,
    verify_eq13,
    verify_eq15,
    verify_eq16,
    verify_eq17,
    verify_eq18,
)
from mertenskit.identities import _MU_ONE, _ONE_MU, _arith
from mertenskit.sequences import ExactModeError, RationalBoundError, _exact_sum


# --- case plumbing --------------------------------------------------------

def test_identity_case_validation():
    IdentityCase(Identity.EQ2, 5, 25, 0.0, "exact")
    with pytest.raises(ValueError):
        IdentityCase(Identity.EQ2, 5, None)          # j required
    with pytest.raises(ValueError):
        IdentityCase(Identity.EQ2, 5, 4)             # j < x
    with pytest.raises(ValueError):
        IdentityCase(Identity.EQ2, 5, 26)            # j > x^2
    with pytest.raises(ValueError):
        IdentityCase(Identity.EQ1, 5, 7)             # j forbidden
    with pytest.raises(ValueError):
        IdentityCase(Identity.EQ6, 5, s=1.0)         # pinned at s=0
    with pytest.raises(ValueError):
        IdentityCase(Identity.EQ18, 5, s=0.0)        # pinned at s=1
    with pytest.raises(ValueError):
        IdentityCase(Identity.EQ1, 0)
    with pytest.raises(ValueError):
        IdentityCase(Identity.EQ1, 5, mode="quick")


def test_identity_case_refuses_what_no_verifier_runs():
    # Refused where the case is built, with the errors verify_case
    # raised when it evaluated the case.
    with pytest.raises(ExactModeError, match="got s = 0.5"):
        IdentityCase(Identity.EQ1, 10, s=0.5, mode="exact")
    with pytest.raises(RationalBoundError, match="x <= 60, got x = 61"):
        IdentityCase(Identity.EQ7, 61, mode="exact")
    with pytest.raises(RationalBoundError, match="x <= 12, got x = 13"):
        IdentityCase(Identity.EQ3, 13, mode="exact")
    IdentityCase(Identity.EQ7, 61)                   # auto runs float
    IdentityCase(Identity.EQ13, 61, mode="float")    # tails run at any x
    IdentityCase(Identity.EQ6, 61, s=0.0, mode="exact")


def test_residual_pass_logic():
    assert Residual("exact", 1, 1, exact_value=0).passed
    assert not Residual("exact", 1, 2, exact_value=Fraction(1, 3)).passed
    assert Residual("float", 1.0, 1.0, float_value=1e-12, tolerance=1e-9).passed
    assert not Residual("float", 1.0, 1.0, float_value=2e-9,
                        tolerance=1e-9).passed


# --- convolution coefficients ----------------------------------------------

def test_convolution_oracle_x2():
    plain = convolution_coeffs(2, "plain")
    assert {p: plain[p] for p in (1, 2, 3, 4)} == {1: 1, 2: 2, 3: 0, 4: 1}
    mob = convolution_coeffs(2, "mobius")
    assert {p: mob[p] for p in (1, 2, 3, 4)} == {1: 1, 2: -2, 3: 0, 4: 1}


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=25, deadline=None)
def test_convolution_sums(x):
    cache = SequenceCache(x * x)
    plain = convolution_coeffs(x, "plain", cache)
    mob = convolution_coeffs(x, "mobius", cache)
    # Total pair count and total mu-weight collapse to x^2 and M_x^2.
    assert int(plain.coeffs.sum()) == x * x
    assert int(mob.coeffs.sum()) == int(cache.mertens[x]) ** 2


def test_convolution_matches_bruteforce():
    for x in (3, 7, 12):
        cache = SequenceCache(x * x)
        mu = cache.mu
        plain = np.zeros(x * x + 1, dtype=np.int64)
        mob = np.zeros(x * x + 1, dtype=np.int64)
        for i in range(1, x + 1):
            for j in range(1, x + 1):
                plain[i * j] += 1
                mob[i * j] += int(mu[i]) * int(mu[j])
        assert np.array_equal(convolution_coeffs(x, "plain").coeffs, plain)
        assert np.array_equal(convolution_coeffs(x, "mobius").coeffs, mob)


def test_convolution_rejects_bad_kind():
    with pytest.raises(ValueError):
        convolution_coeffs(3, "fast")


# --- the one reduction -------------------------------------------------------

@pytest.mark.parametrize("mode, s", [("float", 0.5), ("exact", 0.0),
                                     ("exact", 1.0)])
@pytest.mark.parametrize("size", [0, 1, 9, 300])
def test_arith_total_is_the_ungrouped_sum(cache_small, mode, s, size):
    # Every shape sums weights * B[qs] through _Arith.  An exact total
    # adds the weights of each quotient first (from 64 terms on, so 300
    # terms group and 9 do not) and must equal the plain integer sum of
    # the products; a float total is the exactly rounded sum of the terms
    # as written, bit for bit.  The quotients are unsorted with repeats
    # and include B_0 = 0; every tail case ends on an empty column.
    rng = np.random.default_rng(size)
    for pair in (_ONE_MU, _MU_ONE):
        ar = _arith(pair, 120, s, mode, cache_small)
        ks = rng.integers(1, 121, size)
        weights = ar.a[ks] * ar.weight(ks)
        qs = rng.integers(0, 12, size)
        got = ar.total(weights, qs)
        half = size // 2
        split = ar.add(ar.parts(weights[:half], qs[:half])
                       + ar.parts(weights[half:], qs[half:]))
        if mode == "float":
            want = _exact_sum(weights * ar.B[qs])
            assert got.hex() == split.hex() == want.hex(), pair
        else:
            want = sum(int(w) * int(b) for w, b in
                       zip(weights.tolist(), ar.B[qs].tolist()))
            assert got == split == want, pair


# --- exact zero residuals across the catalogue ------------------------------

@pytest.mark.parametrize("s", [0.0, 1.0])
def test_window_identities_exact(cache_small, s):
    for x in range(1, 61):
        assert verify_eq1(x, s, "exact", cache_small).exact_value == 0, x
        assert verify_eq11(x, s, "exact", cache_small).exact_value == 0, x


@pytest.mark.parametrize("s", [0.0, 1.0])
def test_nested_window_identities_exact(cache_small, s):
    for x in (2, 5, 12, 30):
        for j in sorted({x, x + 1, (x + x * x) // 2, x * x - 1, x * x}):
            r = verify_eq2(x, j, s, "exact", cache_small)
            assert r.exact_value == 0, (x, j)
            r = verify_eq12(x, j, s, "exact", cache_small)
            assert r.exact_value == 0, (x, j)


def test_eq2_rejects_bad_j(cache_small):
    with pytest.raises(ValueError):
        verify_eq2(5, 4, 0.0, "exact", cache_small)
    with pytest.raises(ValueError):
        verify_eq12(5, 26, 0.0, "exact", cache_small)


@pytest.mark.parametrize("s", [0.0, 1.0])
def test_tail_double_sums_exact(cache_small, s):
    # Both summation orders and the complementary head form are folded
    # into the verifier; a zero residual certifies all three.
    for x in range(1, 13):
        assert verify_eq3(x, s, "exact", cache_small).exact_value == 0, x
        assert verify_eq13(x, s, "exact", cache_small).exact_value == 0, x


def test_square_identities_exact_s0(cache_small):
    for x in range(1, 81):
        assert verify_eq6(x, cache_small).exact_value == 0, x
        assert verify_eq17(x, cache_small).exact_value == 0, x


def test_square_identities_exact_s1(cache_small):
    for x in range(1, 31):
        assert verify_eq7(x, "exact", cache_small).exact_value == 0, x
        assert verify_eq16(x, "exact", cache_small).exact_value == 0, x


def test_fraction_form_exact(cache_small):
    for x in range(1, 41):
        r = verify_eq18(x, "exact", cache_small)
        assert r.kind == "exact" and r.exact_value == 0, x


def mu_plain(n):
    """mu(0..n) by a plain sieve of Eratosthenes, mu(0) = 0."""
    mu, prime = [0] + [1] * n, [True] * (n + 1)
    for p in range(2, n + 1):
        if prime[p]:
            for m in range(p, n + 1, p):
                prime[m] = m == p
                mu[m] = -mu[m]
            for m in range(p * p, n + 1, p * p):
                mu[m] = 0
    return mu


@pytest.mark.parametrize("xs", [range(2, 41), (199, 200)],
                         ids=["2..40", "199-200"])
def test_fraction_form_exact_matches_pairwise_fractions(xs):
    # M_{x^2} against 2 M_x - x^2 m_x^2 + sum mu(i)mu(j) frac(x^2/ij),
    # one Fraction per pair (i, j).
    mu = mu_plain(max(xs) ** 2)
    cache = SequenceCache(max(xs) ** 2)
    for x in xs:
        xx = x * x
        m_x = sum(Fraction(mu[k], k) for k in range(1, x + 1))
        frac = sum(Fraction(mu[i] * mu[j] * (xx % (i * j)), i * j)
                   for i in range(1, x + 1) if mu[i]
                   for j in range(1, x + 1) if mu[j])
        lhs = sum(mu[1:xx + 1])
        rhs = 2 * sum(mu[1:x + 1]) - xx * m_x * m_x + frac
        r = verify_eq18(x, "exact", cache)
        assert (r.lhs, r.rhs, r.exact_value) == (lhs, rhs, lhs - rhs), x
        assert r.passed and lhs == rhs, x


# --- naive vs grouped -------------------------------------------------------

def test_square_identity_naive_double_loop_int(cache_small):
    # Integer-valued inner function: grouped and naive sums must agree
    # bit-for-bit, not just within tolerance.
    for x in (5, 17, 40):
        xx = x * x
        mer = cache_small.mertens
        naive = sum(int(mer[xx // (i * j)])
                    for i in range(1, x + 1) for j in range(1, x + 1))
        ps, cs = convolution_coeffs(x, "plain", cache_small).nonzero()
        grouped = int(np.dot(cs, mer[xx // ps]))
        assert naive == grouped
        # The identity itself: x^2 = 2x - sum.
        assert xx == 2 * x - naive


def test_square_identity_naive_double_loop_float(cache_square):
    # Float inner function: naive per-pair fsum vs grouped-by-product
    # fsum agree to near machine precision.
    for x in (5, 23, 60):
        xx = x * x
        m = cache_square.oscillatory_float(1.0)
        naive = fsum(m[xx // (i * j)] / (i * j)
                     for i in range(1, x + 1) for j in range(1, x + 1))
        ps, cs = convolution_coeffs(x, "plain", cache_square).nonzero()
        grouped = fsum((cs / ps * m[xx // ps]).tolist())
        assert abs(naive - grouped) <= 1e-12


def test_tail_sum_naive_triple_loop(cache_small):
    # Naive j-outer triple loop at s=0 agrees with the verifier's lhs.
    for x in (3, 6, 10):
        xx = x * x
        mer = cache_small.mertens
        naive = sum(int(mer[xx // (j * i)])
                    for j in range(x + 1, xx + 1) for i in range(1, x + 1))
        r = verify_eq3(x, 0.0, "exact", cache_small)
        assert r.lhs == naive
        assert naive == xx - x  # H at s=0 telescopes to the count


# --- float paths -------------------------------------------------------------

@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_window_identities_float(cache_small, s):
    for x in (10, 137, 1000):
        assert verify_eq1(x, s, "float", cache_small).passed, (x, s)
        assert verify_eq11(x, s, "float", cache_small).passed, (x, s)


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_square_identities_float(cache_square, s):
    for x in (30, 150, 400):
        assert verify_eq5(x, s, "float", cache_square).passed, (x, s)
        assert verify_eq15(x, s, "float", cache_square).passed, (x, s)


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_tail_double_sums_float(cache_small, s):
    for x in (5, 25, 60):
        assert verify_eq3(x, s, "float", cache_small).passed, (x, s)
        assert verify_eq13(x, s, "float", cache_small).passed, (x, s)


def _tail_lhs_outer_product(mobius, x, s, cache):
    """The float tail lhs as the full (x^2 - x) by x outer product over
    x < j <= x^2 and i <= x, the pairs with ij > x^2 (they read B_0 = 0)
    included, summed with math.fsum.  Each w(j) is Python's scalar pow."""
    xx = x * x
    a = cache.mu[:xx + 1] if mobius else np.ones(xx + 1, dtype=np.int64)
    b = cache.harmonic_float(s) if mobius else cache.oscillatory_float(s)
    i = np.arange(1, x + 1, dtype=np.int64)
    js = np.array([j for j in range(x + 1, xx + 1) if a[j]], dtype=np.int64)
    wa_j = np.array([float(j) ** -s * int(a[j]) for j in js.tolist()])
    wa_i = i.astype(np.float64) ** -s * a[1:x + 1]
    terms = (np.multiply.outer(wa_j, wa_i)
             * b[xx // np.multiply.outer(js, i)])
    return fsum(terms.ravel().tolist())


@pytest.mark.parametrize("x", [61, 75])
@pytest.mark.parametrize("s", [1.0, 0.5])
def test_tail_lhs_matches_full_outer_product_bit_for_bit(cache_small, x, s):
    # Past x = 60 and at an s where numpy's pow and Python's differ:
    # summing column i only to floor(x^2/i) drops exact zeros, so the
    # exactly rounded total keeps every bit of the full form.
    for verify, mobius in ((verify_eq3, False), (verify_eq13, True)):
        res = verify(x, s, "float", cache_small)
        want = _tail_lhs_outer_product(mobius, x, s, cache_small)
        assert res.passed and res.lhs.hex() == want.hex(), (verify, x, s)


def test_fraction_form_float_beyond_rational_bound(cache_square):
    r = verify_eq18(300, "auto", cache_square)
    assert r.kind == "float" and r.passed


# (lhs, rhs, residual) of float eq18 just past the rational bound, from
# the per-row evaluation the vectorised one replaced.  fsum is exactly
# rounded, so the terms' order cannot move a bit.
EQ18_FLOAT = {
    201: (-11.0, -10.999999999999993, -7.105427357601002e-15),
    202: (2.0, 2.0000000000000036, -3.552713678800501e-15),
    203: (4.0, 4.000000000000011, -1.0658141036401503e-14),
    204: (-17.0, -16.999999999999996, -3.552713678800501e-15),
    205: (-42.0, -42.0, 0.0),
}


def test_fraction_form_float_values_pinned(cache_square):
    for x, want in EQ18_FLOAT.items():
        r = verify_eq18(x, "float", cache_square)
        got = (r.lhs, r.rhs, r.float_value)
        assert [v.hex() for v in got] == [v.hex() for v in want], x


def test_float_residuals_are_tiny(cache_square):
    # Residuals should sit many orders below the default tolerance.
    worst = max(abs(verify_eq7(x, "float", cache_square).float_value)
                for x in (100, 500, 1000))
    assert worst < 1e-12


def test_tolerance_is_respected(cache_small):
    r = verify_eq7(50, "float", cache_small, tolerance=1e-30)
    assert r.tolerance == 1e-30
    r = verify_eq7(50, "float", cache_small, tolerance=10.0)
    assert r.passed


# --- mode resolution ----------------------------------------------------------

def test_auto_mode_picks_exact_within_bounds(cache_small):
    assert verify_eq7(60, "auto", cache_small).kind == "exact"
    assert verify_eq7(61, "auto", cache_small).kind == "float"
    assert verify_eq18(200, "auto", cache_small).kind == "exact"
    assert verify_eq18(201, "auto", cache_small).kind == "float"
    assert verify_eq1(200, 1.0, "auto", cache_small).kind == "exact"
    assert verify_eq1(201, 1.0, "auto", cache_small).kind == "float"


def test_exact_mode_bound_errors(cache_small):
    with pytest.raises(RationalBoundError):
        verify_eq7(61, "exact", cache_small)
    with pytest.raises(RationalBoundError):
        verify_eq1(201, 1.0, "exact", cache_small)
    with pytest.raises(ExactModeError):
        verify_eq1(10, 0.5, "exact", cache_small)


@given(st.integers(min_value=1, max_value=300))
@settings(max_examples=60, deadline=None)
def test_eq1_closure_property_random_x(x):
    cache = SequenceCache(300)
    assert verify_eq1(x, 0.0, "exact", cache).exact_value == 0


def test_memo_shares_cases_that_resolve_alike(cache_small):
    memo = {}

    def run(identity, x, s=1.0, mode="auto"):
        return verify_case(IdentityCase(identity, x, None, s, mode),
                           cache_small, memo=memo)

    for x, mode in ((10, "exact"), (100, "float")):
        eq5 = run(Identity.EQ5, x)
        assert eq5.kind == mode and run(Identity.EQ7, x) is eq5
        assert run(Identity.EQ16, x) is run(Identity.EQ15, x)
    assert run(Identity.EQ6, 10, 0.0) is run(Identity.EQ5, 10, 0.0)
    assert run(Identity.EQ7, 10, mode="float") is not run(Identity.EQ5, 10)
    assert run(Identity.EQ17, 10, 0.0) is not run(Identity.EQ6, 10, 0.0)


def test_eq18_cross_checks_the_mobius_products(monkeypatch):
    # eq18's exact cross-check ties its pairwise floor total to
    # sum_p c_p floor(x^2/p) over the cache's Mobius products: one c_p
    # off by one must fail it, while eq18's own residual still holds.
    def eq18():
        return verify_case(IdentityCase(Identity.EQ18, 30, mode="exact"),
                           SequenceCache(900))

    assert eq18().passed
    products = SequenceCache._products

    def off_by_one(self, x, kind):
        ps, cs = products(self, x, kind)
        if kind == "mobius":
            cs = cs.copy()
            cs[-1] += 1
        return ps, cs

    monkeypatch.setattr(SequenceCache, "_products", off_by_one)
    assert not eq18().passed


def test_dispatcher_covers_catalogue(cache_small):
    for ident in Identity:
        x = 6
        j = 20 if ident in (Identity.EQ2, Identity.EQ12) else None
        s = {Identity.EQ6: 0.0, Identity.EQ17: 0.0}.get(ident, 1.0)
        case = IdentityCase(ident, x, j, s, "auto")
        res = verify_case(case, cache_small)
        assert res.passed, ident
