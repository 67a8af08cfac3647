"""Prefix evaluators: Mertens, oscillatory, harmonic, and the cache.

Mertens spot values at powers of ten are the published ones; everything
else is checked against independent brute-force recomputation.
"""

import gc
import random
import tracemalloc
import weakref
from fractions import Fraction
from math import fsum, inf, isqrt, ldexp, log, nan

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mertenskit import (
    EULER_GAMMA,
    ExactModeError,
    RationalBoundError,
    SequenceCache,
    gamma_series,
    harmonic,
    mertens_sublinear,
    oscillatory,
)
from mertenskit import arith, sequences
from mertenskit.exact import ScaledSums
from mertenskit.identities import (
    convolution_coeffs,
    verify_eq1,
    verify_eq2,
    verify_eq11,
    verify_eq12,
    verify_eq15,
    verify_eq18,
)
from mertenskit.sequences import _compensated_cumsum, _exact_sum

# Published Mertens values M(10^k).
MERTENS_POWERS = {10: -1, 100: 1, 1000: 2, 10 ** 4: -23, 10 ** 5: -48,
                  10 ** 6: 212}


def test_mertens_oracle_small(cache_small):
    assert cache_small.mertens[10] == -1
    assert cache_small.mertens[9] == -2
    assert cache_small.mertens[1] == 1
    assert cache_small.mertens[2] == 0


def test_mertens_published_powers(cache_square):
    for x, expected in MERTENS_POWERS.items():
        assert cache_square.mertens[x] == expected
        assert mertens_sublinear(x) == expected


def test_mertens_sublinear_large_published():
    # OEIS A084237: M(10^9) and M(10^10).
    assert mertens_sublinear(10 ** 9) == -222
    assert mertens_sublinear(10 ** 10) == -33722


def test_sublinear_matches_sieve_randomized(cache_square):
    rng = random.Random(20260822)
    for _ in range(300):
        x = rng.randint(1, cache_square.limit)
        assert mertens_sublinear(x) == int(cache_square.mertens[x]), x


def test_sublinear_recursion_at_the_quotient_edges():
    # Over a base of 1024 every node runs head and tail.  The tail's
    # q_max = v//(d+1) is d - 1 for d^2 <= v < d^2 + d and d from d^2 + d
    # to (d+1)^2 - 1, so v sits on each side of that switch; every node
    # a call memoizes is checked as well.
    cache = SequenceCache(3 * 10 ** 6)
    tab = cache.mertens
    edges = [v for d in (33, 34, 35, 64, 100, 317, 1000, 1731)
             for v in (d * d - 1, d * d, d * d + d - 1, d * d + d,
                       (d + 1) ** 2 - 1)]
    rng = random.Random(20261019)
    for v in edges + [rng.randint(1025, 2 ** 16) for _ in range(2000)]:
        memo = {}
        assert sequences._mertens_recurse(v, tab, 1024, memo) == tab[v], v
        assert all(m == tab[u] for u, m in memo.items()), v


def test_float_quotients_are_floor_division():
    # Short divisor slices keep every array small.  v = q*i sits on a
    # quotient step and q*i - 1 just below it, up to the 2^53 limit.
    ks = np.arange(1, 65, dtype=np.float64)

    def check(v):
        got = sequences._quotients(v, ks)
        assert got.dtype == np.int64
        assert got.tolist() == [v // i for i in range(1, 65)], v

    rng = random.Random(20261020)
    for i in range(1, 65):
        top = (2 ** 53 - 1) // i
        for q in (1, 2, 3, 10 ** 6, top - 1, top):
            check(q * i)
            check(q * i - 1)
    for v in [0, 2 ** 53 - 1] + [rng.randrange(2 ** 53) for _ in range(2000)]:
        check(v)
    # 2^53 + 1 does not convert to float64 exactly, so only the int64
    # path gets it right.
    assert float(2 ** 53 + 1) / 1.0 == 2 ** 53
    check(2 ** 53)
    check(2 ** 53 + 1)
    # A divisor of 2.5 tells the paths apart: int64 truncates it to 2.
    half = np.array([2.5])
    assert sequences._quotients(2 ** 53 - 1, half)[0] == 3602879701896396
    assert sequences._quotients(2 ** 53, half)[0] == 2 ** 52
    assert sequences._quotients(2 ** 53 + 1, half)[0] == 2 ** 52


def test_sublinear_recursion_over_the_smallest_exact_table():
    # With tab_limit = isqrt(v) there are about isqrt(v) nodes, so the
    # big[n*i] reads run several levels deep; every node a call
    # memoizes is checked as well.
    cache = SequenceCache(3 * 10 ** 6)
    tab = cache.mertens
    edges = [v for d in (33, 34, 35, 64, 100, 317, 1000, 1731)
             for v in (d * d - 1, d * d, d * d + d - 1, d * d + d,
                       (d + 1) ** 2 - 1)]
    rng = random.Random(20261021)
    for v in edges + [1, 2, 3] + [rng.randint(1, 3 * 10 ** 6)
                                  for _ in range(100)]:
        memo = {}
        got = sequences._mertens_recurse(v, tab, isqrt(v), memo)
        assert got == tab[v], v
        assert all(m == tab[u] for u, m in memo.items()), v


def test_sublinear_neighbour_adds_only_its_new_quotients(cache_square):
    # After M(x), M(x - 1) computes only the quotients (x-1)//n above the
    # table that the memo lacks: those where n divides x.
    limit = 5000
    cache = SequenceCache(limit)
    memo = cache._sublinear_memo
    rng = random.Random(20261022)
    added = 0
    for x in [10 ** 6, 720720] + [rng.randint(10 ** 5, 10 ** 6)
                                  for _ in range(20)]:
        assert mertens_sublinear(x, cache) == cache_square.mertens[x], x
        before = set(memo)
        y = x - 1
        assert mertens_sublinear(y, cache) == cache_square.mertens[y], y
        quotients = {y // n for n in range(1, y // (limit + 1) + 1)}
        assert set(memo) - before == quotients - before, x
        added += len(quotients - before)
        assert all(x % n == 0 for n in range(1, y // (limit + 1) + 1)
                   if y // n not in before), x
    assert added > 0


def test_sublinear_reuses_supplied_cache(cache_small):
    assert mertens_sublinear(10 ** 4, cache_small) == -23
    assert mertens_sublinear(5, cache_small) == -2


def test_sublinear_agrees_over_the_cache_and_the_module_table(cache_square):
    # 10^6 entries cover the base table at 10^9, so the first and last
    # calls recurse over the cache's table and memo, the second over the
    # module's own base table and memo; each gives the published value.
    assert mertens_sublinear(10 ** 9, cache_square) == -222
    assert mertens_sublinear(10 ** 9) == -222
    assert mertens_sublinear(10 ** 9 + 1, cache_square) == -223  # mu = -1


def test_sublinear_memo_lives_with_the_callers_cache(monkeypatch):
    # Queries over a covering cache memoize into that cache, one entry per
    # quotient x//n above its table, and leave the module's cache alone.
    limit = 10 ** 5
    xs = range(10 ** 7, 10 ** 7 + 200)
    monkeypatch.setattr(sequences, "_base_cache", None)
    mertens_sublinear(xs[0])
    base = sequences._base_cache
    module_memo = dict(base._sublinear_memo)
    cache = SequenceCache(limit)
    values = [mertens_sublinear(x, cache) for x in xs]
    quotients = {x // n for x in xs for n in range(1, x // limit + 1)
                 if x // n > limit}
    assert len(cache._sublinear_memo) == len(quotients) == 1115
    assert sequences._base_cache is base
    assert base._sublinear_memo == module_memo
    gone = weakref.ref(cache)
    del cache
    gc.collect()
    assert gone() is None
    assert values[0] == mertens_sublinear(xs[0])
    assert values[-1] == mertens_sublinear(xs[-1])


def test_sublinear_base_is_one_grow_only_cache(monkeypatch):
    # A query past the module's base replaces it with a larger cache, and
    # the old cache, memo included, is freed.
    monkeypatch.setattr(sequences, "_base_cache", None)
    assert mertens_sublinear(10 ** 9) == -222
    old = weakref.ref(sequences._base_cache)
    assert old().limit == 10 ** 6 and old()._sublinear_memo
    assert mertens_sublinear(10 ** 10) == -33722
    gc.collect()
    assert old() is None
    assert sequences._base_cache.limit == 4_641_589
    assert mertens_sublinear(10 ** 9) == -222  # served by the larger base
    assert sequences._base_cache.limit == 4_641_589


def test_sublinear_base_serves_queries_up_to_twice_its_limit(monkeypatch):
    # M(2147484000) needs a base of 1 664 511, one value more than the
    # base M(2147482999) builds; half of that base still reaches
    # isqrt(2147484000) = 46 340 many times over, so the second query
    # recurses over the same base.
    built = []

    class CountingCache(SequenceCache):
        def __init__(self, limit):
            built.append(limit)
            super().__init__(limit)

    monkeypatch.setattr(sequences, "_base_cache", None)
    monkeypatch.setattr(sequences, "SequenceCache", CountingCache)
    assert mertens_sublinear(2147482999) == 9566
    assert mertens_sublinear(2147484000) == 9552
    assert built == [1_664_510]


def test_sublinear_uses_a_callers_cache_half_the_base(monkeypatch):
    # M(10^9) needs a base of 10^6; a cache of half that serves it.
    monkeypatch.setattr(sequences, "_base_cache", None)
    assert mertens_sublinear(10 ** 9, SequenceCache(500_000)) == -222
    assert sequences._base_cache is None


def test_sublinear_frees_the_old_base_before_building_the_next(monkeypatch):
    # Traced from before M(10^9), so its 5·10^6 B base counts while it
    # lives: the peak of M(10^10) must stay below that of its own base
    # built alone plus a fifth of the old one.
    monkeypatch.setattr(sequences, "_base_cache", None)
    tracemalloc.start()
    try:
        SequenceCache(4_641_589)
        alone = tracemalloc.get_traced_memory()[1]
        mertens_sublinear(10 ** 9)
        tracemalloc.reset_peak()
        assert mertens_sublinear(10 ** 10) == -33722
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sequences._base_cache.limit == 4_641_589
    assert peak < alone + 10 ** 6


def test_mertens_sublinear_pinned_at_1e11(monkeypatch):
    # OEIS A084237: M(10^11), over a base of 2.15·10^7 values.
    monkeypatch.setattr(sequences, "_base_cache", None)
    assert mertens_sublinear(10 ** 11) == -87856


def test_oscillatory_exact_oracles(cache_small):
    assert oscillatory(3, 1, "exact") == Fraction(1, 6)
    # m_4 = 1 - 1/2 - 1/3 = 1/6 as well (mu(4) = 0).
    assert oscillatory(4, 1, "exact") == Fraction(1, 6)
    assert oscillatory(10, 0, "exact", cache_small) == -1
    v = oscillatory(200, 1, "exact", cache_small)
    assert isinstance(v, Fraction) and v.denominator > 1


def test_oscillatory_exact_vs_float(cache_small):
    for x in (7, 50, 137, 200):
        exact = oscillatory(x, 1, "exact", cache_small)
        approx = oscillatory(x, 1, "float", cache_small)
        assert abs(approx - float(exact)) < 1e-13


def test_oscillatory_mode_errors():
    with pytest.raises(ExactModeError):
        oscillatory(10, 2, "exact")
    with pytest.raises(RationalBoundError):
        oscillatory(201, 1, "exact")
    with pytest.raises(ValueError):
        oscillatory(0, 1)
    with pytest.raises(ValueError):
        oscillatory(10, 1, "fast")


def test_harmonic_oracles():
    assert harmonic(4, 1, "exact") == Fraction(25, 12)
    assert harmonic(10, 1, "exact") == Fraction(7381, 2520)
    assert harmonic(7, 0, "exact") == 7
    assert harmonic(7, 0, "float") == 7.0
    with pytest.raises(ExactModeError):
        harmonic(10, 0.5, "exact")
    with pytest.raises(RationalBoundError):
        harmonic(500, 1, "exact")


def test_harmonic_float_matches_fsum():
    for x, s in [(1000, 1.0), (1000, 2.0), (500, 0.5)]:
        direct = fsum(1.0 / k ** s for k in range(1, x + 1))
        assert harmonic(x, s) == pytest.approx(direct, abs=1e-14)


def test_harmonic_asymptotic_error_shrinks():
    # H_x - (log x + gamma) ~ 1/(2x); check the 1/x envelope.
    errs = []
    for x in (10, 100, 1000):
        err = abs(float(harmonic(x, 1)) - (log(x) + EULER_GAMMA))
        assert err < 1.0 / x
        errs.append(err)
    assert errs[0] > errs[1] > errs[2]
    assert abs(float(harmonic(10, 1)) - (log(10) + EULER_GAMMA)) < 0.06


def test_cache_prefix_tables_match_onepass(cache_small):
    # Neumaier running sums vs exactly rounded fsum at sampled cuts.
    for s in (1.0, 0.5, 2.0):
        table = cache_small.harmonic_float(s)
        osc = cache_small.oscillatory_float(s)
        mu = cache_small.mu
        for k in (1, 2, 17, 400, 9999):
            hs = fsum(1.0 / i ** s for i in range(1, k + 1))
            ms = fsum(int(mu[i]) / i ** s for i in range(1, k + 1))
            assert table[k] == pytest.approx(hs, rel=1e-15, abs=1e-15)
            assert osc[k] == pytest.approx(ms, rel=1e-14, abs=1e-14)


def _neumaier_loop(terms):
    """The sequential Neumaier scan, one element at a time, after the
    empty sum."""
    out = [0.0]
    total = comp = 0.0
    for v in terms:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
        out.append(total + comp)
    return np.array(out, dtype=np.float64)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


_finite = st.floats(allow_nan=False, allow_infinity=False,
                    min_value=-1e20, max_value=1e20)


@st.composite
def _scan_inputs(draw):
    """Harmonic and oscillatory terms, or mixed magnitudes that cancel."""
    kind = draw(st.sampled_from(("harmonic", "oscillatory", "mixed")))
    if kind == "mixed":
        base = draw(st.lists(_finite, min_size=1, max_size=200))
        # Each value followed by its negation plus a tiny remainder.
        tiny = draw(st.lists(st.floats(-1e-12, 1e-12), min_size=len(base),
                             max_size=len(base)))
        terms = [t for v, e in zip(base, tiny) for t in (v, e - v)]
        return np.array(draw(st.permutations(terms)), dtype=np.float64)
    n = draw(st.integers(min_value=1, max_value=3000))
    s = draw(st.sampled_from((0.5, 1.0, 2.0, 0.25)))
    k = np.arange(1, n + 1, dtype=np.float64)
    terms = k ** -s
    if kind == "oscillatory":
        terms = terms * SequenceCache(n).mu[1:]
    return terms


@given(_scan_inputs())
@settings(max_examples=60, deadline=None)
def test_compensated_cumsum_is_the_sequential_loop_bit_for_bit(terms):
    assert np.array_equal(_bits(_compensated_cumsum(terms)),
                          _bits(_neumaier_loop(terms.tolist())))


def test_prefix_tables_at_s_one_and_zero_are_reciprocals_and_ones():
    # One pow serves every s: numpy's k ** -1.0 is 1.0 / k and k ** -0.0
    # is 1.0, bit for bit, so the tables equal scans of those terms.
    cache = SequenceCache(10 ** 5)
    k = np.arange(1, cache.limit + 1, dtype=np.float64)
    mu = cache.mu[1:]
    for s, terms in ((1.0, 1.0 / k), (0.0, np.ones_like(k))):
        assert np.array_equal(_bits(cache.harmonic_float(s)),
                              _bits(_compensated_cumsum(terms)))
        assert np.array_equal(_bits(cache.oscillatory_float(s)),
                              _bits(_compensated_cumsum(terms * mu)))


def test_compensated_cumsum_signed_zeros_and_extremes():
    terms = np.array([-0.0, -0.0, 1e300, -1e300, 5e-324, -0.0, 1.0, -1.0])
    assert np.array_equal(_bits(_compensated_cumsum(terms)),
                          _bits(_neumaier_loop(terms.tolist())))


def _sum_outcome(total, terms):
    """The bits of a sum, or the type of the error it raised."""
    try:
        return int(_bits([total(terms)])[0])
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _check_exact_sum(terms):
    terms = np.asarray(terms, dtype=np.float64)
    assert (_sum_outcome(_exact_sum, terms)
            == _sum_outcome(lambda t: fsum(t.tolist()), terms))


_SPECIALS = (0.0, -0.0, inf, -inf, nan, 1.7e308, -1.7e308, 8.9e307,
             5e-324, -5e-324, 2.2e-308, 1e-310)


@st.composite
def _sum_inputs(draw):
    """Vectors that cancel, with exponents spread over 2^-60..2^60 and
    sizes on both sides of 64, or terms of one sign near their maximum,
    some with special values mixed in."""
    if draw(st.booleans()):
        top = st.floats(0.5, 1.0, exclude_max=True)
        terms = draw(st.lists(top, min_size=32, max_size=400))
    else:
        spread = st.builds(ldexp, st.floats(-1, 1), st.integers(-60, 60))
        values = draw(st.lists(spread, max_size=120))
        # Cancel the large part: each value followed by a near negation.
        tiny = draw(st.lists(st.floats(-1e-12, 1e-12), min_size=len(values),
                             max_size=len(values)))
        terms = values + [e - v for v, e in zip(values, tiny)]
    terms += draw(st.lists(st.sampled_from(_SPECIALS), max_size=3))
    return draw(st.permutations(terms))


@given(_sum_inputs())
@settings(max_examples=300, deadline=None)
def test_exact_sum_is_fsum_bit_for_bit(terms):
    _check_exact_sum(terms)


_EDGE_SUMS = {
    "empty": [],
    "negative_zero": [-0.0],
    "negative_zeros": [-0.0] * 100,
    "signed_zeros": [0.0, -0.0] * 50,
    "nan": [nan] * 70,
    "inf": [inf] + [1.0] * 80,
    "inf_minus_inf": [inf, -inf] + [1.0] * 80,
    "overflow": [1.7e308] * 100,
    "near_max_cancelling": [1.7e308, -1.7e308] * 40,
    "near_max_in_range": [8.9e307, 8.9e307] + [-1.0] * 90,
    "smallest_subnormal": [5e-324] * 100,
    "subnormal_mixed": [2.2e-308, -1e-310] * 60,
    "tiny_normal": [1e-300] * 100,
    "absorbed_one": [ldexp(1.0, 53), 1.0, -ldexp(1.0, 53)] + [1.0] * 80,
    # One sign near the maximum: the partial sums of the high parts come
    # closest to sigma.
    "one_sign": np.random.default_rng(13).uniform(0.5, 1.0, 5000).tolist(),
}


@pytest.mark.parametrize("terms", list(_EDGE_SUMS.values()), ids=list(_EDGE_SUMS))
def test_exact_sum_edge_cases(terms):
    _check_exact_sum(terms)


def test_exact_sum_over_a_sweep_of_square_terms(cache_square):
    # The terms of eq7 at three x: large, cancelling and non-contiguous.
    h = cache_square.harmonic_float(1.0)
    for x in (300, 700, 1000):
        ps, cs = cache_square._products(x, "plain")
        terms = cs / ps * h[x * x // ps] * np.where(ps % 2, 1.0, -1.0)
        _check_exact_sum(terms)
        _check_exact_sum(terms[::3])


@pytest.mark.parametrize("xs", [
    range(1, 41),                  # ascending
    range(2, 41, 2),               # step 2
    range(40, 0, -3),              # descending: each request rebuilds
    (9, 19, 38, 12, 38, 1, 30),    # 375 -> 750 -> 1500 scaled down, then below
    (30, *range(2, 31)),           # a second sweep from below, as eq6 after eq5
    (150, 300),
], ids=["ascending", "step2", "descending", "jumps", "resweep", "large"])
@pytest.mark.parametrize("kind", ["plain", "mobius"])
def test_square_products_are_the_dense_coefficients(kind, xs):
    cache = SequenceCache(300 ** 2)
    for x in xs:
        ps, cs = cache._products(x, kind)
        want_ps, want_cs = convolution_coeffs(x, kind, cache).nonzero()
        assert len(np.unique(ps)) == len(ps), x
        assert (dict(zip(ps.tolist(), cs.tolist()))
                == dict(zip(want_ps.tolist(), want_cs.tolist()))), x


def test_window_identities_share_one_exact_table(monkeypatch):
    built = []
    init = ScaledSums.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ScaledSums, "__init__", counting_init)
    cache = SequenceCache(400)
    for x in (2, 7, 19, 20):
        for verify in (verify_eq1, verify_eq11, verify_eq18):
            assert verify(x, mode="exact", cache=cache).passed
        for verify in (verify_eq2, verify_eq12):
            assert verify(x, x + 1, mode="exact", cache=cache).passed
    m_200 = oscillatory(200, 1, "exact", cache=cache)
    h_150 = cache.exact_sums(150).harmonic(150)
    assert len(built) == 1
    # Without a cache, oscillatory() and harmonic() build their own table.
    assert m_200 == oscillatory(200, 1, "exact") == sum(
        Fraction(int(cache.mu[k]), k) for k in range(1, 201))
    assert h_150 == harmonic(150, 1, "exact") == sum(
        Fraction(1, k) for k in range(1, 151))


_COVERED_CALLS = {
    "gamma_series": lambda c: gamma_series(30, c),
    "verify_eq18": lambda c: verify_eq18(30, cache=c),
    "oscillatory-exact-s0": lambda c: oscillatory(30, 0, "exact", c),
    "oscillatory-exact-s1": lambda c: oscillatory(30, 1, "exact", c),
    "oscillatory-float": lambda c: oscillatory(30, 0.5, "float", c),
    "verify_eq15": lambda c: verify_eq15(30, cache=c),
}


@pytest.mark.parametrize("call", _COVERED_CALLS.values(), ids=_COVERED_CALLS)
def test_covering_cache_serves_the_call(call, cache_small, monkeypatch):
    # cache_small reaches 30^2, so no call builds a SequenceCache of its own.
    built = []
    init = SequenceCache.__init__

    def counting_init(self, limit):
        built.append(limit)
        init(self, limit)

    monkeypatch.setattr(SequenceCache, "__init__", counting_init)
    call(cache_small)
    assert built == []


def test_uncached_square_case_sieves_once(monkeypatch):
    # The convolution and the tables of one square case share one cache.
    sieved = []
    sieve = arith.mobius_segment

    def counting_sieve(lo, hi):
        sieved.append(hi - lo + 1)
        return sieve(lo, hi)

    monkeypatch.setattr(arith, "mobius_segment", counting_sieve)
    assert verify_eq15(10).passed
    assert sieved == [100]


@pytest.mark.parametrize("limit", [1, 63, 64, 65, 1000])
def test_cache_is_the_same_in_any_segments(limit, monkeypatch):
    whole = SequenceCache(limit)
    monkeypatch.setattr(arith, "_SEGMENT", 64)
    pieces = SequenceCache(limit)
    assert np.array_equal(pieces.mu, whole.mu)
    assert np.array_equal(pieces.mertens, whole.mertens)
    assert pieces.mertens.dtype == whole.mertens.dtype == np.int32


def test_cache_exact_prefixes(cache_small):
    assert cache_small.exact_sums(10).harmonic(10) == Fraction(7381, 2520)
    assert oscillatory(3, 1, "exact", cache=cache_small) == Fraction(1, 6)
    with pytest.raises(RationalBoundError):
        oscillatory(201, 1, "exact", cache=cache_small)


def test_cache_mertens_is_mu_cumsum(cache_small):
    mu = cache_small.mu[1:]
    assert np.array_equal(cache_small.mertens[1:],
                          np.cumsum(mu, dtype=np.int64))
    assert cache_small.mertens[0] == 0
    assert cache_small.mertens.dtype == np.int32


def test_euler_gamma_literal():
    # Round-trip of the 50-digit literal to float precision.
    assert EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-16)
    assert str(EULER_GAMMA).startswith("0.577215664901532")


def test_memory_budget_env_override(monkeypatch):
    monkeypatch.setenv("MERTENSKIT_MEMORY_BUDGET", "1000")
    from mertenskit.config import CapacityError
    with pytest.raises(CapacityError):
        SequenceCache(10 ** 6)
    for raw in ("inf", "1e400"):  # not finite: malformed, not unbounded
        monkeypatch.setenv("MERTENSKIT_MEMORY_BUDGET", raw)
        with pytest.raises(ValueError, match="must be a number of bytes"):
            SequenceCache(10)
    monkeypatch.delenv("MERTENSKIT_MEMORY_BUDGET")
    SequenceCache(10)  # budget restored
