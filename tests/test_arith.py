"""Sieve foundations.

Frozen oracles: mu values checked by hand against the definition
(squarefree sign by prime-factor count).
"""

import os
import tracemalloc
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mertenskit import (
    arith,
    cli,
    exact,
    identities,
    induction,
    mobius_segment,
    mobius_sieve,
    primes_up_to,
    sequences,
)

# (k, mu(k)): 1 has no factors; 2,3,5,7 prime; 4=2^2, 8, 9, 12 squareful;
# 6=2*3, 10=2*5, 30=2*3*5 squarefree with 2 resp. 3 factors.
MU_ORACLE = [(1, 1), (2, -1), (3, -1), (4, 0), (5, -1), (6, 1), (7, -1),
             (8, 0), (9, 0), (10, 1), (12, 0), (30, -1), (210, 1),
             (221, 1), (169, 0)]


def test_primes_small():
    assert primes_up_to(20).tolist() == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_up_to(1).tolist() == []
    assert primes_up_to(2).tolist() == [2]


def test_mobius_oracle_values():
    table = mobius_sieve(221)
    for k, expected in MU_ORACLE:
        assert table[k] == expected, f"mu({k})"


def _mu_by_trial_division(k):
    """mu(k) rebuilt from scratch by trial division."""
    n, factors = k, 0
    for p in range(2, isqrt(k) + 1):
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            factors += 1
            if n % p == 0:
                return 0
    if n > 1:
        factors += 1
    return (-1) ** factors


def test_mobius_matches_definition_bruteforce():
    table = mobius_sieve(500)
    for k in range(1, 501):
        assert table[k] == _mu_by_trial_division(k), f"mu({k})"


def _assert_segment_matches_oracle(lo, hi):
    expected = [_mu_by_trial_division(k) for k in range(lo, hi + 1)]
    assert mobius_segment(lo, hi).values.tolist() == expected, (lo, hi)


# The sieve holds its product in int32 for hi < 2^31 and int64 above:
# windows on each side of that switch, one straddling it, and windows
# around squares of primes near sqrt(2^31) = 46340.95 and near 10^5.
@pytest.mark.parametrize("lo, hi", [
    (1, 1), (1, 300),
    (2 ** 31 - 50, 2 ** 31 + 50),
    (2 ** 31 - 1, 2 ** 31 - 1), (2 ** 31, 2 ** 31),
    *[(p * p - 20, p * p + 20) for p in (46337, 46349, 99991)],
])
def test_segment_matches_oracle_on_fixed_windows(lo, hi):
    _assert_segment_matches_oracle(lo, hi)


@given(st.integers(min_value=1, max_value=10 ** 12),
       st.integers(min_value=0, max_value=300))
@settings(max_examples=40, deadline=None)
def test_segment_matches_oracle_on_random_windows(lo, extra):
    _assert_segment_matches_oracle(lo, lo + extra)


@pytest.mark.parametrize("lo", [10 ** 6, 10 ** 10])
def test_segment_values_are_int8_signs_on_both_product_types(lo):
    # hi below 2^31 runs an int32 product, above it an int64 one.
    values = mobius_segment(lo, lo + 10 ** 4).values
    assert values.dtype == np.int8
    assert set(np.unique(values).tolist()) == {-1, 0, 1}


def test_mobius_first_row_sums():
    # M(x) for x = 1..10 is 1,0,-1,-1,-2,-1,-2,-2,-2,-1.
    table = mobius_sieve(10)
    sums = np.cumsum(table.values).tolist()
    assert sums == [1, 0, -1, -1, -2, -1, -2, -2, -2, -1]


@given(st.integers(min_value=2, max_value=90), st.integers(min_value=2, max_value=90))
@settings(max_examples=60, deadline=None)
def test_mobius_multiplicative_on_coprime_pairs(a, b):
    table = mobius_sieve(90 * 90)
    if gcd(a, b) == 1:
        assert table[a * b] == table[a] * table[b]


def test_segment_agrees_with_full_sieve():
    full = mobius_sieve(5000)
    for lo, hi in [(1, 100), (97, 97), (4900, 5000), (2500, 3600), (1, 5000)]:
        seg = mobius_segment(lo, hi)
        assert seg.lo == lo and seg.hi == hi
        assert np.array_equal(seg.values, full.values[lo - 1:hi])


def test_segment_validates_range():
    with pytest.raises(ValueError):
        mobius_segment(0, 10)
    with pytest.raises(ValueError):
        mobius_segment(10, 5)


def test_mobius_table_indexing():
    seg = mobius_segment(50, 60)
    assert len(seg) == 11
    assert seg[50] == mobius_sieve(60)[50]
    with pytest.raises(IndexError):
        seg[49]
    with pytest.raises(IndexError):
        seg[61]


def _sieve_report(fmt):
    assert cli.main(["sieve", "--lo", "1", "--hi", "100000", "--format", fmt,
                     "--no-timestamp", "-o", os.devnull]) == 0


def _in_segments(call):
    # 2^18-value windows: a range of 10^6 values takes four, so each is
    # sieved beside the last one's mu and running sums.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_SEGMENT", 1 << 18)
        call()


def _square_products_growth():
    """A call that grows a plain product state from x = 700 to 800, so
    its count array doubles.  The state reaches 700 here, before any
    tracing; the traced call holds the doubled array while it copies
    the old one in."""
    state = sequences._SquareProducts("plain")
    state.reach(700, None)
    return lambda: state.reach(800, None)


def _tail_sum():
    """eq3 in float mode at x = 300 on a cache whose float tables are
    built before tracing, so the call charges only the tail's weights
    and columns."""
    cache = sequences.SequenceCache(300 ** 2)
    cache.harmonic_float(0.5)
    cache.oscillatory_float(0.5)
    return lambda: identities.verify_eq3(300, 0.5, "float", cache)


def _float_prefix(limit=10 ** 6):
    """The oscillatory prefix table at s = 0.05 over a cache built before
    tracing, so the call charges only the table's build."""
    cache = sequences.SequenceCache(limit)
    return lambda: cache.oscillatory_float(0.05)


def _scaled_sums():
    """The exact prefix numerators over lcm(1..3600), a 5192-bit L."""
    mu = sequences.SequenceCache(3600).mu
    return lambda: exact.ScaledSums(3600, mu)


@pytest.mark.parametrize("module, call", [
    (arith, lambda: mobius_sieve(10 ** 6)),
    (arith, lambda: mobius_segment(10 ** 9, 10 ** 9 + 10 ** 6 - 1)),
    (arith, lambda: mobius_segment(10 ** 10, 10 ** 10 + 10 ** 6 - 1)),
    (sequences, lambda: sequences.mertens_sublinear(10 ** 9)),
    (sequences, lambda: sequences.SequenceCache(10 ** 6)),
    (sequences, lambda: _in_segments(lambda: sequences.SequenceCache(10 ** 6))),
    (induction, lambda: _in_segments(
        lambda: induction.mertens_square_table(1000))),
    # The window size that ships: 1.21e6 values in two windows.
    (induction, lambda: induction.mertens_square_table(1100)),
    # The whole command in each format: sieve, row dicts and report text.
    (cli, lambda: _sieve_report("csv")),
    (cli, lambda: _sieve_report("json")),
    (sequences, _square_products_growth()),
    (identities, _tail_sum()),
    (sequences, _float_prefix()),
    # A table of one entry: the build's fixed cost alone.
    (sequences, _float_prefix(1)),
    (exact, _scaled_sums()),
], ids=["mobius_sieve", "mobius_segment", "mobius_segment_int64",
        "sublinear_base", "sequence_cache",
        "sequence_cache_segmented", "square_table", "square_table_default",
        "sieve_csv", "sieve_json",
        "square_products", "tail_sum", "float_prefix", "float_prefix_small",
        "scaled_sums"])
def test_capacity_charge_covers_traced_peak(module, call, monkeypatch):
    # A request the budget accepts must not allocate more than it charged.
    charged = []
    monkeypatch.setattr(module, "check_capacity",
                        lambda nbytes, what: charged.append(nbytes))
    monkeypatch.setattr(sequences, "_base_cache", None)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(charged) == 1 and charged[0] >= peak


def test_float_prefix_build_holds_no_index_array():
    # The powers come straight from the index range, so the build holds
    # the powers, the table and _compensated_cumsum's temporaries (33 B
    # per entry), and no float64 array of k beside them (41 B).
    build = _float_prefix()
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 34 * (10 ** 6 + 1)
