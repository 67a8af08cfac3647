"""Scaled-integer engine vs direct Fraction arithmetic."""

from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from mertenskit import ScaledSums, lcm_upto, mobius_sieve


def mu_upto(n: int) -> list[int]:
    """mu at k = 0..n, slot 0 zero."""
    table = mobius_sieve(n)
    return [0] + [table[k] for k in range(1, n + 1)]


def test_lcm_upto_small():
    assert [lcm_upto(n) for n in range(0, 7)] == [1, 1, 2, 6, 12, 60, 60]
    assert lcm_upto(10) == lcm(*range(1, 11)) == 2520
    assert all(lcm_upto(n) == lcm(*range(1, n + 1)) for n in range(0, 401))


@given(st.integers(min_value=1, max_value=120))
@settings(max_examples=40, deadline=None)
def test_harmonic_numerators_match_fractions(n):
    ss = ScaledSums(n, mu_upto(n))
    direct = sum(Fraction(1, k) for k in range(1, n + 1))
    assert ss.harmonic(n) == direct
    # Every weight really is L/k with zero remainder.
    assert all(ss.weights[k] * k == ss.denominator for k in range(1, n + 1))


@given(st.integers(min_value=1, max_value=120))
@settings(max_examples=40, deadline=None)
def test_oscillatory_numerators_match_fractions(n):
    mu = mu_upto(n)
    ss = ScaledSums(n, mu)
    direct = sum(Fraction(mu[k], k) for k in range(1, n + 1))
    assert ss.oscillatory(n) == direct


def test_prefixes_are_running_sums():
    ss = ScaledSums(30, mu_upto(30))
    for k in range(1, 31):
        assert ss.harmonic_num[k] - ss.harmonic_num[k - 1] == ss.weights[k]
    assert ss.harmonic(4) == Fraction(25, 12)
    assert ss.oscillatory(3) == Fraction(1, 6)
