"""Negative controls: every check must fail once its input is wrong.

A cache with one mu(k) negated, and its Mertens prefix recomputed
before any lazy table is built, is a consistent but false world.  Each
identity must pass where its tables stop short of k and fail at the
first x whose tables reach it: x = k for the closures (eq1, eq2, eq11,
eq12, tables to x) and x = ceil(sqrt(k)) for the rest (tables to x^2).
This is mutation analysis (DeMillo, Lipton & Sayward, "Hints on test
data selection", IEEE Computer 11(4), 1978) applied to the data.
"""

from math import isqrt

import numpy as np
import pytest

from mertenskit import (
    Identity,
    IdentityCase,
    SequenceCache,
    gamma_series,
    mertens_sublinear,
    verify_case,
    verify_eq7,
    verify_eq16,
)
from mertenskit.identities import CATALOGUE

MUTATED = (7, 30, 97)


def corrupted(limit: int, k: int) -> SequenceCache:
    """SequenceCache(limit) with mu(k) negated and M recomputed."""
    cache = SequenceCache(limit)
    assert cache.mu[k] != 0
    cache.mu[k] = -cache.mu[k]
    cache.mertens[:] = np.cumsum(cache.mu)
    return cache


def first_failure(identity: Identity, k: int) -> int:
    """The first x whose tables reach k."""
    if CATALOGUE[identity].reach == 1:
        return k
    return isqrt(k - 1) + 1


@pytest.mark.parametrize("s", [0.0, 1.0])
@pytest.mark.parametrize("k", MUTATED)
def test_every_identity_fails_where_its_tables_reach_the_flip(k, s):
    # Exact mode; s applies to the identities not pinned to an exponent.
    cache = corrupted(k * k, k)
    for identity in Identity:
        first = first_failure(identity, k)
        pinned = CATALOGUE[identity].s
        for x in range(2, first + 1):
            j = x if CATALOGUE[identity].needs_j else None
            case = IdentityCase(identity, x, j,
                                s if pinned is None else pinned, "exact")
            passed = verify_case(case, cache).passed
            assert passed == (x < first), (identity.value, x, first)


def test_float_square_cases_fail_past_the_exact_bound():
    cache = corrupted(97 * 97, 97)
    assert verify_eq7(61, "float", cache).kind == "float"
    assert not verify_eq7(61, "float", cache).passed
    assert not verify_eq16(61, "float", cache).passed


def test_gamma_series_reads_the_flip_only_once_its_products_reach_it():
    bad, clean = corrupted(97 * 97, 97), SequenceCache(97 * 97)
    assert gamma_series(50, bad).estimate != gamma_series(50, clean).estimate
    assert gamma_series(9, bad) == gamma_series(9, clean)


def test_sublinear_mertens_reads_the_callers_corrupted_cache():
    # The cache covers x^(2/3) = 2154, so the recursion runs on it and
    # not on the module's clean base.
    assert mertens_sublinear(10 ** 5, SequenceCache(4900)) == -48
    assert mertens_sublinear(10 ** 5, corrupted(4900, 97)) == 58
