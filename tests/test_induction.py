"""Sup-bound step machinery: tables, curves, rows, synthetic violations."""

from math import log, sqrt

import numpy as np
import pytest

from mertenskit import (
    SequenceCache,
    check_induction_step,
    induction_sweep,
    mertens_square_table,
    verify_eq17,
    verify_eq18,
)
from mertenskit import arith, induction
from mertenskit.induction import sup_curves


def test_square_table_matches_direct_sieve(cache_small, monkeypatch):
    # Tiny segments force squares to straddle segment boundaries.
    monkeypatch.setattr(arith, "_SEGMENT", 1000)
    m_small, m_sq = mertens_square_table(80)
    ys = np.arange(0, 81, dtype=np.int64)
    assert np.array_equal(m_small, cache_small.mertens[:81])
    assert np.array_equal(m_sq, cache_small.mertens[ys * ys])


def test_square_table_segment_size_invariance(cache_small, monkeypatch):
    # Sieved segments and slices of an injected mu take the same loop.
    for mu_values in (None, cache_small.mu[1:3601]):
        monkeypatch.setattr(arith, "_SEGMENT", 64)
        a_small, a_sq = mertens_square_table(60, mu_values)
        monkeypatch.setattr(arith, "_SEGMENT", 10 ** 6)
        b_small, b_sq = mertens_square_table(60, mu_values)
        assert np.array_equal(a_small, b_small)
        assert np.array_equal(a_sq, b_sq)


def test_square_table_injected_mu(cache_small):
    # Injecting the true mu must reproduce the sieved tables.
    true_mu = cache_small.mu[1:2501].astype(np.int64)
    m_small, m_sq = mertens_square_table(50, mu_values=true_mu)
    s_small, s_sq = mertens_square_table(50)
    assert np.array_equal(m_small, s_small)
    assert np.array_equal(m_sq, s_sq)
    with pytest.raises(ValueError):
        mertens_square_table(50, mu_values=true_mu[:100])  # too short


@pytest.mark.parametrize("segment", [1, 2, 3, 49, 64])
def test_square_table_block_sums_at_window_edges(segment, cache_small,
                                                 monkeypatch):
    # Windows of 1 to 3 values mostly hold no square.  Some windows end
    # on a square: [3, 4], [7, 9], [1, 49], and [193, 256] and
    # [513, 576] at 64 values.
    monkeypatch.setattr(arith, "_SEGMENT", segment)
    m_small, m_sq = mertens_square_table(20)
    ys = np.arange(0, 21, dtype=np.int64)
    assert np.array_equal(m_small, cache_small.mertens[:21])
    assert np.array_equal(m_sq, cache_small.mertens[ys * ys])


@pytest.mark.parametrize("x_max", [1024, 1025])
def test_square_table_at_the_shipped_window_edge(x_max):
    # 1024^2 = 2^20 is the first window's last value: one window at
    # 1024, a second of 2049 values at 1025.
    cache = SequenceCache(x_max * x_max)
    m_small, m_sq = mertens_square_table(x_max)
    ys = np.arange(0, x_max + 1, dtype=np.int64)
    assert np.array_equal(m_small, cache.mertens[:x_max + 1])
    assert np.array_equal(m_sq, cache.mertens[ys * ys])


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("segment", [64, 10 ** 6])
def test_square_table_constant_injected_mu(sign, segment, monkeypatch):
    # mu = +-1 everywhere gives M(k) = +-k, so M(y^2) = +-y^2.
    monkeypatch.setattr(arith, "_SEGMENT", segment)
    m_small, m_sq = mertens_square_table(
        40, mu_values=np.full(1600, sign, dtype=np.int64))
    ys = np.arange(0, 41, dtype=np.int64)
    assert np.array_equal(m_small, sign * ys)
    assert np.array_equal(m_sq, sign * ys * ys)


def test_sup_mertens_oracle_x10():
    row = check_induction_step(10)
    # |M_y| first hits 2 at y=5; |M_{y^2}| first hits 4 at y=9 (M_81=-4).
    assert (row.sup_M, row.argmax_y) == (2, 5)
    assert (row.sup_M_sq, row.argmax_y_sq) == (4, 9)
    with pytest.raises(ValueError):
        check_induction_step(2)


def test_sup_reaches_past_a_covering_cache(monkeypatch):
    # One SequenceCache over 3200^2 would be charged 2.05e8 B; the
    # segmented square table stays within this budget.
    monkeypatch.setenv("MERTENSKIT_MEMORY_BUDGET", "200000000")
    row = check_induction_step(3200)
    assert (row.sup_M, row.argmax_y) == (25, 2803)
    assert (row.sup_M_sq, row.argmax_y_sq) == (1212, 3193)


def test_sup_curves_running_max_and_first_argmax(cache_small):
    m_small, m_sq = mertens_square_table(200)
    sup_m, arg_m, sup_sq, arg_sq = sup_curves(m_small, m_sq)
    absm = np.abs(cache_small.mertens[:201])
    for x in (3, 17, 100, 200):
        window = absm[3:x + 1]
        assert sup_m[x] == window.max()
        # First y attaining the running max (ties break small).
        first = 3 + int(np.nonzero(window == window.max())[0][0])
        assert arg_m[x] == first
    assert sup_m[3] == 1 and arg_m[3] == 3


def test_minimal_constant_oracle():
    # sup over y in [3,3] is |M_3| = 1, so C = 1/(sqrt(3) log 3).
    expected = 1 / (sqrt(3) * log(3))

    def minimal_c(x, n):
        return check_induction_step(x, n).minimal_C

    assert minimal_c(3, 1) == pytest.approx(expected)
    assert minimal_c(3, 2) == pytest.approx(expected / log(3))
    with pytest.raises(ValueError):
        minimal_c(2, 1)
    with pytest.raises(ValueError):
        minimal_c(3, 0)


def test_step_oracle_x3():
    row = check_induction_step(3, 1)
    assert row.lhs == 2                       # |M_9| = 2
    assert row.rhs == pytest.approx(2 * sqrt(3))
    assert row.ratio == pytest.approx(2 / (2 * sqrt(3)))
    assert row.step_holds
    assert row.minimal_C == pytest.approx(1 / (sqrt(3) * log(3)))


def test_step_rhs_scales_with_n():
    r1 = check_induction_step(10, 1)
    r3 = check_induction_step(10, 3)
    assert r3.rhs == pytest.approx(4 * r1.rhs)
    assert r1.sup_M == r3.sup_M


def test_sweep_all_grid_clean(cache_small):
    report = induction_sweep(200, n=1, grid="all")
    assert len(report.rows) == 198
    assert report.violations == ()
    assert all(r.step_holds for r in report.rows)
    assert report.max_ratio == max(r.ratio for r in report.rows)
    assert report.minimal_C == max(r.minimal_C for r in report.rows)
    assert induction.BOUND_X0 == 3
    # Rows are keyed by x in increasing order.
    xs = [r.x for r in report.rows]
    assert xs == sorted(xs) and xs[0] == 3 and xs[-1] == 200


def test_sweep_default_grid_subset():
    full = induction_sweep(1500, n=1, grid="default")
    xs = [r.x for r in full.rows]
    assert xs == sorted(xs)
    assert set(range(3, 1001)).issubset(xs)
    assert xs[-1] == 1500
    assert len(xs) < 1498          # properly thinned above 1000


def test_sweep_synthetic_violation_detected():
    # mu = +1 everywhere makes M_y = y, blowing through sqrt bounds.
    rep = induction_sweep(50, n=1, mu_values=np.ones(2500, dtype=np.int64))
    assert rep.violations
    assert any(not r.step_holds for r in rep.rows)
    # Reported suprema follow the injected data: sup M = x itself.
    last = rep.rows[-1]
    assert last.sup_M == 50 and last.sup_M_sq == 2500


def test_sweep_input_validation():
    with pytest.raises(ValueError):
        induction_sweep(2, n=1)
    with pytest.raises(ValueError):
        induction_sweep(100, n=0)
    with pytest.raises(ValueError):
        induction_sweep(100, n=1, grid="sparse")


@pytest.mark.parametrize("n, message", [
    (0, "n must be >= 1"),
    (2000, "n = 2000 overflows the chain factor"),  # 2^n alone overflows
    (464, "n = 464 overflows the chain factor"),  # both sides reach inf
])
def test_sweep_rejects_n_before_sieving(n, message, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("the range was sieved before n was checked")

    monkeypatch.setattr(induction, "mertens_square_table", no_table)
    with pytest.raises(ValueError, match=message):
        induction_sweep(10, n=n)


# sum_{i,j<=y} mu(i)mu(j) floor(y^2/ij) = 2 M_y - M_{y^2} (eq17) and its
# floor/fraction companion (eq18), which exact mode ties back to eq17.
def test_double_sum_cross_check_exact(cache_square):
    for y in (3, 10, 60, 150):
        for r in (verify_eq17(y, cache_square),
                  verify_eq18(y, "exact", cache_square)):
            assert r.kind == "exact" and r.exact_value == 0, y


def test_double_sum_cross_check_float_fallback(cache_square):
    floor_form = verify_eq17(400, cache_square)
    assert floor_form.kind == "exact" and floor_form.exact_value == 0
    r = verify_eq18(400, "float", cache_square)
    assert r.kind == "float" and r.passed


def test_vanishing_mertens_sup_is_refused():
    # mu = 1, -1, 0, 0, ... makes M_y = 0 for every y >= 2; the step
    # ratio and minimal C would divide by sup |M_y| = 0.
    mu = np.zeros(100, dtype=np.int64)
    mu[:2] = (1, -1)
    with pytest.raises(ValueError, match=r"over \[3, 3\] is 0"):
        induction_sweep(10, grid="all", mu_values=mu)
    curves = sup_curves(*mertens_square_table(10, mu_values=mu))
    with pytest.raises(ValueError, match=r"over \[3, 7\] is 0"):
        check_induction_step(7, curves=curves)
