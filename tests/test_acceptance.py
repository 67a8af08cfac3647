"""Acceptance gate: one test per criterion, named and ordered.

Each criterion prints a PASS line when green.  Criterion 8's anchor
inequality is implemented exactly as stated and is expected to fail:
the estimator's error at x = 1000 is ~1/1000 while the recorded K/1000
cap is strictly below that by construction (the scaled error increases
toward its limit, so the max over x <= 800 undershoots x = 1000).  The
companion clauses of criterion 8 are split out so their status stays
visible; see the README's note on the gamma error envelope.
"""

import random
import time
from math import log, sqrt

import numpy as np
import pytest

from mertenskit import (
    SequenceCache,
    convolution_coeffs,
    gamma_convergence_study,
    gamma_series,
    induction_sweep,
    mertens_square_table,
    mertens_sublinear,
    mobius_sieve,
    verify_eq1,
    verify_eq3,
    verify_eq6,
    verify_eq7,
    verify_eq11,
    verify_eq13,
    verify_eq16,
    verify_eq17,
    verify_eq18,
)
from mertenskit import arith
from mertenskit.cli import main


def test_criterion_01_window_closure_s0(cache_small):
    """Quotient-block closure: residual 0 for every x in [1, 10^4]."""
    t0 = time.perf_counter()
    mer = cache_small.mertens
    for x in range(1, 10 ** 4 + 1):
        assert verify_eq1(x, 0.0, "exact", cache_small).exact_value == 0, x
    # Naive per-index oracle for x <= 500 must match the block value.
    for x in range(1, 501):
        idx = x // np.arange(1, x + 1, dtype=np.int64)
        naive = int(mer[idx].sum())
        assert naive == 1, x
        assert naive == verify_eq1(x, 0.0, "exact", cache_small).lhs, x
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"PASS: criterion 1 - closure residual 0 on [1,10^4] "
          f"({elapsed:.1f}s)")


def test_criterion_02_mirror_closure_s0(cache_small):
    """Mobius-weighted floor sum: sum mu_i*floor(x/i) = 1 on [1, 10^4]."""
    for x in range(1, 10 ** 4 + 1):
        assert verify_eq11(x, 0.0, "exact", cache_small).exact_value == 0, x
    print("PASS: criterion 2 - mirror closure residual 0 on [1,10^4]")


def test_criterion_03_counting_square_identity(cache_square):
    """x^2 = 2x - double sum, x in [1, 500]; naive loop agrees to 100."""
    t0 = time.perf_counter()
    for x in range(1, 501):
        assert verify_eq6(x, cache_square).exact_value == 0, x
    mer = cache_square.mertens
    for x in range(1, 101):
        xx = x * x
        naive = sum(int(mer[xx // (i * j)])
                    for i in range(1, x + 1) for j in range(1, x + 1))
        ps, cs = convolution_coeffs(x, "plain", cache_square).nonzero()
        assert naive == int(np.dot(cs, mer[xx // ps])), x
        assert xx == 2 * x - naive, x
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s"
    print(f"PASS: criterion 3 - counting square identity ({elapsed:.1f}s)")


def test_criterion_04_floor_and_fraction_forms(cache_square):
    """Floor form on [1, 300]; fraction form exact to 200, float beyond.

    The exact fraction path certifies term-for-term consistency: each
    pair's divmod supplies both the floor and the remainder, and the
    residual folds in the requirement that they recombine to x^2 m_x^2.
    """
    for x in range(1, 301):
        assert verify_eq17(x, cache_square).exact_value == 0, x
    for x in range(1, 201):
        r = verify_eq18(x, "exact", cache_square)
        assert r.kind == "exact" and r.exact_value == 0, x
    for x in range(201, 301):
        r = verify_eq18(x, "float", cache_square)
        assert r.passed, x
    print("PASS: criterion 4 - floor/fraction square forms on [1,300]")


def test_criterion_05_harmonic_square_identities_s1(cache_square):
    """Exact-rational zero to x = 60; float residual <= 1e-9 to x = 1000."""
    t0 = time.perf_counter()
    for x in range(1, 61):
        assert verify_eq7(x, "exact", cache_square).exact_value == 0, x
        assert verify_eq16(x, "exact", cache_square).exact_value == 0, x
    worst = 0.0
    for x in range(1, 1001):
        for fn in (verify_eq7, verify_eq16):
            r = fn(x, "float", cache_square)
            worst = max(worst, abs(r.float_value))
            assert abs(r.float_value) <= 1e-9, (fn.__name__, x)
    elapsed = time.perf_counter() - t0
    print(f"PASS: criterion 5 - s=1 square identities, worst float "
          f"residual {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_06_derivation_chain_tail_sums(cache_small):
    """Tail double sums with swapped-order recomputation, x <= 12.

    The verifiers evaluate both summation orders and the complementary
    head form; a zero residual certifies the whole chain.
    """
    for s in (0.0, 1.0):
        for x in range(1, 13):
            assert verify_eq3(x, s, "exact", cache_small).exact_value == 0, (x, s)
            assert verify_eq13(x, s, "exact", cache_small).exact_value == 0, (x, s)
    print("PASS: criterion 6 - tail-sum derivation chain exact to x=12")


def test_criterion_07_sublinear_mertens():
    """Sublinear recursion equals the sieve; 10^8 under the latency cap."""
    cache = SequenceCache(10 ** 7)
    rng = random.Random(97)
    for _ in range(1000):
        x = rng.randint(1, 10 ** 7)
        assert mertens_sublinear(x) == int(cache.mertens[x]), x
    for x, expected in ((10 ** 5, -48), (10 ** 6, 212), (10 ** 7, 1037)):
        assert mertens_sublinear(x) == expected == int(cache.mertens[x])
    t0 = time.perf_counter()
    value = mertens_sublinear(10 ** 8)
    elapsed = time.perf_counter() - t0
    assert value == 1928
    assert elapsed < 10.0, f"M(10^8) took {elapsed:.2f}s"
    print(f"PASS: criterion 7 - sublinear Mertens, M(10^8)={value} "
          f"in {elapsed:.2f}s")


def test_criterion_08_gamma_remainder_companions(cache_square):
    """Criterion 8, companion clauses: 1/x-style decay, no growth trend."""
    t0 = time.perf_counter()
    study = gamma_convergence_study((50, 100, 200, 400, 800), cache_square)
    by_x = {r.x: r for r in study.rows}
    assert by_x[800].abs_error < by_x[50].abs_error
    assert study.scaled_error_bounded
    ratios = list(study.doubling_ratios)
    assert ratios == sorted(ratios, reverse=True)  # flattening, not growing
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"PASS: criterion 8 (companions) - error decays ~1/x, scaled "
          f"error bounded, K={study.max_scaled_error:.10f} ({elapsed:.1f}s)")


def test_criterion_08_gamma_anchor(cache_square):
    """Criterion 8, anchor: |estimate(1000) - 0.5772156| <= K/1000.

    Implemented exactly as stated.  It cannot hold for this estimator:
    abs_error(x) = 1/x - 2/(3x^2) + O(x^-4) increases x*abs_error toward
    1, so K recorded over x <= 800 is strictly below the x = 1000 scaled
    error, and the 7-digit reference truncation (3.5e-8, downward) is
    too small to close the ~3.3e-7 gap.  Kept faithful and red.
    """
    anchor_reference = 0.5772156
    study = gamma_convergence_study((50, 100, 200, 400, 800), cache_square)
    k = study.max_scaled_error
    est = gamma_series(1000, cache_square)
    deviation = abs(est.estimate - anchor_reference)
    print(f"criterion 8 anchor: K={k!r}, K/1000={k / 1000!r}, "
          f"|estimate(1000) - {anchor_reference}|={deviation!r}, "
          f"shortfall={deviation - k / 1000!r}")
    assert deviation <= k / 1000, (
        f"anchor misses by {deviation - k / 1000:.3e}: the scaled error "
        f"rises toward its limit, so max over x<=800 cannot cover x=1000")
    print("PASS: criterion 8 (anchor)")


def test_criterion_09_induction_sweep():
    """Full n=1 sweep on [3, 10^4]; rows recomputable from raw sieves."""
    t0 = time.perf_counter()
    report = induction_sweep(10 ** 4, n=1, grid="all")
    elapsed = time.perf_counter() - t0
    assert [r.x for r in report.rows] == list(range(3, 10 ** 4 + 1))
    assert report.violations == ()
    assert all(r.step_holds for r in report.rows)
    by_x = {r.x: r for r in report.rows}

    # Independent recomputation from a one-shot (unsegmented) sieve for
    # small x, and from a re-segmented run at the top end.
    for x in (3, 10, 97, 250):
        mu = mobius_sieve(x * x).values
        mer = np.concatenate(([0], np.cumsum(mu, dtype=np.int64)))
        sup_m = max(abs(int(mer[y])) for y in range(3, x + 1))
        sup_sq = max(abs(int(mer[y * y])) for y in range(3, x + 1))
        row = by_x[x]
        assert row.lhs == sup_sq and row.sup_M == sup_m, x
        assert row.rhs == 2.0 * sqrt(x) * sup_m, x
        assert row.minimal_C == sup_m / (sqrt(x) * log(x)), x
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_SEGMENT", (1 << 20) + 7)
        m_small, m_sq = mertens_square_table(10 ** 4)
    top = by_x[10 ** 4]
    assert top.sup_M == int(np.abs(m_small[3:]).max())
    assert top.lhs == int(np.abs(m_sq[3:]).max())
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"

    # Synthetic violation: reported as data and as exit status 1.
    rep = induction_sweep(50, n=1, mu_values=np.ones(2500, dtype=np.int64))
    assert rep.violations and any(not r.step_holds for r in rep.rows)
    print(f"PASS: criterion 9 - sweep clean on [3,10^4], max ratio "
          f"{report.max_ratio:.4f}, minimal C {report.minimal_C:.4f} "
          f"({elapsed:.1f}s)")


def test_criterion_09b_synthetic_violation_exit_code(tmp_path, capsys):
    """Criterion 9, CLI leg: injected violations surface with exit 1."""
    mu_file = tmp_path / "mu.txt"
    mu_file.write_text("\n".join(["1"] * 2500) + "\n")
    code = main(["induction", "--x-max", "50", "--mu-file", str(mu_file),
                 "-o", str(tmp_path / "r.csv"), "--no-timestamp"])
    assert code == 1
    text = (tmp_path / "r.csv").read_text()
    assert ",false" in text
    capsys.readouterr()
    print("PASS: criterion 9 (CLI) - synthetic violation exits 1")


def test_criterion_10_thread_determinism(tmp_path):
    """verify/gamma/induction reports byte-identical for threads 1/4/8."""
    recipes = {
        "verify": ["verify", "--id", "eq7", "--id", "eq18", "--x-min", "2",
                   "--x-max", "100"],
        "gamma": ["gamma", "--points", "50,100,200"],
        "induction": ["induction", "--x-max", "500"],
    }
    for name, base in recipes.items():
        blobs = set()
        for threads in (1, 4, 8):
            out = tmp_path / f"{name}-{threads}.csv"
            code = main(base + ["--threads", str(threads), "-o", str(out),
                                "--no-timestamp"])
            assert code == 0, name
            blobs.add(out.read_bytes())
        assert len(blobs) == 1, f"{name} differs across thread counts"
    print("PASS: criterion 10 - byte-identical reports across threads")
