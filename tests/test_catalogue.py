"""The identity catalogue: each shape for each Dirichlet pair against a
naive sum, the CLI's view of the catalogue, and pinned golden reports.

The naive oracles use a trial-division mu and plain math.fsum over the
defining sums, with no prefix tables, grouping or quotient tricks.
"""

import hashlib
import json
from math import fsum

import pytest

from mertenskit import Identity, IdentityCase, SequenceCache, verify_case
from mertenskit.cli import main


def mu_trial(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


X = 7
MU = [0] + [mu_trial(k) for k in range(1, X ** 2 + 1)]
ONE = [0] + [1] * X ** 2

# (a, b, the identity of each shape) for the pairs (1, mu) and (mu, 1).
PAIRS = {
    "(1, mu)": (ONE, MU, {"closure": Identity.EQ1, "nested": Identity.EQ2,
                          "tail": Identity.EQ3, "square": Identity.EQ5}),
    "(mu, 1)": (MU, ONE, {"closure": Identity.EQ11, "nested": Identity.EQ12,
                          "tail": Identity.EQ13, "square": Identity.EQ15}),
}


def prefix(c, k, s):
    return fsum(c[m] * m ** -s for m in range(1, k + 1))


@pytest.fixture(scope="module")
def cache():
    return SequenceCache(X ** 2)


def run(identity, s, cache, j=None):
    res = verify_case(IdentityCase(identity, X, j, s, "float"), cache)
    assert res.kind == "float" and res.passed
    return res


@pytest.mark.parametrize("s", [0.5, 2.0])
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_closure_lhs_matches_naive_sum(pair, s, cache):
    a, b, ids = PAIRS[pair]
    naive = fsum(a[i] * i ** -s * prefix(b, X // i, s) for i in range(1, X + 1))
    assert run(ids["closure"], s, cache).lhs == pytest.approx(naive, abs=1e-13)
    for j in (X, 20, X * X):
        naive = fsum(a[i] * i ** -s * prefix(b, X * X // (i * j), s)
                     for i in range(1, X + 1))
        res = run(ids["nested"], s, cache, j)
        assert res.lhs == pytest.approx(naive, abs=1e-13), j


@pytest.mark.parametrize("s", [0.5, 2.0])
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_tail_lhs_matches_naive_sum(pair, s, cache):
    a, b, ids = PAIRS[pair]
    xx = X * X
    naive = fsum(a[i] * a[j] * (i * j) ** -s * prefix(b, xx // (i * j), s)
                 for j in range(X + 1, xx + 1) for i in range(1, X + 1))
    res = run(ids["tail"], s, cache)
    assert res.lhs == pytest.approx(naive, abs=1e-12)
    assert res.rhs == pytest.approx(prefix(a, xx, s) - prefix(a, X, s),
                                    abs=1e-12)


@pytest.mark.parametrize("s", [0.5, 2.0])
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_square_sides_match_naive_sums(pair, s, cache):
    a, b, ids = PAIRS[pair]
    xx = X * X
    double = fsum(a[i] * a[j] * (i * j) ** -s * prefix(b, xx // (i * j), s)
                  for i in range(1, X + 1) for j in range(1, X + 1))
    res = run(ids["square"], s, cache)
    assert res.lhs == pytest.approx(prefix(a, xx, s), abs=1e-13)
    assert res.rhs == pytest.approx(2 * prefix(a, X, s) - double, abs=1e-12)


# --- the CLI's view of the catalogue ---------------------------------------

def verify_rows(args, tmp_path):
    target = tmp_path / "report.json"
    assert main(["verify", *args, "--format", "json", "--no-timestamp",
                 "-o", str(target)]) == 0
    return json.loads(target.read_text())["rows"]


def test_default_catalogue_is_in_identity_order(tmp_path):
    rows = verify_rows(["--x-max", "3"], tmp_path)
    order = [r["identity"] for r in rows]
    assert sorted(set(order), key=order.index) == [i.value for i in Identity]
    assert order == sorted(order, key=[i.value for i in Identity].index)


def test_pinned_exponents_override_s(tmp_path):
    rows = verify_rows(["--x-max", "4", "--s", "0.5"], tmp_path)
    pinned = {"eq6": 0.0, "eq17": 0.0, "eq7": 1.0, "eq16": 1.0, "eq18": 1.0}
    for r in rows:
        assert r["s"] == pinned.get(r["identity"], 0.5), r


def test_counting_forms_stay_exact_in_float_mode(tmp_path):
    rows = verify_rows(["--x-max", "6", "--mode", "float"], tmp_path)
    for r in rows:
        want = "exact" if r["identity"] in ("eq6", "eq17") else "float"
        assert r["mode"] == want, r


# --- golden reports ----------------------------------------------------------

# sha256 of `--no-timestamp --format json` reports, computed before the
# catalogue was folded onto one verifier per shape (x86-64 Linux, CPython
# 3.11, numpy 2.4).  Float rows go through the platform's pow, so another
# platform may differ in the last digit of some float cells.
GOLDEN = {
    ("--x-max", "24"):
        "0d0f01911bd10088a0e9098c43b439588113aa07979db55da31d3ff260390940",
    ("--mode", "float", "--s", "0.5", "--x-max", "20"):
        "713a7be91c21fa3821d831621a9bd68f700ccafe7c93636f5b4b64326be48e26",
    ("--mode", "exact", "--s", "0", "--x-max", "20"):
        "e50b97c617960cf89d6fa912b7bf2a31fa116c9e7a27c0127af5006a594e4078",
}


@pytest.mark.parametrize("args", list(GOLDEN), ids=" ".join)
def test_golden_verify_reports(args, tmp_path):
    target = tmp_path / "report.json"
    assert main(["verify", *args, "--no-timestamp", "--format", "json",
                 "-o", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GOLDEN[args]
