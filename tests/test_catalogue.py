"""The identity catalogue: each shape for each Dirichlet pair against a
naive sum, the CLI's view of the catalogue, and pinned golden reports.

The naive oracles use a trial-division mu and plain math.fsum over the
defining sums, with no prefix tables, grouping or quotient tricks.
"""

import hashlib
import json
from collections import Counter
from fractions import Fraction
from math import fsum

import pytest

from mertenskit import (
    Identity,
    IdentityCase,
    SequenceCache,
    verify_case,
    verify_eq1,
    verify_eq3,
)
from mertenskit import cli, identities, sequences
from mertenskit.cli import main
from mertenskit.exact import ScaledSums


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


# (s, mode): float at two exponents, integers at s = 0, rationals at s = 1.
ARITHMETICS = pytest.mark.parametrize("s, mode", [
    pytest.param(0.5, "float", id="0.5"),
    pytest.param(2.0, "float", id="2.0"),
    pytest.param(0, "exact", id="exact-s0"),
    pytest.param(1, "exact", id="exact-s1"),
])
RESULT_TYPE = {"float": float, 0: int, 1: Fraction}


def weight(m, s, mode):
    if mode == "float":
        return m ** -s
    return 1 if s == 0 else Fraction(1, m)


def total(terms, mode):
    return fsum(terms) if mode == "float" else sum(terms)


def prefix(c, k, s, mode):
    return total((c[m] * weight(m, s, mode) for m in range(1, k + 1)), mode)


def double(a, b, s, mode, js):
    """sum over j in js, i <= X of a(i)a(j)(ij)^-s B_{floor(X^2/ij)}."""
    return total((a[i] * a[j] * weight(i * j, s, mode)
                  * prefix(b, X * X // (i * j), s, mode)
                  for j in js for i in range(1, X + 1)), mode)


def agree(got, want, mode, abs_tol):
    if mode == "float":
        return got == pytest.approx(want, abs=abs_tol)
    return got == want


@pytest.fixture(scope="module")
def cache():
    return SequenceCache(X ** 2)


def run(identity, s, mode, cache, j=None):
    res = verify_case(IdentityCase(identity, X, j, s, mode), cache)
    assert res.kind == ("float" if mode == "float" else "exact") and res.passed
    assert isinstance(res.lhs, RESULT_TYPE["float" if mode == "float" else s])
    return res


@ARITHMETICS
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_closure_lhs_matches_naive_sum(pair, s, mode, cache):
    a, b, ids = PAIRS[pair]
    for identity, j, n in ((ids["closure"], None, X),
                           *((ids["nested"], j, X * X // j)
                             for j in (X, 20, X * X))):
        naive = total((a[i] * weight(i, s, mode) * prefix(b, n // i, s, mode)
                       for i in range(1, X + 1)), mode)
        res = run(identity, s, mode, cache, j)
        assert agree(res.lhs, naive, mode, 1e-13), j
        assert agree(res.rhs, 1, mode, 0)


@ARITHMETICS
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_tail_lhs_matches_naive_sum(pair, s, mode, cache):
    a, b, ids = PAIRS[pair]
    xx = X * X
    res = run(ids["tail"], s, mode, cache)
    assert agree(res.lhs, double(a, b, s, mode, range(X + 1, xx + 1)), mode,
                 1e-12)
    assert agree(res.rhs, prefix(a, xx, s, mode) - prefix(a, X, s, mode),
                 mode, 1e-12)


@ARITHMETICS
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_square_sides_match_naive_sums(pair, s, mode, cache):
    a, b, ids = PAIRS[pair]
    res = run(ids["square"], s, mode, cache)
    assert agree(res.lhs, prefix(a, X * X, s, mode), mode, 1e-13)
    assert agree(res.rhs, 2 * prefix(a, X, s, mode)
                 - double(a, b, s, mode, range(1, X + 1)), mode, 1e-12)


def test_exact_tail_keeps_integers_for_any_common_denominator():
    # A cache of 45 shares lcm(1..45), which lies between 2^63 and 2^64:
    # numpy would infer float64 for weights of mixed sign that size.
    cache = SequenceCache(45)
    for identity in (Identity.EQ3, Identity.EQ13):
        res = verify_case(IdentityCase(identity, 6, None, 1, "exact"), cache)
        assert res.exact_value == 0 and isinstance(res.lhs, Fraction)


@pytest.mark.parametrize("verify, x, tables", [(verify_eq1, 100, 1),
                                              (verify_eq3, 10, 2)])
def test_float_case_builds_only_the_tables_it_reads(verify, x, tables,
                                                    monkeypatch):
    # The closure reads only B; the tail reads A and B.
    built = []
    prefix = SequenceCache._float_prefix

    def counting_prefix(self, kind, s):
        if (kind, float(s)) not in self._float_tables:
            built.append(kind)
        return prefix(self, kind, s)

    monkeypatch.setattr(SequenceCache, "_float_prefix", counting_prefix)
    res = verify(x, s=0.5, mode="float", cache=SequenceCache(10 ** 4))
    assert res.passed and len(built) == tables


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


def test_verify_evaluates_each_square_case_once(tmp_path, monkeypatch):
    # The plain products serve eq5 at s = 1 (eq7 shares it) and eq6; the
    # Mobius ones serve eq15 (eq16 shares it), eq17 and eq18's
    # cross-check.  The run evaluates its cases in ascending x, so each
    # kind sweeps x = 2..20 once: every shell k is added exactly once,
    # and no dense table is built.
    shells = Counter()
    add = sequences._SquareProducts._shell

    def counting(self, ks, a, t):
        shells[self.kind, int(ks[t])] += 1
        return add(self, ks, a, t)

    def dense(*args, **kwargs):
        raise AssertionError("verify built a dense convolution table")

    monkeypatch.setattr(sequences._SquareProducts, "_shell", counting)
    monkeypatch.setattr(identities, "convolution_coeffs", dense)
    rows = verify_rows(["--x-max", "20"], tmp_path)
    assert {r["identity"] for r in rows} >= {"eq5", "eq6", "eq7", "eq15",
                                             "eq16", "eq17", "eq18"}
    ks = range(1, 21)
    squarefree = [k for k in ks if k % 4 and k % 9]
    assert shells == Counter({**{("plain", k): 1 for k in ks},
                              **{("mobius", k): 1 for k in squarefree}})


def test_verify_builds_each_square_exact_table_once(tmp_path, monkeypatch):
    # At each x the closures run before the cases whose tables reach
    # x^2, so eq5 and eq15 read one exact table over 1..x^2 from the
    # cache's one slot; eq18 and the closures read the small table.
    built = Counter()
    init = ScaledSums.__init__

    def counting(self, n, mu):
        built[n] += 1
        init(self, n, mu)

    monkeypatch.setattr(ScaledSums, "__init__", counting)
    verify_rows(["--mode", "exact", "--id", "eq1", "--id", "eq5", "--id",
                 "eq15", "--id", "eq18", "--x-min", "14", "--x-max", "20"],
                tmp_path)
    assert {n: c for n, c in built.items() if n > 200} == {
        x * x: 1 for x in range(15, 21)}


@pytest.mark.parametrize("options", [[], ["--mode", "float", "--s", "0.5"]],
                         ids=["defaults", "float-0.5"])
def test_verify_rows_equal_each_case_run_alone(options, tmp_path):
    # A run shares one cache, one memo and an x-by-x order across its
    # cases; each row must still be the case evaluated on its own fresh
    # cache with no memo, cell for cell.
    rows = verify_rows(["--x-max", "22", "--step", "5", *options], tmp_path)
    s, mode = (0.5, "float") if options else (1.0, "auto")
    alone = []
    for ident, entry in identities.CATALOGUE.items():
        for x in range(2, 23, 5):
            js = sorted({x, (x + x * x) // 2, x * x}) if entry.needs_j else [None]
            for j in js:
                case = IdentityCase(ident, x, j,
                                    s if entry.s is None else entry.s, mode)
                res = verify_case(case, SequenceCache(x ** entry.reach))
                alone.append({"identity": ident.value, "x": x, "j": j,
                              "s": case.s, "mode": res.kind, "lhs": res.lhs,
                              "rhs": res.rhs, "residual": res.value,
                              "pass": res.passed})
    assert rows == [{k: cli._json_cell(v) for k, v in r.items()}
                    for r in alone]


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
    # Computed before each shape was written once for all three
    # arithmetics; they pin the float weights, numpy's pow over arrays
    # and Python's for the tail's per-j weight.
    ("--mode", "float", "--s", "0", "--x-max", "40"):
        "be0fae967ae7b783604855fe4d483856e3a8268b9b061c40e23b570419f7613f",
    ("--mode", "float", "--s", "2", "--x-max", "40"):
        "e8af88e118c9894bd3d75ba567d9b04245dec2bdf506bca41ede300e5235d865",
}


@pytest.mark.parametrize("args", list(GOLDEN), ids=" ".join)
def test_golden_verify_reports(args, tmp_path):
    target = tmp_path / "report.json"
    assert main(["verify", *args, "--no-timestamp", "--format", "json",
                 "-o", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GOLDEN[args]
