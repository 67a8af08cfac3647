"""The benchmark's own tests: every oracle agrees with a second method,
and every output check rejects a corrupted output.

    python3 -m pytest bench -q

One genuine round of each workload is run first (about 20 s in all);
each test then corrupts a copy of its outputs in one place.
"""

import copy
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
import run
import tracing
import workloads

SEED = 1


# --- oracles -----------------------------------------------------------

def test_plain_sieve_matches_trial_division():
    mu = oracles.mobius_plain(3000)
    assert [int(v) for v in mu[1:]] == [oracles.mobius_trial(k)
                                         for k in range(1, 3001)]
    assert [oracles.mobius_trial(k) for k in (1, 2, 4, 6, 30, 10 ** 8 + 7)] == [
        1, -1, 0, 1, -1, -1]


def test_prefix_fsums_match_direct_fsum():
    terms = oracles.harmonic_terms(5000) * oracles.mobius_plain(5000)
    ends = [k * k for k in range(2, 71)]
    got = oracles.prefix_fsums(terms, ends)
    assert all(abs(g - math.fsum(terms[1:n + 1].tolist())) <= 1e-15
               for g, n in zip(got, ends))


def test_mertens_square_matches_sieve():
    big = np.cumsum(oracles.mobius_plain(90 ** 2), dtype=np.int64)
    small = oracles.mobius_plain(90)
    assert all(oracles.mertens_square(y, small) == big[y * y]
               for y in range(1, 91))


def test_gamma_envelope_accepts_the_expansion_and_rejects_a_shift():
    for x in workloads.GAMMA_POINTS:
        expansion = oracles.EULER_GAMMA + 1 / x - 2 / (3 * x * x) + 0.1 / x ** 4
        assert oracles.gamma_envelope_gap(x, expansion) <= 0
        assert oracles.gamma_envelope_gap(x, expansion + 1e-10) > 0
    # 2 H_x - H_{x^2} in exact arithmetic, at a point small enough for it.
    x = 30
    h = lambda n: sum(Fraction(1, k) for k in range(1, n + 1))  # noqa: E731
    assert oracles.gamma_envelope_gap(x, float(2 * h(x) - h(x * x))) <= 0


# --- output checks -----------------------------------------------------

@pytest.fixture(scope="module")
def genuine():
    out = {}
    for name, make in workloads.WORKLOADS.items():
        plan = make(SEED)
        out[name] = (plan, run.run_round(plan.calls, False)["outputs"])
    return out


def verdict_of(genuine, name, corrupt=None):
    plan, outputs = genuine[name]
    outputs = copy.deepcopy(outputs)
    if corrupt is not None:
        corrupt(outputs)
    return plan.check(outputs)


def edit_report(index, edit):
    def corrupt(outputs):
        report = json.loads(outputs[index]["stdout"])
        edit(report)
        outputs[index]["stdout"] = json.dumps(report)
    return corrupt


def find(report, **match):
    return next(r for r in report["rows"]
                if all(r[k] == v for k, v in match.items()))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_genuine_outputs_pass(genuine, name):
    verdict = verdict_of(genuine, name)
    assert verdict.attempted > 0
    assert (verdict.failed, verdict.problems) == (0, [])


def test_catalogue_rejects_flipped_exact_residual(genuine):
    def edit(report):
        find(report, identity="eq1", x=50)["residual"] = "1/7"
    assert verdict_of(genuine, "identities", edit_report(0, edit)).problems


def test_catalogue_counts_missing_and_failed_cases(genuine):
    def edit(report):
        report["rows"].remove(find(report, identity="eq2", x=10, j=55))
        find(report, identity="eq18", x=78)["pass"] = False
        report["summary"]["cases"] -= 1
        report["summary"]["failures"] = 1
    verdict = verdict_of(genuine, "identities", edit_report(0, edit))
    assert verdict.failed == 2


def test_catalogue_counts_a_silent_skip(genuine):
    def edit(report):
        report["rows"] = [r for r in report["rows"]
                          if not (r["identity"] == "eq13" and r["x"] > 35)]
        report["summary"]["cases"] = len(report["rows"])
    verdict = verdict_of(genuine, "identities", edit_report(1, edit))
    assert verdict.failed == 5 and not verdict.problems


def test_catalogue_rejects_wrong_mertens_square(genuine):
    # One wrong M(x^2) in eq17's lhs at a seeded spot-check point.
    def edit(report):
        find(report, identity="eq17", x=sorted(spots)[0])["lhs"] += 1
    spots = workloads.catalogue_spots(SEED)
    assert verdict_of(genuine, "identities", edit_report(0, edit)).problems


def test_float_square_rejects_lhs_off_the_fsum(genuine):
    def edit(report):
        find(report, identity="eq16", x=211)["lhs"] += 1e-10
    assert verdict_of(genuine, "identities", edit_report(2, edit)).problems


def test_float_square_rejects_gamma_outside_envelope(genuine):
    def edit(report):
        row = find(report, x=1500)
        row["estimate"] += 1e-10
        row["abs_error"] = abs(row["estimate"] - oracles.EULER_GAMMA)
        row["scaled_error"] = 1500 * row["abs_error"]
    assert verdict_of(genuine, "identities", edit_report(3, edit)).problems


def test_float_square_rejects_unbounded_verdict(genuine):
    def edit(report):
        report["summary"]["scaled_error_bounded"] = False
    assert verdict_of(genuine, "identities", edit_report(3, edit)).problems


def test_induction_rejects_wrong_suprema(genuine):
    def small(report):
        find(report, x=100)["sup_M_sq"] += 1
    def top(report):
        report["rows"][-1]["argmax_y_sq"] -= 1
    def sup_m(report):
        find(report, x=4777)["sup_M"] += 1
    for edit in (small, top, sup_m):
        assert verdict_of(genuine, "mertens", edit_report(1, edit)).problems


def test_induction_counts_missing_rows_and_violations(genuine):
    def edit(report):
        del report["rows"][500]
        find(report, x=5000)["step_holds"] = False
        report["summary"]["violations"] = [5000]
    verdict = verdict_of(genuine, "mertens", edit_report(1, edit))
    assert verdict.failed == 2 and verdict.problems


def test_mertens_rejects_wrong_values(genuine):
    plan, outputs = genuine["mertens"]
    queries = plan.calls[0]["xs"]

    def decade(outputs):
        outputs[0]["values"][queries.index(10 ** 9)] += 1
    def neighbour(outputs):
        outputs[0]["values"][-1] += 2
    for corrupt in (decade, neighbour):
        assert verdict_of(genuine, "mertens", corrupt).problems

    def truncated(outputs):
        outputs[0]["values"].pop()
    assert verdict_of(genuine, "mertens", truncated).failed == len(queries)


def test_mertens_queries_follow_the_seed():
    a, b = workloads.mertens_queries(1), workloads.mertens_queries(2)
    assert a == workloads.mertens_queries(1) and a != b
    assert a[:6] == [10 ** 8, 10 ** 8 - 1, 10 ** 9, 10 ** 9 - 1,
                     10 ** 10, 10 ** 10 - 1]
    assert all(10 ** 8 - 1 <= x <= 10 ** 10 for x in a)
    assert all(x - 1 == y for x, y in zip(a[::2], a[1::2]))


def test_emitted_metrics_match_the_declaration():
    per_layer = {f"{name}_s" for name in tracing.SELF_TIME_SPANS}
    per_layer |= set(tracing.COUNTS)
    per_layer |= {"arith.sieve_ns_per_value", "trace.run_s", "trace.overhead_s"}
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "run_s", "peak_rss_mb"}
