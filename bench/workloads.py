"""The two workloads: what each round asks the program to do, and how
its outputs are checked.

`identities` runs the identity catalogue, the float square identities
and the gamma series through the CLI; `mertens` runs the sublinear
Mertens recursion and then the induction sweep.  Every layer but the
Möbius sieve and the CLI's own work runs in one of them only, and is
bypassed in the other.

A workload turns a seed into a Plan: the calls one round makes (sent to
worker.py) and a check that judges one round's outputs.  Every round of
a run makes the same calls, so the share of failed operations is the
same in every run.  Checks compare against the independent oracles in
oracles.py or against properties the method must have, never against a
stored copy of earlier output.

Operations and failures.  An operation is one requested identity case,
gamma point, induction row or Mertens query.  It fails when the program
reports it as failed or it is missing from the report (a silent skip
would otherwise shorten run_s unseen).  An output that the program
reports as fine but that disagrees with an oracle is a problem, which
makes the run incorrect.
"""

import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

import oracles

# The identity catalogue in the CLI's order.  eq2/eq12 are checked at
# j = x, the midpoint (x + x^2)//2 and x^2.  eq3/eq13 are O(x^3) tail
# sums, which the package caps at x = 60 (TRIPLE_LOOP_FLOAT_BOUND); the
# benchmark asks for them to x = 40, a fifth of the cost.
CATALOGUE = ("eq1", "eq2", "eq3", "eq5", "eq6", "eq7", "eq11", "eq12",
             "eq13", "eq15", "eq16", "eq17", "eq18")
WITH_J = ("eq2", "eq12")
TRIPLE = ("eq3", "eq13")
SQUARE = ("eq7", "eq16")
# Sizes keep each round near 2.5 s on a quiet host, so that a run holds
# enough rounds for its fastest to fall in a quiet stretch (README.md).
TRIPLE_X_MAX = 40
CATALOGUE_X_MAX = 200
CATALOGUE_STEP = 2        # every other x: half the catalogue's cost
SQUARE_X_MAX = 300
GAMMA_POINTS = (375, 750, 1500)
INDUCTION_X_MAX = 6000
TOLERANCE = 1e-9          # the CLI's default --tolerance
LHS_TOLERANCE = 1e-12     # float eq7/eq16 lhs against an fsum oracle
SPOT_CHECKS = 8           # seeded samples per check
INDUCTION_FULL_X = 150    # induction rows recomputed in full up to here
DECADES = (10 ** 8, 10 ** 9, 10 ** 10)
RANDOM_POINTS = 12


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


@dataclass
class Plan:
    calls: list
    check: object      # (outputs) -> Verdict


def verify_argv(ids, x_max, mode=None, step=1):
    argv = ["verify"]
    for ident in ids:
        argv += ["--id", ident]
    argv += ["--x-min", "2", "--x-max", str(x_max), "--step", str(step),
             "--format", "json", "--no-timestamp", "--threads", "1"]
    if mode is not None:
        argv += ["--mode", mode]
    return argv


def requested_cases(ids, x_max, step=1):
    """Every (identity, x, j) a verify request over x = 2, 2 + step, ...
    up to x_max asks for."""
    cases = []
    for ident in CATALOGUE:
        if ident not in ids:
            continue
        for x in range(2, x_max + 1, step):
            if ident in WITH_J:
                cases += [(ident, x, j) for j in sorted({x, (x + x * x) // 2, x * x})]
            else:
                cases.append((ident, x, None))
    return cases


def _report(output, verdict, label):
    """The parsed JSON report of one CLI call, or None."""
    if output.get("code") not in (0, 1):
        verdict.problem(f"{label}: exit code {output.get('code')}")
        return None
    try:
        return json.loads(output["stdout"])
    except (KeyError, ValueError) as exc:
        verdict.problem(f"{label}: unreadable report ({exc})")
        return None


def check_verify(output, cases, verdict, row_check=None):
    """Completeness and pass/residual checks of one verify report."""
    verdict.attempted += len(cases)
    report = _report(output, verdict, "verify")
    rows = {}
    for row in (report or {}).get("rows", []):
        key = (row["identity"], row["x"], row["j"])
        if key in rows:
            verdict.problem(f"duplicate row {key}")
        rows[key] = row
    for key in set(rows) - set(cases):
        verdict.problem(f"unrequested row {key}")
    for key in cases:
        row = rows.get(key)
        if row is None or row["pass"] is not True:
            verdict.failed += 1
            continue
        residual = row["residual"]
        if row["mode"] == "exact":
            if residual not in (0, "0"):
                verdict.problem(f"{key}: exact residual {residual} passed")
        elif not abs(float(residual)) <= TOLERANCE:
            verdict.problem(f"{key}: float residual {residual} passed")
        if row_check is not None:
            row_check(key, row, verdict)
    if report is not None:
        failures = sum(1 for row in rows.values() if row["pass"] is not True)
        if report["summary"]["cases"] != len(rows) or (
                report["summary"]["failures"] != failures):
            verdict.problem("verify summary disagrees with its rows")
        if output["code"] != (1 if failures else 0):
            verdict.problem(f"verify exit code {output['code']} with "
                            f"{failures} failures")


# --- identities --------------------------------------------------------

def catalogue_spots(seed: int) -> set[int]:
    """The x at which eq17's M(x^2) is checked against the plain sieve."""
    return set(random.Random(seed).sample(
        range(2, CATALOGUE_X_MAX + 1, CATALOGUE_STEP), SPOT_CHECKS))


def identities(seed: int) -> Plan:
    """The catalogue in `verify`'s default auto mode at every other x,
    eq7/eq16 in float mode, then the gamma series, one call after
    another."""
    wide = tuple(i for i in CATALOGUE if i not in TRIPLE)
    requests = [(wide, CATALOGUE_X_MAX, None, CATALOGUE_STEP),
                (TRIPLE, TRIPLE_X_MAX, None, 1),
                (SQUARE, SQUARE_X_MAX, "float", 1)]
    spots = catalogue_spots(seed)
    mertens = np.cumsum(oracles.mobius_plain(CATALOGUE_X_MAX ** 2), dtype=np.int64)

    def eq17_spot(key, row, verdict):
        ident, x, _ = key
        if ident == "eq17" and x in spots and int(row["lhs"]) != int(mertens[x * x]):
            verdict.problem(f"eq17 at x={x}: M(x^2) = {row['lhs']}, "
                            f"sieve gives {mertens[x * x]}")

    squares = [x * x for x in range(2, SQUARE_X_MAX + 1)]
    mu = oracles.mobius_plain(squares[-1])
    h_terms = oracles.harmonic_terms(squares[-1])
    expected = {
        "eq7": dict(zip(range(2, SQUARE_X_MAX + 1),
                        oracles.prefix_fsums(h_terms, squares))),
        "eq16": dict(zip(range(2, SQUARE_X_MAX + 1),
                         oracles.prefix_fsums(h_terms * mu, squares))),
    }

    def lhs_against_fsum(key, row, verdict):
        ident, x, _ = key
        want = expected[ident][x]
        if not abs(float(row["lhs"]) - want) <= LHS_TOLERANCE:
            verdict.problem(f"{ident} at x={x}: lhs {row['lhs']!r}, fsum {want!r}")

    row_checks = (eq17_spot, None, lhs_against_fsum)

    def check(outputs):
        verdict = Verdict()
        for (ids, x_max, _, step), row_check, output in zip(
                requests, row_checks, outputs):
            check_verify(output, requested_cases(ids, x_max, step), verdict,
                         row_check)
        check_gamma(outputs[len(requests)], verdict)
        return verdict

    calls = [{"kind": "cli", "argv": verify_argv(ids, x_max, mode, step)}
             for ids, x_max, mode, step in requests]
    calls.append({"kind": "cli", "argv": [
        "gamma", "--points", ",".join(map(str, GAMMA_POINTS)),
        "--format", "json", "--no-timestamp"]})
    return Plan(calls, check)


def check_gamma(output, verdict):
    verdict.attempted += len(GAMMA_POINTS)
    report = _report(output, verdict, "gamma")
    rows = {row["x"]: row for row in (report or {}).get("rows", [])}
    for x in GAMMA_POINTS:
        row = rows.get(x)
        if row is None:
            verdict.failed += 1
            continue
        estimate = row["estimate"]
        gap = oracles.gamma_envelope_gap(x, estimate)
        if not gap <= 0:
            verdict.problem(f"gamma at x={x}: estimate {estimate!r} is "
                            f"{gap:.3g} outside the error envelope")
        if row["reference"] != oracles.EULER_GAMMA or (
                row["abs_error"] != abs(estimate - oracles.EULER_GAMMA)) or (
                row["scaled_error"] != x * row["abs_error"]):
            verdict.problem(f"gamma at x={x}: inconsistent error columns")
    if set(rows) - set(GAMMA_POINTS):
        verdict.problem(f"gamma: unrequested rows {sorted(set(rows) - set(GAMMA_POINTS))}")
    if report is not None:
        if report["summary"]["scaled_error_bounded"] is not True:
            verdict.problem("gamma: scaled_error_bounded is not true")
        if output["code"] != 0:
            verdict.problem(f"gamma: exit code {output['code']}")


# --- mertens -----------------------------------------------------------

def mertens_queries(seed: int) -> list[int]:
    """Each point x is followed by its neighbour x - 1.

    The decade points come first, ascending, so the grow-only base table
    is rebuilt at each of them and reaches its final size at 10^10.  The
    seeded points follow in a seeded order: one log-uniform point in each
    of RANDOM_POINTS equal slices of [10^8, 10^10], so the total work
    hardly depends on the seed.
    """
    rng = random.Random(seed)
    low, decades = 8, len(DECADES) - 1
    width = decades / RANDOM_POINTS
    drawn = [int(10 ** (low + width * (k + rng.random())))
             for k in range(RANDOM_POINTS)]
    drawn = [x for x in drawn if x not in DECADES and x - 1 not in DECADES]
    rng.shuffle(drawn)
    return [v for x in (*DECADES, *drawn) for v in (x, x - 1)]


def check_mertens(output, queries, mu, verdict):
    """Published decade values, M(x) - M(x-1) = mu(x), |M(x)| < sqrt(x);
    `mu` maps every point x to mu(x)."""
    verdict.attempted += len(queries)
    values = output.get("values")
    if values is None or len(values) != len(queries):
        verdict.failed += len(queries)
        return
    got = dict(zip(queries, values))
    for x, value in got.items():
        if not abs(value) < math.sqrt(x):
            verdict.problem(f"|M({x})| = {abs(value)} is not below sqrt(x)")
        if x in oracles.PUBLISHED_MERTENS and value != oracles.PUBLISHED_MERTENS[x]:
            verdict.problem(f"M({x}) = {value}, published "
                            f"{oracles.PUBLISHED_MERTENS[x]}")
    for x, mu_x in mu.items():
        if got[x] - got[x - 1] != mu_x:
            verdict.problem(f"M({x}) - M({x - 1}) = {got[x] - got[x - 1]}, "
                            f"mu({x}) = {mu_x}")


def induction_checker(seed: int):
    """The check of one `induction --grid all` report over [3, x_max]."""
    x_max = INDUCTION_X_MAX
    mu = oracles.mobius_plain(x_max)
    abs_m = np.abs(np.cumsum(mu, dtype=np.int64))
    spots = random.Random(seed).sample(range(INDUCTION_FULL_X + 1, x_max),
                                       SPOT_CHECKS)
    squares = {}

    def abs_m_square(y):
        if y not in squares:
            squares[y] = abs(oracles.mertens_square(y, mu))
        return squares[y]

    def check(output, verdict):
        xs = list(range(3, x_max + 1))
        verdict.attempted += len(xs)
        report = _report(output, verdict, "induction")
        rows = {}
        for row in (report or {}).get("rows", []):
            if row["x"] in rows:
                verdict.problem(f"duplicate row x={row['x']}")
            rows[row["x"]] = row
        if set(rows) - set(xs):
            verdict.problem("unrequested induction rows")
        sup_m = arg_m = sup_sq = arg_sq = 0
        for x in xs:
            # sup over y in [3, x]: the first y attaining it is the argmax.
            if abs_m[x] > sup_m:
                sup_m, arg_m = int(abs_m[x]), x
            if x <= INDUCTION_FULL_X and abs_m_square(x) > sup_sq:
                sup_sq, arg_sq = abs_m_square(x), x
            row = rows.get(x)
            if row is None or row["step_holds"] is not True:
                verdict.failed += 1
                continue
            if (row["sup_M"], row["argmax_y"]) != (sup_m, arg_m):
                verdict.problem(f"x={x}: sup |M_y| {row['sup_M']} at "
                                f"{row['argmax_y']}, oracle {sup_m} at {arg_m}")
            if x <= INDUCTION_FULL_X and (
                    (row["sup_M_sq"], row["argmax_y_sq"]) != (sup_sq, arg_sq)):
                verdict.problem(f"x={x}: sup |M_y^2| {row['sup_M_sq']} at "
                                f"{row['argmax_y_sq']}, oracle {sup_sq} at {arg_sq}")
            rhs = 2.0 * math.sqrt(x) * row["sup_M"]
            if not math.isclose(row["ratio"], row["sup_M_sq"] / rhs, rel_tol=1e-12) or (
                    not math.isclose(row["minimal_C"], row["sup_M"] / (
                        math.sqrt(x) * math.log(x)), rel_tol=1e-12)) or (
                    row["step_holds"] != (row["sup_M_sq"] <= rhs)):
                verdict.problem(f"x={x}: ratio/minimal_C/step_holds inconsistent")
        top = rows.get(x_max)
        if top is not None:
            y = top["argmax_y_sq"]
            if not 3 <= y <= x_max or abs_m_square(y) != top["sup_M_sq"]:
                verdict.problem(f"top row: |M({y}^2)| is not sup {top['sup_M_sq']}")
        for y in spots:
            row = rows.get(y)
            if row is not None and abs_m_square(y) > row["sup_M_sq"]:
                verdict.problem(f"x={y}: |M(y^2)| = {abs_m_square(y)} exceeds "
                                f"sup {row['sup_M_sq']}")
        if report is not None and (report["summary"]["violations"]
                                   or output["code"] != 0):
            verdict.problem(f"induction: violations "
                            f"{report['summary']['violations'][:5]}, "
                            f"exit code {output['code']}")

    return check


def mertens(seed: int) -> Plan:
    """mertens_sublinear at decade and seeded points, then the induction
    sweep over every x in [3, INDUCTION_X_MAX], in one process."""
    queries = mertens_queries(seed)
    mu = {x: oracles.mobius_trial(x) for x in queries[::2]}
    check_induction = induction_checker(seed)

    def check(outputs):
        verdict = Verdict()
        check_mertens(outputs[0], queries, mu, verdict)
        check_induction(outputs[1], verdict)
        return verdict

    return Plan([{"kind": "mertens", "xs": queries},
                 {"kind": "cli", "argv": [
                     "induction", "--x-max", str(INDUCTION_X_MAX), "--grid", "all",
                     "--format", "json", "--no-timestamp"]}], check)


WORKLOADS = {
    "identities": identities,
    "mertens": mertens,
}
