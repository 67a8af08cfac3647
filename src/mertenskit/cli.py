"""Command-line front end with deterministic CSV/JSON reports.

Commands:

    sieve      mu and Mertens values over a window [lo, hi]
    mertens    one Mertens value via the sublinear evaluator
    verify     identity residual sweeps
    gamma      gamma-series convergence table
    induction  sup-bound step comparison sweep

Reports are byte-stable: row order is fixed by the input grid, floats
are printed with %.17g (round-trip), and every command runs in the
calling thread, so output and work are the same for any --threads.
--no-timestamp drops the one run-dependent line.  -o, --format,
--threads and --no-timestamp are common; --tolerance is a verify
option.  Exit status: 0 all checks passed, 1 at least one check
failed, 2 usage or capacity error.
"""

import argparse
import csv
import json
import sys
from contextlib import nullcontext
from datetime import datetime, timezone
from fractions import Fraction
from math import isfinite
from pathlib import Path

import numpy as np

from .arith import _mertens_segments
from .config import DEFAULT_TOLERANCE, CapacityError, check_capacity
from .gamma import _DEFAULT_POINTS, gamma_convergence_study
from .identities import CATALOGUE, Identity, IdentityCase, verify_case
from .induction import BOUND_X0, induction_sweep
from .sequences import SequenceCache, mertens_sublinear

__all__ = ["main"]

# Peak bytes per sieve report row: the row dicts, and for JSON the encoder's
# chunks and the report text.  Under tracemalloc, 10^5 rows at lo = 1 and
# at lo = 10^11 peaked at 248-269 B as CSV and 925-969 B as JSON.
_SIEVE_ROW_BYTES = {"csv": 300, "json": 1000}


def _json_cell(v):
    if v is None or isinstance(v, bool):
        return v
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return str(v)


def _fmt_cell(v) -> str:
    """A CSV cell: the JSON value, spelled "" / true / false / %.17g."""
    v = _json_cell(v)
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _emit(args: argparse.Namespace, rows: list[dict], summary: dict) -> None:
    """Write the report as CSV or JSON; '-' means stdout.

    The row contract: at least one row, the same keys in every row, and
    the keys in column order.  The CSV header is the first row's keys and
    the rows are written one by one; JSON holds the rows as built."""
    stamp = (None if args.no_timestamp
             else datetime.now(timezone.utc).isoformat())
    with (nullcontext(sys.stdout) if args.output in ("-", "")
          else open(args.output, "w", newline="")) as fh:
        if args.format == "json":
            doc = {"command": args.command, "rows": rows, "summary": summary}
            if stamp:
                doc["generated"] = stamp
            fh.write(json.dumps(doc, indent=2, default=_json_cell) + "\n")
        else:
            if stamp:
                fh.write(f"# generated {stamp}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(rows[0])
            writer.writerows([_fmt_cell(v) for v in r.values()] for r in rows)


def _probe_output(path: str) -> None:
    """Refuse an -o path that cannot be opened before any work, and leave
    the file system as it was: opening for appending keeps an existing
    report, and a file the probe created is removed again.  A FIFO is
    left to _emit, since a second open would find its reader gone."""
    target = Path(path)
    if path in ("-", "") or target.is_fifo():
        return
    existed = target.exists()
    open(target, "a").close()
    if not existed:
        target.unlink()


# --- verify ---------------------------------------------------------------

def _verify_cases(args: argparse.Namespace
                  ) -> tuple[list[IdentityCase], SequenceCache]:
    """The requested cases in catalogue order and the cache that serves
    them all.  The cache is sized from the range alone, so a range over
    the memory budget is refused before any case is built, and
    IdentityCase refuses a case its entry cannot run before any case is
    evaluated."""
    known = {i.value for i in Identity}
    bad = [w for w in args.identities if w not in known]
    if bad:
        raise ValueError(f"unknown identities: {', '.join(bad)}")
    wanted = set(args.identities) or known
    if args.x_min < 1 or args.x_max < args.x_min:
        raise ValueError(
            f"need 1 <= x-min <= x-max, got [{args.x_min}, {args.x_max}]")
    if args.step < 1:
        raise ValueError(f"step must be >= 1, got {args.step}")
    xs = range(args.x_min, args.x_max + 1, args.step)
    entries = [(ident, entry) for ident, entry in CATALOGUE.items()
               if ident.value in wanted]
    cache = SequenceCache(max(xs[-1] ** entry.reach for _, entry in entries))
    cases = []
    for ident, entry in entries:
        s = args.s if entry.s is None else entry.s
        for x in xs:
            js = sorted({x, (x + x * x) // 2, x * x}) if entry.needs_j else [None]
            cases += [IdentityCase(ident, x, j, s, args.mode) for j in js]
    return cases, cache


def _run_verify(args: argparse.Namespace) -> tuple[list[dict], dict, int]:
    if not (isfinite(args.tolerance) and args.tolerance >= 0):
        raise ValueError(
            f"--tolerance must be finite and >= 0, got {args.tolerance}")
    if not isfinite(args.s):
        raise ValueError(f"--s must be finite, got {args.s}")
    cases, cache = _verify_cases(args)
    memo = {}

    def one(case: IdentityCase) -> dict:
        res = verify_case(case, cache=cache, tolerance=args.tolerance,
                          memo=memo)
        return {"identity": case.identity.value, "x": case.x, "j": case.j,
                "s": case.s, "mode": res.kind, "lhs": res.lhs, "rhs": res.rhs,
                "residual": res.value, "pass": res.passed}

    # In ascending x, so each product kind grows once; at each x the
    # closures come before the cases whose tables reach x^2, so eq5 and
    # eq15 share one exact table over 1..x^2.  Rows keep their order.
    rows = [None] * len(cases)
    for i in sorted(range(len(cases)), key=lambda i: (
            cases[i].x, CATALOGUE[cases[i].identity].reach)):
        rows[i] = one(cases[i])
    failures = [r for r in rows if not r["pass"]]
    summary = {"cases": len(rows), "failures": len(failures),
               "tolerance": args.tolerance,
               "failed_at": [f"{r['identity']}@x={r['x']}" for r in failures]}
    return rows, summary, 0 if not failures else 1


# --- gamma ------------------------------------------------------------------

def _gamma_points(text: str) -> tuple[int, ...]:
    """--points as integers; gamma_convergence_study checks the values."""
    items = [t.strip() for t in text.split(",")]
    if any(items) and not all(items):
        raise ValueError(f"--points has a blank item: {text!r}")
    try:
        return tuple(int(t) for t in items if t)
    except ValueError:
        raise ValueError("--points must be comma-separated integers") from None


def _run_gamma(args: argparse.Namespace) -> tuple[list[dict], dict, int]:
    study = gamma_convergence_study(_gamma_points(args.points))
    rows = [vars(r) for r in study.rows]
    summary = {"max_scaled_error": study.max_scaled_error,
               "doubling_ratios": study.doubling_ratios,
               "scaled_error_bounded": study.scaled_error_bounded}
    return rows, summary, 0 if study.scaled_error_bounded else 1


# --- induction --------------------------------------------------------------

def _run_induction(args: argparse.Namespace) -> tuple[list[dict], dict, int]:
    mu_values = None
    if args.mu_file:
        # In file order, however many values a line holds.
        mu_values = np.loadtxt(args.mu_file, dtype=np.int64, ndmin=1).ravel()
        bad = np.flatnonzero(np.abs(mu_values) > 1)
        if bad.size:
            k = int(bad[0])
            raise ValueError(
                f"--mu-file: mu values must be -1, 0 or 1; entry {k + 1} "
                f"is {int(mu_values[k])}")
    report = induction_sweep(args.x_max, n=args.n, grid=args.grid,
                             mu_values=mu_values)
    rows = [vars(r) for r in report.rows]
    summary = {"x_max": report.x_max, "n": report.n, "grid": report.grid,
               "max_ratio": report.max_ratio, "minimal_C": report.minimal_C,
               "violations": report.violations,
               "bound_x0": BOUND_X0, "bound_C": report.minimal_C}
    return rows, summary, 0 if not report.violations else 1


# --- sieve / mertens ------------------------------------------------------

def _check_float_range(option: str, value: int) -> None:
    """Refuse an integer past float range: mertens_sublinear sizes its
    base table from x^(2/3) in float arithmetic."""
    if value > sys.float_info.max:
        raise ValueError(f"{option} has {len(str(value))} digits, past "
                         f"float range")


def _run_sieve(args: argparse.Namespace) -> tuple[list[dict], dict, int]:
    if not 1 <= args.lo <= args.hi:
        raise ValueError(f"need 1 <= lo <= hi, got [{args.lo}, {args.hi}]")
    _check_float_range("--lo", args.lo)
    check_capacity(_SIEVE_ROW_BYTES[args.format] * (args.hi - args.lo + 1),
                   f"sieve {args.format} report")
    base = 0 if args.lo == 1 else mertens_sublinear(args.lo - 1)
    rows = [{"k": lo + j, "mu": int(m), "mertens": int(r)}
            for lo, mu, running in _mertens_segments(args.lo, args.hi, base)
            for j, (m, r) in enumerate(zip(mu, running))]
    summary = {"lo": args.lo, "hi": args.hi,
               "mertens_at_hi": rows[-1]["mertens"]}
    return rows, summary, 0


def _run_mertens(args: argparse.Namespace) -> tuple[list[dict], dict, int]:
    _check_float_range("--x", args.x)
    row = {"x": args.x, "mertens": mertens_sublinear(args.x)}
    return [row], row, 0


def _add_common(p: argparse.ArgumentParser, runner) -> None:
    p.set_defaults(run=runner)
    p.add_argument("-o", "--output", default="-",
                   help="output path, '-' for stdout (default)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility, at least 1; output and "
                        "work are the same for any value")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the generated-at line for byte-stable output")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mertenskit",
        description="Mobius/Mertens identity verification and bound sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="mu and Mertens over a window")
    p.add_argument("--lo", type=int, default=1)
    p.add_argument("--hi", type=int, default=100)
    _add_common(p, _run_sieve)

    p = sub.add_parser("mertens", help="Mertens value via sublinear recursion")
    p.add_argument("--x", type=int, required=True)
    _add_common(p, _run_mertens)

    p = sub.add_parser("verify", help="identity residual sweep")
    p.add_argument("--id", dest="identities", action="append", default=[],
                   help="identity name (eq1..eq18); repeatable; default all")
    p.add_argument("--x-min", type=int, default=2)
    p.add_argument("--x-max", type=int, default=200)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--s", type=float, default=1.0,
                   help="exponent for the s-generic identities")
    p.add_argument("--mode", choices=("auto", "exact", "float"),
                   default="auto")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    _add_common(p, _run_verify)

    p = sub.add_parser("gamma", help="gamma-series convergence table")
    p.add_argument("--points", default=",".join(map(str, _DEFAULT_POINTS)),
                   help="comma-separated truncation points")
    _add_common(p, _run_gamma)

    p = sub.add_parser("induction", help="sup-bound step comparison")
    p.add_argument("--x-max", type=int, default=10000)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--grid", choices=("default", "all"), default="default")
    p.add_argument("--mu-file",
                   help="whitespace-separated mu values for k=1.., replacing "
                        "the sieve (synthetic-data runs)")
    _add_common(p, _run_induction)
    return parser


def main(argv=None) -> int:
    """Run one command line; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.threads < 1:
        print(f"error: --threads must be >= 1, got {args.threads}",
              file=sys.stderr)
        return 2
    try:
        _probe_output(args.output)
        rows, summary, code = args.run(args)
        _emit(args, rows, summary)
        return code
    except (CapacityError, MemoryError) as exc:
        print(f"error: capacity: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
