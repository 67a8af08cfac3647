"""Command-line front end with deterministic CSV/JSON reports.

Commands:

    sieve      mu and Mertens values over a window [lo, hi]
    mertens    one Mertens value via the sublinear evaluator
    verify     identity residual sweeps (columns pinned below)
    gamma      gamma-series convergence table
    induction  sup-bound step comparison sweep

Reports are byte-stable: row order is fixed by the input grid, floats
are printed with %.17g (round-trip), and every command runs in the
calling thread, so output and work are the same for any --threads.
--no-timestamp drops the one run-dependent line.  Exit status: 0 all
checks passed, 1 at least one check failed, 2 usage or capacity error.
"""

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from fractions import Fraction
from math import isfinite

import numpy as np

from .arith import mobius_segment
from .config import (
    DEFAULT_TOLERANCE,
    TRIPLE_LOOP_FLOAT_BOUND,
    CapacityError,
)
from .gamma import _DEFAULT_POINTS, GammaEstimate, gamma_convergence_study
from .identities import CATALOGUE, Identity, IdentityCase, verify_case
from .induction import InductionRow, induction_sweep
from .sequences import SequenceCache, mertens_sublinear

__all__ = ["RunConfig", "main", "run"]

_VERIFY_COLUMNS = ("identity", "x", "j", "s", "mode", "lhs", "rhs",
                   "residual", "pass")
_GAMMA_COLUMNS = tuple(f.name for f in fields(GammaEstimate))
_INDUCTION_COLUMNS = tuple(f.name for f in fields(InductionRow))
_SIEVE_COLUMNS = ("k", "mu", "mertens")
_MERTENS_COLUMNS = ("x", "mertens")

_TAIL_CAP = ("eq3/eq13 tail double sums are capped at x <= "
             f"{TRIPLE_LOOP_FLOAT_BOUND} (TRIPLE_LOOP_FLOAT_BOUND)")

@dataclass
class RunConfig:
    """One resolved invocation; `run` consumes this and nothing else.

    `main` fills it from the parsed arguments, so each default lives in
    the parser; a field of another command's options stays None.
    """

    command: str
    output: str
    format: str
    threads: int
    timestamp: bool
    tolerance: float
    # sieve
    lo: int | None = None
    hi: int | None = None
    # mertens
    x: int | None = None
    # verify (x_max also induction)
    identities: list[str] | None = None
    x_min: int | None = None
    x_max: int | None = None
    step: int | None = None
    s: float | None = None
    mode: str | None = None
    # gamma
    points: tuple[int, ...] | None = None
    # induction
    n: int | None = None
    grid: str | None = None
    mu_file: str | None = None


def _json_cell(v):
    if isinstance(v, dict):
        return {k: _json_cell(u) for k, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_cell(u) for u in v]
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


def _emit(config: RunConfig, columns, rows, summary: dict) -> None:
    """Write rows (list of dicts) as CSV or JSON; '-' means stdout."""
    if config.format == "json":
        doc = {"command": config.command,
               "rows": [{c: _json_cell(r[c]) for c in columns} for r in rows],
               "summary": {k: _json_cell(v) for k, v in summary.items()}}
        if config.timestamp:
            doc["generated"] = datetime.now(timezone.utc).isoformat()
        text = json.dumps(doc, indent=2) + "\n"
    else:
        buf = io.StringIO()
        if config.timestamp:
            buf.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for r in rows:
            writer.writerow([_fmt_cell(r[c]) for c in columns])
        text = buf.getvalue()
    if config.output in ("-", ""):
        sys.stdout.write(text)
    else:
        with open(config.output, "w", newline="") as fh:
            fh.write(text)


# --- verify ---------------------------------------------------------------

def _verify_cases(config: RunConfig) -> tuple[list[IdentityCase], int]:
    """The requested cases, and how many eq3/eq13 cases the tail-sum cap
    leaves out."""
    known = {i.value for i in Identity}
    bad = [w for w in config.identities if w not in known]
    if bad:
        raise ValueError(f"unknown identities: {', '.join(bad)}")
    wanted = set(config.identities) or known
    if config.x_min < 1 or config.x_max < config.x_min:
        raise ValueError(
            f"need 1 <= x-min <= x-max, got [{config.x_min}, {config.x_max}]")
    if config.step < 1:
        raise ValueError(f"step must be >= 1, got {config.step}")
    xs = list(range(config.x_min, config.x_max + 1, config.step))
    cases = []
    skipped = 0
    for ident, entry in CATALOGUE.items():
        if ident.value not in wanted:
            continue
        s = config.s if entry.s is None else entry.s
        for x in xs:
            if entry.x_cap is not None and x > entry.x_cap:
                skipped += 1
                continue
            js = sorted({x, (x + x * x) // 2, x * x}) if entry.needs_j else [None]
            cases += [IdentityCase(ident, x, j, s, config.mode) for j in js]
    return cases, skipped


def _run_verify(config: RunConfig) -> int:
    if not (isfinite(config.tolerance) and config.tolerance >= 0):
        raise ValueError(
            f"--tolerance must be finite and >= 0, got {config.tolerance}")
    if not isfinite(config.s):
        raise ValueError(f"--s must be finite, got {config.s}")
    cases, skipped = _verify_cases(config)
    if not cases:
        raise ValueError(f"no cases to run: {_TAIL_CAP}")
    need = max(c.x ** CATALOGUE[c.identity].reach for c in cases)
    cache = SequenceCache(need)
    memo = {}

    def one(case: IdentityCase) -> dict:
        res = verify_case(case, cache=cache, tolerance=config.tolerance,
                          memo=memo)
        return {"identity": case.identity.value, "x": case.x, "j": case.j,
                "s": case.s, "mode": res.kind, "lhs": res.lhs, "rhs": res.rhs,
                "residual": res.value, "pass": res.passed}

    rows = [one(case) for case in cases]
    failures = [r for r in rows if not r["pass"]]
    summary = {"cases": len(rows), "failures": len(failures),
               "tolerance": config.tolerance,
               "failed_at": [f"{r['identity']}@x={r['x']}" for r in failures]}
    if skipped:
        summary["skipped"] = {"count": skipped, "reason": _TAIL_CAP}
    _emit(config, _VERIFY_COLUMNS, rows, summary)
    return 0 if not failures else 1


# --- gamma ------------------------------------------------------------------

def _run_gamma(config: RunConfig) -> int:
    if not config.points:
        raise ValueError("gamma needs at least one point")
    if min(config.points) < 2:
        raise ValueError("gamma points must be >= 2")
    repeated = sorted({p for p in config.points if config.points.count(p) > 1})
    if repeated:
        raise ValueError(f"gamma points must be distinct, repeated: "
                         f"{', '.join(map(str, repeated))}")
    study = gamma_convergence_study(config.points)
    rows = [vars(r) for r in study.rows]
    summary = {"max_scaled_error": study.max_scaled_error,
               "doubling_ratios": [float(r) for r in study.doubling_ratios],
               "scaled_error_bounded": study.scaled_error_bounded}
    _emit(config, _GAMMA_COLUMNS, rows, summary)
    return 0 if study.scaled_error_bounded else 1


# --- induction --------------------------------------------------------------

def _run_induction(config: RunConfig) -> int:
    mu_values = None
    if config.mu_file:
        mu_values = np.loadtxt(config.mu_file, dtype=np.int64, ndmin=1)
        bad = np.flatnonzero(np.abs(mu_values) > 1)
        if bad.size:
            k = int(bad[0])
            raise ValueError(
                f"--mu-file: mu values must be -1, 0 or 1; entry {k + 1} "
                f"is {int(mu_values[k])}")
    report = induction_sweep(config.x_max, n=config.n, grid=config.grid,
                             mu_values=mu_values)
    rows = [vars(r) for r in report.rows]
    summary = {"x_max": report.x_max, "n": report.n, "grid": report.grid,
               "max_ratio": report.max_ratio, "minimal_C": report.minimal_C,
               "violations": list(report.violations),
               "bound_x0": report.params.x0, "bound_C": report.params.C}
    _emit(config, _INDUCTION_COLUMNS, rows, summary)
    return 0 if not report.violations else 1


# --- sieve / mertens ------------------------------------------------------

def _run_sieve(config: RunConfig) -> int:
    if not 1 <= config.lo <= config.hi:
        raise ValueError(f"need 1 <= lo <= hi, got [{config.lo}, {config.hi}]")
    table = mobius_segment(config.lo, config.hi)
    base = 0 if config.lo == 1 else mertens_sublinear(config.lo - 1)
    running = base + np.cumsum(table.values, dtype=np.int64)
    rows = [{"k": k, "mu": int(table[k]), "mertens": int(running[k - config.lo])}
            for k in range(config.lo, config.hi + 1)]
    summary = {"lo": config.lo, "hi": config.hi,
               "mertens_at_hi": int(running[-1])}
    _emit(config, _SIEVE_COLUMNS, rows, summary)
    return 0


def _run_mertens(config: RunConfig) -> int:
    if config.x < 1:
        raise ValueError(f"x must be >= 1, got {config.x}")
    value = mertens_sublinear(config.x)
    rows = [{"x": config.x, "mertens": value}]
    _emit(config, _MERTENS_COLUMNS, rows, {"x": config.x, "mertens": value})
    return 0


_RUNNERS = {"sieve": _run_sieve, "mertens": _run_mertens,
            "verify": _run_verify, "gamma": _run_gamma,
            "induction": _run_induction}


def run(config: RunConfig) -> int:
    """Execute one configured command; returns the process exit code."""
    runner = _RUNNERS.get(config.command)
    if runner is None:
        print(f"error: unknown command {config.command!r}", file=sys.stderr)
        return 2
    try:
        return runner(config)
    except (CapacityError, MemoryError) as exc:
        print(f"error: capacity: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", default="-",
                   help="output path, '-' for stdout (default)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility, at least 1; output and "
                        "work are the same for any value")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the generated-at line for byte-stable output")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mertenskit",
        description="Mobius/Mertens identity verification and bound sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="mu and Mertens over a window")
    p.add_argument("--lo", type=int, default=1)
    p.add_argument("--hi", type=int, default=100)
    _add_common(p)

    p = sub.add_parser("mertens", help="Mertens value via sublinear recursion")
    p.add_argument("--x", type=int, required=True)
    _add_common(p)

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
    _add_common(p)

    p = sub.add_parser("gamma", help="gamma-series convergence table")
    p.add_argument("--points", default=",".join(map(str, _DEFAULT_POINTS)),
                   help="comma-separated truncation points")
    _add_common(p)

    p = sub.add_parser("induction", help="sup-bound step comparison")
    p.add_argument("--x-max", type=int, default=10000)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--grid", choices=("default", "all"), default="default")
    p.add_argument("--mu-file",
                   help="whitespace-separated mu values for k=1.., replacing "
                        "the sieve (synthetic-data runs)")
    _add_common(p)
    return parser


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    if args["threads"] < 1:
        print(f"error: --threads must be >= 1, got {args['threads']}",
              file=sys.stderr)
        return 2
    args["timestamp"] = not args.pop("no_timestamp")
    if "points" in args:
        items = [t.strip() for t in args["points"].split(",")]
        if any(items) and not all(items):
            print(f"error: --points has a blank item: {args['points']!r}",
                  file=sys.stderr)
            return 2
        try:
            args["points"] = tuple(int(t) for t in items if t)
        except ValueError:
            print("error: --points must be comma-separated integers",
                  file=sys.stderr)
            return 2
    return run(RunConfig(**args))


if __name__ == "__main__":
    sys.exit(main())
