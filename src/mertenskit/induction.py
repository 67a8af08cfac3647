"""Empirical induction step for square-root bounds on Mertens sums.

For the bound family |M_y| <= C sqrt(y) (log y)^n, the identity
C sqrt(x^2) (log x^2)^n = C 2^n x (log x)^n chains the bound at x
through to x^2.  At each x this module compares

    sup_{3<=y<=x} |M_{y^2}|  vs  2^n sqrt(x) sup_{3<=y<=x} |M_y|:

the left side is the sup over [3, x^2] at the squares only.  Both come
from one windowed sieve of mu up to x^2 (x = 10^4: 10^8 sieved values),
summed by arith._mertens_at in blocks between consecutive points of
{1..x} and the squares, so M is formed only at y <= x and at the
squares.  check_induction_step(x) gives the row at x, suprema
included; a sweep reports the rows, the worst step ratio and the
minimal admissible C.  Chaining the bound to all of [3, x^2] needs
the sup over the whole range, which is not computed here.
"""

import sys
from dataclasses import dataclass
from math import isfinite, isqrt, log, sqrt

import numpy as np

from .arith import _mertens_at, _scan_bytes
from .config import check_capacity

__all__ = [
    "InductionReport",
    "InductionRow",
    "check_induction_step",
    "induction_sweep",
    "mertens_square_table",
]

# The least y of the bound |M_y| <= C sqrt(y) (log y)^n, where both
# suprema start.
BOUND_X0 = 3


@dataclass(frozen=True)
class InductionRow:
    x: int
    n: int
    sup_M: int          # sup over 3 <= y <= x of |M_y|
    argmax_y: int       # the least y attaining it
    sup_M_sq: int       # sup over 3 <= y <= x of |M_{y^2}|
    argmax_y_sq: int
    lhs: int            # sup over y <= x of |M_{y^2}|
    rhs: float          # 2^n sqrt(x) sup_M
    ratio: float
    minimal_C: float
    step_holds: bool


@dataclass(frozen=True)
class InductionReport:
    n: int
    x_max: int
    grid: str
    rows: tuple[InductionRow, ...]
    max_ratio: float
    minimal_C: float
    violations: tuple[int, ...]


def mertens_square_table(x_max: int, mu_values=None):
    """Mertens prefix values at 1..x_max and at the squares y^2, y <= x_max.

    Returns (m_small, m_sq): int64 arrays indexed by k and by y, slot 0
    zero.  Both come from one arith._mertens_at scan of mu over
    [1, x_max^2] at the points 1..x_max and y^2 for y > sqrt(x_max):
    mu is taken in windows, so only one window's memory is live, and
    mu is summed in blocks between consecutive points, so M is formed
    only at those points.  The charge is one window's bytes plus 56 B
    per y: the point set and its block sums hold 32, as do M and the
    two tables after the scan (a first call traced 50 B per y at
    64-value windows and x_max = 150, block starts included).
    `mu_values` (mu at k = 1..x_max^2, any int array-like) replaces the
    sieve when given; this is the hook for synthetic-counterexample runs.
    """
    if x_max < BOUND_X0:
        raise ValueError(f"x_max must be >= {BOUND_X0}, got {x_max}")
    limit = x_max * x_max
    check_capacity(_scan_bytes(limit, held=1) + 56 * x_max,
                   "segmented square table")
    mu = None
    if mu_values is not None:
        check_capacity(16 * limit, "injected mu table")
        mu = np.asarray(mu_values, dtype=np.int64)
        if len(mu) < limit:
            raise ValueError(
                f"mu_values must cover 1..{limit}, got {len(mu)} entries")
    # The squares up to x_max are among 1..x_max; the rest follow them.
    root = isqrt(x_max)
    m = _mertens_at(np.concatenate((
        np.arange(1, x_max + 1, dtype=np.int64),
        np.arange(root + 1, x_max + 1, dtype=np.int64) ** 2)), mu)
    m_small = np.concatenate(([0], m[:x_max]))
    m_sq = np.concatenate(
        ([0], m[np.arange(1, root + 1) ** 2 - 1], m[x_max:]))
    return m_small, m_sq


def sup_curves(m_small: np.ndarray, m_sq: np.ndarray):
    """Running maxima of |M_y| and |M_{y^2}| with first-attaining argmax.

    Returns (sup_m, arg_m, sup_sq, arg_sq) indexed by x; entries below
    x = BOUND_X0 are placeholders (the suprema start at y = BOUND_X0).
    """
    out = []
    for values in (m_small, m_sq):
        a = np.abs(values).astype(np.int64)
        a[:min(BOUND_X0, len(a))] = -1
        run = np.maximum.accumulate(a)
        prev = np.concatenate((np.full(1, -2, dtype=np.int64), run[:-1]))
        record = a > prev
        arg = np.maximum.accumulate(
            np.where(record, np.arange(len(a), dtype=np.int64), 0))
        out.extend((run, arg))
    return tuple(out)


def _chain_factor(x: int, n: int) -> float:
    """2^n sqrt(x), validated against the bound chained through x^2.

    C sqrt(x^2) (log x^2)^n must equal C 2^n x (log x)^n; a mismatch
    beyond float rounding means the step comparison itself is wrong.
    """
    direct = sqrt(float(x * x)) * log(float(x * x)) ** n
    chained = (2.0 ** n) * x * log(x) ** n
    if not (isfinite(direct) and isfinite(chained)):
        raise OverflowError(f"chain factor overflows at x={x}, n={n}")
    if abs(direct - chained) > 1e-12 * abs(direct):
        raise ArithmeticError(
            f"chain factor mismatch at x={x}, n={n}: {direct} vs {chained}")
    return (2.0 ** n) * sqrt(x)


def check_induction_step(x: int, n: int = 1, curves=None) -> InductionRow:
    """One row of the step comparison at x.

    lhs = sup_{y<=x} |M_{y^2}| and rhs = 2^n sqrt(x) sup_{y<=x} |M_y|;
    the step holds when lhs <= rhs.  minimal_C is the smallest constant
    making the y <= x bound tight at x; a sup_M of 0 is refused.  The
    suprema are read at x from `curves` (sup_curves) when given, else
    from mertens_square_table(x): the sweep's segmented sieve to x^2.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if x < BOUND_X0:
        raise ValueError(f"x must be >= {BOUND_X0}, got {x}")
    if curves is None:
        curves = sup_curves(*mertens_square_table(x))
    if x >= len(curves[0]):
        raise ValueError(
            f"x = {x} beyond the computed range {len(curves[0]) - 1}")
    sup_m, arg_m, sup_sq, arg_sq = (int(curve[x]) for curve in curves)
    if sup_m == 0:
        raise ValueError(f"sup |M_y| over [{BOUND_X0}, {x}] is 0: the step "
                         f"ratio and minimal C are undefined at x = {x}")
    rhs = _chain_factor(x, n) * sup_m
    return InductionRow(x=x, n=n, sup_M=sup_m, argmax_y=arg_m,
                        sup_M_sq=sup_sq, argmax_y_sq=arg_sq,
                        lhs=sup_sq, rhs=rhs, ratio=sup_sq / rhs,
                        minimal_C=sup_m / (sqrt(x) * log(x) ** n),
                        step_holds=sup_sq <= rhs)


def _default_grid(x_max: int, sup_m: np.ndarray) -> list[int]:
    """Dense start, then log-spaced points, plus every new |M| record."""
    xs = set(range(BOUND_X0, min(1000, x_max) + 1))
    if x_max > 1000:
        marks = np.unique(np.round(np.logspace(
            np.log10(1001), np.log10(x_max), 80)).astype(np.int64))
        xs.update(int(v) for v in marks)
    records = np.nonzero(sup_m[1:] > sup_m[:-1])[0] + 1
    xs.update(int(v) for v in records)
    xs.add(x_max)
    return sorted(v for v in xs if BOUND_X0 <= v <= x_max)


def induction_sweep(x_max: int, n: int = 1, grid: str = "default",
                    mu_values=None) -> InductionReport:
    """Step comparison over a grid of x up to x_max.

    grid "all" checks every x in [3, x_max]; "default" checks every
    x <= 1000, log-spaced points above, and every x where sup |M_y|
    increases.  The summary carries the worst ratio, the minimal C
    admissible over the whole sweep, and any step violations.
    """
    if grid not in ("all", "default"):
        raise ValueError(f"grid must be 'all' or 'default', got {grid!r}")
    if x_max < BOUND_X0:
        raise ValueError(f"x_max must be >= {BOUND_X0}, got {x_max}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if x_max * x_max > sys.float_info.max:
        raise ValueError(f"x_max has {len(str(x_max))} digits, so x_max^2 "
                         f"is past float range")
    # The chain factor grows with x, so x_max bounds every row's.
    try:
        _chain_factor(x_max, n)
    except OverflowError:
        raise ValueError(f"n = {n} overflows the chain factor "
                         f"2^n sqrt(x) (log x)^n at x = {x_max}") from None
    m_small, m_sq = mertens_square_table(x_max, mu_values=mu_values)
    curves = sup_curves(m_small, m_sq)
    xs = (range(BOUND_X0, x_max + 1) if grid == "all"
          else _default_grid(x_max, curves[0]))
    rows = tuple(check_induction_step(x, n, curves=curves) for x in xs)
    violations = tuple(r.x for r in rows if not r.step_holds)
    return InductionReport(n=n, x_max=x_max, grid=grid, rows=rows,
                           max_ratio=max(r.ratio for r in rows),
                           minimal_C=max(r.minimal_C for r in rows),
                           violations=violations)

