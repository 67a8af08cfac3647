"""
Running sup bounds for the inductive square-root step
=====================================================

Tracks sup |M(y)| for y <= x alongside sup |M(y^2)| on the same range
and checks the step inequality sup |M(y^2)| <= 2^n sqrt(x) sup |M(y)|
at n = 1.  Record positions are printed as they appear; the ratio
column shows how much slack the step has at each grid point.
"""

import time

from mertenskit import check_induction_step, induction_sweep

x_max = 2000

t0 = time.perf_counter()
report = induction_sweep(x_max, n=1, grid="default")
dt = time.perf_counter() - t0

# keep only rows where either sup curve just set a new record
records = [row for i, row in enumerate(report.rows)
           if i == 0 or row.sup_M > report.rows[i - 1].sup_M
           or row.sup_M_sq > report.rows[i - 1].sup_M_sq]

print(f"sweep to x={x_max} in {dt:.2f}s, "
      f"{len(records)} record rows of {len(report.rows)}")
print(f"{'x':>6} {'sup|M|':>7} {'at y':>6} {'sup|M(y^2)|':>11} "
      f"{'at y':>6} {'ratio':>7} {'min C':>7}")
for row in records:
    print(f"{row.x:>6} {row.sup_M:>7} {row.argmax_y:>6} "
          f"{row.sup_M_sq:>11} {row.argmax_y_sq:>6} "
          f"{row.ratio:>7.4f} {row.minimal_C:>7.4f}")

print("violations:", list(report.violations) or "none")
print("max ratio over grid:", f"{report.max_ratio:.4f}")
print("minimal admissible C:", f"{report.minimal_C:.4f}")

# single-x drill-down, recomputed from the sieve rather than the sweep
row = check_induction_step(500)
print("x=500 cross-check:", row.sup_M, "at", row.argmax_y,
      "/", row.sup_M_sq, "at", row.argmax_y_sq)
