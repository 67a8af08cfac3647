"""
Survey the identity catalogue in exact arithmetic
=================================================

Runs every identity at a few sample sizes in exact mode and prints the
residual, which should be identically zero, next to the left-hand side
it certifies.  Everything here is integer or Fraction arithmetic, so a
zero is a proof for that x, not a tolerance call.
"""

from mertenskit import Identity, IdentityCase, SequenceCache, verify_case
from mertenskit.identities import CATALOGUE

cache = SequenceCache(3600)

print(f"{'identity':>8} {'x':>4} {'s':>4} {'kind':>6} {'lhs':>12} residual")
for ident, entry in CATALOGUE.items():
    # counting-weight identities are pinned at s = 0, the rest run at 1
    s = 1.0 if entry.s is None else entry.s
    for x in (4, 9, 12):
        # eq2/eq12 take the nested index j; pin it to the midpoint
        j = (x + x * x) // 2 if entry.needs_j else None
        case = IdentityCase(ident, x=x, j=j, s=s, mode="exact")
        res = verify_case(case, cache)
        # exact rationals (denominators up to lcm(1..x^2)) get very wide;
        # show a float view
        lhs = str(res.lhs)
        if len(lhs) > 12:
            lhs = f"~{float(res.lhs):.7f}"
        print(f"{ident.value:>8} {x:>4} {case.s!s:>4} {res.kind:>6} "
              f"{lhs:>12} {res.exact_value}")

# the closure sums telescope to 1 for every x, not only the sampled ones
failures = sum(
    verify_case(IdentityCase(Identity.EQ1, x=x, s=0.0, mode="exact"),
                cache).exact_value != 0
    for x in range(1, 60)
)
print("closure failures on [1,60):", failures)
