"""Run-time knobs shared by all modules.

Every cap here is a budget, not a mathematical constant: raising it trades
memory/time for range.  The memory budget can be overridden through the
``MERTENSKIT_MEMORY_BUDGET`` environment variable (bytes).
"""

import os
from decimal import Decimal

# Absolute-residual tolerance for floating-point identity checks.
DEFAULT_TOLERANCE = 1e-9

# Largest x for which exact-rational oscillatory/harmonic values at s=1 are
# served (denominators grow like lcm(1..x)).
RATIONAL_BOUND = 200

# Largest x for which the square identities (harmonic/oscillatory value at
# x^2 versus a double sum) run in exact-rational mode; these need
# denominators up to lcm(1..x^2), so the cap sits well below RATIONAL_BOUND.
RATIONAL_SQUARE_BOUND = 60

# Largest x for which the tail identities run in exact-rational mode: each
# of their ~x^2 ln x terms is a product of three big integers over
# lcm(1..x^2), so they stop well below RATIONAL_SQUARE_BOUND.
TAIL_EXACT_BOUND = 12

# Largest x accepted by the Euler-gamma series (needs an m-prefix table of
# x^2 doubles, so 3000 keeps the table under ~100 MB).
GAMMA_SERIES_CAP = 3000

_DEFAULT_MEMORY_BUDGET = 1_500_000_000  # bytes

_ENV_BUDGET = "MERTENSKIT_MEMORY_BUDGET"


def memory_budget() -> int:
    """Current memory budget in bytes (env override wins)."""
    raw = os.environ.get(_ENV_BUDGET)
    if raw is None:
        return _DEFAULT_MEMORY_BUDGET
    try:
        value = int(float(raw))
    except (ValueError, OverflowError) as exc:  # OverflowError: inf, 1e400
        raise ValueError(
            f"{_ENV_BUDGET} must be a number of bytes, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{_ENV_BUDGET} must be positive, got {value}")
    return value


class CapacityError(MemoryError):
    """A requested table or map does not fit the configured memory budget."""


def check_capacity(bytes_needed: int, what: str) -> None:
    budget = memory_budget()
    if bytes_needed > budget:
        # Decimal formats ints of any size; a float would overflow.
        raise CapacityError(
            f"{what} needs ~{Decimal(bytes_needed):.3g} bytes, over the "
            f"configured budget of {Decimal(budget):.3g} (override with "
            f"{_ENV_BUDGET})")
