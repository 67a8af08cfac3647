"""Euler-gamma estimation from the oscillatory double sum.

The double sum sum_{i,j<=x} m_{floor(x^2/ij)} / (ij), with m_v the
truncated sum of mu(k)/k, collapses through the square identity to
2 H_x - H_{x^2}, which converges to gamma like 1/x.  The estimator
evaluates the double sum as written, so the collapse is measured rather
than assumed: grouped over the products p = ij with their multiplicities
c_p, read from the cache's grow-only product state (a sweep over
ascending x adds only the new shells), and summed exactly rounded by
extraction passes and fsum, bit-identical to math.fsum of the terms.
"""

from dataclasses import dataclass

from .config import GAMMA_SERIES_CAP, CapacityError
from .sequences import EULER_GAMMA, SequenceCache, _covering, _exact_sum

__all__ = ["GammaEstimate", "GammaStudy", "gamma_series",
           "gamma_convergence_study"]

# A doubling of x is read as unbounded growth when the scaled error
# jumps by more than this factor; a final ratio this close to 1 with
# shrinking jumps is read as saturation.
_RATIO_LIMIT = 1.25
_FINAL_RATIO_LIMIT = 1.05

_DEFAULT_POINTS = (50, 100, 200, 400, 800)

_CAPPED = f"gamma series needs tables to x^2; capped at x <= {GAMMA_SERIES_CAP}"


@dataclass(frozen=True)
class GammaEstimate:
    """Double-sum estimate of gamma at truncation x."""

    x: int
    estimate: float
    reference: float
    abs_error: float
    scaled_error: float      # x * abs_error


@dataclass(frozen=True)
class GammaStudy:
    """Convergence sweep: estimates plus the scaled-error growth verdict."""

    rows: tuple[GammaEstimate, ...]
    max_scaled_error: float
    doubling_ratios: tuple[float, ...]
    scaled_error_bounded: bool


def gamma_series(x: int, cache: SequenceCache | None = None) -> GammaEstimate:
    """Evaluate sum_{i,j<=x} m_{floor(x^2/ij)}/(ij) and compare to gamma."""
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if x > GAMMA_SERIES_CAP:
        raise CapacityError(_CAPPED)
    xx = x * x
    cache = _covering(cache, xx)
    m = cache.oscillatory_float(1.0)
    ps, cs = cache._products(x, "plain")
    estimate = _exact_sum((cs / ps) * m[xx // ps])
    abs_error = abs(estimate - EULER_GAMMA)
    return GammaEstimate(x=x, estimate=estimate, reference=EULER_GAMMA,
                         abs_error=abs_error, scaled_error=x * abs_error)


def gamma_convergence_study(points: tuple[int, ...] = _DEFAULT_POINTS,
                            cache: SequenceCache | None = None) -> GammaStudy:
    """Estimate gamma at each point and grade scaled-error growth.

    `points` (non-empty, each in [2, GAMMA_SERIES_CAP], named once, all
    checked before any table is built) get a row each, in ascending x.
    The verdict scaled_error_bounded is True when no doubling step
    multiplies x * abs_error by more than _RATIO_LIMIT and the final
    doubling sits below _FINAL_RATIO_LIMIT: geometric growth in the
    scaled error would show up as persistent large ratios.
    """
    xs = sorted(int(p) for p in points)
    if not xs:
        raise ValueError("gamma needs at least one point")
    if xs[0] < 2:
        raise ValueError("gamma points must be >= 2")
    repeated = sorted({a for a, b in zip(xs, xs[1:]) if a == b})
    if repeated:
        raise ValueError(f"gamma points must be distinct, repeated: "
                         f"{', '.join(map(str, repeated))}")
    if xs[-1] > GAMMA_SERIES_CAP:
        raise CapacityError(_CAPPED)
    cache = _covering(cache, xs[-1] ** 2)
    rows = tuple(gamma_series(x, cache) for x in xs)
    by_x = {r.x: r for r in rows}
    ratios = tuple(by_x[2 * x].scaled_error / by_x[x].scaled_error
                   for x in xs if 2 * x in by_x and by_x[x].scaled_error > 0)
    bounded = True
    if ratios:
        bounded = (max(ratios) <= _RATIO_LIMIT
                   and ratios[-1] <= _FINAL_RATIO_LIMIT)
    return GammaStudy(rows=rows,
                      max_scaled_error=max(r.scaled_error for r in rows),
                      doubling_ratios=ratios,
                      scaled_error_bounded=bounded)
