"""Gamma estimator: small-x closed forms, collapse, and convergence."""

from fractions import Fraction
from math import fsum

import pytest

from mertenskit import (
    EULER_GAMMA,
    SequenceCache,
    gamma_convergence_study,
    gamma_series,
)
from mertenskit.config import CapacityError, GAMMA_SERIES_CAP


def test_gamma_series_x2_closed_form(cache_small):
    # Terms by hand: m_4/1 + m_2/2 + m_2/2 + m_1/4 = 1/6 + 3/4 = 11/12.
    est = gamma_series(2, cache_small)
    assert est.estimate == pytest.approx(float(Fraction(11, 12)), abs=1e-15)
    assert est.reference == EULER_GAMMA
    assert est.abs_error == abs(est.estimate - EULER_GAMMA)
    assert est.scaled_error == 2 * est.abs_error


def test_gamma_series_collapses_to_harmonic_difference(cache_square):
    # The double sum telescopes to 2 H_x - H_{x^2}; the estimator must
    # land on that value to rounding noise even though it sums the
    # two-index form.
    h = cache_square.harmonic_float(1.0)
    for x in (10, 100, 500):
        est = gamma_series(x, cache_square)
        collapsed = 2 * h[x] - h[x * x]
        assert est.estimate == pytest.approx(collapsed, abs=1e-12)


def test_gamma_series_converges_like_inverse_x(cache_square):
    # abs_error ~ 1/x: scaled error stays within (0.9, 1.0] here.
    for x in (50, 200, 800):
        est = gamma_series(x, cache_square)
        assert 0.9 < est.scaled_error <= 1.0, x


def test_gamma_series_input_validation(cache_small):
    with pytest.raises(ValueError):
        gamma_series(1, cache_small)
    with pytest.raises(CapacityError):
        gamma_series(GAMMA_SERIES_CAP + 1, cache_small)


def test_convergence_study_shape(cache_square):
    study = gamma_convergence_study((50, 100, 200, 400, 800), cache_square)
    assert [r.x for r in study.rows] == [50, 100, 200, 400, 800]
    assert len(study.doubling_ratios) == 4
    assert study.max_scaled_error == max(r.scaled_error for r in study.rows)
    # Errors shrink monotonically while scaled errors stay bounded.
    errs = [r.abs_error for r in study.rows]
    assert errs == sorted(errs, reverse=True)
    assert study.scaled_error_bounded
    assert all(r < 1.25 for r in study.doubling_ratios)
    # The doubling ratios themselves flatten toward 1.
    assert list(study.doubling_ratios) == sorted(study.doubling_ratios,
                                                 reverse=True)


def test_convergence_study_unordered_points(cache_square):
    study = gamma_convergence_study((200, 50, 100), cache_square)
    assert [r.x for r in study.rows] == [50, 100, 200]
    assert len(study.doubling_ratios) == 2


def test_convergence_study_rejects_empty():
    with pytest.raises(ValueError):
        gamma_convergence_study(())


@pytest.mark.parametrize("points, message", [
    ((50, 50), "repeated: 50"),
    ((100, 1, 50), "gamma points must be >= 2"),
])
def test_convergence_study_refuses_points_it_would_not_report(points, message):
    # Every point gets a row or the request is refused.
    with pytest.raises(ValueError, match=message):
        gamma_convergence_study(points)


def test_gamma_series_builds_own_cache_when_needed():
    small = SequenceCache(10)
    est = gamma_series(20, small)   # cache too small; a local one is built
    assert est.x == 20 and est.abs_error < 0.06
