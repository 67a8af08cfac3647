"""Mobius/Mertens identity toolkit.

Layers: arith (sieves), sequences (prefix evaluators
and the sublinear Mertens recursion), identities (residual checks for
the square/truncation family), gamma (Euler-gamma estimator), induction
(sup-bound step sweeps), cli (reports).
"""

from .arith import (
    MobiusTable,
    mobius_segment,
    mobius_sieve,
    primes_up_to,
)
from .config import CapacityError, DEFAULT_TOLERANCE, memory_budget
from .exact import ScaledSums, lcm_upto
from .gamma import GammaEstimate, GammaStudy, gamma_convergence_study, gamma_series
from .identities import (
    ConvolutionCoefficients,
    Identity,
    IdentityCase,
    Residual,
    convolution_coeffs,
    verify_case,
    verify_eq1,
    verify_eq2,
    verify_eq3,
    verify_eq5,
    verify_eq6,
    verify_eq7,
    verify_eq11,
    verify_eq12,
    verify_eq13,
    verify_eq15,
    verify_eq16,
    verify_eq17,
    verify_eq18,
)
from .induction import (
    InductionReport,
    InductionRow,
    check_induction_step,
    induction_sweep,
    mertens_square_table,
)
from .sequences import (
    EULER_GAMMA,
    ExactModeError,
    RationalBoundError,
    SequenceCache,
    harmonic,
    mertens_sublinear,
    oscillatory,
)

__version__ = "0.1.0"
