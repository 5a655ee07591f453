"""L-polynomials of curves over small finite fields by exhaustive point
counting, plus executable verifiers for the divisibility relations their
Jacobian decompositions imply."""

from .finite_fields import (
    FiniteField,
    NoPrime,
    RationalMap,
    TooLarge,
    char_sum,
    make_field,
)
from .intpoly import (
    IntPoly,
    NotPowerSums,
    ZeroConstantTerm,
    ZeroDivisor,
    divides_with_quotient,
    gcd_primitive,
    poly_from_power_sums,
    power_sums_from_poly,
    squarefree_over_Q,
)
from .curves import (
    ArtinSchreierCurve,
    NotReduced,
    OddHyperellipticCurve,
    PointCountSeries,
    count_points,
    count_series,
    dk_curve,
    genus,
    gsum,
)
from .zeta import (
    LPolynomial,
    NotConsistent,
    counts_from_lpoly,
    curve_lpoly,
    extension_lpoly,
    lpoly_from_counts,
    p_rank_manin,
    validate_lpoly,
)
from .decomp import (
    DivisibilityReport,
    GsumTable,
    Verdict,
    check_main_theorem,
    counterexample_f3,
    dk_report_from_counts,
    gsum_invariance_scan,
    split_two_prime,
    verify_conjecture_dk,
)

__all__ = [name for name in dir() if not name.startswith("_")]
