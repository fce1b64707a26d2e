"""Generalized q-Bernoulli polynomials over exact rationals.

Three polynomial families attached to the Jackson q-Bessel functions,
computed two independent ways (determinant representation and
generating-function series), with their q-difference ladder operators,
first-zero and large-degree asymptotic machinery, and expansion of
admissible entire functions in the type-2 basis.
"""

from .qcore import (
    DomainError,
    ExactModeError,
    ExactScalar,
    QBernError,
    QContext,
    q_binomial,
    q_factorial,
    q_int,
    q_pochhammer,
)
from .series import (
    PolyZ,
    TruncatedSeries,
    gf_denominator,
    gf_numerator,
    oracle_bernoulli,
    series_mul,
    series_reciprocal,
)
from .qfun import (
    QTrigKind,
    eval_Eq,
    eval_bessel,
    eval_eq,
    eval_expq,
    eval_modified_bessel,
    eval_qtrig,
    phi21,
    phi32,
    recip_expq_coeffs,
)
from .detrep import (
    bernoulli_number,
    bernoulli_poly_det,
    bernoulli_poly_value,
    build_matrix,
    mu,
)
from .qops import appell_check, delta_q, dq, dq_inverse_base
from .asympt import (
    AsymptoticTerm,
    RatioRow,
    ZeroResult,
    bessel_derivative_at,
    leading_term,
    named_trig_zero,
    ratio_diagnostic,
    smallest_zero,
)
from .expand import (
    CoefficientStream,
    GrowthVerdict,
    corollary_wrappers,
    growth_classify,
    l_coefficients,
    psi,
    reconstruct,
    reconstruct_poly,
    tau_estimate,
)

__version__ = "0.1.0"
