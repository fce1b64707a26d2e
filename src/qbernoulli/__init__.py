"""Generalized q-Bernoulli polynomials over exact rationals.

Three polynomial families attached to the Jackson q-Bessel functions,
computed two independent ways (determinant representation and
generating-function series), with their q-difference ladder operators,
first-zero and large-degree asymptotic machinery, and expansion of
admissible entire functions in the type-2 basis.

Exports are lazy (PEP 562): ``import qbernoulli`` loads no submodule, and
each exported name imports its defining module on first use.  The exact
modules (``qcore``, ``series``, ``detrep``, ``qops``) never load mpmath,
so nothing numeric is loaded until a name from ``qfun``, ``asympt`` or
``expand`` is used.
"""

from importlib import import_module

# defining module -> the names the package exports from it
_EXPORTS = {
    "qcore": ("DomainError", "ExactModeError", "ExactScalar", "QBernError", "QContext",
              "q_binomial", "q_factorial", "q_int", "q_pochhammer"),
    "series": ("PolyZ", "TruncatedSeries", "gf_denominator", "gf_numerator",
               "oracle_bernoulli", "series_mul", "series_reciprocal"),
    "qfun": ("QTrigKind", "eval_Eq", "eval_bessel", "eval_eq", "eval_expq",
             "eval_modified_bessel", "eval_qtrig", "phi21", "phi32", "recip_expq_coeffs"),
    "detrep": ("bernoulli_number", "bernoulli_poly_det", "bernoulli_poly_value",
               "build_matrix", "mu"),
    "qops": ("appell_check", "delta_q", "dq", "dq_inverse_base"),
    "asympt": ("AsymptoticTerm", "RatioRow", "ZeroResult", "bessel_derivative_at",
               "leading_term", "named_trig_zero", "ratio_diagnostic", "smallest_zero"),
    "expand": ("CoefficientStream", "GrowthVerdict", "corollary_wrappers", "growth_classify",
               "l_coefficients", "psi", "reconstruct", "reconstruct_poly", "tau_estimate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
