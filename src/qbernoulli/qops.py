"""The three q-difference operators and the ladder-property harness.

Each family is a q-analog of an Appell sequence for its own operator:
the type-1 polynomials step down under the Jackson operator D_q, type 2
under the base-1/q Jackson operator, type 3 under the symmetric
operator.  Operators act on PolyZ through their monomial rules
op(z**i) = c_i z**(i-1), which is their exact action on polynomials; the
factors c_i are one cached row per context and kind (:func:`_factors`),
so applying an operator is one multiply per coefficient.
"""

from __future__ import annotations

from fractions import Fraction

from .qcore import QContext, cached_row, check_degree, check_kind
from .detrep import bernoulli_poly_det
from .series import PolyZ


@cached_row
def _factors(ctx: QContext, kind: int, row):
    """c_0 = 0, c_1, c_2, ...: [i]_q for kind 1, [i]_(1/q) for kind 2 and q**((1-i)/2) [i]_q
    for kind 3, each q-integer by the step [i] = 1 + base [i-1].  Kind 3 raises from i = 2 on
    when the context has no rational square root of q."""
    base = 1 / ctx.q if kind == 2 else ctx.q
    k = Fraction(0)
    yield k
    while True:
        k = 1 + base * k
        yield ctx.q_pow_quarters(2 * (1 - len(row))) * k if kind == 3 else k


def _lower(ctx: QContext, kind: int, p: PolyZ) -> PolyZ:
    """op(p) for the kind's operator, read off the factor row to p's degree."""
    factors = _factors(ctx, kind, max(p.degree, 0))
    return PolyZ([c * k for c, k in zip(p.coeffs[1:], factors[1:])])


def dq(ctx: QContext, p: PolyZ) -> PolyZ:
    """Jackson operator: z**n -> [n]_q z**(n-1), constants -> 0."""
    return _lower(ctx, 1, p)


def dq_inverse_base(ctx: QContext, p: PolyZ) -> PolyZ:
    """Jackson operator with base 1/q: z**n -> q**(1-n) [n]_q z**(n-1) = [n]_(1/q) z**(n-1)."""
    return _lower(ctx, 2, p)


def delta_q(ctx: QContext, p: PolyZ) -> PolyZ:
    """Symmetric operator: z**n -> q**((1-n)/2) [n]_q z**(n-1).

    Half-powers of q are exact, so the context needs a rational square
    root of q whenever p has terms of degree >= 2.
    """
    return _lower(ctx, 3, p)


def appell_check(ctx: QContext, kind: int, n_max: int) -> list[dict]:
    """Verify the ladder relation op(P_n) = [n]_q P_(n-1) exactly.

    Returns one {"kind", "n", "pass"} record per degree 1..n_max; the
    list is JSON-ready.  Failures are report entries, never exceptions.
    """
    check_kind(kind)
    polys = [bernoulli_poly_det(ctx, kind, n) for n in range(check_degree(n_max, "n_max") + 1)]
    q_ints = _factors(ctx, 1, n_max)
    report = []
    for n in range(1, n_max + 1):
        lowered = _lower(ctx, kind, polys[n])
        report.append({"kind": kind, "n": n, "pass": lowered == q_ints[n] * polys[n - 1]})
    return report
