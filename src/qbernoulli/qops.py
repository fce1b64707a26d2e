"""The three q-difference operators and the ladder-property harness.

Each family is a q-analog of an Appell sequence for its own operator:
the type-1 polynomials step down under the Jackson operator D_q, type 2
under the base-1/q Jackson operator, type 3 under the symmetric
operator.  Operators act on PolyZ through their monomial rules, which is
their exact action on polynomials.
"""

from __future__ import annotations

from .qcore import QContext, check_degree, check_kind, q_int
from .detrep import bernoulli_poly_det
from .series import PolyZ


def _q_ints(base):
    """[1]_base, [2]_base, ..., each as 1 + base [i-1]_base."""
    k = 0
    while True:
        k = 1 + base * k
        yield k


def dq(ctx: QContext, p: PolyZ) -> PolyZ:
    """Jackson operator: z**n -> [n]_q z**(n-1), constants -> 0."""
    return PolyZ([k * c for k, c in zip(_q_ints(ctx.q), p.coeffs[1:])])


def dq_inverse_base(ctx: QContext, p: PolyZ) -> PolyZ:
    """Jackson operator with base 1/q: z**n -> q**(1-n) [n]_q z**(n-1) = [n]_(1/q) z**(n-1)."""
    return PolyZ([k * c for k, c in zip(_q_ints(1 / ctx.q), p.coeffs[1:])])


def delta_q(ctx: QContext, p: PolyZ) -> PolyZ:
    """Symmetric operator: z**n -> q**((1-n)/2) [n]_q z**(n-1).

    Half-powers of q are exact, so the context needs a rational square
    root of q whenever p has terms of even degree >= 2.
    """
    return PolyZ(
        [
            ctx.q_pow_quarters(2 * (1 - i)) * q_int(ctx, i) * p.coeffs[i]
            for i in range(1, len(p.coeffs))
        ]
    )


_OPERATORS = {1: dq, 2: dq_inverse_base, 3: delta_q}


def appell_check(ctx: QContext, kind: int, n_max: int) -> list[dict]:
    """Verify the ladder relation op(P_n) = [n]_q P_(n-1) exactly.

    Returns one {"kind", "n", "pass"} record per degree 1..n_max; the
    list is JSON-ready.  Failures are report entries, never exceptions.
    """
    op = _OPERATORS[check_kind(kind)]
    polys = [bernoulli_poly_det(ctx, kind, n) for n in range(check_degree(n_max, "n_max") + 1)]
    report = []
    for n in range(1, n_max + 1):
        lowered = op(ctx, polys[n])
        expected = q_int(ctx, n) * polys[n - 1]
        report.append({"kind": kind, "n": n, "pass": lowered == expected})
    return report
