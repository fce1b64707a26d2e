"""Determinant representations of the three polynomial families.

Each degree-n member is (-1)^n times the determinant of an (n+1)x(n+1)
matrix whose first row holds weighted powers w_j z^j (the weights of the
kind's q-exponential, :func:`qbernoulli.series.exp_weight`) and whose
remaining rows hold q-binomially weighted moment coefficients mu.  That
matrix is upper Hessenberg, and so is the one of the numbers
beta_n = B_n(0): its last column gives beta_n = -sum_{k=1..n}
[n choose k]_q mu_k beta_(n-k), and every coefficient is a read-off,
[z^i] B_n = [n choose i]_q w_i beta_(n-i) (Costabile & Longo 2010;
Al-Salam 1967).  Production caches, per context and kind, only the
normalised moments mu_k / [k]_q! and numbers b_n = beta_n / [n]_q! (b is
the reciprocal of the moment series), reads polynomials off them on
demand, and never reads the generating function.  The determinant, by
Bareiss elimination, is the tests' reference (:func:`bernoulli_poly_value`).

The moment ratio (q^(2a+1); q^2)_m / (q^(2a+1); q)_m shares its m=0
factor (1 - q^(2a+1)) between numerator and denominator, and is stored
with that factor cancelled; this keeps alpha = -1/2 (where the shared
factor vanishes) well defined and agrees with the generating function
there.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .qcore import (
    QContext, cached_row, check_degree, check_kind, dot, q_binomial, q_factorial, q_int, rational,
    require_exact_alpha,
)
from .series import PolyZ, _exp_row, appell_poly, exp_weight


def _bareiss_det(rows) -> Fraction:
    """Fraction-free determinant: clear denominators per row, run the
    Bareiss recurrence over integers (all divisions exact), undo scaling."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("matrix must be square and non-empty")
    denom = 1
    m = []
    for row in rows:
        scale = lcm(*(c.denominator for c in row))
        denom *= scale
        m.append([int(c * scale) for c in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1], denom)


@cached_row
def _moments(ctx: QContext, kind: int, row):
    """The normalised moments mu_k / [k]_q!, k = 0, 1, ..., of this context and kind;
    a context without an exact alpha raises, also at k = 0."""
    check_kind(kind)
    require_exact_alpha(ctx)  # m_0 = 1 needs no q-power, but only an exact context has moments
    yield Fraction(1)
    while kind in (1, 2):
        j = len(row)
        ratio = (1 - ctx.q_pow(2 * ctx.alpha + 2 * j - 1)) / (1 - ctx.q_pow(2 * ctx.alpha + j)) if j > 1 else 1
        yield row[-1] * ratio / 2 / q_int(ctx, j)
    # h_j = w_j/[j]_q! (-1/2)^j and weight_k = q^(k(k+1/2)) (1-q)^(2k) / ((q^2;q^2)_k (q^(2a+2);q^2)_k)
    h, half, weight = [Fraction(1)], Fraction(1), Fraction(1)
    while True:
        j, half, even = len(row), half / -2, 0
        h.append(_exp_row(ctx, 3, j)[j] * half)
        if j % 2 == 0:
            pair = (1 - ctx.q**j) * (1 - ctx.q_pow(2 * ctx.alpha + j))
            weight *= ctx.q_pow_quarters(4 * j - 2) * (1 - ctx.q) ** 2 / pair
            even = weight / 2**j
        yield even - dot(h[1:], reversed(row))  # sum_{i=1..j} h_i row_(j-i)


def mu(ctx: QContext, kind: int, m: int) -> Fraction:
    """Moment coefficients of the reciprocal generating scalar.

    Kinds 1 and 2 share
        mu_m = 2^-m prod_{j=1}^{m-1} (1 - q^(2a+1+2j)) / (1 - q^(2a+1+j)),
    the cancelled form of (q^(2a+1);q^2)_m / (2^m (q^(2a+1);q)_m).  Kind 3
    combines the reciprocal exp_q coefficients c with the even q-Bessel
    series:
        mu_m = (-1)^m [m]_q! 2^-m sum_k q^(k(k+1/2)) (1-q)^(2k) c_(m-2k)
               / ((q^2;q^2)_k (q^(2a+2);q^2)_k),
    found by dividing that series at t/2 by exp_q(-t/2).  mu_0 = 1 for every kind.
    """
    return q_factorial(ctx, check_degree(m, "m")) * _moments(ctx, kind, m)[m]


def build_matrix(ctx: QContext, kind: int, n: int) -> tuple:
    """The representation matrix for degree n as (weights, rows).

    ``weights[j]`` is the coefficient of z**j in the symbolic first row;
    ``rows`` holds rows 1..n, each of length n+1, with scalar entries
    a_ij = [j choose i-1]_q mu(kind, j-i+1); entries with i-1 > j vanish
    through the binomial convention.
    """
    require_exact_alpha(ctx)
    check_kind(kind)
    weights = tuple(exp_weight(ctx, kind, j) for j in range(check_degree(n) + 1))
    rows = []
    for i in range(1, n + 1):
        rows.append(
            tuple(
                q_binomial(ctx, j, i - 1) * mu(ctx, kind, j - i + 1) if j - i + 1 >= 0 else Fraction(0)
                for j in range(n + 1)
            )
        )
    return weights, tuple(rows)


@cached_row
def _numbers(ctx: QContext, kind: int, row):
    """The normalised numbers b_0, b_1, ...: b_0 = 1 and
    b_m = -sum_{k=1..m} mu_k / [k]_q! * b_(m-k)."""
    yield _moments(ctx, kind, 0)[0]  # b_0 = mu_0 = 1, after the moments' checks
    while True:
        moments = _moments(ctx, kind, len(row))
        yield -dot(moments[1:], reversed(row))  # -sum_{k=1..m} mu_k/[k]_q! b_(m-k)


def bernoulli_poly_det(ctx: QContext, kind: int, n: int) -> PolyZ:
    """Degree-n family member: the determinant representation, read off
    the cached numbers as [n]_q!/[i]_q! w_i b_(n-i)."""
    return appell_poly(ctx, kind, n, _numbers(ctx, kind, n))


def bernoulli_number(ctx: QContext, kind: int, n: int) -> Fraction:
    """Value at z = 0, [n]_q! b_n; no polynomial is formed."""
    return q_factorial(ctx, n) * _numbers(ctx, kind, n)[n]


def bernoulli_poly_value(ctx: QContext, kind: int, n: int, z) -> Fraction:
    """Exact value at rational z: (-1)^n times the paper's full
    (n+1)x(n+1) determinant with z substituted into the symbolic row.

    This is the reference the read-off of bernoulli_poly_det is
    tested against; it agrees with bernoulli_poly_det(...)(z) and, at
    z = 0, with bernoulli_number.
    """
    weights, scalar_rows = build_matrix(ctx, kind, n)
    z = rational(z, "z")
    rows = [[weights[j] * z**j for j in range(n + 1)]]
    rows.extend(list(r) for r in scalar_rows)
    return Fraction(-1) ** n * _bareiss_det(rows)
