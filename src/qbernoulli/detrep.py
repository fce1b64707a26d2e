"""Determinant representations of the three polynomial families.

Each degree-n member is (-1)^n times the determinant of an (n+1)x(n+1)
matrix whose first row holds weighted powers w_j z^j and whose remaining
rows hold q-binomially weighted moment coefficients mu.  The weights w_j
are those of the kind's q-exponential, :func:`qbernoulli.series.exp_weight`,
the same ones the generating-function oracle uses.  That matrix is
upper Hessenberg; expanding along its last column gives the recurrence

    B_n(z) = w_n z^n - sum_{k=1..n} [n choose k]_q mu_k B_(n-k)(z)

(Costabile & Longo 2010), the production route: one cached table B_0..B_N
per context and kind, extended on demand.  The determinant itself, by
fraction-free Bareiss elimination, is kept as the reference the tests
compare against (:func:`bernoulli_poly_value`).

The moment ratio (q^(2a+1); q^2)_m / (q^(2a+1); q)_m shares its m=0
factor (1 - q^(2a+1)) between numerator and denominator, and is stored
with that factor cancelled; this keeps alpha = -1/2 (where the shared
factor vanishes) well defined and agrees with the generating function
there.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .qcore import QContext, cache_lock, context_cache, q_binomial, q_factorial, require_exact_alpha
from .series import PolyZ, exp_weight, expq_reciprocal_series


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


def _moments(ctx: QContext, kind: int, m: int) -> list:
    """The cached moments mu_0..mu_m (at least) of this context and kind."""
    if kind not in (1, 2, 3):
        raise ValueError("kind must be 1, 2 or 3")
    moments = context_cache(ctx).moments.setdefault(kind, [Fraction(1)])
    with cache_lock:
        if len(moments) > m:
            return moments
        require_exact_alpha(ctx)
        a = ctx.alpha
        if kind in (1, 2):
            for j in range(len(moments), m + 1):
                ratio = Fraction(1, 2)
                if j > 1:
                    ratio *= (1 - ctx.q_pow(2 * a + 2 * j - 1)) / (1 - ctx.q_pow(2 * a + j))
                moments.append(moments[-1] * ratio)
            return moments
        c = expq_reciprocal_series(ctx, m).coeffs
        # weights[k] = q^(k(k+1/2)) (1-q)^(2k) / ((q^2;q^2)_k (q^(2a+2);q^2)_k)
        weights = [Fraction(1)]
        for k in range(1, m // 2 + 1):
            pair = (1 - ctx.q ** (2 * k)) * (1 - ctx.q_pow(2 * a + 2 * k))
            weights.append(weights[-1] * ctx.q_pow_quarters(8 * k - 2) * (1 - ctx.q) ** 2 / pair)
        for j in range(len(moments), m + 1):
            total = sum(weights[k] * c[j - 2 * k] for k in range(j // 2 + 1))
            moments.append(Fraction(-1) ** j * q_factorial(ctx, j) / 2**j * total)
        return moments


def mu(ctx: QContext, kind: int, m: int) -> Fraction:
    """Moment coefficients of the reciprocal generating scalar.

    Kinds 1 and 2 share
        mu_m = 2^-m prod_{j=1}^{m-1} (1 - q^(2a+1+2j)) / (1 - q^(2a+1+j)),
    the cancelled form of (q^(2a+1);q^2)_m / (2^m (q^(2a+1);q)_m).  Kind 3
    combines the reciprocal exp_q coefficients with the even q-Bessel
    series:
        mu_m = (-1)^m [m]_q! 2^-m sum_k q^(k(k+1/2)) (1-q)^(2k) c_(m-2k)
               / ((q^2;q^2)_k (q^(2a+2);q^2)_k).
    mu_0 = 1 for every kind.
    """
    require_exact_alpha(ctx)
    if m < 0:
        raise ValueError("m must be >= 0")
    return _moments(ctx, kind, m)[m]


def build_matrix(ctx: QContext, kind: int, n: int) -> tuple:
    """The representation matrix for degree n as (weights, rows).

    ``weights[j]`` is the coefficient of z**j in the symbolic first row;
    ``rows`` holds rows 1..n, each of length n+1, with scalar entries
    a_ij = [j choose i-1]_q mu(kind, j-i+1); entries with i-1 > j vanish
    through the binomial convention.
    """
    require_exact_alpha(ctx)
    if n < 0:
        raise ValueError("n must be >= 0")
    weights = tuple(exp_weight(ctx, kind, j) for j in range(n + 1))
    rows = []
    for i in range(1, n + 1):
        rows.append(
            tuple(
                q_binomial(ctx, j, i - 1) * mu(ctx, kind, j - i + 1) if j - i + 1 >= 0 else Fraction(0)
                for j in range(n + 1)
            )
        )
    return weights, tuple(rows)


def bernoulli_poly_det(ctx: QContext, kind: int, n: int) -> PolyZ:
    """Degree-n family member: the determinant representation, evaluated
    through its last-column expansion from the cached table B_0..B_(n-1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    moments = _moments(ctx, kind, n)
    polys = context_cache(ctx).polys.setdefault(kind, [PolyZ([1])])
    with cache_lock:
        for m in range(len(polys), n + 1):
            coeffs = [Fraction(0)] * m + [exp_weight(ctx, kind, m)]
            for k in range(1, m + 1):
                weight = q_binomial(ctx, m, k) * moments[k]
                for j, c in enumerate(polys[m - k].coeffs):
                    coeffs[j] -= weight * c
            polys.append(PolyZ(coeffs))
    return polys[n]


def bernoulli_number(ctx: QContext, kind: int, n: int) -> Fraction:
    """Value at z = 0: the constant term of bernoulli_poly_det."""
    return bernoulli_poly_det(ctx, kind, n).coefficient(0)


def bernoulli_poly_value(ctx: QContext, kind: int, n: int, z) -> Fraction:
    """Exact value at rational z: (-1)^n times the paper's full
    (n+1)x(n+1) determinant with z substituted into the symbolic row.

    This is the reference the recurrence table of bernoulli_poly_det is
    tested against; it agrees with bernoulli_poly_det(...)(z) and, at
    z = 0, with bernoulli_number.
    """
    if n == 0:
        return Fraction(1)
    z = Fraction(z)
    weights, scalar_rows = build_matrix(ctx, kind, n)
    rows = [[weights[j] * z**j for j in range(n + 1)]]
    rows.extend(list(r) for r in scalar_rows)
    return Fraction(-1) ** n * _bareiss_det(rows)
