"""Dense polynomials in z, truncated power series in t, and the
generating-function oracle for the three polynomial families.

Each family's generating function is e(zt) h(t) / g(t): e is the kind's
q-exponential, h the same exponential at -t/2 and g the even q-Bessel
series.  The family is therefore q-Appell, and the oracle reads the
t**n coefficient off e(zt) times the scalar series s = h/g: the z**i
coefficient of the degree-n member is [n]_q!/[i]_q! w_i s_(n-i), with
w_i the exponential's weight.  Only scalar series are multiplied, and
only the coefficient asked for is formed.  The oracle uses no moments
and no recurrence, so it stays independent of the determinant
construction in :mod:`qbernoulli.detrep` and the two can be compared
coefficient-for-coefficient.  :func:`gf_numerator` builds the
polynomial-coefficient numerator e(zt) h(t) in full; the tests divide
it by g as the reference for that read-off.

Series here are formal: truncation order is the only contract, and the
convergence radii of the underlying functions are not enforced (they
matter only for numeric evaluation, which lives elsewhere).
"""

from __future__ import annotations

from fractions import Fraction

from .qcore import (
    QBernError,
    QContext,
    q_factorial,
    q_pochhammer,
    require_exact_alpha,
)


class PolyZ:
    """Dense univariate polynomial in z over exact rationals.

    Coefficients are stored lowest power first with trailing zeros
    trimmed; the zero polynomial has an empty coefficient tuple and the
    sentinel degree -1.  Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "PolyZ":
        return cls([0] * degree + [coeff])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, j: int) -> Fraction:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, PolyZ):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, PolyZ):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolyZ(out)

    def __neg__(self):
        return PolyZ([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, PolyZ):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PolyZ):
            if not self.coeffs or not other.coeffs:
                return PolyZ()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return PolyZ(out)
        if isinstance(other, (int, Fraction)):
            return PolyZ([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __call__(self, x):
        """Evaluate by Horner's rule; works for Fraction and mpf inputs."""
        out = 0 * x
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def to_strings(self) -> list[str]:
        """Serialize as rational strings, index = power of z; zero -> ["0"]."""
        if not self.coeffs:
            return ["0"]
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_strings(cls, items) -> "PolyZ":
        return cls([Fraction(s) for s in items])

    def __repr__(self):
        return "PolyZ(%s)" % (list(self.coeffs),)


class TruncatedSeries:
    """Formal power series in t known exactly modulo t**(order+1).

    Coefficients may be ExactScalar or PolyZ (anything closed under the
    ring operations used); mixed products such as polynomial-coefficient
    times scalar-coefficient series work through the coefficient types'
    own arithmetic.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least the t^0 coefficient")
        self.coeffs = cs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int):
        return self.coeffs[n]

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self):
        return "TruncatedSeries(order=%d, %s)" % (self.order, list(self.coeffs),)


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order."""
    if a.order != b.order:
        raise ValueError("series orders differ: %d vs %d" % (a.order, b.order))
    out = []
    for m in range(a.order + 1):
        acc = a.coeffs[0] * b.coeffs[m]
        for i in range(1, m + 1):
            acc = acc + a.coeffs[i] * b.coeffs[m - i]
        out.append(acc)
    return TruncatedSeries(out)


def series_reciprocal(a: TruncatedSeries) -> TruncatedSeries:
    """Series r with a*r = 1 mod t**(order+1); needs scalar coefficients."""
    c0 = a.coeffs[0]
    if c0 == 0:
        raise QBernError("non-invertible series")
    inv0 = Fraction(1) / c0
    out = [inv0]
    for m in range(1, a.order + 1):
        acc = a.coeffs[1] * out[m - 1]
        for k in range(2, m + 1):
            acc = acc + a.coeffs[k] * out[m - k]
        out.append(-inv0 * acc)
    return TruncatedSeries(out)


def exp_weight(ctx: QContext, kind: int, m: int) -> Fraction:
    """q-power attached to the m-th coefficient of the kind's exponential.

    kind 1 uses e_q (weight 1), kind 2 uses E_q (q**(m(m-1)/2)), kind 3
    uses exp_q (q**(m(m-1)/4)); m(m-1) is even, so kind 3 needs only a
    rational square root of q.
    """
    if kind == 1:
        return Fraction(1)
    if kind == 2:
        return ctx.q ** (m * (m - 1) // 2)
    if kind == 3:
        return ctx.q_pow_quarters(m * (m - 1))
    raise ValueError("kind must be 1, 2 or 3")


def exponential_series(ctx: QContext, kind: int, N: int, scale) -> TruncatedSeries:
    """The kind's q-exponential at argument scale*t, to order N.

    Coefficient of t**m is exp_weight(kind, m) * scale**m / [m]_q!.
    """
    scale = Fraction(scale)
    return TruncatedSeries(
        [exp_weight(ctx, kind, m) * scale**m / q_factorial(ctx, m) for m in range(N + 1)]
    )


def expq_reciprocal_series(ctx: QContext, N: int) -> TruncatedSeries:
    """Coefficients of 1/exp_q(t) to order N, by series division.

    This is the scalable route to the reciprocal coefficients; the
    composition-sum route lives in :func:`qbernoulli.qfun.recip_expq_coeffs`
    and the two are cross-checked in the test suite.
    """
    return series_reciprocal(exponential_series(ctx, 3, N, 1))


def gf_denominator(ctx: QContext, kind: int, N: int) -> TruncatedSeries:
    """Even scalar series g_alpha^(kind)(i*t; q) to order N.

    The t**(2n) coefficient is ((1-q)t/2)^(2n) / ((q^2;q^2)_n (q^(2a+2);q^2)_n)
    with an extra factor q^(2n(alpha+n)) for kind 2 and q^(n(n+1/2)) for
    kind 3; odd coefficients vanish.
    """
    require_exact_alpha(ctx)
    if kind not in (1, 2, 3):
        raise ValueError("kind must be 1, 2 or 3")
    coeffs = [Fraction(0)] * (N + 1)
    coeffs[0] = Fraction(1)
    half = Fraction(1, 2) * (1 - ctx.q)
    q2 = ctx.q**2
    for n in range(1, N // 2 + 1):
        term = half ** (2 * n) / (
            q_pochhammer(q2, q2, n) * q_pochhammer(ctx.q_pow(2 * ctx.alpha + 2), q2, n)
        )
        if kind == 2:
            term *= ctx.q_pow(2 * n * ctx.alpha + 2 * n * n)
        elif kind == 3:
            term *= ctx.q_pow_quarters(4 * n * n + 2 * n)
        coeffs[2 * n] = term
    return TruncatedSeries(coeffs)


def gf_numerator(ctx: QContext, kind: int, N: int) -> TruncatedSeries:
    """Numerator series (kind's exponential at z*t times at -t/2) to order N.

    Coefficients are PolyZ of degree <= m; the z**i part carries the
    weight of the exponential at z*t, the scalar part that at -t/2.
    Divided by :func:`gf_denominator`, it is the tests' reference for the
    read-off in :func:`oracle_bernoulli`.
    """
    require_exact_alpha(ctx)
    at_z = TruncatedSeries(
        [
            PolyZ.monomial(m, exp_weight(ctx, kind, m) / q_factorial(ctx, m))
            for m in range(N + 1)
        ]
    )
    at_half = exponential_series(ctx, kind, N, Fraction(-1, 2))
    lifted = TruncatedSeries([PolyZ([c]) for c in at_half.coeffs])
    return series_mul(at_z, lifted)


def oracle_bernoulli(ctx: QContext, kind: int, n: int) -> PolyZ:
    """The degree-n family member, read off the generating function.

    Forms the scalar series s = h/g to order n and returns the t**n
    coefficient of e(zt) s(t) scaled by [n]_q!, i.e. the z**i coefficient
    [n]_q!/[i]_q! * exp_weight(i) * s_(n-i).  Exact; serves as the
    independent check of the determinant representation.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    den = gf_denominator(ctx, kind, n)
    s = series_mul(exponential_series(ctx, kind, n, Fraction(-1, 2)), series_reciprocal(den))
    n_fact = q_factorial(ctx, n)
    return PolyZ(
        [
            n_fact / q_factorial(ctx, i) * exp_weight(ctx, kind, i) * s.coefficient(n - i)
            for i in range(n + 1)
        ]
    )
