"""Dense polynomials in z, truncated power series in t, and the
generating-function oracle for the three polynomial families.

Each family's generating function is e(zt) h(t) / g(t): e is the kind's
q-exponential, h the same exponential at -t/2 and g the even q-Bessel
series.  The family is therefore q-Appell: given its scalar series s, the
z**i coefficient of the degree-n member is [n]_q!/[i]_q! w_i s_(n-i),
with w_i the exponential's weight (:func:`appell_poly`).  The read-off,
the exponential series and so the oracle's h read w_m / [m]_q! from one
cached row per context and kind (:func:`_exp_row`).  The oracle
takes s = h/g, dividing by the even coefficients of g alone.  Its own two
rows, g's even coefficients and s, are cached rows too (every exact row grows
through :func:`qbernoulli.qcore.cached_row`); one s row serves every degree
of :func:`oracle_bernoulli`, and :mod:`qbernoulli.detrep` never reads them.  The
oracle's independence rests on its inputs and formulas: it uses no
moments, no recurrence and no q-binomials, where detrep takes s from the
moments.
:func:`gf_numerator` builds the numerator e(zt) h(t) in full; the tests
divide it by g as the reference for the read-off.

Series here are formal: truncation order is the only contract, and the
convergence radii are not enforced (they matter only for numeric
evaluation, which lives elsewhere).
"""

from __future__ import annotations

from fractions import Fraction

from .qcore import (
    QBernError, QContext, cached_row, check_degree, check_kind, dot, exact_str, q_factorials,
    require_exact_alpha, scaled_products,
)


class PolyZ:
    """Dense univariate polynomial in z over exact rationals.

    Coefficients are stored lowest power first with trailing zeros
    trimmed; the zero polynomial has an empty coefficient tuple and the
    sentinel degree -1.  Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("PolyZ is immutable")

    def __delattr__(self, name):
        raise AttributeError("PolyZ is immutable")

    def __reduce__(self):  # copy and pickle rebuild through __init__, not through setattr
        return PolyZ, (self.coeffs,)

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
        return [exact_str(c) for c in self.coeffs]

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
    rational square root of q.  The kind is checked by the callers.
    """
    if kind == 1:
        return Fraction(1)
    if kind == 2:
        return ctx.q ** (m * (m - 1) // 2)
    return ctx.q_pow_quarters(m * (m - 1))


@cached_row
def _exp_row(ctx: QContext, kind: int, row):
    """The coefficients w_m / [m]_q!, m = 0, 1, ..., of this context and kind."""
    while True:
        m = len(row)
        yield exp_weight(ctx, kind, m) / q_factorials(ctx, m)[m]


def exponential_series(ctx: QContext, kind: int, N: int, scale) -> TruncatedSeries:
    """The kind's q-exponential at argument scale*t, to order N.

    Coefficient of t**m is exp_weight(kind, m) * scale**m / [m]_q!.
    """
    scale, row = Fraction(scale), _exp_row(ctx, kind, N)
    coeffs, power = [], Fraction(1)
    for m in range(N + 1):
        coeffs.append(row[m] * power)
        power *= scale
    return TruncatedSeries(coeffs)


def expq_reciprocal_series(ctx: QContext, N: int) -> TruncatedSeries:
    """Coefficients of 1/exp_q(t) to order N, by series division.

    This is the scalable route to the reciprocal coefficients; the
    composition-sum route lives in :func:`qbernoulli.qfun.recip_expq_coeffs`
    and the two are cross-checked in the test suite.
    """
    return series_reciprocal(exponential_series(ctx, 3, N, 1))


@cached_row
def _even_row(ctx: QContext, kind: int, row):
    """g_0, g_2, g_4, ... of this context and kind; a context without an exact alpha
    raises, also at g_0."""
    require_exact_alpha(ctx)
    yield Fraction(1)
    # running q^(2n), q^(2a+2n) and step q^(2a+4n-2) or q^(2n-1/2), from n = 1: a missing root raises
    q2, half2 = ctx.q**2, (1 - ctx.q) ** 2 / 4
    q2n, shifted = q2, ctx.q_pow(2 * ctx.alpha + 2)
    step = shifted if kind == 2 else ctx.q_pow_quarters(6) if kind == 3 else 1
    grow = {1: 1, 2: q2 * q2, 3: q2}[kind]
    while True:
        yield row[-1] * half2 * step / ((1 - q2n) * (1 - shifted))
        q2n, shifted, step = q2n * q2, shifted * q2, step * grow


def gf_denominator(ctx: QContext, kind: int, N: int) -> TruncatedSeries:
    """Even scalar series g_alpha^(kind)(i*t; q) to order N.

    The t**(2n) coefficient is ((1-q)t/2)^(2n) / ((q^2;q^2)_n (q^(2a+2);q^2)_n)
    with an extra factor q^(2n(alpha+n)) for kind 2 and q^(n(n+1/2)) for
    kind 3; odd coefficients vanish.  The even ones are read off the
    oracle's cached row.
    """
    require_exact_alpha(ctx)  # alpha and kind before N, whose check _even_row would make first
    check_kind(kind)
    row = _even_row(ctx, kind, check_degree(N, "N") // 2)
    coeffs = [Fraction(0)] * (N + 1)
    coeffs[::2] = row[: N // 2 + 1]
    return TruncatedSeries(coeffs)


def gf_numerator(ctx: QContext, kind: int, N: int) -> TruncatedSeries:
    """Numerator series (kind's exponential at z*t times at -t/2) to order N.

    Coefficients are PolyZ of degree <= m; the z**i part carries the
    weight of the exponential at z*t, the scalar part that at -t/2.
    Divided by :func:`gf_denominator`, it is the tests' reference for the
    read-off in :func:`oracle_bernoulli`.
    """
    require_exact_alpha(ctx)  # alpha, kind, then N, as in gf_denominator
    check_kind(kind)
    check_degree(N, "N")
    at_z = TruncatedSeries(
        [PolyZ.monomial(m, c) for m, c in enumerate(exponential_series(ctx, kind, N, 1).coeffs)]
    )
    at_half = exponential_series(ctx, kind, N, Fraction(-1, 2))
    lifted = TruncatedSeries([PolyZ([c]) for c in at_half.coeffs])
    return series_mul(at_z, lifted)


def appell_poly(ctx: QContext, kind: int, n: int, s) -> PolyZ:
    """[n]_q! [t^n] e(zt) s(t): z**i coefficient [n]_q!/[i]_q! w_i s_(n-i).

    Each coefficient is one :func:`qbernoulli.qcore.scaled_products` entry:
    [n]_q! times the cached w_i / [i]_q! times s_(n-i), cross-cancelled pair
    by pair in integers and built once in lowest terms (one gcd of the full
    product per coefficient instead doubles the cost at deep degrees).
    """
    row, f = _exp_row(ctx, kind, n), q_factorials(ctx, n)[n]
    return PolyZ(scaled_products(f, row[: n + 1], reversed(s[: n + 1])))


@cached_row
def _oracle_scalars(ctx: QContext, kind: int, s):
    """s = h/g: g is even and g_0 = 1, so s_m = h_m - sum_j g_2j s_(m-2j),
    with h_m = w_m/[m]_q! (-1/2)^m."""
    half = Fraction(1)
    while True:
        m = len(s)
        g, h = _even_row(ctx, kind, m // 2), _exp_row(ctx, kind, m)[m] * half
        # s[m % 2::2] holds s_(m-2j) for j = m//2 down to 1, and is empty for m < 2
        yield h - dot(g[1:], reversed(s[m % 2::2]))
        half /= -2


def oracle_bernoulli(ctx: QContext, kind: int, n: int) -> PolyZ:
    """The degree-n family member, read off s = h/g to order n.  Exact;
    serves as the independent check of the determinant representation."""
    return appell_poly(ctx, kind, n, _oracle_scalars(ctx, kind, n))

