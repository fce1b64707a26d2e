"""Point evaluation of the q-special functions: the three q-exponentials,
their trigonometric pairs, the Jackson q-Bessel functions, terminating and
truncated basic hypergeometric sums, and the reciprocal coefficients of
exp_q.

The three q-exponentials differ only in their weights, 1, q^(n(n-1)/2)
and q^(n(n-1)/4), so one rule (:func:`_weight`) steps all three and the
trigonometric pairs carved out of them.

Floating results are mpmath values computed at the context precision with
a certified truncation: each series is summed until an explicit term-ratio
bound shows the tail (plus accumulated rounding slack) is below the target.
Sign decisions near zeros therefore never rest on a bare float comparison;
the ``*_certified`` functions expose the (value, bound) pairs the
root-bracketing machinery consumes.
"""

from __future__ import annotations

import enum
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

from .qcore import DomainError, QBernError, QContext, check_degree, check_kind, q_factorial, rational

GUARD_BITS = 40
MAX_SERIES_TERMS = 200_000


def to_mpf(x):
    """Convert int/float/Fraction/mpf to mpf at the current precision; what mpf cannot take,
    inf and nan raise DomainError."""
    if isinstance(x, Fraction):
        return mpf(x.numerator) / mpf(x.denominator)
    try:
        if mpmath.isfinite(value := mpf(x)):
            return value
    except (TypeError, ValueError):
        pass
    raise DomainError("expected a finite real number, got %s" % (x,))


def certified_sum(first_term, step, workprec):
    """Sum a series with a self-certifying geometric tail.

    ``step(n, term)`` must return ``(next_term, ratio_bound)`` where
    ratio_bound >= |a_{m+1}/a_m| for every m >= n and is nonincreasing in
    n.  Returns ``(value, bound)`` with bound covering both the dropped
    tail and the accumulated rounding error at ``workprec`` bits.
    """
    with mp.workprec(workprec):
        tol = mpf(2) ** (-workprec + 10)
        total = mpf(first_term)
        abs_total = abs(total)
        term = total
        n = 0
        while True:
            term, ratio = step(n, term)
            n += 1
            total += term
            abs_total += abs(term)
            if ratio < mpf(0.97):
                tail = abs(term) * ratio / (1 - ratio)
                if tail < tol:
                    rounding = abs_total * (n + 4) * mpf(2) ** (2 - workprec)
                    return total, tail + rounding
            if n > MAX_SERIES_TERMS:
                raise QBernError("series failed to certify within %d terms" % MAX_SERIES_TERMS)


def _checked_precision(ctx: QContext, precision=None) -> int:
    """precision, or the context's for None; anything but an int >= 1 (a bool too) raises ValueError."""
    if precision is None:
        return ctx.float_precision_bits
    if type(precision) is not int or precision < 1:
        raise ValueError("precision must be an integer number of bits >= 1, got %r" % (precision,))
    return precision


def _workprec(ctx: QContext, precision=None):
    return _checked_precision(ctx, precision) + GUARD_BITS


def rounded_to_context(ctx: QContext, value) -> mpf:
    """Round a working-precision value to the context's stated precision."""
    with mp.workprec(ctx.float_precision_bits):
        return +value


# ---------------------------------------------------------------------------
# q-exponentials


def _weight(family: int, q: mpf):
    """e -> 1, q**e or sqrt(q)**e: the one weight rule of the three families.

    The exponential weights w_n (1, q^(n(n-1)/2), q^(n(n-1)/4)) step as
    w_(n+1) = weight(n) w_n, and the trig pairs, two terms at a time, as
    w_(n+2) = weight(2n+1) w_n.
    """
    if family == 1:
        return lambda e: mpf(1)
    if family == 2:
        return lambda e: q**e
    sq = mpmath.sqrt(q)
    return lambda e: sq**e


def _exponential(ctx: QContext, family: int, z) -> mpf:
    """The family's q-exponential at z (e_q, E_q, exp_q for 1, 2, 3)."""
    ctx.require_numeric()
    wp = _workprec(ctx)
    with mp.workprec(wp):
        q = to_mpf(ctx.q)
        z = to_mpf(z)
        if family == 1 and abs(z) * (1 - q) >= 1:
            raise DomainError("e_q is defined only for |z| < 1/(1-q)")
        x = z * (1 - q)
        weight = _weight(family, q)

        def step(n, term):
            w, d = weight(n), 1 - q ** (n + 1)
            return term * w * x / d, abs(x) * w / d

        value, _ = certified_sum(mpf(1), step, wp)
    return rounded_to_context(ctx, value)


def eval_eq(ctx: QContext, z) -> mpf:
    """e_q(z) = sum z^n (1-q)^n / (q;q)_n, valid for |z| < 1/(1-q)."""
    return _exponential(ctx, 1, z)


def eval_Eq(ctx: QContext, z) -> mpf:
    """E_q(z) = sum q^(n(n-1)/2) z^n (1-q)^n / (q;q)_n; entire."""
    return _exponential(ctx, 2, z)


def eval_expq(ctx: QContext, z) -> mpf:
    """exp_q(z) = sum q^(n(n-1)/4) z^n (1-q)^n / (q;q)_n; entire."""
    return _exponential(ctx, 3, z)


# ---------------------------------------------------------------------------
# q-trigonometric pairs


class QTrigKind(enum.Enum):
    """The three sine/cosine pairs carved out of e_q, E_q and exp_q."""

    sin_q = "sin_q"
    cos_q = "cos_q"
    Sin_q = "Sin_q"
    Cos_q = "Cos_q"
    S_q = "S_q"
    C_q = "C_q"


_TRIG_FAMILY = {
    QTrigKind.sin_q: (1, 1),
    QTrigKind.cos_q: (1, 0),
    QTrigKind.Sin_q: (2, 1),
    QTrigKind.Cos_q: (2, 0),
    QTrigKind.S_q: (3, 1),
    QTrigKind.C_q: (3, 0),
}


def qtrig_certified(ctx: QContext, kind: QTrigKind, z, precision=None):
    """(value, bound) for a q-trig function at real z.

    The functions are the even/odd subseries of the matching q-exponential
    at imaginary argument, with the i-powers resolved to alternating real
    signs; no complex arithmetic is involved.
    """
    ctx.require_numeric()
    family, parity = _TRIG_FAMILY[check_kind(kind, tuple(QTrigKind))]
    wp = _workprec(ctx, precision)
    with mp.workprec(wp):
        q = to_mpf(ctx.q)
        z = to_mpf(z)
        if z == 0:
            return mpf(1 - parity), mpf(0)
        if family == 1 and abs(z) * (1 - q) >= 1:
            raise DomainError("sin_q/cos_q are defined only for |z| < 1/(1-q)")
        x = z * (1 - q)
        weight = _weight(family, q)
        first = x**parity
        for k in range(1, parity + 1):
            first /= 1 - q**k

        def step(m, term):
            n_cur = 2 * m + parity
            f = weight(2 * n_cur + 1) * x * x / ((1 - q ** (n_cur + 1)) * (1 - q ** (n_cur + 2)))
            return -term * f, f

        return certified_sum(first, step, wp)


def eval_qtrig(ctx: QContext, kind: QTrigKind, z) -> mpf:
    value, _ = qtrig_certified(ctx, kind, z)
    return rounded_to_context(ctx, value)


# ---------------------------------------------------------------------------
# Jackson q-Bessel functions


def _modified_bessel_ratio(kind: int, Q: mpf, alpha: mpf, z: mpf):
    """n -> f_n, where term n+1 of the kind's modified series in base Q
    is -f_n times term n.

    The kind sets the weight in f_n: 1, Q**(alpha+2n+1) or Q**(n+1).
    """
    X = z if check_kind(kind) == 3 else z / 2
    if kind == 1 and abs(X) >= 1:
        raise DomainError("kind-1 q-Bessel series converges only for |z| < 2")
    Qa1 = mpmath.power(Q, alpha + 1)

    def ratio(n):
        if kind == 1:
            w = mpf(1)
        elif kind == 2:
            w = mpmath.power(Q, alpha + 2 * n + 1)
        else:
            w = Q ** (n + 1)
        return w * X * X / ((1 - Q ** (n + 1)) * (1 - Qa1 * Q**n))

    return ratio


def modified_bessel_certified(ctx: QContext, kind: int, base_exponent: int, z, precision=None):
    """(value, bound) for the modified Jackson function of the given kind.

    The modified function drops the infinite-product prefactor and the
    power-of-z factor, so it equals 1 at z = 0.  Base q**base_exponent;
    kind 1 converges only for |z| < 2.
    """
    ctx.require_numeric()
    check_kind(base_exponent, (1, 2), "base_exponent")
    wp = _workprec(ctx, precision)
    with mp.workprec(wp):
        Q = to_mpf(ctx.q) ** base_exponent
        ratio = _modified_bessel_ratio(kind, Q, to_mpf(ctx.alpha), to_mpf(z))

        def step(n, term):
            f = ratio(n)
            return -term * f, f

        return certified_sum(mpf(1), step, wp)


def modified_bessel_derivative_certified(ctx: QContext, kind: int, z, precision=None):
    """(value, bound) of d/dz of the modified function, base q**2.

    The modified function is even, so the derivative at z = 0 is exactly 0.
    """
    ctx.require_numeric()
    wp = _workprec(ctx, precision)
    with mp.workprec(wp):
        z = to_mpf(z)
        ratio = _modified_bessel_ratio(kind, to_mpf(ctx.q) ** 2, to_mpf(ctx.alpha), z)
        if z == 0:
            return mpf(0), mpf(0)
        first = -2 * ratio(0) / z

        def step(m, term):
            n = m + 1  # current series index of `term` is n, producing n+1
            f = ratio(n)
            # term carries the 2n/z factor; the ratio picks up (n+1)/n
            return -term * f * mpf(n + 1) / n, f * mpf(n + 1) / n

        return certified_sum(first, step, wp)


def qpochhammer_infinite(a, q, workprec) -> mpf:
    """(a; q)_infinity with a geometric tail bound below working precision."""
    with mp.workprec(workprec):
        a = to_mpf(a)
        q = to_mpf(q)
        out = mpf(1)
        tol = mpf(2) ** (-workprec + 6)
        while abs(a) > tol:
            out *= 1 - a
            a *= q
        return +out


def eval_modified_bessel(ctx: QContext, kind: int, base_exponent: int, z) -> mpf:
    value, _ = modified_bessel_certified(ctx, kind, base_exponent, z)
    return rounded_to_context(ctx, value)


def eval_bessel(ctx: QContext, kind: int, base_exponent: int, z) -> mpf:
    """Jackson q-Bessel with its prefactor and power-of-z factor (z > 0)."""
    ctx.require_numeric()
    wp = _workprec(ctx)
    with mp.workprec(wp):
        z = to_mpf(z)
        if z <= 0:
            raise DomainError("the unmodified q-Bessel evaluation needs z > 0")
        value, _ = modified_bessel_certified(ctx, kind, base_exponent, z)
        Q = to_mpf(ctx.q) ** base_exponent
        alpha = to_mpf(ctx.alpha)
        prefactor = qpochhammer_infinite(mpmath.power(Q, alpha + 1), Q, wp) / qpochhammer_infinite(
            Q, Q, wp
        )
        X = z if kind == 3 else z / 2
        full = prefactor * mpmath.power(X, alpha) * value
    return rounded_to_context(ctx, full)


# ---------------------------------------------------------------------------
# basic hypergeometric sums (exact)


def _phi_sum(ctx: QContext, uppers, lowers, arg, terms):
    """Terms 0..terms of the basic hypergeometric sum; with terms=None, every term before the
    first upper parameter u to meet u q^m = 1.  Each u q^m moves monotonically in m, so the sum
    raises as soon as no upper parameter can still reach 1."""
    if terms is not None:
        check_degree(terms, "the term count")
    q, arg = ctx.q, rational(arg, "arg")
    uppers = [rational(u, "an upper parameter") for u in uppers]
    lowers = [rational(low, "a lower parameter") for low in lowers]
    total = Fraction(0)
    num = den = power = qpoch = qm = Fraction(1)
    m = 0
    while True:
        total += num / (den * qpoch) * power
        if terms is not None and m >= terms:
            return total
        for low in lowers:
            factor = 1 - low * qm
            if factor == 0:
                raise QBernError("vanishing lower-parameter Pochhammer factor")
            den *= factor
        for u in uppers:
            num *= 1 - u * qm
        if num == 0:
            # the sum terminates here; later terms all vanish
            return total
        if terms is None and not any(0 < u * qm and (u * qm - 1) * (q - 1) < 0 for u in uppers):
            raise QBernError("the hypergeometric sum does not terminate: no upper parameter is q**-k")
        qm *= q
        qpoch *= 1 - qm
        power *= arg
        m += 1


def phi21(ctx: QContext, a, b, c, arg, N: int) -> Fraction:
    """Exact partial sum (terms 0..N) of 2phi1(a, b; c; q, arg)."""
    return _phi_sum(ctx, (a, b), (c,), arg, N)


def phi32(ctx: QContext, a1, a2, a3, b1, b2, arg, terms: int | None = None) -> Fraction:
    """Exact 3phi2; with terms=None the sum must terminate (an upper
    parameter of the form q**-n), otherwise terms 0..terms are added."""
    return _phi_sum(ctx, (a1, a2, a3), (b1, b2), arg, terms)


# ---------------------------------------------------------------------------
# reciprocal of exp_q by composition sums


def _compositions(n: int):
    """All ordered tuples of positive integers summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def recip_expq_coeffs(ctx: QContext, N: int) -> list[Fraction]:
    """Coefficients c_0..c_N of 1/exp_q(z) by explicit composition sums.

    Each composition (s_1..s_k) of n contributes
    (-1)^k q^(sum s_i(s_i-1)/4) / prod [s_i]_q!.  Enumeration is 2**(n-1)
    compositions per n, fine for n up to ~20; the series-division route
    (:func:`qbernoulli.series.expq_reciprocal_series`) scales past that.
    """
    part_weight = [
        ctx.q_pow_quarters(s * (s - 1)) / q_factorial(ctx, s) for s in range(check_degree(N, "N") + 1)
    ]
    out = [Fraction(1)]
    for n in range(1, N + 1):
        total = Fraction(0)
        for comp in _compositions(n):
            prod = Fraction(1)
            for s in comp:
                prod *= part_weight[s]
            total += Fraction(-1) ** len(comp) * prod
        out.append(total)
    return out
