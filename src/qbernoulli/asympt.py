"""First positive zeros of the q-Bessel and q-trigonometric functions,
and the large-degree leading terms of the type-2 and type-3 families.

Zero location brackets the first certified sign change by geometric
stepping from the origin, then shrinks the bracket by ITP refinement
(interpolate, truncate, project: a secant step held within one probe of
bisection's worst case), keeping every probe off the bracket's ends.
Every sign decision uses the tail-bounded evaluations from
:mod:`qbernoulli.qfun`, escalating the working precision when a value
sits too close to zero to certify.  Kind 1 is never searched: on |z| < 2,
where its series converges, J2(z) = (-z^2/4; q^2)_inf J1(z) (Jackson)
with a positive factor, so kind 1 reads kind 2's first zero below a cap.

The leading term of the degree-n polynomial at real z is

    pref * (-1)^(floor(n/2)+1) * [n]_q! * T_n(z) / ((2c)^(n+1) * J'),

where c is the first Bessel zero scaled into the generating variable,
J' the derivative of the modified Bessel function at that zero, T_n the
parity-matched combination of the family's trigonometric pair at 2cz
and at c, and pref = 4 times the zero scale: 2/(1-q) for kind 2 or
4 q^(1/4)/(1-q) for kind 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

from .qcore import DomainError, QBernError, QContext, cached, check_degree, check_kind, q_factorial, rational
from .detrep import bernoulli_poly_det
from .qfun import (
    GUARD_BITS,
    QTrigKind,
    _checked_precision,
    modified_bessel_certified,
    modified_bessel_derivative_certified,
    qtrig_certified,
    rounded_to_context,
    to_mpf,
)

_KIND1_CAP = "1.95"  # kind 1's term ratio tends to (z/2)^2, certified only below 0.97


@dataclass(frozen=True)
class ZeroResult:
    """A located zero: where it is, a sign-change bracket, and how small
    the defining function is at the reported location."""

    location: mpf
    certified_interval: tuple
    residual: mpf


@dataclass(frozen=True)
class AsymptoticTerm:
    """One leading-term value together with the factors that built it."""

    value: mpf
    parity: str
    n: int
    components: dict


def _certified_value(evaluate, x, precision):
    """(sign, value) of evaluate(x, wp), the sign certified by |value| > bound.

    Escalates working precision a few times; if the value stays
    indistinguishable from zero the point is reported as such (sign 0,
    with the last value computed).
    """
    for wp in (precision + GUARD_BITS, precision * 2 + GUARD_BITS, precision * 4 + 2 * GUARD_BITS):
        value, bound = evaluate(x, wp)
        if abs(value) > bound:
            return (1 if value > 0 else -1), value
    return 0, value


def _resolve_sign(evaluate, x, step, precision):
    """Certified sign at x, nudging slightly right when x sits dead on a
    zero, so bracket endpoints always carry a provable sign."""
    sign = _certified_value(evaluate, x, precision)[0]
    attempt = 1
    while sign == 0 and attempt <= 50:
        x = x + step / 1024 * attempt
        sign = _certified_value(evaluate, x, precision)[0]
        attempt += 1
    if sign == 0:
        raise QBernError("could not certify a sign near %s" % x)
    return sign, x


def bracket_first_zero(evaluate, initial_step, precision):
    """March from 0 with geometrically growing steps until the certified
    sign flips negative, returning the bracketing pair (lo, hi).

    Kinds 2 and 3 are searched this way; kind 1 reads kind 2's zero (see
    :func:`smallest_zero`), so no march ever nears its |z| = 2 boundary.
    """
    with mp.workprec(precision + GUARD_BITS):
        step = mpf(initial_step)
        lo = mpf(0)
        x = step
        for _ in range(400):
            sign, x = _resolve_sign(evaluate, x, step, precision)
            if sign < 0:
                return lo, x
            lo = x
            step *= mpf(1.5)
            x = lo + step
        raise DomainError("no zero found in search range")


def bisect_zero(evaluate, lo, hi, precision):
    """Shrink a certified (+, -) bracket until its width falls below
    2**-(precision+8) * max(1, hi); returns (lo, hi, location).

    The method is ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2021), not
    bisection; the name stays because perfbench/tracing.py and the
    acceptance tests bind this function by name.  Each probe is the
    regula-falsi point of the certified end values, truncated toward the
    midpoint by kappa1 * width**2 and projected into a radius around the
    midpoint that shrinks so that no run needs more than one probe beyond
    bisection's count.  Every probe is also kept a quarter of the target
    width inside both ends, or an interpolated point that rounds onto an
    end would make no progress.

    Both returned endpoints keep certified signs.  When a probe sits so
    close to the zero that no affordable precision certifies its sign,
    that probe is already a better location than the target width asks
    for; it is returned with the current (certified) bracket.
    """
    with mp.workprec(precision + GUARD_BITS):
        lo = mpf(lo)
        hi = mpf(hi)
        # lo only grows, so this target also holds against the final hi
        target = mpf(2) ** (-(precision + 8)) * max(mpf(1), lo)
        width = hi - lo
        if width <= target:
            return lo, hi, (lo + hi) / 2
        kappa1 = mpf(0.2) / width
        # n0 = 1 probe beyond bisection's ceil(log2(width / target))
        n_max = int(mpmath.ceil(mpmath.log(width / target, 2))) + 1
        f_lo = _certified_value(evaluate, lo, precision)[1]
        f_hi = _certified_value(evaluate, hi, precision)[1]
        j = 0
        while width > target:
            mid = (lo + hi) / 2
            falsi = lo + width * f_lo / (f_lo - f_hi) if f_lo != f_hi else mid
            toward = 1 if mid >= falsi else -1
            delta = kappa1 * width**2  # kappa2 = 2
            probe = falsi + toward * delta if delta <= abs(mid - falsi) else mid
            radius = max(target / 2 * 2 ** (n_max - j) - width / 2, mpf(0))
            if abs(probe - mid) > radius:
                probe = mid - toward * radius
            probe = min(max(probe, lo + target / 4), hi - target / 4)
            sign, value = _certified_value(evaluate, probe, precision)
            if sign == 0:
                return lo, hi, probe
            if sign > 0:
                lo, f_lo = probe, value
            else:
                hi, f_hi = probe, value
            width = hi - lo
            j += 1
        return lo, hi, (lo + hi) / 2


def smallest_zero(ctx: QContext, kind: int, precision: int | None = None) -> ZeroResult:
    """First positive zero of the modified q-Bessel function, base q**2.

    Kinds 2 and 3 are entire and always have one.  Kind 1 shares kind 2's zeros on
    |z| < 2 and reads kind 2's, failing unless its bracket ends below _KIND1_CAP, where
    kind 1's series still certifies.  The result carries a certified sign-change
    bracket and the residual at the reported location.
    """
    ctx.require_numeric()
    return _first_zero(ctx, check_kind(kind), _checked_precision(ctx, precision))


@cached
def _first_zero(ctx: QContext, kind: int, precision: int) -> ZeroResult:
    def evaluate(x, wp):
        return modified_bessel_certified(ctx, kind, 2, x, precision=wp - GUARD_BITS)

    with mp.workprec(precision + GUARD_BITS):
        if kind == 1:
            zero = _first_zero(ctx, 2, precision)
            (lo, hi), location = zero.certified_interval, zero.location
            if not hi < mpf(_KIND1_CAP):
                raise DomainError("no zero found in search range (0, %s): kind 1 shares kind 2's zeros, "
                                  "and kind 2's first is at %s" % (_KIND1_CAP, mpmath.nstr(location, 10)))
        else:
            lo, hi = bracket_first_zero(evaluate, (1 - to_mpf(ctx.q)) / 2, precision)
            lo, hi, location = bisect_zero(evaluate, lo, hi, precision)
        value, bound = evaluate(location, precision + GUARD_BITS)
        return ZeroResult(location=location, certified_interval=(lo, hi), residual=abs(value) + bound)


_NAMED = {
    # constant -> (bessel kind, alpha, trig kind, prescale the trig argument by sqrt(q))
    "Sin_q": (2, Fraction(1, 2), QTrigKind.Sin_q, False),
    "Cos_q": (2, Fraction(-1, 2), QTrigKind.Cos_q, False),
    "S_q": (3, Fraction(1, 2), QTrigKind.S_q, False),
    "C_q_scaled": (3, Fraction(-1, 2), QTrigKind.C_q, True),
}


def _zero_scale(q: mpf, kind: int) -> mpf:
    """Factor taking a first Bessel zero into the generating variable:
    1/(2(1-q)) for kind 2, q^(1/4)/(1-q) for kind 3."""
    if kind == 2:
        return 1 / (2 * (1 - q))
    return mpmath.power(q, mpf(1) / 4) / (1 - q)


def named_trig_zero(ctx: QContext, which: str, precision: int | None = None) -> ZeroResult:
    """Smallest positive zero of Sin_q, Cos_q, S_q, or z -> C_q(sqrt(q) z).

    Each is the alpha = +-1/2 reduction of a first q-Bessel zero, scaled
    by :func:`_zero_scale`.
    The reported residual is the q-trig function's own value at the
    location, an independent check of the reduction.
    """
    ctx.require_numeric()
    try:
        kind, alpha, trig, prescale = _NAMED[which]
    except KeyError:
        raise ValueError("which must be one of %s" % sorted(_NAMED)) from None
    precision = _checked_precision(ctx, precision)
    reduced = ctx.with_alpha(alpha)
    bessel = smallest_zero(reduced, kind, precision)
    with mp.workprec(precision + GUARD_BITS):
        q = to_mpf(ctx.q)
        scale = _zero_scale(q, kind)
        location = bessel.location * scale
        interval = (bessel.certified_interval[0] * scale, bessel.certified_interval[1] * scale)
        argument = location * mpmath.sqrt(q) if prescale else location
        value, bound = qtrig_certified(reduced, trig, argument, precision=precision)
        return ZeroResult(location=location, certified_interval=interval, residual=abs(value) + bound)


def bessel_derivative_at(ctx: QContext, kind: int, x) -> mpf:
    """d/dz of the modified q-Bessel function (base q**2) at x > 0."""
    ctx.require_numeric()
    if not to_mpf(x) > 0:
        raise ValueError("x must be positive")
    value, _ = modified_bessel_derivative_certified(ctx, kind, x)
    return rounded_to_context(ctx, value)


_TRIG_PAIR = {2: (QTrigKind.Cos_q, QTrigKind.Sin_q), 3: (QTrigKind.C_q, QTrigKind.S_q)}


@dataclass(frozen=True)
class _Frame:
    """Per-(q, alpha, kind) leading-term data: the scaled singularity
    constant and its location uncertainty, the family prefactor, the Bessel
    derivative there, and the trig pair at the constant with series bounds."""

    constant: mpf
    constant_width: mpf
    prefactor: mpf
    derivative: mpf
    cos_at_c: mpf
    cos_bound: mpf
    sin_at_c: mpf
    sin_bound: mpf


@cached
def _frame(ctx: QContext, kind: int, precision: int) -> _Frame:
    zero = smallest_zero(ctx, kind, precision)
    cos_kind, sin_kind = _TRIG_PAIR[kind]
    with mp.workprec(precision + GUARD_BITS):
        scale = _zero_scale(to_mpf(ctx.q), kind)
        prefactor = 4 * scale  # exact: a power of two
        constant = zero.location * scale
        lo, hi = zero.certified_interval
        constant_width = (hi - lo) * scale
        derivative, _ = modified_bessel_derivative_certified(
            ctx, kind, zero.location, precision=precision
        )
        cos_at_c, cos_bound = qtrig_certified(ctx, cos_kind, constant, precision=precision)
        sin_at_c, sin_bound = qtrig_certified(ctx, sin_kind, constant, precision=precision)
    return _Frame(
        constant, constant_width, prefactor, derivative, cos_at_c, cos_bound, sin_at_c, sin_bound
    )


@cached
def _trig_at_2cz(ctx: QContext, kind: int, precision: int, z: mpf) -> tuple:
    """The kind's certified (value, bound) trig pair at 2cz, which no degree changes."""
    constant = _frame(ctx, kind, precision).constant
    with mp.workprec(precision + GUARD_BITS):
        return tuple(
            qtrig_certified(ctx, trig, 2 * constant * z, precision=precision) for trig in _TRIG_PAIR[kind]
        )


def leading_term(ctx: QContext, kind: int, n: int, z) -> AsymptoticTerm:
    """Leading asymptotic term of the degree-n polynomial at real z.

    Even degrees pair the cosine-type combination, odd degrees the
    sine-type one; the two parities share the prefactor, the power
    (2c)^(n+1), and the Bessel-derivative denominator.
    """
    check_kind(kind, (2, 3))
    if check_degree(n) < 1:
        raise ValueError("n must be >= 1, got 0")
    ctx.require_numeric()
    precision = ctx.float_precision_bits
    frame = _frame(ctx, kind, precision)
    with mp.workprec(precision + GUARD_BITS):
        z = to_mpf(z)  # junk raises here, before z becomes a memo key
        (cos_at_2cz, cos2_bound), (sin_at_2cz, sin2_bound) = _trig_at_2cz(ctx, kind, precision, z)
        if n % 2 == 0:
            parity = "even"
            combination = cos_at_2cz * frame.cos_at_c + sin_at_2cz * frame.sin_at_c
        else:
            parity = "odd"
            combination = sin_at_2cz * frame.cos_at_c - cos_at_2cz * frame.sin_at_c
        sign = mpf(-1) ** (n // 2 + 1)
        # indeterminacy certificate for the combination: series bounds plus
        # the zero-location uncertainty times a crude Lipschitz allowance
        magnitudes = abs(frame.cos_at_c) + abs(frame.sin_at_c) + abs(cos_at_2cz) + abs(sin_at_2cz)
        noise = (
            frame.cos_bound * abs(cos_at_2cz)
            + cos2_bound * abs(frame.cos_at_c)
            + frame.sin_bound * abs(sin_at_2cz)
            + sin2_bound * abs(frame.sin_at_c)
            + frame.constant_width * 4 * (1 + abs(z)) * (1 + magnitudes)
        )
        factorial = to_mpf(q_factorial(ctx, n))
        power = (2 * frame.constant) ** (n + 1)
        value = frame.prefactor * sign * factorial * combination / (power * frame.derivative)
        components = {
            "prefactor": frame.prefactor,
            "sign": sign,
            "factorial": factorial,
            "trig_combination": combination,
            "power": power,
            "bessel_derivative": frame.derivative,
            "trig_combination_noise": noise,
        }
        return AsymptoticTerm(value=value, parity=parity, n=n, components=components)


@dataclass(frozen=True)
class RatioRow:
    """One diagnostic row: exact polynomial value against its leading term."""

    n: int
    exact_value: Fraction
    float_value: mpf
    leading: mpf
    abs_ratio_minus_1: mpf | None
    flag: str | None = None


def ratio_diagnostic(ctx: QContext, kind: int, z, n_list) -> list[RatioRow]:
    """|B_n(z)/leading_term - 1| over n_list, with B_n computed exactly.

    A leading term whose trig combination is indistinguishable from zero
    at this z (below its own noise certificate, as happens at the
    parities whose combination vanishes identically) makes the ratio
    meaningless; such rows are flagged "indeterminate" instead.
    """
    z, kind = rational(z, "z"), check_kind(kind, (2, 3))
    rows = []
    for n in n_list:
        exact = bernoulli_poly_det(ctx, kind, n)(z)
        term = leading_term(ctx, kind, n, z)
        with mp.workprec(ctx.float_precision_bits + GUARD_BITS):
            float_value = to_mpf(exact)
            noisy = abs(term.components["trig_combination"]) <= term.components["trig_combination_noise"]
            flag, ratio = ("indeterminate", None) if noisy else (None, abs(float_value / term.value - 1))
        rows.append(RatioRow(n, exact, float_value, term.value, ratio, flag))
    return rows
