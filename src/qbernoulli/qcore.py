"""Exact scalar tower and the basic q-combinatorial primitives.

All exact computation runs over arbitrary-precision rationals
(``fractions.Fraction``, aliased ``ExactScalar``).  Rationals are always
normalized (lowest terms, positive denominator) and serialize as the
string ``"p/r"`` (or ``"p"`` for integers) via :func:`exact_str`, which is
``str()`` at any size; parse them back with ``Fraction(s)``.

A :class:`QContext` carries the base ``q`` together with whichever of its
roots ``q**(1/2)`` and ``q**(1/4)`` are themselves rational (it derives
them from ``q``; they are never passed in), the order parameter ``alpha``,
and the binary precision used for floating-point evaluation.  Exact operations that need a q-root the context cannot
represent raise :class:`ExactModeError`; nothing is ever silently
approximated on the exact paths, and a q or alpha that is not rational is
refused there by the same error.

Each argument class has one check here: :func:`check_degree` for degrees,
:func:`check_kind` for family kinds and :func:`rational` for exact points.
Every exact dot product of the recurrences (numbers, kind-3 moments, the
oracle's s, the expansion functionals and their partial sum) goes through
one kernel, :func:`dot`, which normalises once per sum.  Every polynomial
coefficient the two routes read off goes through its sibling
:func:`scaled_products`, which builds each triple product once, already in
lowest terms.

Contexts are immutable and every function here is pure, so exact values
can be shared freely across threads (the mpmath numerics still set the
process-wide precision).  Results worth keeping live in one store per
(q, alpha), shared by every precision, and bounded to the CACHED_CONTEXTS most
recently used; an exact context never shares its store with a float one, and
float contexts of equal values share theirs, where :func:`cached_row` refuses
a float q on every read.  Its exact rows (q-factorials, w_m / [m]_q!, moments,
numbers, the oracle's g and s, the ladder operators' factors) grow only through
:func:`cached_row`, and its numeric results (first zeros, leading-term frames
and trig pairs) are memoised only by :func:`cached`, so counters or a byte
budget need attach at those two decorators alone.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial, wraps
from numbers import Rational

ExactScalar = Fraction


class QBernError(Exception):
    """Base class for all library errors."""


class ExactModeError(QBernError):
    """An exact operation needs a q-root this context cannot represent, or a rational q or alpha."""


class DomainError(QBernError):
    """Numeric evaluation was requested outside a convergence domain."""


def _integer_root(n: int, k: int) -> int | None:
    """Exact k-th root of a nonnegative integer for k in {2, 4}, else None."""
    r = math.isqrt(n)
    if r * r != n:
        return None
    if k == 2:
        return r
    return _integer_root(r, 2)


def rational_root(x: Fraction, k: int) -> Fraction | None:
    """Exact k-th root of x (k in {2, 4}) when x is a nonnegative rational whose root is
    rational; None otherwise, a float or an mpf x included."""
    if not isinstance(x, Rational) or x < 0:
        return None
    num = _integer_root(x.numerator, k)
    den = _integer_root(x.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def exact_str(x) -> str:
    """``str(x)`` of an exact int or Fraction, ``"p/r"`` or ``"p"``, at any size.
    ``str`` refuses an integer of more decimal digits than the interpreter's
    limit (``sys.get_int_max_str_digits()``, 4300 by default); such parts are
    written through ``decimal``, which has no such limit, and the limit is
    left as it is."""
    try:
        return str(x)
    except ValueError:
        from decimal import Decimal

    num, den = (str(Decimal(part)) for part in (x.numerator, x.denominator))
    return num if den == "1" else "%s/%s" % (num, den)


@dataclass(frozen=True)
class QContext:
    """Parameter pack shared by every operation.

    ``q`` is the base (numeric work requires ``0 < q < 1``), ``alpha`` the
    order parameter (``alpha > -1``), and ``float_precision_bits`` the
    target precision of floating results.  ``sqrt_q`` / ``fourth_root_q``
    hold the exact roots of q when they are rational and None otherwise;
    the context derives them from q, and ``q_pow_quarters`` consults them.
    An int q or alpha is held as a Fraction.  A float one builds a context
    for the numerics, but exact paths refuse it with :class:`ExactModeError`.

    Construct through :meth:`from_fourth_root` (full exactness for all
    three polynomial families) or :meth:`from_q`.  :meth:`reciprocal_base`
    builds the base-``1/q`` context used by the q <-> 1/q symmetry of the
    type-1/type-2 families; such a context supports exact arithmetic only.
    """

    q: Fraction
    alpha: Fraction
    float_precision_bits: int = 128
    sqrt_q: Fraction | None = field(init=False, compare=False)
    fourth_root_q: Fraction | None = field(init=False, compare=False)

    def __post_init__(self):
        for name in ("q", "alpha"):
            value = getattr(self, name)
            if type(value) is not Fraction and isinstance(value, Rational):
                object.__setattr__(self, name, Fraction(value))
        if self.q <= 0 or self.q == 1:
            raise ValueError("base q must be positive and != 1")
        if self.alpha <= -1:
            raise ValueError("alpha must be > -1")
        if type(self.float_precision_bits) is not int or self.float_precision_bits < 1:
            raise ValueError("float_precision_bits must be a positive integer, got %r" % (self.float_precision_bits,))
        object.__setattr__(self, "sqrt_q", rational_root(self.q, 2))
        object.__setattr__(self, "fourth_root_q", rational_root(self.q, 4))
        q, a = self.q, self.alpha  # the store's key holds ints: a Fraction's hash computes a modular inverse
        key = (q.numerator, q.denominator, a.numerator, a.denominator) if type(q) is type(a) is Fraction else (q, a)
        object.__setattr__(self, "store_key", key)

    @classmethod
    def from_fourth_root(cls, b, alpha, float_precision_bits: int = 128) -> "QContext":
        b = Fraction(b)
        if not 0 < b < 1:
            raise ValueError("fourth root of q must satisfy 0 < b < 1")
        return cls(q=b**4, alpha=Fraction(alpha), float_precision_bits=float_precision_bits)

    @classmethod
    def from_q(cls, q, alpha, float_precision_bits: int = 128) -> "QContext":
        q = Fraction(q)
        if not 0 < q < 1:
            raise ValueError("base q must satisfy 0 < q < 1")
        return cls(q=q, alpha=Fraction(alpha), float_precision_bits=float_precision_bits)

    def reciprocal_base(self) -> "QContext":
        """Context with q replaced by 1/q (exact arithmetic only)."""
        return replace(self, q=1 / self.q)

    def with_alpha(self, alpha) -> "QContext":
        return replace(self, alpha=Fraction(alpha))

    @property
    def exact_alpha(self) -> bool:
        """True when alpha is rational and 4*alpha an integer, the exact-mode requirement."""
        return type(self.alpha) is Fraction and (4 * self.alpha).denominator == 1

    def require_numeric(self):
        if not 0 < self.q < 1:
            raise DomainError("numeric evaluation requires 0 < q < 1")

    def q_pow_quarters(self, m: int) -> Fraction:
        """Exact q**(m/4) for integer m, using the finest available root."""
        if m % 4 == 0:
            return self.q ** (m // 4)
        if m % 2 == 0:
            if self.sqrt_q is None:
                raise ExactModeError(
                    "exact q**(%s/2) needs a rational square root of q=%s" % (m // 2, self.q)
                )
            return self.sqrt_q ** (m // 2)
        if self.fourth_root_q is None:
            raise ExactModeError(
                "exact q**(%s/4) needs a rational fourth root of q=%s" % (m, self.q)
            )
        return self.fourth_root_q**m

    def q_pow(self, exponent) -> Fraction:
        """Exact q**exponent for an exponent that is a multiple of 1/4."""
        e = Fraction(exponent)
        if 4 % e.denominator != 0:
            raise ExactModeError("exact q-power needs an exponent in quarter-integers, got %s" % e)
        return self.q_pow_quarters(int(e * 4))


def check_degree(n, name: str = "n") -> int:
    """n when it is an int >= 0 (a bool is not), else ValueError naming the argument and its value."""
    if type(n) is not int or n < 0:
        raise ValueError("%s must be %s, got %r" % (name, ">= 0" if type(n) is int else "an integer >= 0", n))
    return n


def check_kind(kind, kinds: tuple = (1, 2, 3), name: str = "kind"):
    """kind when it is one of kinds and of their type (no bool or float passes for an int), else ValueError."""
    if type(kind) is not type(kinds[0]) or kind not in kinds:
        raise ValueError("%s must be %s or %s, got %r" % (name, ", ".join(map(str, kinds[:-1])), kinds[-1], kind))
    return kind


def rational(x, name: str) -> Fraction:
    """x as a Fraction; what Fraction cannot take, inf and nan raise DomainError naming the argument."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise DomainError("%s must be a finite rational, got %r" % (name, x)) from None


CACHED_CONTEXTS = 64

# guards _contexts and every extension of a cached row, so that two threads
# never append the same index twice
cache_lock = threading.RLock()
_contexts: dict = {}  # least recently used first


def context_cache(ctx: QContext) -> dict:
    """The store of ctx's q and alpha, created cold if absent: one dict of :func:`cached_row`
    rows and :func:`cached` results, shared by every precision."""
    with cache_lock:
        entry = _contexts.pop(key := ctx.store_key, None)
        _contexts[key] = entry = {} if entry is None else entry
        if len(_contexts) > CACHED_CONTEXTS:
            del _contexts[next(iter(_contexts))]
        return entry


def cached_row(terms):
    """Decorator: terms(ctx, kind, row) yields a row's entries in order, reading earlier ones
    from row; name(ctx, kind, n) returns the cached row, extended under cache_lock to hold
    entries 0..n.  A raising entry drops the row, so the next call raises the same again.
    Every read, warm or cold, checks n, then the kind, then that q is rational; alpha is left to
    the formulas that read it, as only contexts of that exact (q, alpha) reach such a row."""

    @wraps(terms)
    def row(ctx, kind, n):
        check_degree(n)
        check_kind(kind)
        require_rational(ctx.q, "q")
        rows, key = context_cache(ctx), (row, kind)
        entry = rows.get(key)
        if entry and len(entry[0]) > n:
            return entry[0]
        with cache_lock:
            values, entries = rows.setdefault(key, (new := [], terms(ctx, kind, new)))
            try:
                while len(values) <= n:
                    values.append(next(entries))
            except BaseException:
                del rows[key]
                raise
            return values

    return row


def cached(compute):
    """Decorator: name(ctx, *args) returns compute(ctx, *args), memoised under (compute,) + args
    in the context's cache.  It computes outside cache_lock, so a race computes an equal value twice."""

    @wraps(compute)
    def memo(ctx, *args):
        values, key = context_cache(ctx), (compute,) + args
        if key not in values:
            values[key] = compute(ctx, *args)
        return values[key]

    return memo


def require_rational(value, name: str):
    """ExactModeError naming the parameter when an exact path meets a q or alpha that is not rational."""
    if type(value) is not Fraction:
        raise ExactModeError("exact arithmetic needs a rational %s, got %s=%r" % (name, name, value))


def require_exact_alpha(ctx: QContext):
    if not ctx.exact_alpha:
        require_rational(ctx.alpha, "alpha")
        raise ExactModeError("exact mode requires 4*alpha to be an integer, got alpha=%s" % ctx.alpha)


def dot(xs, ys) -> Fraction:
    """Exact sum of x*y over zip(xs, ys) (Fractions or ints), Fraction(0) when empty.

    Each product is cross-cancelled as Fraction.__mul__ does and added into
    one integer numerator over the running lcm of the denominators; the sum
    is normalised once, at the end, instead of once per product and partial sum.
    """
    num, den = 0, 1
    for x, y in zip(xs, ys):
        xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
        g, h = math.gcd(xn, yd), math.gcd(yn, xd)
        pn, pd = (xn // g) * (yn // h), (xd // h) * (yd // g)
        if pd == den:
            num += pn
        elif pn:
            g = math.gcd(den, pd)
            num, den = num * (pd // g) + pn * (den // g), den // g * pd
    return Fraction(num, den)


# Fraction._mul returns its cross-cancelled product through a private constructor that skips
# the gcd, since such a product of two canonical fractions is already in lowest terms: it is
# Fraction._from_coprime_ints on Python 3.12+ and Fraction(n, d, _normalize=False) before.
if hasattr(Fraction, "_from_coprime_ints"):
    _coprime = Fraction._from_coprime_ints
else:
    _coprime = partial(Fraction, _normalize=False)


def scaled_products(f, xs, ys) -> list:
    """[f*x*y for x, y in zip(xs, ys)] (Fractions or ints), each entry a Fraction.

    Both products are cross-cancelled in integers as Fraction.__mul__ does,
    and each entry is built once, already in lowest terms.  One normalising
    Fraction(f.n*x.n*y.n, f.d*x.d*y.d) per entry costs about the same on small
    tables, but its single gcd of the full products doubled the read-off of
    every degree 0..100 at from_fourth_root(1/2, 1/2) (0.40 -> 0.79 s, kind 2).
    """
    fn, fd, out = f.numerator, f.denominator, []
    for x, y in zip(xs, ys):
        xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
        g, h = math.gcd(fn, xd), math.gcd(xn, fd)
        pn, pd = (fn // g) * (xn // h), (fd // h) * (xd // g)
        g, h = math.gcd(pn, yd), math.gcd(yn, pd)
        out.append(_coprime((pn // g) * (yn // h), (pd // h) * (yd // g)))
    return out


def q_int(ctx: QContext, n: int) -> Fraction:
    """q-natural number (1 - q**n) / (1 - q); q_int(0) = 0."""
    require_rational(ctx.q, "q")
    return (1 - ctx.q ** check_degree(n)) / (1 - ctx.q)


@cached_row
def _factorials(ctx: QContext, kind, row):
    """[0]_q!, [1]_q!, ...; one row per context, read under kind 1 (the kind does not enter),
    each [n]_q carried by the step [n] = 1 + q [n-1]."""
    k = Fraction(1)
    yield k
    while True:
        yield row[-1] * k
        k = 1 + ctx.q * k


def q_factorials(ctx: QContext, n: int) -> list:
    """The cached list [0]_q!, [1]_q!, ..., at least up to [n]_q!."""
    return _factorials(ctx, 1, n)


def q_factorial(ctx: QContext, n: int) -> Fraction:
    """Product of q_int(1..n); q_factorial(0) = 1."""
    return q_factorials(ctx, n)[n]


def q_binomial(ctx: QContext, n: int, k: int) -> Fraction:
    """Gaussian binomial coefficient; 0 for k > n, [0 choose 0] = 1."""
    if check_degree(n) < check_degree(k, "k"):
        return Fraction(0)
    return q_factorial(ctx, n) / (q_factorial(ctx, k) * q_factorial(ctx, n - k))


def q_pochhammer(a, base, n: int) -> Fraction:
    """Shifted factorial (a; base)_n = prod_{m=0}^{n-1} (1 - a*base**m)."""
    a, base, out = rational(a, "a"), rational(base, "base"), Fraction(1)
    for _ in range(check_degree(n)):
        out *= 1 - a
        a *= base
    return out
