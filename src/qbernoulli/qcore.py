"""Exact scalar tower and the basic q-combinatorial primitives.

All exact computation runs over arbitrary-precision rationals
(``fractions.Fraction``, aliased ``ExactScalar``).  Rationals are always
normalized (lowest terms, positive denominator) and serialize as the
string ``"p/r"`` (or ``"p"`` for integers) via ``str()``; parse them back
with ``Fraction(s)``.

A :class:`QContext` carries the base ``q`` together with whichever of its
roots ``q**(1/2)`` and ``q**(1/4)`` are themselves rational, the order
parameter ``alpha``, and the binary precision used for floating-point
evaluation.  Exact operations that need a q-root the context cannot
represent raise :class:`ExactModeError`; nothing is ever silently
approximated on the exact paths.

Contexts are immutable and every function here is pure, so values can be
shared freely across threads.  Results worth keeping live in one cache
keyed on the context, bounded to the CACHED_CONTEXTS most recently used.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from fractions import Fraction

ExactScalar = Fraction


class QBernError(Exception):
    """Base class for all library errors."""


class ExactModeError(QBernError):
    """An exact operation needs a q-root this context cannot represent."""


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
    """Exact k-th root of a nonnegative rational (k in {2, 4}), or None."""
    if x < 0:
        return None
    num = _integer_root(x.numerator, k)
    den = _integer_root(x.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num, den)


@dataclass(frozen=True)
class QContext:
    """Parameter pack shared by every operation.

    ``q`` is the base (numeric work requires ``0 < q < 1``), ``alpha`` the
    order parameter (``alpha > -1``), and ``float_precision_bits`` the
    target precision of floating results.  ``sqrt_q`` / ``fourth_root_q``
    hold exact roots when they exist; ``q_pow_quarters`` consults them.

    Construct through :meth:`from_fourth_root` (full exactness for all
    three polynomial families) or :meth:`from_q` (exact roots detected
    when rational).  :meth:`reciprocal_base` builds the base-``1/q``
    context used by the q <-> 1/q symmetry of the type-1/type-2 families;
    such a context supports exact arithmetic only.
    """

    q: Fraction
    alpha: Fraction
    float_precision_bits: int = 128
    sqrt_q: Fraction | None = None
    fourth_root_q: Fraction | None = None

    def __post_init__(self):
        if self.q <= 0 or self.q == 1:
            raise ValueError("base q must be positive and != 1")
        if self.alpha <= -1:
            raise ValueError("alpha must be > -1")
        if self.float_precision_bits < 1:
            raise ValueError("float_precision_bits must be positive")
        # every cache lookup hashes the context, and each Fraction hash
        # computes a modular inverse: hash once.  The roots are left out,
        # since equal contexts agree on them anyway and hash(None) is not
        # stable across processes.
        object.__setattr__(self, "_hash", hash((self.q, self.alpha, self.float_precision_bits)))

    def __hash__(self):
        return self._hash

    @classmethod
    def from_fourth_root(cls, b, alpha, float_precision_bits: int = 128) -> "QContext":
        b = Fraction(b)
        if not 0 < b < 1:
            raise ValueError("fourth root of q must satisfy 0 < b < 1")
        return cls(
            q=b**4,
            alpha=Fraction(alpha),
            float_precision_bits=float_precision_bits,
            sqrt_q=b**2,
            fourth_root_q=b,
        )

    @classmethod
    def from_q(cls, q, alpha, float_precision_bits: int = 128) -> "QContext":
        q = Fraction(q)
        if not 0 < q < 1:
            raise ValueError("base q must satisfy 0 < q < 1")
        sq = rational_root(q, 2)
        b = rational_root(q, 4)
        return cls(
            q=q,
            alpha=Fraction(alpha),
            float_precision_bits=float_precision_bits,
            sqrt_q=sq,
            fourth_root_q=b,
        )

    def reciprocal_base(self) -> "QContext":
        """Context with q replaced by 1/q (exact arithmetic only)."""
        return QContext(
            q=1 / self.q,
            alpha=self.alpha,
            float_precision_bits=self.float_precision_bits,
            sqrt_q=None if self.sqrt_q is None else 1 / self.sqrt_q,
            fourth_root_q=None if self.fourth_root_q is None else 1 / self.fourth_root_q,
        )

    def with_alpha(self, alpha) -> "QContext":
        return replace(self, alpha=Fraction(alpha))

    @property
    def exact_alpha(self) -> bool:
        """True when 4*alpha is an integer, the exact-mode requirement."""
        return (4 * self.alpha).denominator == 1

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


CACHED_CONTEXTS = 64

# guards _contexts and every append to a cached list, so that two threads
# never append the same index twice
cache_lock = threading.RLock()
_contexts: dict = {}  # least recently used first


@dataclass
class ContextCache:
    """Everything memoised for one context; the lists are append-only."""

    factorials: list = field(default_factory=lambda: [Fraction(1)])
    moments: dict = field(default_factory=dict)  # kind -> [mu_0, mu_1, ...]
    polys: dict = field(default_factory=dict)  # kind -> [B_0, B_1, ...]
    zeros: dict = field(default_factory=dict)  # (kind, precision) -> asympt.ZeroResult
    frames: dict = field(default_factory=dict)  # (kind, precision) -> asympt._Frame


def context_cache(ctx: QContext) -> ContextCache:
    """The cache entry of ctx, created cold if absent."""
    with cache_lock:
        entry = _contexts.pop(ctx, None) or ContextCache()
        _contexts[ctx] = entry
        if len(_contexts) > CACHED_CONTEXTS:
            del _contexts[next(iter(_contexts))]
        return entry


def require_exact_alpha(ctx: QContext):
    if not ctx.exact_alpha:
        raise ExactModeError("exact mode requires 4*alpha to be an integer, got alpha=%s" % ctx.alpha)


def q_int(ctx: QContext, n: int) -> Fraction:
    """q-natural number (1 - q**n) / (1 - q); q_int(0) = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return (1 - ctx.q**n) / (1 - ctx.q)


def q_factorial(ctx: QContext, n: int) -> Fraction:
    """Product of q_int(1..n); q_factorial(0) = 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    facts = context_cache(ctx).factorials
    with cache_lock:
        for m in range(len(facts), n + 1):
            facts.append(facts[-1] * q_int(ctx, m))
    return facts[n]


def q_binomial(ctx: QContext, n: int, k: int) -> Fraction:
    """Gaussian binomial coefficient; 0 for k > n, [0 choose 0] = 1."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be >= 0")
    if k > n:
        return Fraction(0)
    return q_factorial(ctx, n) / (q_factorial(ctx, k) * q_factorial(ctx, n - k))


def q_pochhammer(a, base, n: int) -> Fraction:
    """Shifted factorial (a; base)_n = prod_{m=0}^{n-1} (1 - a*base**m)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a = Fraction(a)
    base = Fraction(base)
    out = Fraction(1)
    for _ in range(n):
        out *= 1 - a
        a *= base
    return out
