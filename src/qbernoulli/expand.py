"""Expansion of admissible entire functions in the type-2 polynomial basis.

A function f(z) = sum f_n z**n whose coefficients decay against the
comparison weights Psi_n = q^(n(n-1)/2) / [n]_q! expands as
f = sum L_n(f) B_n(z) / [n]_q!.  Writing g_k = f_k / Psi_k, the
coefficient functionals reduce to

    L_n(f) = sum_{k >= n} g_k mu_{k-n} / [k-n]_q!,

with mu the type-2 moment coefficients; this is the residue-free form of
the contour-integral definition and is the only computational path used
here.  Each call reads g off the cached exponential row and the weights
mu_j / [j]_q! off the cached normalised moment row, once; the alpha = +-1/2
corollaries form their closed-form weights once per call.  Finite
coefficient streams give exact rational L_n; streams with a declared
geometric bound on g_k are truncated with a certified error.  The partial sum
sum L_n B_n / [n]_q! is exact, read off the cached number row once; reconstruct rounds it once.
"""

from __future__ import annotations

import json
from fractions import Fraction

import mpmath
from mpmath import mpf

from .qcore import QBernError, QContext, Record, check_degree, dot, exact_str, parse_exact, q_pochhammer, rational
from .detrep import _moments, _numbers
from .qfun import numeric_frame, to_mpf
from .series import PolyZ, _exp_row


class CoefficientStream(Record):
    """Exact coefficients f_0..f_M with a declared tail policy.

    "finite" promises every coefficient beyond M is zero.  A geometric
    tail with ratio rho promises |f_k / Psi_k| <= |f_M / Psi_M| * rho**(k-M)
    for k > M, i.e. the Borel-scaled coefficients keep decaying at least
    geometrically; that is the decay the expansion theory runs on.
    """

    __slots__ = _fields = ("coefficients", "tail_kind", "tail_ratio")

    def __init__(self, coefficients: tuple, tail_kind: str = "finite", tail_ratio: Fraction | None = None):
        coefficients = tuple(Fraction(c) for c in coefficients)
        if tail_kind not in ("finite", "geometric"):
            raise ValueError("a stream's tail is 'finite' or 'geometric', got tail_kind=%r" % (tail_kind,))
        if tail_kind == "geometric":
            if tail_ratio is None:
                raise ValueError("a geometric tail needs a ratio")
            tail_ratio = Fraction(tail_ratio)
            if tail_ratio < 0:
                raise ValueError("a geometric tail needs a nonnegative ratio")
        self._fill(coefficients, tail_kind, tail_ratio)

    @property
    def last_index(self) -> int:
        return len(self.coefficients) - 1

    @classmethod
    def finite(cls, coefficients) -> "CoefficientStream":
        return cls(tuple(coefficients), "finite", None)

    @classmethod
    def from_json(cls, text: str) -> "CoefficientStream":
        """Parse {"coefficients": [rational strings], "tail": ...}; a schema
        violation raises ValueError naming the field at fault, as does a document
        nested too deeply for the parser."""
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("the JSON document nests too deeply to parse") from None
        if not isinstance(data, dict):
            raise ValueError("a stream must be a JSON object, got %s" % type(data).__name__)
        coeffs = data.get("coefficients")
        if not isinstance(coeffs, list):
            raise ValueError("field 'coefficients' must be a list, got %r" % (coeffs,))
        coeffs = [_rational(c, "coefficients[%d]" % i) for i, c in enumerate(coeffs)]
        tail = data.get("tail", "finite")
        if tail == "finite":
            return cls(tuple(coeffs), "finite", None)
        if isinstance(tail, dict) and "geometric" in tail:
            return cls(tuple(coeffs), "geometric", _rational(tail["geometric"], "tail.geometric"))
        raise ValueError("field 'tail' must be 'finite' or {'geometric': 'ratio'}")

    def to_json(self) -> str:
        tail = "finite" if self.tail_kind == "finite" else {"geometric": exact_str(self.tail_ratio)}
        return json.dumps(
            {"coefficients": [exact_str(c) for c in self.coefficients], "tail": tail}
        )

    def as_polynomial(self) -> PolyZ:
        if self.tail_kind != "finite":
            raise ValueError("only finite streams are polynomials")
        return PolyZ(self.coefficients)


def _rational(value, field: str) -> Fraction:
    """A JSON string or integer holding an exact rational, else ValueError."""
    if isinstance(value, (str, int)) and not isinstance(value, bool):
        try:
            return parse_exact(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError("field '%s' must be a rational like 'p/r', got %r" % (field, value))


def psi(ctx: QContext, n: int) -> Fraction:
    """Comparison weight q^(n(n-1)/2) / [n]_q!, E_q's coefficient."""
    return _exp_row(ctx, 2, n)[n]


def scaled_coefficient(ctx: QContext, stream: CoefficientStream, k: int) -> Fraction:
    """g_k = f_k / Psi_k, the Borel-scaled coefficient."""
    return stream.coefficients[k] / psi(ctx, k)


def tau_estimate(ctx: QContext, stream: CoefficientStream, window) -> mpf:
    """max over the window of |g_n|**(1/n): a diagnostic stand-in for the
    growth type tau, not a certified limit."""
    with numeric_frame(ctx):
        best = mpf(0)
        for n in window:
            if not 1 <= check_degree(n, "a window entry") <= stream.last_index:
                continue
            g = scaled_coefficient(ctx, stream, n)
            if g == 0:
                continue
            best = max(best, mpmath.power(abs(to_mpf(g)), mpf(1) / n))
        return +best


class GrowthVerdict(Record):
    """Smallest K with |f_n| <= K q^((n-gamma)^2 / (2k)) over the stream,
    plus the advisory conclusion that bound licenses."""

    __slots__ = _fields = ("min_K", "order", "type_gamma", "advisory", "tau_bound")

    def __init__(self, min_K: mpf, order: Fraction, type_gamma: Fraction, advisory: str,
                 tau_bound: mpf | None = None):
        self._fill(min_K, order, type_gamma, advisory, tau_bound)


def growth_classify(ctx: QContext, stream: CoefficientStream, k, gamma) -> GrowthVerdict:
    """Measure the stream against the 1/q-exponential growth scale.

    Order k < 1 implies the tau estimate should tend to 0; order 1 and
    type gamma bound tau by q^(1/2-gamma) / (1-q).  Both are advisory
    diagnostics, never gates.
    """
    with numeric_frame(ctx):
        k, gamma = rational(k, "k"), rational(gamma, "gamma")
        if k <= 0:
            raise ValueError("order k must be positive")
        q = to_mpf(ctx.q)
        best = mpf(0)
        for n, f in enumerate(stream.coefficients):
            if f == 0:
                continue
            exponent = to_mpf((Fraction(n) - gamma) ** 2 / (2 * k))
            best = max(best, abs(to_mpf(f)) * mpmath.power(q, -exponent))
        if k < 1:
            advisory, tau_bound = "order below one: the tau estimate should tend to 0", None
        else:
            advisory = "order one, type %s: tau should stay below q^(1/2-gamma)/(1-q)" % gamma
            tau_bound = +(mpmath.power(q, to_mpf(Fraction(1, 2) - gamma)) / (1 - q))
        return GrowthVerdict(min_K=+best, order=k, type_gamma=gamma, advisory=advisory, tau_bound=tau_bound)


# the exact product's bit size grows like m^2; past this q is too close to 1
_MAX_PRODUCT_FACTORS = 256


def _tail_geometry(ctx: QContext):
    """sigma with |mu_j / [j]_q!| <= d * sigma**j / (q;q)_inf-lower-bound.

    Each cancelled-ratio factor of mu_j is at most 1/(1 - q^(2a+2)), so
    |mu_j| <= 2^-j (1 - q^(2a+2))^(1-j) and 1/[j]_q! <= (1-q)^j / (q;q)_inf.
    (q;q)_inf is bounded below by the first m factors times
    1 - q^(m+1)/(1 - q): m = 40 wherever that is positive, else the
    smallest m that makes it at least 1/2, up to _MAX_PRODUCT_FACTORS.
    """
    q = ctx.q
    if not 0 < q < 1:
        raise QBernError(
            "cannot truncate: (q;q)_inf and the moment envelope need 0 < q < 1, got q = %s" % exact_str(q)
        )
    d = 1 - ctx.q_pow(2 * ctx.alpha + 2)
    sigma = (1 - q) / (2 * d)
    m = 40
    tail = q ** (m + 1)
    if tail / (1 - q) >= 1:
        while tail > (1 - q) / 2 and m < _MAX_PRODUCT_FACTORS:
            m += 1
            tail *= q
        if tail > (1 - q) / 2:
            raise QBernError(
                "cannot truncate: the rational lower bound for (q;q)_inf fails at q = %s: "
                "q is too close to 1 (1 - q^%d/(1 - q) = %s < 1/2 after %d factors)"
                % (exact_str(q), m + 1, _three_digits(1 - tail / (1 - q)), m)
            )
    return d, sigma, q_pochhammer(q, q, m) * (1 - tail / (1 - q))


def _three_digits(x: Fraction) -> str:
    """x as ``"%.3g"`` prints it, or, past the float range, as decimal prints it to three digits."""
    try:
        return "%.3g" % x
    except OverflowError:
        from decimal import Decimal

        return format(Decimal(x.numerator) / x.denominator, ".3g")


def l_truncation_bounds(ctx: QContext, stream: CoefficientStream, N: int) -> list[Fraction]:
    """Certified bounds on the parts of L_0..L_N dropped beyond the stream.

    Zero for finite streams; geometric streams combine the declared decay
    of g_k with the geometric envelope of mu_j / [j]_q!, formed once.
    Raises "cannot truncate" for the first n, in order, that has no bound.
    """
    if stream.tail_kind == "finite":
        return [Fraction(0)] * (N + 1)
    M = stream.last_index
    if M >= 0:  # n = 0 lies within the stream, so its tail is certified first
        d, sigma, qq_lower = _tail_geometry(ctx)
        rho = stream.tail_ratio
        if rho * sigma >= 1:
            raise QBernError(
                "cannot truncate: the tail ratio rho = %s times the moment envelope "
                "sigma = %s is %s >= 1" % (exact_str(rho), exact_str(sigma), exact_str(rho * sigma))
            )
        g_M = abs(scaled_coefficient(ctx, stream, M))
    if N > M:
        raise QBernError(
            "cannot truncate: n = %d is past the stream's last index M = %d" % (M + 1, M)
        )
    return [
        g_M * d / qq_lower * sigma ** (M - n) * (rho * sigma) / (1 - rho * sigma)
        for n in range(N + 1)
    ]


def l_coefficients(ctx: QContext, stream: CoefficientStream, N: int) -> list[Fraction]:
    """L_0..L_N as exact partial sums over the stream.

    Exact for finite streams.  For geometric streams the dropped tail is
    certified first (l_truncation_bounds raises "cannot truncate" when the
    declared decay cannot beat the moment envelope), and the returned
    rationals carry that certified error.
    """
    l_truncation_bounds(ctx, stream, check_degree(N, "N"))  # raises when not certifiable
    return _l_sums(ctx, stream, N, lambda J: _moments(ctx, 2, J))


def _l_sums(ctx: QContext, stream: CoefficientStream, N: int, weights) -> list[Fraction]:
    """L_n = sum_{k=n..J} g_k w_(k-n) for n = 0..N, where g_J is the last
    nonzero scaled coefficient and w = weights(J); an all-zero stream reads no weight."""
    g = [f / e for f, e in zip(stream.coefficients, _exp_row(ctx, 2, max(stream.last_index, 0)))]
    while g and not g[-1]:
        g.pop()
    w = weights(len(g) - 1) if g else []
    return [dot(g[n:], w) for n in range(N + 1)]


def reconstruct_poly(ctx: QContext, stream: CoefficientStream, N: int) -> PolyZ:
    """Exact partial expansion sum_{n<=N} L_n B_n / [n]_q! as a PolyZ.  For a finite
    stream with N at least its degree this reproduces the stream polynomial identically.
    """
    return _read_off(ctx, l_coefficients(ctx, stream, N))


def _read_off(ctx: QContext, ls: list) -> PolyZ:
    """sum_n L_n B_n / [n]_q! over the row ls = L_0..L_N, read off the cached kind-2 rows in
    one pass: [z^i] B_n / [n]_q! = (w_i / [i]_q!) b_(n-i), and no row is read past the last
    nonzero L_n.  ls itself is left as it is.
    """
    ls = list(ls)
    while ls and not ls[-1]:
        ls.pop()
    if not ls:
        return PolyZ()
    row, b = _exp_row(ctx, 2, len(ls) - 1), _numbers(ctx, 2, len(ls) - 1)
    return PolyZ([row[i] * dot(ls[i:], b) for i in range(len(ls))])


def reconstruct(ctx: QContext, stream: CoefficientStream, z, N: int) -> mpf:
    """Partial expansion at real z: reconstruct_poly, rounded once in working precision."""
    with numeric_frame(ctx):
        return _round_at(ctx, reconstruct_poly(ctx, stream, N), z)


def _round_at(ctx: QContext, poly: PolyZ, z) -> mpf:
    """poly at real z, evaluated and rounded once in the working precision of ctx."""
    with numeric_frame(ctx):
        return +poly(to_mpf(z))


def corollary_wrappers(ctx: QContext, stream: CoefficientStream, variant: str, N: int) -> list[Fraction]:
    """The alpha = +-1/2 specializations through their simplified weights.

    "bernoulli" fixes alpha = 1/2, where the moment ratio collapses to
    (-q; q)_j / (q^2; q)_j.  "euler" fixes alpha = -1/2; there the naive
    even/odd product split of the moment ratio double-counts the shared
    vanishing factor, and the correct limit weight is
    2^-j (-q; q)_(j-1) / (q; q)_j (j >= 1).  Both agree exactly with
    l_coefficients on the corresponding context.
    """
    if stream.tail_kind != "finite":
        raise QBernError(
            "cannot truncate: the corollary weights need a finite stream, got a %s tail"
            % stream.tail_kind
        )
    check_degree(N, "N")
    q = ctx.q
    if variant == "bernoulli":
        def weight(j):
            return q_pochhammer(-q, q, j) / (2**j * q_pochhammer(q**2, q, j))
    elif variant == "euler":
        def weight(j):  # the j = 0 weight is 1
            return q_pochhammer(-q, q, max(j - 1, 0)) / (2**j * q_pochhammer(q, q, j))
    else:
        raise ValueError("variant must be 'bernoulli' or 'euler'")
    # the weights stand in for mu_j / (q;q)_j, and [j]_q! = (q;q)_j / (1-q)^j
    return _l_sums(ctx, stream, N, lambda J: [(1 - q) ** j * weight(j) for j in range(J + 1)])
