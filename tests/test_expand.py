from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf

from qbernoulli import (
    CoefficientStream,
    PolyZ,
    QBernError,
    QContext,
    bernoulli_poly_det,
    corollary_wrappers,
    eval_Eq,
    growth_classify,
    l_coefficients,
    mu,
    phi21,
    psi,
    q_binomial,
    q_factorial,
    q_pochhammer,
    reconstruct,
    reconstruct_poly,
    tau_estimate,
)
from qbernoulli import expand
from qbernoulli.detrep import _moments, _numbers
from qbernoulli.expand import _tail_geometry, l_truncation_bounds
from qbernoulli.qcore import exact_str
from qbernoulli.qfun import to_mpf


def ctx_q(q, alpha="1/2", bits=128):
    return QContext.from_q(Fraction(q), Fraction(alpha), bits)


# the acceptance grid: q in {1/16, 1/4, 9/16} x alpha in {-1/2, 0, 1/2, 1}
GRID = [ctx_q(Fraction(q, 16), alpha) for q in (1, 4, 9) for alpha in ("-1/2", "0", "1/2", "1")]
# interior and trailing zeros
SPARSE = CoefficientStream.finite(
    [0 if k % 4 == 2 else Fraction((-1) ** k * (k + 1), k + 2) for k in range(17)] + [0, 0, 0]
)


def per_pair_sums(ctx, stream, N, weight):
    """L_n = sum_k g_k weight(k - n), the weight formed afresh for every (n, k)."""
    g = [f / psi(ctx, k) for k, f in enumerate(stream.coefficients)]
    out = []
    for n in range(N + 1):
        total = Fraction(0)
        for k in range(n, len(g)):
            if g[k]:
                total += g[k] * weight(k - n)
        out.append(total)
    return out


def per_degree_sum(ctx, stream, N):
    """sum_n (L_n / [n]_q!) B_n, each degree's polynomial formed on its own."""
    total = PolyZ()
    for n, ln in enumerate(l_coefficients(ctx, stream, N)):
        if ln:
            total = total + (ln / q_factorial(ctx, n)) * bernoulli_poly_det(ctx, 2, n)
    return total


def geometric_stream(ctx, t0=Fraction(1, 4)):
    """The coefficients of E_q(t0 z), 41 terms with a geometric tail of ratio t0."""
    return CoefficientStream([psi(ctx, k) * t0**k for k in range(41)], "geometric", t0)


# the 12 terms whose per-degree float sum at z = 1/3 and q = 1/16 read 3.97e11
TWELVE = CoefficientStream.finite(
    ["-2/9", "-5/6", "3", "-9/8", "-1/9", "-1/2", "2/3", "1", "1", "-2/3", "1", "-9/2"]
)


def poch_poly_coeffs(ctx, n):
    """Coefficients of (z; q)_n = sum [n m]_q q^(m(m-1)/2) (-z)^m."""
    return [
        q_binomial(ctx, n, m) * ctx.q ** (m * (m - 1) // 2) * Fraction(-1) ** m
        for m in range(n + 1)
    ]


class TestPsi:
    def test_examples(self):
        ctx = ctx_q("1/2")
        assert psi(ctx, 0) == 1
        assert psi(ctx, 1) == 1
        assert psi(ctx, 2) == Fraction(1, 3)


class TestStream:
    def test_json_round_trip(self):
        stream = CoefficientStream(["1", "-1/2"], "geometric", "1/4")
        again = CoefficientStream.from_json(stream.to_json())
        assert again == stream

    def test_json_round_trip_past_the_int_string_limit(self):
        # str() and Fraction() of an int of more than 4300 digits raise ValueError by default
        big = 10**5000 + 1
        for stream in (CoefficientStream.finite([Fraction(big, 3), 1]),
                       CoefficientStream([1, Fraction(-1, big)], "geometric", Fraction(big, big + 2))):
            text = stream.to_json()
            assert "1" + "0" * 4999 + "1" in text
            assert CoefficientStream.from_json(text) == stream

    def test_finite_json(self):
        stream = CoefficientStream.from_json('{"coefficients": ["0", "1"], "tail": "finite"}')
        assert stream.tail_kind == "finite"
        assert stream.as_polynomial() == PolyZ([0, 1])

    def test_bad_tail(self):
        with pytest.raises(ValueError):
            CoefficientStream.from_json('{"coefficients": ["1"], "tail": "infinite"}')

    def test_deep_nesting_is_a_value_error(self):
        # the parser recurses once per level, so this ends in RecursionError unless turned
        with pytest.raises(ValueError, match="nests too deeply"):
            CoefficientStream.from_json('{"coefficients": %s}' % ("[" * 100000 + "]" * 100000))


class TestTauEstimate:
    def test_zero_beyond_degree(self):
        ctx = ctx_q("1/2")
        stream = CoefficientStream.finite([1, 1, 1])
        assert tau_estimate(ctx, stream, range(5, 9)) == 0

    def test_psi_stream_is_one(self):
        ctx = ctx_q("1/2")
        stream = CoefficientStream.finite([psi(ctx, k) for k in range(12)])
        assert tau_estimate(ctx, stream, range(1, 12)) == 1

    def test_scaled_psi_stream(self):
        ctx = ctx_q("1/2")
        t0 = Fraction(1, 4)
        stream = CoefficientStream.finite([psi(ctx, k) * t0**k for k in range(12)])
        estimate = tau_estimate(ctx, stream, range(1, 12))
        assert abs(estimate - mpf(0.25)) < mpf(2) ** -100

    def test_estimate_sits_below_expansion_radii(self):
        # admissibility needs tau < min(2/(1-q), j/(1-q)) with j the first
        # kind-2 Bessel zero; both radii are checkable numerically
        from qbernoulli import smallest_zero

        ctx = ctx_q("1/2")
        t0 = Fraction(1, 4)
        stream = CoefficientStream.finite([psi(ctx, k) * t0**k for k in range(12)])
        estimate = tau_estimate(ctx, stream, range(1, 12))
        with mp.workprec(168):
            radius_exponential = 2 / (1 - mpf(0.5))
            radius_bessel = smallest_zero(ctx, 2).location / (1 - mpf(0.5))
            assert estimate < min(radius_exponential, radius_bessel)


class TestGrowthClassify:
    def test_zero_stream(self):
        ctx = ctx_q("1/2")
        verdict = growth_classify(ctx, CoefficientStream.finite([0, 0, 0]), 1, 0)
        assert verdict.min_K == 0

    def test_equality_case(self):
        # f_n = q^(n^2/2) with k = 1, gamma = 0 gives K = 1; q = 1/4 keeps
        # the coefficients rational
        ctx = ctx_q("1/4")
        stream = CoefficientStream.finite([Fraction(1, 2) ** (n * n) for n in range(8)])
        verdict = growth_classify(ctx, stream, 1, 0)
        assert abs(verdict.min_K - 1) < mpf(2) ** -100
        assert verdict.tau_bound is not None

    def test_order_below_one_advisory(self):
        ctx = ctx_q("1/2")
        stream = CoefficientStream.finite([psi(ctx, k) for k in range(6)])
        verdict = growth_classify(ctx, stream, Fraction(1, 2), 0)
        assert "tend to 0" in verdict.advisory
        assert verdict.min_K > 0


class TestLCoefficients:
    def test_monomial_vanishing_above_degree(self):
        ctx = ctx_q("1/2")
        stream = CoefficientStream.finite([0, 0, 0, 1])  # z^3
        values = l_coefficients(ctx, stream, 5)
        assert values[4] == 0 and values[5] == 0

    def test_monomial_closed_form(self):
        # L_m of z^n equals q^(-n(n-1)/2) [n]_q! mu_(n-m) / [n-m]_q!
        ctx = ctx_q("1/2")
        n = 5
        stream = CoefficientStream.finite([0] * n + [1])
        values = l_coefficients(ctx, stream, n)
        for m in range(n + 1):
            expected = (
                ctx.q ** Fraction(-n * (n - 1), 2)
                * q_factorial(ctx, n)
                * mu(ctx, 2, n - m)
                / q_factorial(ctx, n - m)
            )
            assert values[m] == expected

    def test_first_pochhammer_value(self):
        ctx = ctx_q("1/2")
        stream = CoefficientStream.finite([1, -1])  # (z; q)_1
        assert l_coefficients(ctx, stream, 1)[0] == Fraction(1, 2)

    def test_geometric_stream_matches_hypergeometric(self):
        ctx = ctx_q("1/2")
        t0 = Fraction(1, 4)
        stream = CoefficientStream(
            [psi(ctx, k) * t0**k for k in range(41)], "geometric", t0
        )
        values = l_coefficients(ctx, stream, 6)
        a = ctx.q  # q^(alpha+1/2) at alpha = 1/2
        reference = phi21(ctx, a, -a, ctx.q**2, (1 - ctx.q) * t0 / 2, 200)
        for n, (value, bound) in enumerate(zip(values, l_truncation_bounds(ctx, stream, 6))):
            difference = abs(value - t0**n * reference)
            assert difference <= bound + Fraction(1, 10**40)

    def test_bounds_form_the_geometry_once(self, monkeypatch):
        ctx = ctx_q("1/2")
        stream = CoefficientStream([1, Fraction(1, 3), Fraction(-2, 5), 1], "geometric", Fraction(1, 4))
        calls = []

        def counted(c):
            calls.append(c)
            return _tail_geometry(c)

        monkeypatch.setattr(expand, "_tail_geometry", counted)
        bounds = l_truncation_bounds(ctx, stream, 3)
        assert [bounds[n] / bounds[3] for n in range(4)] == [Fraction(2, 7) ** (3 - n) for n in range(4)]
        l_coefficients(ctx, stream, 3)
        assert len(calls) == 2
        # the first degree past the stream names itself, as a per-degree loop did
        with pytest.raises(QBernError, match="cannot truncate: n = 4 .* M = 3"):
            l_coefficients(ctx, stream, 6)
        empty = CoefficientStream([], "geometric", Fraction(1, 4))
        with pytest.raises(QBernError, match="cannot truncate: n = 0 .* M = -1"):
            l_truncation_bounds(ctx, empty, 2)

    def test_sums_match_per_pair_moment_weights(self):
        for ctx in GRID:
            def weight(j):
                return mu(ctx, 2, j) / q_factorial(ctx, j)

            for N in (0, 7, 19):
                assert l_coefficients(ctx, SPARSE, N) == per_pair_sums(ctx, SPARSE, N, weight)
            geometric = geometric_stream(ctx)
            assert l_coefficients(ctx, geometric, 25) == per_pair_sums(ctx, geometric, 25, weight)

    def test_moments_are_read_once_per_call(self, monkeypatch):
        ctx = ctx_q("1/2")
        reads = []

        def counted(c, kind, m):
            reads.append((kind, m))
            return _moments(c, kind, m)

        monkeypatch.setattr(expand, "_moments", counted)
        l_coefficients(ctx, SPARSE, 19)
        assert reads == [(2, 16)]  # up to the last nonzero coefficient
        l_coefficients(ctx, CoefficientStream.finite([0, 0, 0]), 2)
        l_coefficients(ctx, CoefficientStream.finite([]), 2)
        assert reads == [(2, 16)]

    def test_cannot_truncate(self):
        ctx = ctx_q("1/2")
        stream = CoefficientStream([1, 1, 1], "geometric", Fraction(50))
        with pytest.raises(QBernError, match="cannot truncate"):
            l_coefficients(ctx, stream, 2)

    def test_cannot_truncate_names_rho_and_sigma(self):
        ctx = ctx_q("1/2")
        stream = CoefficientStream([1, 1, 1], "geometric", Fraction(50))
        # sigma = (1 - q)/(2(1 - q^3)) = 2/7 at q = 1/2, alpha = 1/2
        with pytest.raises(QBernError, match=r"rho = 50 .* sigma = 2/7 is 100/7 >= 1"):
            l_truncation_bounds(ctx, stream, 0)

    def test_cannot_truncate_prints_values_past_the_int_string_limit(self):
        # str() of an int of more than 4300 digits raises ValueError by default
        big = Fraction(10**4400)
        stream = CoefficientStream([1, 1, 1], "geometric", big)
        with pytest.raises(QBernError) as error:
            l_truncation_bounds(ctx_q("1/2"), stream, 0)
        assert str(error.value) == (
            "cannot truncate: the tail ratio rho = %s times the moment envelope sigma = 2/7 is %s >= 1"
            % (exact_str(big), exact_str(big * Fraction(2, 7)))
        )
        above_one = QContext.from_q(1 / (1 + 1 / big), Fraction(1, 2)).reciprocal_base()
        with pytest.raises(QBernError) as error:
            l_truncation_bounds(above_one, stream, 0)
        assert str(error.value) == (
            "cannot truncate: (q;q)_inf and the moment envelope need 0 < q < 1, got q = %s"
            % exact_str(1 + 1 / big)
        )

    def test_cannot_truncate_past_the_stream(self):
        ctx = ctx_q("1/2")
        stream = CoefficientStream([1, 1, 1], "geometric", Fraction(1, 4))
        with pytest.raises(QBernError, match="cannot truncate: n = 3 .* M = 2"):
            l_truncation_bounds(ctx, stream, 3)

    def test_cannot_truncate_without_a_product_bound(self):
        # at q = 999/1000 even 256 factors leave 1 - q^257/(1 - q) negative
        ctx = ctx_q("999/1000")
        stream = CoefficientStream([1, 1, 1], "geometric", Fraction(1, 4))
        with pytest.raises(
            QBernError, match=r"cannot truncate: .*\(q;q\)_inf .* q = 999/1000: q is too close to 1"
        ):
            l_truncation_bounds(ctx, stream, 0)

    def test_cannot_truncate_prints_a_gap_past_the_float_range(self):
        # "%.3g" of a gap below -1.8e308 raised OverflowError; decimal prints it
        stream = CoefficientStream([1, 1, 1], "geometric", Fraction(1, 4))
        big = 10**320
        ctx = QContext.from_q(Fraction(big - 1, big), Fraction(1, 2))
        with pytest.raises(QBernError) as error:
            l_truncation_bounds(ctx, stream, 0)
        assert str(error.value).endswith(
            "q = %s: q is too close to 1 (1 - q^257/(1 - q) = -1.00e+320 < 1/2 after 256 factors)"
            % exact_str(ctx.q)
        )

    def test_cannot_truncate_above_one(self):
        # (q;q)_inf and the moment envelope exist only for 0 < q < 1; at q = 4 the
        # bounds came out negative and a geometric stream was certified
        ctx = ctx_q("1/4").reciprocal_base()
        stream = CoefficientStream([1, Fraction(1, 2), Fraction(1, 3)], "geometric", Fraction(1, 4))
        for call in (l_truncation_bounds, l_coefficients):
            with pytest.raises(QBernError, match=r"^cannot truncate: .* q = 4$"):
                call(ctx, stream, 2)
        finite = CoefficientStream.finite([1, 2, 3])
        assert l_coefficients(ctx, finite, 2) == [Fraction(309, 112), Fraction(31, 8), Fraction(15, 4)]

    def test_product_bound_near_one(self):
        # at q = 19/20 the 40-factor bound 1 - q^41/(1 - q) is negative;
        # a longer product certifies the stream
        ctx = ctx_q("19/20")
        stream = CoefficientStream([1, 1, 1], "geometric", Fraction(1, 4))
        assert l_truncation_bounds(ctx, stream, 0)[0] > 0
        lower = _tail_geometry(ctx)[2]
        with mp.workprec(200):
            assert 0 < to_mpf(lower) <= mpmath.qp(mpf(19) / 20)

    def test_product_bound_keeps_forty_factors(self):
        ctx = ctx_q("1/2")
        forty = Fraction(1)
        for k in range(1, 41):
            forty *= 1 - ctx.q**k
        assert _tail_geometry(ctx)[2] == forty * (1 - ctx.q**41 / (1 - ctx.q))


class TestReconstruction:
    def test_monomials_exact(self):
        for alpha in ("-1/2", "0", "1/2", "1"):
            ctx = ctx_q("1/2", alpha)
            for n in range(7):
                stream = CoefficientStream.finite([0] * n + [1])
                assert reconstruct_poly(ctx, stream, n) == PolyZ.monomial(n)

    def test_pochhammer_exact(self):
        ctx = ctx_q("1/2")
        stream = CoefficientStream.finite(poch_poly_coeffs(ctx, 2))
        assert reconstruct_poly(ctx, stream, 2) == stream.as_polynomial()

    def test_entire_function_reconstruction(self):
        # coefficients of E_q(t0 z); the expansion partial sum converges to
        # the direct evaluation
        ctx = ctx_q("1/2")
        t0 = Fraction(1, 4)
        value = reconstruct(ctx, geometric_stream(ctx, t0), Fraction(1, 3), 25)
        direct = eval_Eq(ctx, Fraction(1, 3) * t0)
        assert abs(value - direct) < mpf(10) ** -6

    def test_value_rounds_the_exact_partial_sum(self):
        contexts = GRID + [QContext.from_fourth_root(Fraction(1, 2), Fraction(1, 2), 128)]
        for ctx in contexts:
            for stream, N in ((TWELVE, 11), (SPARSE, 19), (geometric_stream(ctx), 25)):
                poly = reconstruct_poly(ctx, stream, N)
                for z in (Fraction(1, 3), Fraction(-5, 7)):
                    with mp.workprec(400):
                        exact = to_mpf(poly(z))
                        error = abs(reconstruct(ctx, stream, z, N) - exact)
                        assert error <= abs(exact) * mpf(2) ** -ctx.float_precision_bits

    def test_matches_the_per_degree_sum(self):
        for ctx in GRID:
            for N in (0, 7, 19):
                assert reconstruct_poly(ctx, SPARSE, N) == per_degree_sum(ctx, SPARSE, N)
            stream = geometric_stream(ctx)
            assert reconstruct_poly(ctx, stream, 25) == per_degree_sum(ctx, stream, 25)

    def test_numbers_are_read_once_per_call(self, monkeypatch):
        ctx = ctx_q("1/2")
        reads = []

        def counted(c, kind, n):
            reads.append((kind, n))
            return _numbers(c, kind, n)

        monkeypatch.setattr(expand, "_numbers", counted)
        reconstruct_poly(ctx, SPARSE, 19)
        assert reads == [(2, 16)]  # up to the last nonzero L_n
        reconstruct_poly(ctx, SPARSE, 7)
        assert reads == [(2, 16), (2, 7)]
        reconstruct_poly(ctx, CoefficientStream.finite([0, 0, 0]), 2)
        reconstruct_poly(ctx, CoefficientStream.finite([]), 2)
        assert reads == [(2, 16), (2, 7)]

    def test_monomial_identity_with_moment_weights(self):
        # sum_k [n k]_q mu_k B_(n-k) = q^(n(n-1)/2) z^n, exactly
        for alpha in ("-1/2", "0", "1/2", "1"):
            ctx = ctx_q("1/2", alpha)
            for n in range(9):
                total = PolyZ()
                for k in range(n + 1):
                    weight = q_binomial(ctx, n, k) * mu(ctx, 2, k)
                    total = total + weight * bernoulli_poly_det(ctx, 2, n - k)
                assert total == PolyZ.monomial(n, ctx.q ** (n * (n - 1) // 2))


class TestCorollaryWrappers:
    def test_bernoulli_variant_matches_general(self):
        ctx = ctx_q("1/2", "1/2")
        stream = CoefficientStream.finite(poch_poly_coeffs(ctx, 3))
        assert corollary_wrappers(ctx, stream, "bernoulli", 3) == l_coefficients(ctx, stream, 3)

    def test_euler_variant_matches_general(self):
        base = ctx_q("1/2", "1/2")
        ctx = base.with_alpha(Fraction(-1, 2))
        stream = CoefficientStream.finite(poch_poly_coeffs(ctx, 3))
        assert corollary_wrappers(ctx, stream, "euler", 3) == l_coefficients(ctx, stream, 3)

    def test_euler_weight_differs_from_naive_product_split(self):
        # splitting (1;q^2)_j / (1;q)_j as (-1;q)_j double-counts the
        # shared vanishing factor; the corrected weight is half the naive
        # one for j >= 1, and only the corrected one reproduces f(z) = z
        ctx = ctx_q("1/2", "-1/2")
        stream = CoefficientStream.finite([0, 1])
        values = corollary_wrappers(ctx, stream, "euler", 1)
        total = PolyZ()
        for n, value in enumerate(values):
            total = total + (value / q_factorial(ctx, n)) * bernoulli_poly_det(ctx, 2, n)
        assert total == PolyZ.monomial(1)
        naive_l0 = values[0] * 2  # the j=1 weight doubles under the naive split
        naive_total = naive_l0 * bernoulli_poly_det(ctx, 2, 0) + values[1] * bernoulli_poly_det(
            ctx, 2, 1
        )
        assert naive_total != PolyZ.monomial(1)

    def test_weights_match_per_pair_pochhammer_products(self):
        stream = CoefficientStream.finite([Fraction(1 - 2 * (k % 3), k + 1) for k in range(21)])
        for ctx in (ctx_q("1/2", "1/2"), ctx_q("1/4", "-1/2"), ctx_q("9/16", "1")):
            q = ctx.q
            weights = {
                "bernoulli": lambda j: q_pochhammer(-q, q, j) / (2**j * q_pochhammer(q**2, q, j)),
                "euler": lambda j: q_pochhammer(-q, q, max(j - 1, 0)) / (2**j * q_pochhammer(q, q, j)),
            }
            for variant, weight in weights.items():
                expected = per_pair_sums(ctx, stream, 20, lambda j: (1 - q) ** j * weight(j))
                assert corollary_wrappers(ctx, stream, variant, 20) == expected

    def test_weights_are_formed_once_per_call(self, monkeypatch):
        ctx = ctx_q("1/2")
        stream = CoefficientStream.finite([Fraction(1, k + 1) for k in range(21)])
        products = []

        def counted(a, base, n):
            products.append(n)
            return q_pochhammer(a, base, n)

        monkeypatch.setattr(expand, "q_pochhammer", counted)
        for variant in ("bernoulli", "euler"):
            products.clear()
            corollary_wrappers(ctx, stream, variant, 20)
            assert len(products) <= 2 * 21

    def test_requires_finite_stream(self):
        ctx = ctx_q("1/2")
        stream = CoefficientStream([1], "geometric", Fraction(1, 4))
        with pytest.raises(QBernError, match="cannot truncate"):
            corollary_wrappers(ctx, stream, "bernoulli", 0)

    def test_requires_finite_stream_names_the_tail(self):
        ctx = ctx_q("1/2")
        stream = CoefficientStream([1], "geometric", Fraction(1, 4))
        with pytest.raises(QBernError, match="cannot truncate: .*finite stream, got a geometric tail"):
            corollary_wrappers(ctx, stream, "euler", 0)
