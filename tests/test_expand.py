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
    reconstruct,
    reconstruct_poly,
    tau_estimate,
)
from qbernoulli.expand import _tail_geometry, l_truncation_bound
from qbernoulli.qfun import to_mpf


def ctx_q(q, alpha="1/2", bits=128):
    return QContext.from_q(Fraction(q), Fraction(alpha), bits)


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

    def test_finite_json(self):
        stream = CoefficientStream.from_json('{"coefficients": ["0", "1"], "tail": "finite"}')
        assert stream.tail_kind == "finite"
        assert stream.as_polynomial() == PolyZ([0, 1])

    def test_bad_tail(self):
        with pytest.raises(ValueError):
            CoefficientStream.from_json('{"coefficients": ["1"], "tail": "infinite"}')


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
        for n, value in enumerate(values):
            bound = l_truncation_bound(ctx, stream, n)
            difference = abs(value - t0**n * reference)
            assert difference <= bound + Fraction(1, 10**40)

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
            l_truncation_bound(ctx, stream, 0)

    def test_cannot_truncate_past_the_stream(self):
        ctx = ctx_q("1/2")
        stream = CoefficientStream([1, 1, 1], "geometric", Fraction(1, 4))
        with pytest.raises(QBernError, match="cannot truncate: n = 3 .* M = 2"):
            l_truncation_bound(ctx, stream, 3)

    def test_cannot_truncate_without_a_product_bound(self):
        # at q = 999/1000 even 256 factors leave 1 - q^257/(1 - q) negative
        ctx = ctx_q("999/1000")
        stream = CoefficientStream([1, 1, 1], "geometric", Fraction(1, 4))
        with pytest.raises(
            QBernError, match=r"cannot truncate: .*\(q;q\)_inf .* q = 999/1000: q is too close to 1"
        ):
            l_truncation_bound(ctx, stream, 0)

    def test_product_bound_near_one(self):
        # at q = 19/20 the 40-factor bound 1 - q^41/(1 - q) is negative;
        # a longer product certifies the stream
        ctx = ctx_q("19/20")
        stream = CoefficientStream([1, 1, 1], "geometric", Fraction(1, 4))
        assert l_truncation_bound(ctx, stream, 0) > 0
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
        stream = CoefficientStream(
            [psi(ctx, k) * t0**k for k in range(41)], "geometric", t0
        )
        value = reconstruct(ctx, stream, Fraction(1, 3), 25)
        direct = eval_Eq(ctx, Fraction(1, 3) * t0)
        assert abs(value - direct) < mpf(10) ** -6

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
