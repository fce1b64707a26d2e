from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf

from qbernoulli import (
    DomainError,
    QBernError,
    QContext,
    QTrigKind,
    eval_Eq,
    eval_bessel,
    eval_eq,
    eval_expq,
    eval_modified_bessel,
    eval_qtrig,
    phi21,
    phi32,
    recip_expq_coeffs,
)
from qbernoulli.qfun import (
    modified_bessel_certified,
    modified_bessel_derivative_certified,
    qpochhammer_infinite,
    to_mpf,
)
from qbernoulli.series import exponential_series, expq_reciprocal_series

SQUARE_QS = [Fraction(1, 16), Fraction(1, 4), Fraction(9, 16)]


def ctx_q(q, alpha="1/2", bits=128):
    return QContext.from_q(Fraction(q), Fraction(alpha), bits)


class TestQExponentials:
    def test_values_at_zero(self):
        ctx = ctx_q("1/2")
        assert eval_eq(ctx, 0) == 1
        assert eval_Eq(ctx, 0) == 1
        assert eval_expq(ctx, 0) == 1

    def test_reciprocity(self):
        ctx = ctx_q("1/2", bits=128)
        product = eval_eq(ctx, Fraction(1, 3)) * eval_Eq(ctx, Fraction(-1, 3))
        assert abs(product - 1) < mpf(2) ** -(128 - 8)

    def test_Eq_series_matches_product_form(self):
        ctx = ctx_q("1/2", bits=128)
        for z in (Fraction(2, 3), Fraction(-5, 2), Fraction(7)):
            series = eval_Eq(ctx, z)
            # (-z(1-q); q)_infinity
            product = qpochhammer_infinite(-z * (1 - ctx.q), ctx.q, 168)
            assert abs(series - product) < mpf(2) ** -100 * max(1, abs(series))

    def test_eq_domain(self):
        ctx = ctx_q("1/2")
        with pytest.raises(DomainError):
            eval_eq(ctx, 3)  # 1/(1-q) = 2

    @pytest.mark.parametrize("bits", [128, 256])
    @pytest.mark.parametrize(
        "kind, evaluate, q", [(1, eval_eq, "1/2"), (2, eval_Eq, "1/2"), (3, eval_expq, "1/4")]
    )
    def test_matches_exact_partial_sum(self, kind, evaluate, q, bits):
        # the exponential at z is the exact series in t at scale z, read at t = 1
        ctx = ctx_q(q, bits=bits)
        N = bits if kind == 1 else 40
        for z in (Fraction(1, 3), Fraction(-5, 7), Fraction(3)):
            if kind == 1 and abs(z) * (1 - ctx.q) >= 1:
                continue
            coeffs = exponential_series(ctx, kind, N, z).coeffs
            # from n = 3 on every term ratio is below 1/2, so the dropped
            # tail is below the last term kept
            assert abs(coeffs[-1]) < Fraction(1, 2 ** (bits + 16))
            with mp.workprec(bits + 64):
                exact = to_mpf(sum(coeffs))
                assert abs(evaluate(ctx, z) - exact) < mpf(2) ** -(bits - 8) * max(1, abs(exact))


class TestQTrig:
    def test_values_at_zero(self):
        ctx = ctx_q("1/2")
        assert eval_qtrig(ctx, QTrigKind.Cos_q, 0) == 1
        assert eval_qtrig(ctx, QTrigKind.Sin_q, 0) == 0
        assert eval_qtrig(ctx, QTrigKind.C_q, 0) == 1
        assert eval_qtrig(ctx, QTrigKind.S_q, 0) == 0

    def test_small_pair_domain(self):
        ctx = ctx_q("1/2")
        with pytest.raises(DomainError):
            eval_qtrig(ctx, QTrigKind.sin_q, 5)

    def test_matches_plain_double_computation(self):
        # low-precision cross-check of the i-power sign resolution
        q = 0.5
        ctx = ctx_q("1/2", bits=64)
        z = 0.7

        def double_sum(parity, weight_exp):
            total = 0.0
            for m in range(60):
                n = 2 * m + parity
                qq = 1.0
                for i in range(1, n + 1):
                    qq *= 1 - q**i
                total += (-1) ** m * q ** weight_exp(n) * (z * (1 - q)) ** n / qq
            return total

        pairs = [
            (QTrigKind.cos_q, 0, lambda n: 0.0),
            (QTrigKind.sin_q, 1, lambda n: 0.0),
            (QTrigKind.Cos_q, 0, lambda n: n * (n - 1) / 2),
            (QTrigKind.Sin_q, 1, lambda n: n * (n - 1) / 2),
            (QTrigKind.C_q, 0, lambda n: n * (n - 1) / 4),
            (QTrigKind.S_q, 1, lambda n: n * (n - 1) / 4),
        ]
        for kind, parity, weight in pairs:
            expected = double_sum(parity, weight)
            assert abs(float(eval_qtrig(ctx, kind, z)) - expected) < 1e-12


class TestBessel:
    def test_modified_at_zero(self):
        for kind in (1, 2, 3):
            assert eval_modified_bessel(ctx_q("1/2"), kind, 2, 0) == 1

    def test_kind1_domain(self):
        with pytest.raises(DomainError):
            eval_modified_bessel(ctx_q("1/2"), 1, 2, Fraction(5, 2))

    def test_second_taylor_coefficient_kind1(self):
        # J(z) = 1 - z^2/(4(1-q^2)(1-q^(2a+2))) + O(z^4) with base q^2
        q = Fraction(1, 2)
        alpha = Fraction(1, 2)
        ctx = QContext.from_q(q, alpha, 192)
        coefficient = Fraction(-1) / (4 * (1 - q**2) * (1 - q**3))  # 2a+2 = 3
        h = Fraction(1, 2**30)
        with mp.workprec(220):
            value = eval_modified_bessel(ctx, 1, 2, h)
            # (J(h) - 1)/h^2 -> second Taylor coefficient
            approx = (value - 1) / (mpf(h.numerator) / mpf(h.denominator)) ** 2
            target = mpf(coefficient.numerator) / mpf(coefficient.denominator)
            assert abs(approx - target) < mpf(2) ** -50

    def test_unknown_kind_raises(self):
        ctx = ctx_q("1/2")
        for kind in (0, 4):
            with pytest.raises(ValueError, match="kind must be 1, 2 or 3"):
                modified_bessel_certified(ctx, kind, 2, Fraction(1, 3))
            for z in (Fraction(1, 3), 0):  # the kind is checked before z = 0
                with pytest.raises(ValueError, match="kind must be 1, 2 or 3"):
                    modified_bessel_derivative_certified(ctx, kind, z)

    def test_derivative_at_the_origin(self):
        # the modified function is even, so its slope at 0 is exactly 0
        ctx = ctx_q("1/2")
        for kind in (1, 2, 3):
            assert modified_bessel_derivative_certified(ctx, kind, 0) == (0, 0)

    def test_certified_bound_is_small(self):
        ctx = ctx_q("1/2", bits=128)
        value, bound = modified_bessel_certified(ctx, 2, 2, Fraction(3, 2))
        assert bound < mpf(2) ** -120
        assert abs(value) < 1  # sanity: decaying below J(0) = 1

    def test_unmodified_prefactor(self):
        # J = prefactor * (z/2)^alpha * modified; spot check the relation
        ctx = ctx_q("1/2", "1/2", 96)
        z = Fraction(1, 2)
        with mp.workprec(140):
            Q = mpf(1) / 4
            prefactor = mpmath.qp(Q ** mpf(1.5), Q) / mpmath.qp(Q, Q)
            expected = prefactor * mpmath.sqrt(mpf(1) / 4) * eval_modified_bessel(ctx, 2, 2, z)
            assert abs(eval_bessel(ctx, 2, 2, z) - expected) < mpf(2) ** -80


class TestHypergeometric:
    def test_phi32_terminating_n0(self):
        ctx = ctx_q("1/2")
        # upper parameter q^0 = 1 kills every term after m = 0
        value = phi32(ctx, Fraction(1), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 4), Fraction(1, 2), Fraction(1, 16))
        assert value == 1

    def test_phi32_terminating_n1(self):
        # two-term sum, q = 1/2, alpha = 1/2
        ctx = ctx_q("1/2")
        value = phi32(
            ctx, Fraction(2), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 4), Fraction(1, 2), Fraction(1, 8)
        )
        assert value == Fraction(1, 2)

    def test_phi21_partial_sum(self):
        ctx = ctx_q("1/2")
        # sum_{m<=N} x^m / (q;q)_m * ... against a directly coded loop
        a, b, c = Fraction(1, 2), Fraction(-1, 2), Fraction(1, 4)
        x = Fraction(1, 3)
        total = Fraction(0)
        for m in range(6):
            num = Fraction(1)
            den = Fraction(1)
            for i in range(m):
                num *= (1 - a * ctx.q**i) * (1 - b * ctx.q**i)
                den *= (1 - c * ctx.q**i) * (1 - ctx.q ** (i + 1))
            total += num / den * x**m
        assert phi21(ctx, a, b, c, x, 5) == total

    def test_vanishing_lower_parameter(self):
        ctx = ctx_q("1/2")
        with pytest.raises(QBernError, match="vanishing lower-parameter"):
            phi21(ctx, Fraction(1, 3), Fraction(1, 5), Fraction(1), Fraction(1, 2), 4)


class TestRecipExpqCoeffs:
    def test_first_values(self):
        ctx = QContext.from_q(Fraction(1, 4), Fraction(1, 2))
        coeffs = recip_expq_coeffs(ctx, 2)
        assert coeffs[0] == 1
        assert coeffs[1] == -1
        # compositions (2) and (1,1): 1 - q^(1/2)/[2]_q at q = 1/4
        assert coeffs[2] == 1 - Fraction(1, 2) / Fraction(5, 4)
        assert coeffs[2] == Fraction(3, 5)

    @pytest.mark.parametrize("q", SQUARE_QS)
    def test_matches_series_division(self, q):
        ctx = QContext.from_q(q, Fraction(1, 2))
        by_compositions = recip_expq_coeffs(ctx, 15)
        by_division = expq_reciprocal_series(ctx, 15)
        assert tuple(by_compositions) == by_division.coeffs
