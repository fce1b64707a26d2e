from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qbernoulli import (
    ExactModeError,
    QContext,
    q_binomial,
    q_factorial,
    q_int,
    q_pochhammer,
)
from qbernoulli.qcore import CACHED_CONTEXTS, _contexts, context_cache, dot


def ctx_q(q, alpha="1/2"):
    return QContext.from_q(Fraction(q), Fraction(alpha))


class TestQInt:
    def test_examples(self):
        assert q_int(ctx_q("1/2"), 3) == Fraction(7, 4)
        assert q_int(ctx_q("1/2"), 0) == 0
        assert q_int(ctx_q("1/3"), 2) == Fraction(4, 3)

    def test_finite_limit_consistency(self):
        # (1-q) * [n]_q = 1 - q^n, exactly
        for q in (Fraction(1, 2), Fraction(3, 7)):
            ctx = ctx_q(q)
            for n in range(25):
                assert (1 - q) * q_int(ctx, n) == 1 - q**n


class TestQFactorial:
    def test_examples(self):
        assert q_factorial(ctx_q("1/2"), 0) == 1
        assert q_factorial(ctx_q("1/2"), 2) == Fraction(3, 2)
        assert q_factorial(ctx_q("1/2"), 3) == Fraction(21, 8)

    def test_cold_deep_factorial_does_not_recurse(self):
        # far past the interpreter's recursion limit; q = 2 keeps the
        # cached values small (their bit sizes grow like n^2 / 2)
        ctx = ctx_q("1/2").reciprocal_base()
        deep = q_factorial(ctx, 1200)
        assert deep == q_factorial(ctx, 1199) * q_int(ctx, 1200)
        assert deep.denominator == 1


class TestQBinomial:
    def test_examples(self):
        assert q_binomial(ctx_q("1/3"), 2, 1) == Fraction(4, 3)
        assert q_binomial(ctx_q("1/2"), 3, 5) == 0
        assert q_binomial(ctx_q("2/5"), 0, 0) == 1
        # brute force from q-factorials: [1][2][3][4] / ([1][2])^2
        ctx = ctx_q("1/2")
        expected = q_factorial(ctx, 4) / q_factorial(ctx, 2) ** 2
        assert expected == Fraction(35, 16)
        assert q_binomial(ctx, 4, 2) == expected

    def test_q_pascal(self):
        for q in (Fraction(1, 2), Fraction(1, 3), Fraction(9, 16)):
            ctx = ctx_q(q)
            for n in range(1, 21):
                for k in range(1, n):
                    lhs = q_binomial(ctx, n, k)
                    rhs = q_binomial(ctx, n - 1, k - 1) + q**k * q_binomial(ctx, n - 1, k)
                    assert lhs == rhs


class TestQPochhammer:
    def test_examples(self):
        assert q_pochhammer(Fraction(7, 3), Fraction(1, 5), 0) == 1
        assert q_pochhammer(Fraction(1, 2), Fraction(1, 2), 2) == Fraction(3, 8)
        assert q_pochhammer(Fraction(1, 4), Fraction(1, 2), 2) == Fraction(21, 32)

    @given(
        a=st.fractions(min_value=-2, max_value=2, max_denominator=20),
        m=st.integers(min_value=0, max_value=10),
        n=st.integers(min_value=0, max_value=10),
    )
    def test_splitting(self, a, m, n):
        # (a; b)_(m+n) = (a; b)_m (a b^m; b)_n
        base = Fraction(2, 5)
        whole = q_pochhammer(a, base, m + n)
        split = q_pochhammer(a, base, m) * q_pochhammer(a * base**m, base, n)
        assert whole == split


SCALARS = st.fractions(min_value=-50, max_value=50, max_denominator=60) | st.integers(-5, 5) | st.just(0)


class TestDot:
    @given(xs=st.lists(SCALARS, max_size=8), ys=st.lists(SCALARS, max_size=8))
    def test_equals_the_sum_of_products(self, xs, ys):
        # unequal lengths stop at the shorter, as zip does; the empty sum is Fraction(0)
        expected = sum((x * y for x, y in zip(xs, ys)), Fraction(0))
        result = dot(xs, ys)
        assert type(result) is Fraction
        assert (result.numerator, result.denominator) == (expected.numerator, expected.denominator)

    def test_examples(self):
        assert dot([], []) == 0 and type(dot([], [])) is Fraction
        assert dot([Fraction(1, 6), Fraction(1, 10)], [3, 5]) == 1
        assert dot([Fraction(-2, 3), 0], [Fraction(9, 4), Fraction(7, 5), 11]) == Fraction(-3, 2)


class TestQPower:
    def test_examples(self):
        ctx = QContext.from_fourth_root(Fraction(1, 2), Fraction(1, 2))
        assert ctx.q_pow_quarters(4) == Fraction(1, 16)
        assert ctx.q_pow_quarters(0) == 1
        assert QContext.from_fourth_root(Fraction(2, 3), 0).q_pow_quarters(6) == Fraction(64, 729)

    def test_negative_quarters(self):
        ctx = QContext.from_fourth_root(Fraction(1, 2), 0)
        assert ctx.q_pow_quarters(-4) == 16

    def test_root_tiers(self):
        # q = 1/4: square root rational, fourth root not
        ctx = QContext.from_q(Fraction(1, 4), Fraction(1, 2))
        assert ctx.sqrt_q == Fraction(1, 2)
        assert ctx.fourth_root_q is None
        assert ctx.q_pow_quarters(2) == Fraction(1, 2)
        with pytest.raises(ExactModeError):
            ctx.q_pow_quarters(1)
        # q = 1/2: neither root rational
        ctx2 = QContext.from_q(Fraction(1, 2), Fraction(1, 2))
        assert ctx2.sqrt_q is None
        with pytest.raises(ExactModeError):
            ctx2.q_pow_quarters(2)
        assert ctx2.q_pow_quarters(8) == Fraction(1, 4)
        # q = 1/16: both roots rational
        ctx3 = QContext.from_q(Fraction(1, 16), Fraction(1, 2))
        assert ctx3.fourth_root_q == Fraction(1, 2)
        assert ctx3.q_pow_quarters(3) == Fraction(1, 8)


class TestQContext:
    def test_validation(self):
        with pytest.raises(ValueError):
            QContext.from_q(Fraction(3, 2), 0)
        with pytest.raises(ValueError):
            QContext.from_q(Fraction(1, 2), Fraction(-3, 2))
        with pytest.raises(ValueError):
            QContext.from_fourth_root(Fraction(3, 2), 0)
        for bits in (0, 64.5, True):
            with pytest.raises(ValueError, match="float_precision_bits must be a positive integer, got %r" % bits):
                QContext.from_q(Fraction(1, 2), 0, bits)

    def test_reciprocal_base(self):
        ctx = QContext.from_q(Fraction(1, 4), Fraction(1, 2))
        rec = ctx.reciprocal_base()
        assert rec.q == 4
        assert rec.sqrt_q == 2
        assert q_int(rec, 3) == Fraction(1 - 64, 1 - 4)

    def test_exact_alpha(self):
        assert QContext.from_q(Fraction(1, 2), Fraction(3, 4)).exact_alpha
        assert not QContext.from_q(Fraction(1, 2), Fraction(1, 3)).exact_alpha

    def test_serialization_round_trip(self):
        # rationals serialize as "p/r" (lowest terms) / "p" and parse back
        values = [Fraction(-1, 2), Fraction(3), Fraction(21, 8), Fraction(0)]
        strings = [str(v) for v in values]
        assert strings == ["-1/2", "3", "21/8", "0"]
        assert [Fraction(s) for s in strings] == values

    def test_equal_contexts_share_hash_and_cache_entry(self):
        pairs = [
            (QContext.from_q(Fraction(1, 16), Fraction(1, 2)),
             QContext.from_fourth_root(Fraction(1, 2), Fraction(1, 2))),
            (QContext.from_q(Fraction(1, 4), 0).with_alpha(1),
             QContext.from_q(Fraction(1, 4), 1)),
        ]
        for a, b in pairs:
            assert a == b and a is not b
            assert hash(a) == hash(b)
            assert context_cache(a) is context_cache(b)
        assert hash(pairs[0][0]) != hash(pairs[0][0].with_alpha(1))

    def test_cache_holds_a_bounded_number_of_contexts(self):
        for i in range(100):
            ctx = QContext.from_q(Fraction(1, 1000 + i), Fraction(1, 2))
            assert q_factorial(ctx, 2) == 1 + ctx.q
        assert CACHED_CONTEXTS == 64
        assert len(_contexts) <= CACHED_CONTEXTS
