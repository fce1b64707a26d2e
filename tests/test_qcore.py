import operator
import re
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from qbernoulli import (
    ExactModeError,
    PolyZ,
    QContext,
    appell_check,
    bernoulli_number,
    bernoulli_poly_det,
    dq,
    eval_Eq,
    gf_denominator,
    leading_term,
    mu,
    oracle_bernoulli,
    psi,
    q_binomial,
    q_factorial,
    q_int,
    q_pochhammer,
)
from qbernoulli.qcore import (
    CACHED_CONTEXTS, _contexts, context_cache, dot, exact_str, parse_exact, q_factorials, scaled_products,
)


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


class TestScaledProducts:
    @given(f=SCALARS, xs=st.lists(SCALARS, max_size=8), ys=st.lists(SCALARS, max_size=8))
    def test_equals_the_products(self, f, xs, ys):
        # unequal lengths stop at the shorter, as zip does; every entry is a normalised Fraction
        result = scaled_products(f, xs, ys)
        assert len(result) == min(len(xs), len(ys))
        for got, x, y in zip(result, xs, ys):
            expected = Fraction(f * x * y)
            assert type(got) is Fraction
            assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)

    def test_examples(self):
        assert scaled_products(Fraction(3, 2), [], []) == []
        assert scaled_products(6, [Fraction(1, 4), 0, -2], [Fraction(2, 9), 5, Fraction(-1, 12)]) == [
            Fraction(1, 3), 0, 1,
        ]
        zero = scaled_products(0, [Fraction(5, 7)], [Fraction(3, 11)])[0]
        assert (zero.numerator, zero.denominator) == (0, 1)


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

    def test_errors_print_values_past_the_int_string_limit(self):
        # str() of an int of more than 4300 digits raises ValueError by default
        big = Fraction(10**4400 + 1, 3 * 10**4400)
        tiny = Fraction(1, 10**4400)
        cases = [
            (lambda: bernoulli_number(QContext.from_q(Fraction(1, 2), big), 2, 1),
             "exact mode requires 4*alpha to be an integer, got alpha=%s" % exact_str(big)),
            (lambda: bernoulli_number(QContext.from_q(big, Fraction(1, 2)), 3, 2),
             "exact q**(1/2) needs a rational square root of q=%s" % exact_str(big)),
            (lambda: QContext.from_q(big, Fraction(1, 2)).q_pow_quarters(1),
             "exact q**(1/4) needs a rational fourth root of q=%s" % exact_str(big)),
            (lambda: QContext.from_q(Fraction(1, 4), Fraction(1, 2)).q_pow(tiny),
             "exact q-power needs an exponent in quarter-integers, got %s" % exact_str(tiny)),
        ]
        for call, message in cases:
            with pytest.raises(ExactModeError) as error:
                call()
            assert str(error.value) == message


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

    def test_direct_construction_derives_roots(self):
        # kind 3 needs the fourth root, which a directly built context finds for itself
        ctx = QContext(q=Fraction(1, 16), alpha=Fraction(1, 2))
        reference = QContext.from_q(Fraction(1, 16), Fraction(1, 2))
        assert ctx == reference and hash(ctx) == hash(reference)
        assert (ctx.sqrt_q, ctx.fourth_root_q) == (reference.sqrt_q, reference.fourth_root_q)
        assert (ctx.sqrt_q, ctx.fourth_root_q) == (Fraction(1, 4), Fraction(1, 2))
        assert bernoulli_number(ctx, 3, 4) == Fraction(-4312928513, 20011092541440)
        # a float q is no rational, so it has no exact roots, as before
        assert QContext(q=0.25, alpha=Fraction(0)).sqrt_q is None

    def test_reciprocal_base_has_reciprocal_roots(self):
        rec = QContext.from_fourth_root(Fraction(2, 3), 0).reciprocal_base()
        assert (rec.q, rec.sqrt_q, rec.fourth_root_q) == (Fraction(81, 16), Fraction(9, 4), Fraction(3, 2))
        assert rec == QContext(q=Fraction(81, 16), alpha=Fraction(0))

    @pytest.mark.parametrize("root", ["sqrt_q", "fourth_root_q"])
    def test_roots_are_not_parameters(self, root):
        with pytest.raises(TypeError):
            QContext(q=Fraction(1, 16), alpha=Fraction(1, 2), **{root: Fraction(1, 3)})

    def test_exact_alpha(self):
        assert QContext.from_q(Fraction(1, 2), Fraction(3, 4)).exact_alpha
        assert not QContext.from_q(Fraction(1, 2), Fraction(1, 3)).exact_alpha

    def test_serialization_round_trip(self):
        # rationals serialize as "p/r" (lowest terms) / "p" and parse back
        values = [Fraction(-1, 2), Fraction(3), Fraction(21, 8), Fraction(0)]
        strings = [str(v) for v in values]
        assert strings == ["-1/2", "3", "21/8", "0"]
        assert [Fraction(s) for s in strings] == values

    @pytest.mark.parametrize("text", [
        "-1/2", " 21/8\n", "+3", "0", "1.25", "1e-3", "1_000/3", "٣/4", 7, Fraction(1, 3), "1/0",
        "1/", "/2", "1/-2", "--1", "1 /2", "x", "", "nan", 1.5, float("inf"), None, [1],
    ])
    def test_parse_exact_is_fraction_below_the_int_string_limit(self, text):
        try:
            expected = Fraction(text)
        except Exception as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                parse_exact(text)
        else:
            assert parse_exact(text) == expected

    def test_parse_exact_past_the_int_string_limit(self):
        # Fraction() of a string of more than 4300 digits raises ValueError by default
        big = 10**5000 + 1
        digits = "1" + "0" * 4999 + "1"
        for value in (Fraction(big, 3), Fraction(-3, big), Fraction(-big)):
            assert parse_exact(exact_str(value)) == value
        assert parse_exact(" +%s/7\n" % digits) == Fraction(big, 7)
        for bad in (digits + "x", digits + ".5", digits + "/-3", digits + "/", "1/" + digits + "/3",
                    "--" + digits, digits + "e3"):
            with pytest.raises(ValueError):
                parse_exact(bad)
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_exact(digits + "/0")

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

    def test_one_store_per_exact_q_and_alpha(self):
        # precision is no part of the store's key, and a float q or alpha keys a store of its
        # own: an equal exact context's warm rows do not serve it
        exact = QContext.from_q(Fraction(1, 2), Fraction(1, 2), 128)
        assert hash(exact) == hash((exact.q, exact.alpha, 128))
        assert context_cache(exact) is context_cache(QContext.from_q(Fraction(1, 2), Fraction(1, 2), 512))
        assert context_cache(exact) is not context_cache(exact.with_alpha(0))
        q_factorial(exact, 3)
        for floats in (QContext(q=0.5, alpha=0.5), QContext(q=0.5, alpha=Fraction(1, 2))):
            assert floats == exact and hash(floats) == hash(exact)
            assert context_cache(floats) is not context_cache(exact)
            with pytest.raises(ExactModeError, match="rational q"):
                q_factorial(floats, 3)


class TestParameterTypes:
    # a float q or alpha builds a context for the numerics; exact paths name the parameter and refuse it
    EXACT_CALLS = {
        "q_int": lambda ctx: q_int(ctx, 3),
        "q_factorial": lambda ctx: q_factorial(ctx, 3),
        "q_binomial": lambda ctx: q_binomial(ctx, 3, 1),
        "bernoulli_number": lambda ctx: bernoulli_number(ctx, 2, 3),
        "bernoulli_poly_det": lambda ctx: bernoulli_poly_det(ctx, 2, 3),
        "oracle_bernoulli": lambda ctx: oracle_bernoulli(ctx, 2, 3),
        "appell_check": lambda ctx: appell_check(ctx, 2, 3),
        "dq": lambda ctx: dq(ctx, PolyZ([1, 2, 3])),
    }
    ALPHA_CALLS = ("bernoulli_number", "bernoulli_poly_det", "oracle_bernoulli", "appell_check")

    @pytest.mark.parametrize("name", sorted(EXACT_CALLS))
    def test_float_q_raises_naming_q(self, name):
        for ctx in (QContext(q=0.5, alpha=0.5), QContext(q=0.25, alpha=Fraction(1, 2))):
            with pytest.raises(ExactModeError, match="exact arithmetic needs a rational q, got q=%r" % ctx.q):
                self.EXACT_CALLS[name](ctx)

    @pytest.mark.parametrize("name", ALPHA_CALLS)
    def test_float_alpha_raises_naming_alpha(self, name):
        ctx = QContext(q=Fraction(1, 16), alpha=0.5)
        with pytest.raises(ExactModeError, match="exact arithmetic needs a rational alpha, got alpha=0.5"):
            self.EXACT_CALLS[name](ctx)
        assert not ctx.exact_alpha
        assert q_factorial(ctx, 3) == Fraction(4641, 4096)  # the q-rows do not read alpha

    def test_int_parameters_are_held_as_fractions(self):
        ctx = QContext(q=2, alpha=0)
        assert type(ctx.q) is Fraction and type(ctx.alpha) is Fraction
        reference = QContext.from_q(Fraction(1, 2), 0).reciprocal_base()
        assert ctx == reference and hash(ctx) == hash(reference)
        assert q_int(ctx, 3) == 7 and type(q_int(ctx, 3)) is Fraction
        assert dq(ctx, PolyZ([1, 2, 3])) == PolyZ([2, 9])

    def test_float_q_still_serves_the_numerics(self):
        ctx = QContext(q=0.5, alpha=0.5)
        assert eval_Eq(ctx, Fraction(1, 3)) == eval_Eq(QContext.from_q(Fraction(1, 2), Fraction(1, 2)), Fraction(1, 3))


class TestWarmAndColdAgree:
    """Every exact row checks its degree, kind and q on each read, so a call's outcome does not
    depend on what earlier calls left in the store."""

    KIND_CALLS = (bernoulli_number, bernoulli_poly_det, oracle_bernoulli, mu, gf_denominator, appell_check)
    Q_CALLS = (lambda ctx: q_factorial(ctx, 3), lambda ctx: psi(ctx, 3), lambda ctx: dq(ctx, PolyZ([1, 2, 3])))

    @pytest.mark.parametrize("kind", [True, 1.0, 2.0, 3.0, Fraction(2)], ids=repr)
    def test_a_kind_equal_to_a_valid_one_is_refused_cold_and_warm(self, cold_store, kind):
        ctx = cold_store(QContext.from_fourth_root(Fraction(1, 2), Fraction(1, 2)))
        message = "^kind must be 1, 2 or 3, got %s$" % re.escape(repr(kind))
        for warm in (False, True):
            if warm:
                for call in self.KIND_CALLS:
                    for valid in (1, 2, 3):
                        call(ctx, valid, 3)
            for call in self.KIND_CALLS:
                with pytest.raises(ValueError, match=message):
                    call(ctx, kind, 3)

    def test_a_float_q_is_refused_after_an_equal_rational_q_warmed_their_store(self, cold_store):
        exact, floats = QContext(q=Fraction(1, 2), alpha=0.5), QContext(q=0.5, alpha=0.5)
        assert context_cache(exact) is context_cache(floats)  # their store keys are equal
        cold_store(exact)
        for warm in (False, True):
            if warm:
                for call in self.Q_CALLS:
                    call(exact)
                assert q_factorial(exact, 3) == Fraction(21, 8)
            for call in self.Q_CALLS + (lambda ctx: leading_term(ctx, 2, 3, Fraction(1, 4)),):
                with pytest.raises(ExactModeError, match="rational q, got q=0.5$"):
                    call(floats)


def test_factorial_row_is_the_product_of_q_integers():
    for ctx in (ctx_q("1/2"), ctx_q("3/7"), QContext.from_fourth_root(Fraction(2, 3), 0).reciprocal_base()):
        row = q_factorials(ctx, 30)
        assert row[:31] == list(accumulate((q_int(ctx, n) for n in range(1, 31)), operator.mul, initial=Fraction(1)))
        assert all(type(value) is Fraction for value in row)
