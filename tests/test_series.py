import copy
import pickle
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qbernoulli import (
    ExactModeError,
    PolyZ,
    QBernError,
    QContext,
    TruncatedSeries,
    gf_denominator,
    gf_numerator,
    oracle_bernoulli,
    phi21,
    q_factorial,
    q_pochhammer,
    series_mul,
    series_reciprocal,
)
from qbernoulli.qcore import context_cache
from qbernoulli.series import (
    _even_row,
    _exp_row,
    _oracle_scalars,
    exp_weight,
    exponential_series,
    expq_reciprocal_series,
)

ALPHAS = [Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]


def ctx_q(q, alpha="1/2"):
    return QContext.from_q(Fraction(q), Fraction(alpha))


class TestPolyZ:
    def test_trimming_and_degree(self):
        assert PolyZ([1, 2, 0, 0]).degree == 1
        assert PolyZ([]).degree == -1
        assert PolyZ([0, 0]).degree == -1
        assert not PolyZ([0])

    def test_arithmetic(self):
        p = PolyZ([1, 1])
        assert p * p == PolyZ([1, 2, 1])
        assert p - p == PolyZ()
        assert Fraction(1, 2) * p == PolyZ([Fraction(1, 2), Fraction(1, 2)])

    def test_evaluation(self):
        p = PolyZ([Fraction(-1, 2), 1])
        assert p(Fraction(1, 2)) == 0
        assert p(3) == Fraction(5, 2)

    def test_string_round_trip(self):
        p = PolyZ([Fraction(-1, 2), 1])
        assert p.to_strings() == ["-1/2", "1"]
        assert PolyZ.from_strings(p.to_strings()) == p
        assert PolyZ().to_strings() == ["0"]

    def test_strings_past_the_int_string_limit(self):
        # str() of an int of more than 4300 digits raises ValueError by default
        big = 10**5000 + 1
        p = PolyZ([Fraction(-big, 3), Fraction(1, big), 7])
        assert p.to_strings() == ["-1%s1/3" % ("0" * 4999), "1/1%s1" % ("0" * 4999), "7"]
        assert PolyZ.from_strings(p.to_strings()) == p
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = limit()
        p.to_strings()
        assert limit() == before

    def test_immutable(self):
        p = PolyZ([Fraction(-1, 2), 1])
        before = hash(p)
        with pytest.raises(AttributeError):
            p.coeffs = (5,)
        with pytest.raises(AttributeError):
            del p.coeffs
        assert p.coeffs == (Fraction(-1, 2), 1) and hash(p) == before

    def test_copy_and_pickle(self):
        for p in (PolyZ([Fraction(-1, 2), 0, Fraction(7, 3)]), PolyZ()):
            for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
                assert type(twin) is PolyZ and twin == p and hash(twin) == hash(p)


class TestSeriesOps:
    def test_mul_truncates(self):
        one_plus = TruncatedSeries([Fraction(1), Fraction(1), Fraction(0)])
        one_minus = TruncatedSeries([Fraction(1), Fraction(-1), Fraction(0)])
        assert series_mul(one_plus, one_minus).coeffs == (1, 0, -1)

    def test_geometric_identity(self):
        geometric = TruncatedSeries([Fraction(1)] * 6)
        one_minus = TruncatedSeries([Fraction(1), Fraction(-1)] + [Fraction(0)] * 4)
        assert series_mul(geometric, one_minus).coeffs == (1, 0, 0, 0, 0, 0)

    def test_reciprocal_examples(self):
        one_minus = TruncatedSeries([Fraction(1), Fraction(-1), Fraction(0), Fraction(0)])
        assert series_reciprocal(one_minus).coeffs == (1, 1, 1, 1)
        constant = TruncatedSeries([Fraction(5, 3)])
        assert series_reciprocal(constant).coeffs == (Fraction(3, 5),)

    def test_reciprocal_of_expq_series(self):
        # q = 1/16 so q^(1/2) = 1/4; third coefficient is 1 - (1/4)/[2]_q
        ctx = ctx_q(Fraction(1, 16))
        rec = expq_reciprocal_series(ctx, 2)
        expected_c2 = 1 - Fraction(1, 4) / Fraction(17, 16)
        assert rec.coeffs == (1, -1, expected_c2)
        assert expected_c2 == Fraction(13, 17)

    def test_reciprocal_rejects_zero_constant(self):
        with pytest.raises(QBernError, match="non-invertible series"):
            series_reciprocal(TruncatedSeries([Fraction(0), Fraction(1)]))

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            series_mul(TruncatedSeries([Fraction(1)]), TruncatedSeries([Fraction(1), Fraction(0)]))

    def test_exponential_reciprocity_to_order_20(self):
        # e_q(t) * E_q(-t) = 1 as formal series
        ctx = ctx_q(Fraction(1, 2))
        e_pos = exponential_series(ctx, 1, 20, Fraction(1))
        E_neg = exponential_series(ctx, 2, 20, Fraction(-1))
        product = series_mul(e_pos, E_neg)
        assert product.coeffs == tuple([Fraction(1)] + [Fraction(0)] * 20)

    @given(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=30),
            min_size=1,
            max_size=9,
        )
    )
    def test_reciprocal_correctness_random(self, coeffs):
        if coeffs[0] == 0:
            coeffs[0] = Fraction(1, 3)
        series = TruncatedSeries(coeffs)
        product = series_mul(series, series_reciprocal(series))
        assert product.coeffs == tuple([Fraction(1)] + [Fraction(0)] * series.order)


class TestGeneratingFunction:
    def test_denominator_constant_term(self):
        for kind in (1, 2, 3):
            ctx = ctx_q(Fraction(1, 4))
            assert gf_denominator(ctx, kind, 6).coefficient(0) == 1

    def test_denominator_t2_kind1(self):
        # hand expansion of the first even term
        for q, alpha in ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), Fraction(1))):
            ctx = QContext.from_q(q, alpha)
            expected = (1 - q) ** 2 / (4 * (1 - q**2) * (1 - q ** (2 * alpha + 2)))
            assert gf_denominator(ctx, 1, 4).coefficient(2) == expected

    def test_denominator_t2_kind3(self):
        q = Fraction(1, 4)
        alpha = Fraction(1, 2)
        ctx = QContext.from_q(q, alpha)
        sqrt_q = Fraction(1, 2)
        expected = sqrt_q**3 * (1 - q) ** 2 / (4 * (1 - q**2) * (1 - q ** (2 * alpha + 2)))
        assert gf_denominator(ctx, 3, 4).coefficient(2) == expected

    def test_denominator_is_even(self):
        ctx = ctx_q(Fraction(1, 4))
        for kind in (1, 2, 3):
            series = gf_denominator(ctx, kind, 9)
            assert all(series.coefficient(m) == 0 for m in range(1, 10, 2))

    def test_denominator_running_product_matches_pochhammers(self, cold_store):
        # each even coefficient formed from scratch by the closed form, against
        # the cached row built stepwise (N = 0..20) and in jumps (3 -> 11 -> 20)
        # on cold cache entries; the reciprocal base has q > 1
        def closed_form(ctx, kind, n):
            q, alpha = ctx.q, ctx.alpha
            expected = ((1 - q) / 2) ** (2 * n) / (
                q_pochhammer(q**2, q**2, n) * q_pochhammer(ctx.q_pow(2 * alpha + 2), q**2, n)
            )
            if kind == 2:
                expected *= ctx.q_pow(2 * n * alpha + 2 * n * n)
            elif kind == 3:
                expected *= ctx.q_pow_quarters(4 * n * n + 2 * n)
            return expected

        for steps in (range(21), (3, 11, 20)):
            cases = [(QContext.from_fourth_root(Fraction(2, 3), Fraction(1, 4)), (1, 2, 3))]
            cases.append((QContext.from_q(Fraction(1, 4), Fraction(1, 2)).reciprocal_base(), (1, 2)))
            for ctx, kinds in cases:
                cold_store(ctx)
                for kind in kinds:
                    for N in steps:
                        series = gf_denominator(ctx, kind, N)
                        assert series.order == N
                        for m in range(N + 1):
                            expected = closed_form(ctx, kind, m // 2) if m % 2 == 0 else 0
                            assert series.coefficient(m) == expected
                    g_row = context_cache(ctx)[_even_row, kind][0]
                    assert g_row == [closed_form(ctx, kind, n) for n in range(11)]

    def test_negative_order_is_a_value_error(self):
        # after the exact-alpha and kind checks, which keep their messages, in both series
        ctx = ctx_q(Fraction(1, 4))
        for series in (gf_denominator, gf_numerator):
            with pytest.raises(ValueError, match="^N must be >= 0, got -1$"):
                series(ctx, 1, -1)
            with pytest.raises(ValueError, match="kind must be 1, 2 or 3"):
                series(ctx, 4, -1)
            with pytest.raises(ExactModeError, match="4\\*alpha"):
                series(ctx.with_alpha(Fraction(1, 3)), 4, -1)

    def test_exponential_row_matches_closed_form(self, cold_store):
        # the cached row, extended in two steps on cold cache entries, against
        # w_m / [m]_q! formed per m; kind 3 needs the square root of q
        cases = [
            (QContext.from_q(q, alpha), (1, 2, 3))
            for q in (Fraction(1, 16), Fraction(1, 4), Fraction(9, 16))
            for alpha in ALPHAS
        ]
        cases.append((QContext.from_q(Fraction(1, 4), Fraction(1, 2)).reciprocal_base(), (1, 2)))
        for ctx, kinds in cases:
            cold_store(ctx)
            for kind in kinds:
                _exp_row(ctx, kind, 7)
                row = _exp_row(ctx, kind, 40)
                assert len(row) == 41
                for m in range(41):
                    assert row[m] == exp_weight(ctx, kind, m) / q_factorial(ctx, m)

    def test_a_raising_row_leaves_no_state(self, cold_store):
        # a bad kind leaves no row behind, and a missing root raises the same error
        # on every call (a dead generator left cached would raise StopIteration)
        ctx = cold_store(QContext.from_fourth_root(Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(ValueError, match="kind must be 1, 2 or 3"):
            gf_numerator(ctx, 4, 3)
        assert [key for key in context_cache(ctx) if key[1] == 4] == []
        rootless = QContext.from_q(Fraction(1, 2), Fraction(1, 2))
        messages = []
        for _ in range(2):
            with pytest.raises(ExactModeError) as error:
                exponential_series(rootless, 3, 4, 1)
            messages.append(str(error.value))
        assert messages == ["exact q**(1/2) needs a rational square root of q=1/2"] * 2

    def test_numerator_low_coefficients(self):
        ctx = ctx_q(Fraction(1, 4))
        for kind in (1, 2):
            numerator = gf_numerator(ctx, kind, 3)
            assert numerator.coefficient(0) == PolyZ([1])
            assert numerator.coefficient(1) == PolyZ([Fraction(-1, 2), 1])

    def test_oracle_low_degrees(self):
        ctx = ctx_q(Fraction(1, 4))
        assert oracle_bernoulli(ctx, 1, 0) == PolyZ([1])
        assert oracle_bernoulli(ctx, 1, 1) == PolyZ([Fraction(-1, 2), 1])
        assert oracle_bernoulli(ctx, 2, 0) == PolyZ([1])

    def test_oracle_matches_the_full_quotient(self):
        # the oracle's Appell read-off against [n]_q! [t^n] of the
        # polynomial-coefficient numerator over the denominator
        for q in (Fraction(1, 16), Fraction(1, 4), Fraction(9, 16)):
            for alpha in ALPHAS:
                ctx = QContext.from_q(q, alpha)
                for kind in (1, 2, 3):
                    quotient = series_mul(
                        gf_numerator(ctx, kind, 12), series_reciprocal(gf_denominator(ctx, kind, 12))
                    )
                    for n in range(13):
                        expected = quotient.coefficient(n) * q_factorial(ctx, n)
                        assert oracle_bernoulli(ctx, kind, n) == expected


def uncached_division(ctx, kind, N):
    """s = h/g to order N, divided from scratch as the oracle did before it kept rows."""
    g = gf_denominator(ctx, kind, N).coeffs
    s = list(exponential_series(ctx, kind, N, Fraction(-1, 2)).coeffs)
    for m in range(2, N + 1):
        s[m] -= sum(g[j] * s[m - j] for j in range(2, m + 1, 2))
    return s


class TestOracleRows:
    def test_stepwise_row_matches_one_division(self, cold_store):
        for q in (Fraction(1, 16), Fraction(1, 4), Fraction(9, 16)):
            for alpha in ALPHAS:
                ctx = cold_store(QContext.from_q(q, alpha))
                for kind in (1, 2, 3):
                    for N in range(31):
                        row = _oracle_scalars(ctx, kind, N)
                    assert row == uncached_division(ctx, kind, 30)

    def test_warm_sweep_does_no_work(self, monkeypatch, cold_store):
        ctx = cold_store(QContext.from_fourth_root(Fraction(3, 5), Fraction(1, 2)))
        cache = context_cache(ctx)
        q_pow = QContext.q_pow
        for kind in (1, 2, 3):
            first = [oracle_bernoulli(ctx, kind, n) for n in range(21)]
            g_row, s_row = cache[_even_row, kind][0], cache[_oracle_scalars, kind][0]
            g_copy, s_copy = list(g_row), list(s_row)
            calls = []
            monkeypatch.setattr(QContext, "q_pow", lambda self, e: calls.append(e) or q_pow(self, e))
            assert [oracle_bernoulli(ctx, kind, n) for n in range(21)] == first
            monkeypatch.undo()
            assert calls == []
            assert cache[_even_row, kind][0] is g_row and g_row == g_copy
            assert cache[_oracle_scalars, kind][0] is s_row and s_row == s_copy
            assert (len(g_row), len(s_row)) == (11, 21)

    def test_two_threads_extend_one_oracle_row(self, cold_store):
        # equal q and alpha, so one store: the threads extend it again from cold,
        # against a copy of the rows the reference built
        reference = cold_store(QContext.from_fourth_root(Fraction(2, 3), Fraction(1, 2), 162))
        shared = QContext.from_fourth_root(Fraction(2, 3), Fraction(1, 2), 163)
        expected = [oracle_bernoulli(reference, 3, n) for n in range(21)]
        ref = {key: list(values) for key, (values, _) in context_cache(reference).items()}
        cold_store(shared)
        barrier = threading.Barrier(2)
        results = [None, None]

        def extend(slot):
            barrier.wait(timeout=30)
            results[slot] = [oracle_bernoulli(shared, 3, n) for n in range(21)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=extend, args=(slot,)) for slot in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected, expected]
        rows = context_cache(shared)
        s_row, g_row = rows[_oracle_scalars, 3][0], rows[_even_row, 3][0]
        assert s_row == ref[_oracle_scalars, 3] and len(s_row) == 21
        assert g_row == ref[_even_row, 3] and len(g_row) == 11


def scalar_reciprocal_product(ctx, kind, scale, order):
    """exponential(kind) at scale*t times the reciprocal of the kind's
    denominator series; the scalar side of the generating function."""
    denominator = gf_denominator(ctx, kind, order)
    return series_mul(exponential_series(ctx, kind, order, scale), series_reciprocal(denominator))


class TestScalarSeriesIdentities:
    def test_shared_number_series_to_order_20(self):
        # the two scalar generating series of kinds 1 and 2 coincide
        q = Fraction(1, 2)
        for alpha in ALPHAS:
            ctx = QContext.from_q(q, alpha)
            lhs = scalar_reciprocal_product(ctx, 1, Fraction(-1, 2), 20)
            rhs = scalar_reciprocal_product(ctx, 2, Fraction(-1, 2), 20)
            assert lhs == rhs

    def test_reciprocal_scalar_equals_moment_series_to_order_20(self):
        # denominator(1) * E_q(t/2) = denominator(2) * e_q(t/2)
        #                           = sum mu_m t^m / [m]_q!
        from qbernoulli import mu

        q = Fraction(1, 2)
        for alpha in ALPHAS:
            ctx = QContext.from_q(q, alpha)
            lhs = series_mul(
                gf_denominator(ctx, 1, 20), exponential_series(ctx, 2, 20, Fraction(1, 2))
            )
            rhs = series_mul(
                gf_denominator(ctx, 2, 20), exponential_series(ctx, 1, 20, Fraction(1, 2))
            )
            moments = TruncatedSeries(
                [mu(ctx, 1, m) / q_factorial(ctx, m) for m in range(21)]
            )
            assert lhs == rhs == moments

    def test_moment_series_matches_hypergeometric_sum(self):
        # partial sums of the 2phi1 with argument (1-q)t/2 reproduce the
        # same coefficients; alpha = -1/2 is excluded (its lower
        # parameter makes the raw sum 0/0 and only the limit form above
        # applies); q = 1/16 keeps the parameter q^(alpha+1/2) rational
        q = Fraction(1, 16)
        order = 20
        for alpha in (Fraction(0), Fraction(1, 2), Fraction(1)):
            ctx = QContext.from_q(q, alpha)
            series = series_mul(
                gf_denominator(ctx, 1, order), exponential_series(ctx, 2, order, Fraction(1, 2))
            )
            total = sum(
                coefficient * Fraction(1, 3) ** m for m, coefficient in enumerate(series.coeffs)
            )
            a = ctx.q_pow(alpha + Fraction(1, 2))
            value = phi21(ctx, a, -a, ctx.q_pow(2 * alpha + 1), (1 - q) * Fraction(1, 3) / 2, order)
            assert total == value

    def test_phi21_t1_coefficient_is_half(self):
        # first-order coefficient of the moment sum is 1/2 for every alpha
        q = Fraction(1, 4)
        for alpha in (Fraction(0), Fraction(1, 2), Fraction(1)):
            ctx = QContext.from_q(q, alpha)
            a = ctx.q_pow(alpha + Fraction(1, 2))
            constant = phi21(ctx, a, -a, ctx.q_pow(2 * alpha + 1), Fraction(0), 1)
            slope_arg = (1 - q) * Fraction(1, 7) / 2
            value = phi21(ctx, a, -a, ctx.q_pow(2 * alpha + 1), slope_arg, 1)
            assert value - constant == Fraction(1, 2) * Fraction(1, 7)
