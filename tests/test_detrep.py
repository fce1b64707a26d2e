import sys
import threading
from fractions import Fraction

import pytest

from qbernoulli import (
    ExactModeError,
    PolyZ,
    QContext,
    bernoulli_number,
    bernoulli_poly_det,
    bernoulli_poly_value,
    build_matrix,
    mu,
    oracle_bernoulli,
    q_binomial,
    q_factorial,
    q_int,
)
from qbernoulli import detrep
from qbernoulli.detrep import _bareiss_det, _moments, _numbers
from qbernoulli.qcore import _factorials, context_cache
from qbernoulli.series import _exp_row, _oracle_scalars, exp_weight, expq_reciprocal_series

SQUARE_QS = [Fraction(1, 16), Fraction(1, 4), Fraction(9, 16)]
ALPHAS = [Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]


def ctx_q(q, alpha="1/2"):
    return QContext.from_q(Fraction(q), Fraction(alpha))


class TestExactMatrix:
    """Determinants of exact rational matrices (the Bareiss reference)."""

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            _bareiss_det([])
        with pytest.raises(ValueError):
            _bareiss_det([[Fraction(1), Fraction(2)]])

    def test_det(self):
        assert _bareiss_det([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]) == -2

    def test_det_with_zero_pivot(self):
        rows = [
            [Fraction(0), Fraction(1), Fraction(2)],
            [Fraction(1), Fraction(0), Fraction(1)],
            [Fraction(2), Fraction(1), Fraction(0)],
        ]
        assert _bareiss_det(rows) == 4

    def test_singular(self):
        assert _bareiss_det([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 0


class TestMu:
    def test_zeroth_is_one(self):
        ctx = ctx_q("1/4")
        for kind in (1, 2, 3):
            assert mu(ctx, kind, 0) == 1

    def test_first_is_half(self):
        for q in SQUARE_QS:
            for alpha in ALPHAS:
                ctx = QContext.from_q(q, alpha)
                for kind in (1, 2, 3):
                    assert mu(ctx, kind, 1) == Fraction(1, 2)

    def test_negative_order_names_m(self):
        for kind in (1, 2, 3):
            with pytest.raises(ValueError, match="^m must be >= 0, got -1$"):
                mu(ctx_q("1/4"), kind, -1)

    def test_second_kind1(self):
        assert mu(ctx_q("1/2"), 1, 2) == Fraction(15, 56)

    def test_kinds_1_and_2_share_moments(self):
        ctx = ctx_q("1/4", "0")
        for m in range(8):
            assert mu(ctx, 1, m) == mu(ctx, 2, m)

    def test_alpha_minus_half_well_defined(self):
        # the shared (1 - q^(2a+1)) factor cancels; at alpha = -1/2 the
        # remaining ratio is prod (1 + q^j), j = 1..m-1, over 2^m
        q = Fraction(1, 4)
        ctx = QContext.from_q(q, Fraction(-1, 2))
        for m in range(1, 8):
            expected = Fraction(1, 2**m)
            for j in range(1, m):
                expected *= 1 + q**j
            assert mu(ctx, 1, m) == expected

    def test_kind3_matches_the_reciprocal_expq_formula(self):
        # the docstring's sum over c = 1/exp_q, while mu divides by exp_q(-t/2)
        for ctx in (ctx_q("1/4", "0"), QContext.from_fourth_root(Fraction(2, 3), Fraction(-1, 4))):
            c = expq_reciprocal_series(ctx, 16).coeffs
            q, a = ctx.q, ctx.alpha
            weights = [Fraction(1)]
            for k in range(1, 9):
                weights.append(
                    weights[-1] * ctx.q_pow_quarters(8 * k - 2) * (1 - q) ** 2
                    / ((1 - q ** (2 * k)) * (1 - ctx.q_pow(2 * a + 2 * k)))
                )
            for m in range(17):
                total = sum(weights[k] * c[m - 2 * k] for k in range(m // 2 + 1))
                assert mu(ctx, 3, m) == Fraction(-1) ** m * q_factorial(ctx, m) / 2**m * total

    def test_exact_mode_violation(self):
        ctx = QContext.from_q(Fraction(1, 2), Fraction(1, 3))
        with pytest.raises(ExactModeError):
            mu(ctx, 1, 2)
        # m_0 = 1 needs no q-power, yet n = 0 raises as mu and the oracle do
        for kind in (1, 2, 3):
            with pytest.raises(ExactModeError, match="got alpha=1/3"):
                bernoulli_number(ctx, kind, 0)
            with pytest.raises(ExactModeError, match="got alpha=1/3"):
                bernoulli_poly_det(ctx, kind, 0)
            with pytest.raises(ExactModeError, match="got alpha=1/3"):
                bernoulli_poly_value(ctx, kind, 0, Fraction(1, 3))
        # at n = 0 as at n >= 1, a bad kind raises after the exact-alpha check
        for kind in (0, 4):
            with pytest.raises(ExactModeError, match="got alpha=1/3"):
                bernoulli_poly_value(ctx, kind, 0, Fraction(1, 3))
            for n in (0, 1):
                with pytest.raises(ValueError, match="kind must be 1, 2 or 3"):
                    bernoulli_poly_value(ctx.with_alpha(Fraction(1, 2)), kind, n, Fraction(1, 3))

    def test_kind3_moments_stepwise_compute_each_weight_once(self, monkeypatch):
        # built one degree at a time, the kind-3 moments take as many q-powers as in
        # one call: h and the Bessel weights run on, not rebuilt per extension
        counts = []
        for bits, steps in ((140, range(13)), (141, (12,))):
            ctx = QContext.from_fourth_root(Fraction(2, 3), Fraction(1, 2), bits)
            calls = []
            q_pow_quarters = QContext.q_pow_quarters
            monkeypatch.setattr(QContext, "q_pow_quarters", lambda self, m: calls.append(m) or q_pow_quarters(self, m))
            for m in steps:
                _moments(ctx, 3, m)
            monkeypatch.undo()
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestBuildMatrix:
    def test_n1_kind1(self):
        weights, rows = build_matrix(ctx_q("1/4"), 1, 1)
        assert weights == (1, 1)
        assert rows == ((Fraction(1), Fraction(1, 2)),)

    def test_n1_kind2_weights(self):
        weights, rows = build_matrix(ctx_q("1/4"), 2, 1)
        assert weights == (1, 1)  # q^0 for both columns
        assert rows == ((Fraction(1), Fraction(1, 2)),)

    def test_last_entry_closed_form(self):
        # a_{n,n} = [n choose n-1]_q mu_1 = [n]_q / 2
        ctx = ctx_q("1/4")
        for kind in (1, 2, 3):
            for n in (2, 4, 7):
                _, rows = build_matrix(ctx, kind, n)
                assert rows[n - 1][n] == q_int(ctx, n) / 2

    def test_below_band_zeros(self):
        _, rows = build_matrix(ctx_q("1/4"), 1, 4)
        for i in range(1, 5):
            for j in range(4 + 1):
                if j - i + 1 < 0:
                    assert rows[i - 1][j] == 0


class TestPolynomials:
    def test_degree_zero_and_one(self):
        ctx = ctx_q("1/4")
        for kind in (1, 2, 3):
            assert bernoulli_poly_det(ctx, kind, 0) == PolyZ([1])
            assert bernoulli_poly_det(ctx, kind, 1) == PolyZ([Fraction(-1, 2), 1])

    def test_recurrence_matches_oracle_to_degree_40(self):
        ctx = QContext.from_fourth_root(Fraction(1, 2), Fraction(1, 2))
        for kind in (1, 2, 3):
            for n in range(41):
                assert bernoulli_poly_det(ctx, kind, n) == oracle_bernoulli(ctx, kind, n)

    def test_oracle_equivalence_spot(self):
        # the full grid runs in the acceptance suite
        ctx = ctx_q("9/16", "0")
        for kind in (1, 2, 3):
            for n in range(9):
                assert bernoulli_poly_det(ctx, kind, n) == oracle_bernoulli(ctx, kind, n)

    def test_oracle_equivalence_quarter_alpha(self):
        # 4*alpha odd exercises half-odd q-powers in the moment ratios
        for ctx in (
            QContext.from_fourth_root(Fraction(1, 2), Fraction(1, 4)),
            QContext.from_q(Fraction(1, 4), Fraction(-1, 4)),
        ):
            for kind in (1, 2, 3):
                for n in range(7):
                    assert bernoulli_poly_det(ctx, kind, n) == oracle_bernoulli(ctx, kind, n)

    def test_base_symmetry(self):
        # type 2 at base q against type 1 at base 1/q
        for q in SQUARE_QS:
            for alpha in (Fraction(-1, 2), Fraction(1)):
                ctx = QContext.from_q(q, alpha)
                reciprocal = ctx.reciprocal_base()
                for n in range(9):
                    flipped = bernoulli_poly_det(reciprocal, 1, n)
                    prefactor = q ** (n * (n - 1) // 2)
                    assert bernoulli_poly_det(ctx, 2, n) == prefactor * flipped

    def test_value_at_zero_matches_number(self):
        ctx = ctx_q("1/4", "0")
        for kind in (1, 2, 3):
            for n in range(9):
                poly = bernoulli_poly_det(ctx, kind, n)
                assert poly.coefficient(0) == bernoulli_number(ctx, kind, n)
                assert bernoulli_poly_value(ctx, kind, n, 0) == bernoulli_number(ctx, kind, n)

    def test_read_off_matches_polynomial_recurrence(self):
        # production reads every coefficient off the numbers; the
        # polynomial-valued last-column recurrence of the determinant is
        # the reference for the polynomial structure
        def recurrence_table(ctx, kind, n_max):
            table = []
            for m in range(n_max + 1):
                p = PolyZ.monomial(m, exp_weight(ctx, kind, m))
                for k in range(1, m + 1):
                    p = p - (q_binomial(ctx, m, k) * mu(ctx, kind, k)) * table[m - k]
                table.append(p)
            return table

        cases = [(QContext.from_fourth_root(Fraction(1, 2), Fraction(1, 2)), 30)]
        cases += [(QContext.from_q(q, alpha), 12) for q in SQUARE_QS for alpha in ALPHAS]
        for ctx, n_max in cases:
            for kind in (1, 2, 3):
                reference = recurrence_table(ctx, kind, n_max)
                assert [bernoulli_poly_det(ctx, kind, n) for n in range(n_max + 1)] == reference

    def test_value_route_matches_poly_route(self):
        # the paper's determinant (value route) against the read-off
        # (poly route) over the whole acceptance grid
        for q in SQUARE_QS:
            for alpha in ALPHAS:
                ctx = QContext.from_q(q, alpha)
                for kind in (1, 2, 3):
                    for n in range(13):
                        poly = bernoulli_poly_det(ctx, kind, n)
                        for z in (Fraction(3, 7), Fraction(0)):
                            assert bernoulli_poly_value(ctx, kind, n, z) == poly(z)


class TestNumbers:
    def test_first_values(self):
        ctx = ctx_q("1/4")
        for kind in (1, 2, 3):
            assert bernoulli_number(ctx, kind, 0) == 1
            assert bernoulli_number(ctx, kind, 1) == Fraction(-1, 2)

    def test_types_1_and_2_numbers_agree(self):
        ctx = ctx_q("1/16", "1")
        for n in range(13):
            assert bernoulli_number(ctx, 1, n) == bernoulli_number(ctx, 2, n)


class TestTableCache:
    def test_two_threads_extend_one_table(self):
        # equal q and alpha, so equal exact tables, but distinct cache keys
        reference = QContext.from_fourth_root(Fraction(2, 3), Fraction(1, 2), 128)
        shared = QContext.from_fourth_root(Fraction(2, 3), Fraction(1, 2), 129)
        expected = [bernoulli_poly_det(reference, 3, n) for n in range(15)]
        barrier = threading.Barrier(2)
        results = [None, None]

        def extend(slot):
            barrier.wait(timeout=30)
            results[slot] = [bernoulli_poly_det(shared, 3, n) for n in (14,) + tuple(range(14))]

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
        for result in results:
            assert result == [expected[14]] + expected[:14]
        rows, ref = context_cache(shared), context_cache(reference)
        assert rows[_numbers, 3][0] == ref[_numbers, 3][0]
        assert len(rows[_numbers, 3][0]) == 15
        assert len(rows[_moments, 3][0]) == 15
        assert len(rows[_exp_row, 3][0]) == 15
        assert rows[_exp_row, 3][0] == ref[_exp_row, 3][0]

    def test_cache_holds_numbers_not_polynomials(self):
        # memory per context is O(N): after degree-40 tables of every kind
        # each per-kind list holds exactly the 41 scalars b_0..b_40
        ctx = QContext.from_fourth_root(Fraction(3, 7), Fraction(1, 2), 131)
        for kind in (1, 2, 3):
            for n in range(41):
                bernoulli_poly_det(ctx, kind, n)
        cache = context_cache(ctx)
        rows = {(row, kind) for row in (_exp_row, _moments, _numbers) for kind in (1, 2, 3)}
        assert set(cache) == rows | {(_factorials, None)}
        for kind in (1, 2, 3):
            assert len(cache[_moments, kind][0]) == 41
            assert len(cache[_numbers, kind][0]) == 41
            assert all(isinstance(b, Fraction) for b in cache[_numbers, kind][0])


class TestOracleIndependence:
    def test_cold_oracle_reads_no_moments_or_numbers(self, monkeypatch):
        reference = QContext.from_fourth_root(Fraction(3, 5), Fraction(1, 4), 164)
        cold = QContext.from_fourth_root(Fraction(3, 5), Fraction(1, 4), 165)
        expected = {kind: [bernoulli_poly_det(reference, kind, n) for n in range(13)] for kind in (1, 2, 3)}

        def refuse(*args):
            raise AssertionError("the oracle read the determinant route's rows")

        monkeypatch.setattr(detrep, "_moments", refuse)
        monkeypatch.setattr(detrep, "_numbers", refuse)
        for kind in (1, 2, 3):
            assert [oracle_bernoulli(cold, kind, n) for n in range(13)] == expected[kind]

    def test_a_corrupted_row_breaks_the_agreement(self):
        # one wrong number or one wrong s entry shows from its degree on
        ctx = QContext.from_fourth_root(Fraction(3, 5), Fraction(1, 2), 166)
        cache = context_cache(ctx)
        for kind in (1, 2, 3):
            for n in range(9):
                assert bernoulli_poly_det(ctx, kind, n) == oracle_bernoulli(ctx, kind, n)
            for row in (cache[_numbers, kind][0], cache[_oracle_scalars, kind][0]):
                saved = row[5]
                row[5] = saved + 1
                try:
                    for n in range(9):
                        agree = bernoulli_poly_det(ctx, kind, n) == oracle_bernoulli(ctx, kind, n)
                        assert agree == (n < 5)
                finally:
                    row[5] = saved
