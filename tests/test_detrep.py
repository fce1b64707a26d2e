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
    q_int,
)
from qbernoulli.detrep import _bareiss_det
from qbernoulli.qcore import context_cache

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

    def test_exact_mode_violation(self):
        ctx = QContext.from_q(Fraction(1, 2), Fraction(1, 3))
        with pytest.raises(ExactModeError):
            mu(ctx, 1, 2)


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

    def test_value_route_matches_poly_route(self):
        # the paper's determinant (value route) against the recurrence table
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
        cache = context_cache(shared)
        assert cache.polys[3] == expected
        assert len(cache.moments[3]) == 15
