import ast
import inspect
import sys
import threading
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mp, mpf

from qbernoulli import (
    CoefficientStream,
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
    growth_classify,
    leading_term,
    named_trig_zero,
    phi21,
    phi32,
    ratio_diagnostic,
    recip_expq_coeffs,
    reconstruct,
    smallest_zero,
    tau_estimate,
)
from qbernoulli import qfun
from qbernoulli.asympt import bessel_derivative_at
from qbernoulli.qfun import (
    modified_bessel_certified,
    modified_bessel_derivative_certified,
    qpochhammer_infinite,
    qtrig_certified,
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


class TestArgumentChecks:
    @pytest.mark.parametrize("precision", [0, -60, 1.5, True])
    def test_bad_precision_is_refused(self, precision):
        ctx = ctx_q("1/2")
        with pytest.raises(ValueError, match="precision must be an integer number of bits >= 1, got %r" % precision):
            modified_bessel_certified(ctx, 2, 2, 1, precision=precision)
        with pytest.raises(ValueError, match="precision must be an integer"):
            qtrig_certified(ctx, QTrigKind.Sin_q, 1, precision=precision)

    @pytest.mark.parametrize("value", [mpmath.inf, -mpmath.inf, mpmath.nan, float("inf"), float("nan")])
    def test_non_finite_argument_is_refused(self, value):
        # each used to sum 200k terms before failing to certify
        ctx = ctx_q("1/2")
        for evaluate in (
            lambda: eval_Eq(ctx, value),
            lambda: eval_qtrig(ctx, QTrigKind.S_q, value),
            lambda: eval_modified_bessel(ctx, 2, 2, value),
        ):
            with pytest.raises(DomainError, match="expected a finite real number, got"):
                evaluate()

    def test_checks_run_context_then_kind_then_precision(self):
        exact_only = ctx_q("1/2").reciprocal_base()
        for ctx, error, message in (
            (exact_only, DomainError, "numeric evaluation requires 0 < q < 1"),
            (ctx_q("1/2"), ValueError, "kind must be"),
        ):
            with pytest.raises(error, match=message):
                qtrig_certified(ctx, "Sin_q", 1, precision=0)
            with pytest.raises(error, match=message.replace("kind", "base_exponent")):
                modified_bessel_certified(ctx, 2, 3, 1, precision=0)


class TestTracerContract:
    """perfbench/tracing.py counts series terms by rebinding qfun.certified_sum and wrapping
    each step, so every certified series must reach it through that module global."""

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda ctx: eval_eq(ctx, Fraction(1, 3)),
            lambda ctx: eval_Eq(ctx, Fraction(1, 3)),
            lambda ctx: eval_expq(ctx, Fraction(1, 3)),
            lambda ctx: eval_qtrig(ctx, QTrigKind.Cos_q, Fraction(1, 3)),
            lambda ctx: eval_modified_bessel(ctx, 2, 2, Fraction(1, 3)),
            lambda ctx: eval_bessel(ctx, 3, 1, Fraction(1, 3)),
            lambda ctx: bessel_derivative_at(ctx, 1, Fraction(1, 3)),
        ],
        ids=["eval_eq", "eval_Eq", "eval_expq", "eval_qtrig", "eval_modified_bessel", "eval_bessel",
             "bessel_derivative_at"],
    )
    def test_each_series_sums_through_the_module_global(self, monkeypatch, evaluate):
        counts, summed = {"calls": 0, "terms": 0}, qfun.certified_sum

        def certified_sum(first_term, step, workprec):
            counts["calls"] += 1

            def counted_step(n, term):
                counts["terms"] += 1
                return step(n, term)

            return summed(first_term, counted_step, workprec)

        monkeypatch.setattr(qfun, "certified_sum", certified_sum)
        evaluate(ctx_q("1/4"))
        assert counts["calls"] >= 1 and counts["terms"] >= 1


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

    def test_negative_term_count(self):
        ctx = ctx_q("1/2")
        with pytest.raises(ValueError, match="term count must be >= 0, got -1"):
            phi21(ctx, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), -1)
        with pytest.raises(ValueError, match="term count must be >= 0, got -3"):
            phi32(ctx, 1, 2, 3, 4, 5, Fraction(1, 5), terms=-3)
        assert phi32(ctx, 1, 2, 3, 4, 5, Fraction(1, 5), terms=None) == 1

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


class TestPrecisionFrame:
    """mpmath's precision is process-wide; the package changes it in one place, under a lock."""

    def test_two_threads_at_two_precisions_get_their_single_thread_results(self):
        high = QContext.from_fourth_root(Fraction(1, 2), Fraction(1, 2), 2000)
        low = QContext.from_fourth_root(Fraction(1, 2), Fraction(1, 2), 24)
        points = [Fraction(k, 7) for k in range(1, 31)]
        expected = [eval_Eq(high, z)._mpf_ for z in points]
        low_expected = eval_Eq(low, Fraction(1, 3))._mpf_
        start = mp.prec
        results, low_results, done = [], [], threading.Event()

        def high_calls():
            try:
                results.extend(eval_Eq(high, z)._mpf_ for z in points)
            finally:
                done.set()

        def low_calls():
            while not done.is_set():
                low_results.append(eval_Eq(low, Fraction(1, 3))._mpf_)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=target) for target in (high_calls, low_calls)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected
        assert low_results and set(low_results) == {low_expected}
        assert mp.prec == start

    def test_mp_workprec_occurs_only_in_the_primitive(self):
        package = Path(qfun.__file__).parent
        found = {}
        for path in package.glob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            uses = sum(isinstance(node, ast.Attribute) and node.attr == "workprec" for node in ast.walk(tree))
            if uses:
                found[path.name] = uses
        assert found == {"qfun.py": 1}
        assert "mp.workprec(bits)" in inspect.getsource(qfun.working_precision.__wrapped__)

    CTX = QContext.from_fourth_root(Fraction(1, 2), Fraction(1, 2), 64)
    NON_NUMERIC = QContext(q=Fraction(2), alpha=Fraction(1, 2), float_precision_bits=64)
    STREAM = CoefficientStream.finite(["1", "1/2", "-1/3"])
    CALLS = {
        "eval_eq": (eval_eq, Fraction(1, 3)),
        "eval_Eq": (eval_Eq, Fraction(1, 3)),
        "eval_expq": (eval_expq, Fraction(1, 3)),
        "eval_qtrig": (eval_qtrig, QTrigKind.Sin_q, Fraction(1, 3)),
        "eval_modified_bessel": (eval_modified_bessel, 2, 2, Fraction(1, 3)),
        "eval_bessel": (eval_bessel, 2, 1, Fraction(1, 3)),
        "smallest_zero": (smallest_zero, 3, 96),
        "named_trig_zero": (named_trig_zero, "S_q", 96),
        "bessel_derivative_at": (bessel_derivative_at, 2, Fraction(1, 3)),
        "leading_term": (leading_term, 3, 4, Fraction(1, 4)),
        "ratio_diagnostic": (ratio_diagnostic, 2, Fraction(1, 4), [1, 2]),
        "tau_estimate": (tau_estimate, STREAM, range(1, 3)),
        "growth_classify": (growth_classify, STREAM, 1, Fraction(1, 2)),
        "reconstruct": (reconstruct, STREAM, Fraction(1, 3), 2),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_each_numeric_export_leaves_mp_prec_as_it_found_it(self, name):
        function, *args = self.CALLS[name]
        start = mp.prec
        function(self.CTX, *args)
        assert mp.prec == start
        with pytest.raises(DomainError, match="numeric evaluation requires 0 < q < 1"):
            function(self.NON_NUMERIC, *args)
        assert mp.prec == start

    def test_raising_inside_the_frame_restores_mp_prec(self):
        start = mp.prec
        with pytest.raises(DomainError, match="defined only for"):
            eval_eq(self.CTX, 100)
        assert mp.prec == start
        for k in (0, -1):
            with pytest.raises(ValueError, match="order k must be positive"):
                growth_classify(self.CTX, self.STREAM, k, 0)
            assert mp.prec == start
