import re
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf

from qbernoulli import (
    DomainError,
    QBernError,
    QContext,
    QTrigKind,
    bernoulli_number,
    bessel_derivative_at,
    eval_qtrig,
    leading_term,
    named_trig_zero,
    ratio_diagnostic,
    smallest_zero,
)
from qbernoulli import asympt, qcore, qfun
from qbernoulli.asympt import GUARD_BITS, _certified_value, _frame, _resolve_sign, bisect_zero, bracket_first_zero
from qbernoulli.qfun import modified_bessel_certified, qtrig_certified, to_mpf

# independently frozen from a first run at elevated precision
J2_HALF_HALF = "4.69488616636404696074131131618"
LAMBDA_HALF = "3.0833415183152280211"
MU_HALF = "2.2048737403785302291"


def ctx_q(q, alpha="1/2", bits=128):
    return QContext.from_q(Fraction(q), Fraction(alpha), bits)


class TestSmallestZero:
    def test_kind2_location_and_residual(self):
        ctx = ctx_q("1/2")
        result = smallest_zero(ctx, 2)
        assert result.residual < mpf(2) ** -(128 - 8)
        with mp.workprec(200):
            assert abs(result.location - mpf(J2_HALF_HALF)) < mpf(10) ** -28

    def test_interval_brackets_sign_change(self):
        ctx = ctx_q("1/2")
        for kind in (2, 3):
            result = smallest_zero(ctx, kind)
            lo, hi = result.certified_interval
            assert lo < result.location < hi
            vlo, blo = modified_bessel_certified(ctx, kind, 2, lo, precision=192)
            vhi, bhi = modified_bessel_certified(ctx, kind, 2, hi, precision=192)
            assert vlo > blo and -vhi > bhi  # certified + at lo, - at hi

    def test_positive_before_first_zero(self):
        ctx = ctx_q("1/2")
        result = smallest_zero(ctx, 2)
        for i in range(1, 11):
            x = result.certified_interval[0] * i / mpf(10.5)
            value, bound = modified_bessel_certified(ctx, 2, 2, x)
            assert value > bound

    def test_kind1_reports_absence(self):
        with pytest.raises(DomainError, match="no zero found in search range"):
            smallest_zero(ctx_q("1/2"), 1)

    def test_default_precision_shares_the_explicit_entry(self, monkeypatch):
        ctx = ctx_q("1/2", bits=136)
        first = smallest_zero(ctx, 2)
        calls = []
        monkeypatch.setattr(asympt, "modified_bessel_certified", lambda *args, **kw: calls.append(args))
        assert smallest_zero(ctx, 2, ctx.float_precision_bits) is first
        assert calls == []

    def test_precision_scaling(self):
        coarse = smallest_zero(ctx_q("1/2", bits=64), 2, precision=64)
        fine = smallest_zero(ctx_q("1/2", bits=160), 2, precision=160)
        with mp.workprec(220):
            assert abs(coarse.location - fine.location) < mpf(2) ** -60

    def test_a_1024_bit_location_keeps_its_digits_at_the_callers_53_bits(self):
        assert mp.prec == 53
        location = smallest_zero(ctx_q("1/2"), 2, 1024).location
        finer = smallest_zero(ctx_q("1/2"), 2, 1100).location
        with mp.workprec(2048):
            assert abs(location - finer) < mpf(2) ** -1000

    def test_the_cap_refuses_a_callers_precision_but_not_the_escalation(self, monkeypatch):
        monkeypatch.setattr(qfun, "MAX_PRECISION_BITS", 64)
        ctx = ctx_q("1/2", bits=64)
        message = "a precision of 65 bits is past the cap of 64 bits"
        with pytest.raises(DomainError, match=message):
            smallest_zero(ctx, 2, 65)
        with pytest.raises(DomainError, match=message):
            smallest_zero(ctx_q("1/2", bits=65), 3)
        with pytest.raises(DomainError, match=message):
            named_trig_zero(ctx, "Sin_q", 65)
        assert smallest_zero(ctx, 2, 64).residual < mpf(2) ** -(64 - 16)
        value, bound = modified_bessel_certified(ctx, 2, 2, Fraction(1, 3), precision=4 * 64 + 40)
        assert 0 < bound < mpf(2) ** -(4 * 64) and abs(value) > bound


class TestKindOne:
    """Kind 1 shares kind 2's zeros below 2 (Jackson: J2 = (-z^2/4; q^2)_inf J1)
    and reads kind 2's zero instead of searching."""

    # the second case's zero, 1.9288, sits just below the cap
    @pytest.mark.parametrize("q, alpha", [("3/4", "-1/2"), ("2/3", "1/8")])
    def test_kind1_reads_kind2_zero(self, q, alpha):
        ctx = ctx_q(q, alpha)
        kind1, kind2 = smallest_zero(ctx, 1), smallest_zero(ctx, 2)
        assert kind1.location == kind2.location
        assert kind1.certified_interval == kind2.certified_interval
        lo, hi = kind1.certified_interval
        vlo, blo = modified_bessel_certified(ctx, 1, 2, lo, precision=192)
        vhi, bhi = modified_bessel_certified(ctx, 1, 2, hi, precision=192)
        assert vlo > blo and -vhi > bhi  # certified + at lo, - at hi for kind 1 itself
        assert kind1.residual < mpf(2) ** -(128 - 8)

    def test_absence_between_cap_and_two(self):
        # kind 1 has a zero here, but its series cannot certify so close to 2
        ctx = ctx_q("3/5", "-1/8")
        assert mpf("1.95") < smallest_zero(ctx, 2).location < 2
        with pytest.raises(DomainError, match=r"no zero found in search range \(0, 1.95\).* 1.99478"):
            smallest_zero(ctx, 1)

    @pytest.mark.parametrize("q, alpha, found", [("2/3", "1/8", True), ("3/5", "-1/8", False), ("1/2", "1/2", False)])
    def test_at_most_one_kind1_evaluation(self, monkeypatch, cold_store, q, alpha, found):
        ctx = cold_store(ctx_q(q, alpha, bits=120))
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return modified_bessel_certified(*args, **kwargs)

        monkeypatch.setattr(asympt, "modified_bessel_certified", counting)
        if found:
            smallest_zero(ctx, 1)
        else:
            with pytest.raises(DomainError):
                smallest_zero(ctx, 1)
        assert calls.count(1) == found  # only the residual, and only for a zero

    @pytest.mark.parametrize("precision", [0, -60, 1.5, True])
    def test_bad_precision_is_refused(self, precision):
        ctx = ctx_q("1/2")
        with pytest.raises(ValueError, match="precision must be an integer number of bits >= 1"):
            smallest_zero(ctx, 2, precision)
        with pytest.raises(ValueError, match="precision must be an integer number of bits >= 1"):
            named_trig_zero(ctx, "Sin_q", precision)


def _target(precision, hi):
    return mpf(2) ** -(precision + 8) * max(mpf(1), hi)


def stub(root, certified=lambda x: True, calls=None):
    """evaluate(x, wp) of x -> root - x, no series summed: the bound is 0 where certified(x)
    holds and swamps the value elsewhere; calls, when given, collects each (x, wp)."""

    def evaluate(x, wp):
        if calls is not None:
            calls.append((x, wp))
        value = mpf(root) - x
        return value, mpf(0) if certified(x) else abs(value) + 1

    return evaluate


class TestZeroFinderBranches:
    """The zero finder's rare branches, each reached through a stub evaluate(x, wp)."""

    def test_a_point_no_precision_certifies_has_sign_zero(self):
        calls = []
        sign, value = _certified_value(stub(2, lambda x: False, calls), mpf(1), 64)
        assert (sign, value) == (0, 1)
        assert [wp for _, wp in calls] == [64 + GUARD_BITS, 128 + GUARD_BITS, 256 + 2 * GUARD_BITS]

    def test_a_point_dead_on_a_zero_is_nudged_right(self):
        step = mpf(1) / 4
        sign, x = _resolve_sign(stub(2, lambda x: x != 1), mpf(1), step, 64)
        assert (sign, x) == (1, 1 + step / 1024)

    def test_a_sign_no_nudge_certifies_is_an_error(self):
        calls = []
        # the message names the point, then the last one tried, 1 + (1 + 2 + ... + 50) step / 1024
        with pytest.raises(QBernError, match=r"^could not certify a sign near 1.0 \(nudged up to 1.311279296875\)$"):
            _resolve_sign(stub(2, lambda x: False, calls), mpf(1), mpf(1) / 4, 64)
        assert len(calls) == 51 * 3  # the point and 50 nudges, each at three precisions

    def test_a_march_that_never_turns_negative_runs_out(self):
        calls = []
        with pytest.raises(DomainError, match="^no zero found in search range$"):
            bracket_first_zero(stub(mpf(10) ** 100, calls=calls), mpf(1) / 4, 64)
        assert len(calls) == 400

    def test_an_already_narrow_bracket_is_returned_as_is(self):
        calls = []
        lo, hi = mpf(1), 1 + mpf(2) ** -80
        assert bisect_zero(stub(1, calls=calls), lo, hi, 64) == (lo, hi, (lo + hi) / 2)
        assert calls == []

    def test_an_uncertifiable_probe_is_the_location(self):
        # certified at the ends alone: the first probe is returned with the bracket unchanged
        calls = []
        lo, hi, location = bisect_zero(stub(mpf(1) / 3, lambda x: x in (0, 1), calls), 0, 1, 64)
        assert (lo, hi) == (0, 1) and 0 < location < 1
        assert [x for x, _ in calls[:2]] == [0, 1] and calls[-1][0] == location


class TestRefinement:
    """The zero refinement's contract and its probe counts."""

    CASES = [
        (QContext.from_q(Fraction(1, 2), Fraction(1, 2), 128), 2),
        (QContext.from_q(Fraction(1, 2), Fraction(1, 2), 128), 3),
        # interpolation rounds onto hi here unless probes keep off the ends
        (QContext.from_fourth_root(Fraction(3, 4), Fraction(-1, 2), 128), 2),
    ]

    @pytest.mark.parametrize("ctx, kind", CASES)
    def test_contract_and_evaluation_count(self, monkeypatch, cold_store, ctx, kind):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[3])
            return modified_bessel_certified(*args, **kwargs)

        # a cold cache entry, so the zero is located rather than looked up
        cold_store(ctx)
        monkeypatch.setattr(asympt, "modified_bessel_certified", counting)
        result = smallest_zero(ctx, kind, 128)
        lo, hi = result.certified_interval
        assert len(calls) <= 40  # plain bisection took about 145
        vlo, blo = modified_bessel_certified(ctx, kind, 2, lo, precision=192)
        vhi, bhi = modified_bessel_certified(ctx, kind, 2, hi, precision=192)
        assert vlo > blo and -vhi > bhi
        with mp.workprec(168):
            assert hi - lo <= _target(128, hi)
        assert lo <= result.location <= hi

    @pytest.mark.parametrize(
        "f",
        [
            # a steep step: the end values carry no information about the zero
            lambda x: mpmath.tanh(mpf(2) ** 40 * (1 - 3 * x)),
            # flat to all orders at the zero, so the secant is always poor
            lambda x: mpmath.sign(1 - 3 * x) * mpmath.exp(-1 / (1 - 3 * x) ** 2),
        ],
        ids=["tanh", "flat"],
    )
    def test_never_worse_than_bisection_plus_one(self, f):
        # the zero is 1/3, which no binary probe hits exactly
        precision = 64
        calls = []

        def evaluate(x, wp):
            calls.append(x)
            with mp.workprec(wp + 8):  # 1 - 3x exact
                return f(x), mpf(0)

        lo, hi, location = bisect_zero(evaluate, mpf(0), mpf(1), precision)
        with mp.workprec(precision + 48):
            bisection = precision + 8  # halvings from width 1 to the target
            assert len(calls) <= bisection + 1 + 2  # + the two end values
            assert f(lo) > 0 and f(hi) < 0
            assert hi - lo <= _target(precision, hi)
            assert lo <= location <= hi


class TestNamedTrigZeros:
    def test_sin_zero_satisfies_equation(self):
        ctx = ctx_q("1/2")
        result = named_trig_zero(ctx, "Sin_q")
        assert result.residual < mpf(2) ** -(128 - 16)
        assert abs(eval_qtrig(ctx, QTrigKind.Sin_q, result.location)) < mpf(2) ** -100

    def test_cos_zero_satisfies_equation(self):
        ctx = ctx_q("1/2")
        result = named_trig_zero(ctx, "Cos_q")
        assert result.residual < mpf(2) ** -(128 - 16)

    def test_reductions_from_bessel_zeros(self):
        ctx = ctx_q("1/2")
        with mp.workprec(180):
            sin_zero = named_trig_zero(ctx, "Sin_q")
            j = smallest_zero(ctx.with_alpha(Fraction(1, 2)), 2)
            assert sin_zero.location == j.location / (2 * (1 - mpf(0.5)))
            s_zero = named_trig_zero(ctx, "S_q")
            assert abs(s_zero.location - mpf(LAMBDA_HALF)) < mpf(10) ** -18

    def test_scaled_c_zero(self):
        # the fourth constant solves C_q(sqrt(q) z) = 0, not C_q(z) = 0
        ctx = ctx_q("1/2")
        result = named_trig_zero(ctx, "C_q_scaled")
        assert result.residual < mpf(2) ** -(128 - 16)
        with mp.workprec(180):
            assert abs(result.location - mpf(MU_HALF)) < mpf(10) ** -18
            unscaled = eval_qtrig(ctx, QTrigKind.C_q, result.location)
            assert abs(unscaled) > mpf(1) / 2  # location is nowhere near a C_q zero

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_trig_zero(ctx_q("1/2"), "Tan_q")

    @pytest.mark.parametrize("which", ["Tan_q", "sin_q", None, ["Sin_q"]])
    def test_an_unknown_name_is_named_in_the_error(self, which):
        message = "^which must be Sin_q, Cos_q, S_q or C_q_scaled, got %s$" % re.escape(repr(which))
        with pytest.raises(ValueError, match=message):
            named_trig_zero(ctx_q("1/2"), which)


class TestBesselDerivative:
    @pytest.mark.parametrize("x", [0, -1, Fraction(-1, 3)])
    def test_x_must_be_positive(self, x):
        with pytest.raises(ValueError, match="^x must be positive, got %s$" % re.escape(repr(x))):
            bessel_derivative_at(ctx_q("1/2"), 2, x)

    def test_small_argument_behaves_linearly(self):
        ctx = ctx_q("1/2")
        tiny = bessel_derivative_at(ctx, 2, Fraction(1, 2**20))
        assert abs(tiny) < mpf(2) ** -19

    def test_nonzero_and_negative_at_first_zero(self):
        ctx = ctx_q("1/2")
        zero = smallest_zero(ctx, 2)
        derivative = bessel_derivative_at(ctx, 2, zero.location)
        assert derivative < 0
        assert abs(derivative) > mpf(1) / 10


class TestLeadingTerm:
    def test_sign_alternation_in_even_degrees(self):
        ctx = ctx_q("1/2")
        values = [leading_term(ctx, 2, n, Fraction(1, 4)).value for n in (4, 6, 8)]
        assert values[0] * values[1] < 0
        assert values[1] * values[2] < 0

    def test_component_product_is_bit_exact(self):
        ctx = ctx_q("1/2")
        term = leading_term(ctx, 2, 7, Fraction(1, 4))
        c = term.components
        with mp.workprec(128 + 40):
            product = (
                c["prefactor"]
                * c["sign"]
                * c["factorial"]
                * c["trig_combination"]
                / (c["power"] * c["bessel_derivative"])
            )
        assert product == term.value

    def test_zero_argument_reduces_to_number_corollary(self):
        # at z = 0 the even combination collapses to the cosine value at
        # the constant and the odd one to minus the sine value; rebuild
        # both from the components and compare bit-for-bit
        ctx = ctx_q("1/2")
        frame_even = leading_term(ctx, 2, 6, 0)
        frame_odd = leading_term(ctx, 2, 7, 0)
        cos_kind, sin_kind = QTrigKind.Cos_q, QTrigKind.Sin_q
        with mp.workprec(128 + 40):
            constant = smallest_zero(ctx, 2).location / (2 * (1 - mpf(0.5)))
            cos_at_c, _ = qtrig_certified(ctx, cos_kind, constant, precision=128)
            sin_at_c, _ = qtrig_certified(ctx, sin_kind, constant, precision=128)
            assert frame_even.components["trig_combination"] == cos_at_c
            assert frame_odd.components["trig_combination"] == 0 - sin_at_c

    def test_frame_is_computed_once_per_kind_and_precision(self, monkeypatch, cold_store):
        ctx = cold_store(ctx_q("1/2", bits=132))
        derivative = asympt.modified_bessel_derivative_certified
        calls = []

        def counting(ctx, kind, x, precision):
            calls.append((kind, precision))
            return derivative(ctx, kind, x, precision=precision)

        monkeypatch.setattr(asympt, "modified_bessel_derivative_certified", counting)
        for kind in (2, 3):
            for n in (1, 2, 5):
                leading_term(ctx, kind, n, Fraction(1, 3))
        assert _frame(ctx, 2, 132) is _frame(ctx, 2, 132)
        _frame(ctx, 2, 96)
        _frame(ctx, 2, 96)
        assert calls == [(2, 132), (3, 132), (2, 96)]

    def test_requires_positive_degree(self):
        with pytest.raises(ValueError):
            leading_term(ctx_q("1/2"), 2, 0, 0)


class TestRatioDiagnostic:
    def test_entries_decay_within_parity(self):
        ctx = ctx_q("1/2")
        rows = ratio_diagnostic(ctx, 2, Fraction(1, 4), range(4, 13))
        values = {row.n: row.abs_ratio_minus_1 for row in rows}
        for n in range(4, 11):
            assert values[n + 2] < values[n]

    def test_zero_point_matches_number_route(self):
        ctx = ctx_q("1/2")
        rows = ratio_diagnostic(ctx, 2, 0, [4, 5, 6])
        for row in rows:
            assert row.exact_value == bernoulli_number(ctx, 2, row.n)
            with mp.workprec(168):
                assert row.float_value == to_mpf(bernoulli_number(ctx, 2, row.n))

    def test_trig_pair_at_2cz_is_computed_once_per_point(self, monkeypatch, cold_store):
        # the pair at 2cz depends on z alone, so a sweep over degrees sums it once;
        # the frame's pair at c accounts for the other two calls
        ctx = cold_store(ctx_q("1/2", bits=133))
        calls = []

        def counting(ctx, kind, z, precision):
            calls.append(kind)
            return qtrig_certified(ctx, kind, z, precision=precision)

        monkeypatch.setattr(asympt, "qtrig_certified", counting)
        first = ratio_diagnostic(ctx, 2, Fraction(1, 4), range(1, 9))
        assert len(calls) == 4
        assert ratio_diagnostic(ctx, 2, Fraction(1, 4), range(1, 9)) == first
        assert len(calls) == 4
        ratio_diagnostic(ctx, 2, Fraction(1, 5), [3])
        assert len(calls) == 6

    def test_a_sweep_over_z_keeps_the_cache_entry_bounded(self, monkeypatch):
        # the pair at 2cz is kept for the last z alone, so a long-lived sweep adds no memo per point
        ctx = ctx_q("1/2", bits=134)
        leading_term(ctx, 2, 3, Fraction(-1, 7))
        keys = len(qcore.context_cache(ctx))
        for k in range(200):
            leading_term(ctx, 2, 3, Fraction(k, 199))
        assert len(qcore.context_cache(ctx)) == keys
        assert list(asympt._trig_slot(ctx, 2, 134)) == [1]
        # and a sweep over degrees at one new point still sums the pair once
        calls = []

        def counting(ctx, kind, z, precision):
            calls.append(kind)
            return qtrig_certified(ctx, kind, z, precision=precision)

        monkeypatch.setattr(asympt, "qtrig_certified", counting)
        ratio_diagnostic(ctx, 2, Fraction(1, 3), range(1, 9))
        assert calls == [QTrigKind.Cos_q, QTrigKind.Sin_q]

    def test_vanishing_combination_is_flagged(self):
        # at z = 0 and alpha = 1/2 the odd-degree combination is the sine
        # value at its own zero: the numbers vanish exactly, the computed
        # combination is pure location noise, and the row must say so
        ctx = ctx_q("1/2")
        rows = {row.n: row for row in ratio_diagnostic(ctx, 2, 0, [4, 5, 6, 7])}
        for n in (5, 7):
            assert bernoulli_number(ctx, 2, n) == 0
            assert rows[n].flag == "indeterminate"
            assert rows[n].abs_ratio_minus_1 is None
        for n in (4, 6):
            assert rows[n].flag is None
            assert rows[n].abs_ratio_minus_1 < 1
