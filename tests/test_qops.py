import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qbernoulli import (
    ExactModeError,
    PolyZ,
    QContext,
    appell_check,
    delta_q,
    dq,
    dq_inverse_base,
    q_int,
    qops,
)
from qbernoulli.detrep import _moments, _numbers, bernoulli_poly_det
from qbernoulli.qcore import _factorials, context_cache
from qbernoulli.qops import _factors, _lower
from qbernoulli.series import _exp_row


def ctx_q(q, alpha="1/2"):
    return QContext.from_q(Fraction(q), Fraction(alpha))


class TestJacksonOperator:
    def test_monomials(self):
        ctx = ctx_q("1/2")
        assert dq(ctx, PolyZ.monomial(3)) == q_int(ctx, 3) * PolyZ.monomial(2)
        assert dq(ctx, PolyZ([5])) == PolyZ()
        for base in (ctx, ctx.reciprocal_base()):
            for i in range(1, 21):
                assert dq(base, PolyZ.monomial(i)) == q_int(base, i) * PolyZ.monomial(i - 1)

    def test_linearity(self):
        ctx = ctx_q("1/3")
        p = PolyZ([0, -1, 1])  # z^2 - z
        assert dq(ctx, p) == PolyZ([-1, Fraction(4, 3)])


class TestInverseBaseOperator:
    def test_monomials(self):
        ctx = ctx_q("1/2")
        # [2]_{1/q} = 1 + 1/q = 3 at q = 1/2
        assert dq_inverse_base(ctx, PolyZ.monomial(2)) == PolyZ([0, 3])
        assert dq_inverse_base(ctx, PolyZ([7])) == PolyZ()
        assert dq_inverse_base(ctx, PolyZ.monomial(1)) == PolyZ([1])
        for base in (ctx, ctx.reciprocal_base()):
            for i in range(1, 21):
                expected = base.q ** (1 - i) * q_int(base, i) * PolyZ.monomial(i - 1)
                assert dq_inverse_base(base, PolyZ.monomial(i)) == expected

    def test_agrees_with_dq_on_degree_one(self):
        ctx = ctx_q("1/3")
        p = PolyZ([Fraction(2, 5), Fraction(-7, 3)])
        assert dq(ctx, p) == dq_inverse_base(ctx, p)


class TestSymmetricOperator:
    def test_monomials(self):
        ctx = ctx_q("1/4")
        # (q^(1/2) + q^(-1/2)) = 5/2 at q = 1/4
        assert delta_q(ctx, PolyZ.monomial(2)) == PolyZ([0, Fraction(5, 2)])
        assert delta_q(ctx, PolyZ.monomial(1)) == PolyZ([1])
        assert delta_q(ctx, PolyZ.monomial(3)) == PolyZ([0, 0, Fraction(21, 4)])


class TestFactorRows:
    def test_rows_match_closed_forms(self):
        # c_i in op(z**i) = c_i z**(i-1): [i]_q, [i]_(1/q) = q**(1-i) [i]_q and q**((1-i)/2) [i]_q
        ctx = ctx_q("4/9")
        for base in (ctx, ctx.reciprocal_base()):
            closed = {
                1: lambda i: q_int(base, i),
                2: lambda i: base.q ** (1 - i) * q_int(base, i),
                3: lambda i: base.sqrt_q ** (1 - i) * q_int(base, i),
            }
            for kind in (1, 2, 3):
                row = _factors(base, kind, 20)
                assert row[:21] == [closed[kind](i) for i in range(21)]

    def test_symmetric_operator_without_square_root(self):
        # degree <= 1 needs no half-power of q; from degree 2 on the same error is raised each call
        ctx = ctx_q("1/2")
        assert ctx.sqrt_q is None
        assert delta_q(ctx, PolyZ()) == PolyZ()
        assert delta_q(ctx, PolyZ([3])) == PolyZ()
        assert delta_q(ctx, PolyZ([3, Fraction(2, 7)])) == PolyZ([Fraction(2, 7)])
        for p in (PolyZ.monomial(2), PolyZ([0, 1, 0, 5]), PolyZ.monomial(2)):
            with pytest.raises(ExactModeError, match="exact q\\*\\*\\(-1/2\\) needs a rational square root"):
                delta_q(ctx, p)
        assert delta_q(ctx, PolyZ([0, 1])) == PolyZ([1])

    def test_cache_holds_scalar_rows_only(self, cold_store):
        # the ladder check reads polynomials off the rows and caches none of them
        ctx = cold_store(QContext.from_fourth_root(Fraction(2, 3), Fraction(1, 2)))
        for kind in (2, 3):
            assert all(entry["pass"] for entry in appell_check(ctx, kind, 12))
        cache = context_cache(ctx)
        rows = {(row, kind) for row in (_exp_row, _moments, _numbers, _factors) for kind in (2, 3)}
        assert set(cache) == rows | {(_factorials, 1), (_factors, 1)}
        for values, _ in cache.values():
            assert all(type(value) is Fraction for value in values)
        assert len(cache[_factors, 1][0]) == len(cache[_factors, 3][0]) == 13


class TestAppellCheck:
    def test_type1_degree_one(self):
        report = appell_check(ctx_q("1/2"), 1, 1)
        assert report == [{"kind": 1, "n": 1, "pass": True}]

    def test_type2_degree_one(self):
        report = appell_check(ctx_q("1/2"), 2, 1)
        assert report[0]["pass"]

    def test_type3_through_degree_eight(self):
        report = appell_check(ctx_q("1/4"), 3, 8)
        assert all(entry["pass"] for entry in report)
        assert [entry["n"] for entry in report] == list(range(1, 9))

    def test_report_is_json_ready(self):
        report = appell_check(ctx_q("1/4", "0"), 2, 3)
        parsed = json.loads(json.dumps(report))
        assert parsed == report

    def test_unknown_kind_raises(self):
        for kind in (0, 4):
            with pytest.raises(ValueError, match="kind must be 1, 2 or 3"):
                appell_check(ctx_q("1/4"), kind, 2)


def _perturbed(m, change):
    """bernoulli_poly_det with P_m replaced by change(P_m); every other degree is read as it is."""
    def poly(ctx, kind, n):
        p = bernoulli_poly_det(ctx, kind, n)
        return change(p) if n == m else p
    return poly


def _nudge(p, i=1):
    """p with its z**i coefficient moved by 10**-40."""
    coeffs = list(p.coeffs)
    coeffs[i] += Fraction(1, 10**40)
    return PolyZ(coeffs)


def _drop_leading(p):
    return PolyZ(p.coeffs[:-1])


class TestAppellCheckCatchesWrongPolynomials:
    # appell_check reads each degree through the module global qops.bernoulli_poly_det, so
    # rebinding it swaps one polynomial; P_m takes part in the checks of degrees m and m + 1 only
    CTX = QContext.from_fourth_root(Fraction(2, 3), Fraction(1, 2))

    @pytest.mark.parametrize("kind", [1, 2, 3])
    @pytest.mark.parametrize("m, i", [(1, 1), (4, 2), (6, 6)])
    def test_nudged_coefficient_fails_two_degrees(self, monkeypatch, kind, m, i):
        monkeypatch.setattr(qops, "bernoulli_poly_det", _perturbed(m, lambda p: _nudge(p, i)))
        report = appell_check(self.CTX, kind, 8)
        assert [entry["n"] for entry in report] == list(range(1, 9))
        assert all(type(entry["pass"]) is bool for entry in report)
        assert [entry["n"] for entry in report if not entry["pass"]] == [m, m + 1]

    @pytest.mark.parametrize("kind", [1, 2, 3])
    @pytest.mark.parametrize("m", [0, 3, 8])
    def test_dropped_leading_coefficient_fails_two_degrees(self, monkeypatch, kind, m):
        monkeypatch.setattr(qops, "bernoulli_poly_det", _perturbed(m, _drop_leading))
        report = appell_check(self.CTX, kind, 8)
        assert [entry["n"] for entry in report if not entry["pass"]] == [n for n in (m, m + 1) if 1 <= n <= 8]

    def test_constant_coefficient_takes_part_in_the_next_degree_only(self, monkeypatch):
        monkeypatch.setattr(qops, "bernoulli_poly_det", _perturbed(3, lambda p: _nudge(p, 0)))
        assert [entry["n"] for entry in appell_check(self.CTX, 2, 6) if not entry["pass"]] == [4]


LADDER_CONTEXTS = [
    QContext.from_fourth_root(Fraction(1, 2), Fraction(1, 2)),
    QContext.from_fourth_root(Fraction(2, 3), Fraction(-1, 2)),
    QContext.from_fourth_root(Fraction(3, 5), Fraction(1, 4)),
    QContext.from_q(Fraction(1, 4), Fraction(0)),
    QContext.from_fourth_root(Fraction(2, 3), Fraction(1)).reciprocal_base(),
]


@settings(max_examples=60, deadline=2000)
@given(
    st.sampled_from(LADDER_CONTEXTS),
    st.sampled_from([1, 2, 3]),
    st.integers(0, 8),
    st.one_of(
        st.none(),
        st.tuples(st.integers(0, 8), st.sampled_from(["nudge", "drop"]), st.integers(0, 8)),
    ),
)
def test_verdicts_equal_the_polynomial_predicate(ctx, kind, n_max, perturbation):
    # the reference builds both sides of op(P_n) = [n]_q P_(n-1) as polynomials
    if perturbation is None:
        poly = bernoulli_poly_det
    else:
        m, how, i = perturbation
        poly = _perturbed(m, _drop_leading if how == "drop" else lambda p: _nudge(p, min(i, p.degree)))
    polys = [poly(ctx, kind, n) for n in range(n_max + 1)]
    q_ints = [q_int(ctx, n) for n in range(n_max + 1)]
    expected = [_lower(ctx, kind, polys[n]) == q_ints[n] * polys[n - 1] for n in range(1, n_max + 1)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qops, "bernoulli_poly_det", poly)
        report = appell_check(ctx, kind, n_max)
    assert [entry["pass"] for entry in report] == expected
    assert report == [{"kind": kind, "n": n, "pass": v} for n, v in zip(range(1, n_max + 1), expected)]
