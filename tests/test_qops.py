import json
from fractions import Fraction

import pytest

from qbernoulli import (
    PolyZ,
    QContext,
    appell_check,
    delta_q,
    dq,
    dq_inverse_base,
    q_int,
)


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
