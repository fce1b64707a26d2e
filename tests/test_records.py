"""The contract of ``qcore.Record``, the base of the library's seven immutable records.

Each record is checked against a frozen dataclass built here with the same
fields, in the same order, as the reference for equality, hashing and repr:
the records keep those semantics without importing ``dataclasses``.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest
from mpmath import mpf

from qbernoulli import (
    AsymptoticTerm, CoefficientStream, GrowthVerdict, QContext, RatioRow, ZeroResult, qcore,
)
from qbernoulli.asympt import _Frame

# class -> (the fields __init__ takes, which equality and hashing compare; the derived fields repr
# also prints), as the dataclasses these records replace declared them
FIELDS = {
    QContext: (("q", "alpha", "float_precision_bits"), ("sqrt_q", "fourth_root_q")),
    ZeroResult: (("location", "certified_interval", "residual"), ()),
    AsymptoticTerm: (("value", "parity", "n", "components"), ()),
    _Frame: (("constant", "constant_width", "prefactor", "derivative",
              "cos_at_c", "cos_bound", "sin_at_c", "sin_bound"), ()),
    RatioRow: (("n", "exact_value", "float_value", "leading", "abs_ratio_minus_1", "flag"), ()),
    CoefficientStream: (("coefficients", "tail_kind", "tail_ratio"), ()),
    GrowthVerdict: (("min_K", "order", "type_gamma", "advisory", "tau_bound"), ()),
}

HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)

# each record built positionally, with its defaults, and by keyword
EXAMPLES = [
    QContext(Fraction(1, 16), HALF),
    QContext(q=Fraction(1, 3), alpha=0, float_precision_bits=64),
    ZeroResult(mpf(2), (mpf(1), mpf(3)), mpf("1e-30")),
    ZeroResult(location=mpf(2), certified_interval=(mpf(1), mpf(3)), residual=mpf(0)),
    AsymptoticTerm(mpf(-1), "odd", 3, {"sign": -1}),
    _Frame(*map(mpf, range(8))),
    RatioRow(2, QUARTER, mpf(0.25), mpf(0.5), mpf(1)),
    RatioRow(n=3, exact_value=HALF, float_value=mpf(0.5), leading=mpf(0), abs_ratio_minus_1=None,
             flag="indeterminate"),
    CoefficientStream(("1", HALF)),
    CoefficientStream(coefficients=[1], tail_kind="geometric", tail_ratio="1/3"),
    GrowthVerdict(mpf(2), Fraction(1), HALF, "advice"),
    GrowthVerdict(min_K=mpf(2), order=HALF, type_gamma=0, advisory="advice", tau_bound=mpf(1)),
]


def reference(record):
    """A frozen dataclass of the record's class name and fields, holding its values."""
    compared, derived = FIELDS[type(record)]
    cls = dataclasses.make_dataclass(
        type(record).__qualname__,
        list(compared) + [(name, object, dataclasses.field(compare=False)) for name in derived],
        frozen=True)
    return cls(*(getattr(record, name) for name in compared + derived))


def compared_values(record) -> tuple:
    return tuple(getattr(record, name) for name in FIELDS[type(record)][0])


def test_every_record_is_one():
    assert {type(record) for record in EXAMPLES} == set(FIELDS)
    for record in EXAMPLES:
        assert isinstance(record, qcore.Record) and not hasattr(record, "__dict__")  # slotted


def test_defaults():
    assert QContext(Fraction(1, 16), HALF).float_precision_bits == 128
    assert RatioRow(2, QUARTER, mpf(0.25), mpf(0.5), mpf(1)).flag is None
    stream = CoefficientStream(("1", HALF))
    assert (stream.tail_kind, stream.tail_ratio, stream.coefficients) == ("finite", None, (1, HALF))
    assert GrowthVerdict(mpf(2), Fraction(1), HALF, "advice").tau_bound is None


@pytest.mark.parametrize("record", EXAMPLES, ids=lambda r: type(r).__name__)
class TestContract:
    def test_fields_are_frozen(self, record):
        name = FIELDS[type(record)][0][0]
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1
        assert getattr(record, name) is before

    def test_equality_and_hash_follow_the_compared_fields(self, record):
        twin = type(record)(*compared_values(record))
        assert twin == record and not twin != record and twin is not record
        assert compared_values(twin) == compared_values(record)
        ref = reference(record)
        try:
            expected = hash(compared_values(record))
        except TypeError:  # a field that is a dict: the dataclass is unhashable too
            with pytest.raises(TypeError):
                hash(ref)
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(twin) == hash(ref) == expected
        # a record of another class is never equal, the reference dataclass of the same values included
        assert record != ref and ref != record
        assert record != compared_values(record)
        assert all(record != other for other in EXAMPLES if type(other) is not type(record))

    def test_repr_is_the_dataclass_repr(self, record):
        assert repr(record) == repr(reference(record))

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copies_rebuild_an_equal_record(self, record, clone):
        again = clone(record)
        assert type(again) is type(record) and again == record
        assert repr(again) == repr(record)


def test_repr_literals():
    assert repr(QContext.from_fourth_root(HALF, HALF)) == (
        "QContext(q=Fraction(1, 16), alpha=Fraction(1, 2), float_precision_bits=128,"
        " sqrt_q=Fraction(1, 4), fourth_root_q=Fraction(1, 2))")
    assert repr(QContext(q=Fraction(1, 3), alpha=0, float_precision_bits=64)) == (
        "QContext(q=Fraction(1, 3), alpha=Fraction(0, 1), float_precision_bits=64,"
        " sqrt_q=None, fourth_root_q=None)")
    assert repr(ZeroResult(mpf(2), (mpf(1), mpf(3)), mpf(0))) == (
        "ZeroResult(location=mpf('2.0'), certified_interval=(mpf('1.0'), mpf('3.0')), residual=mpf('0.0'))")


def test_a_record_holding_a_nan_equals_itself():
    # tuples compare by identity first, as the dataclasses' __eq__ did
    nan = float("nan")
    assert ZeroResult(nan, (nan, nan), nan) == ZeroResult(nan, (nan, nan), nan)
    assert ZeroResult(nan, (nan, nan), nan) != ZeroResult(float("nan"), (nan, nan), nan)


def test_a_copied_context_keeps_its_derived_slots():
    ctx = QContext.from_fourth_root(Fraction(2, 3), QUARTER, 64)
    for again in (copy.copy(ctx), copy.deepcopy(ctx), pickle.loads(pickle.dumps(ctx))):
        assert (again.sqrt_q, again.fourth_root_q, again.store_key) == (
            ctx.sqrt_q, ctx.fourth_root_q, ctx.store_key)
        assert qcore.context_cache(again) is qcore.context_cache(ctx)


def test_derived_contexts_derive_their_roots_and_store_key_again():
    ctx = QContext.from_fourth_root(Fraction(2, 3), 0, 64)
    rec = ctx.reciprocal_base()
    assert (rec.q, rec.sqrt_q, rec.fourth_root_q) == (Fraction(81, 16), Fraction(9, 4), Fraction(3, 2))
    assert (rec.alpha, rec.float_precision_bits, rec.store_key) == (0, 64, (81, 16, 0, 1))
    moved = ctx.with_alpha(QUARTER)
    assert (moved.q, moved.sqrt_q, moved.fourth_root_q) == (ctx.q, ctx.sqrt_q, ctx.fourth_root_q)
    assert (moved.alpha, moved.float_precision_bits, moved.store_key) == (QUARTER, 64, (16, 81, 1, 4))
    assert moved == QContext(Fraction(16, 81), QUARTER, 64) and moved != ctx
    # a q with no rational square root has none after either step
    plain = QContext.from_q(Fraction(1, 2), 0).with_alpha(1)
    assert (plain.sqrt_q, plain.fourth_root_q, plain.store_key) == (None, None, (1, 2, 1, 1))
    assert plain.reciprocal_base().sqrt_q is None
