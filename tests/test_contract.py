"""The library's error contract over ``qbernoulli.__all__``.

A numeric argument (a kind, a degree, a point, a precision) that is junk
yields a result, a ``QBernError`` or a ``ValueError``, and nothing else.
An object of the wrong type where a context, stream, polynomial, series or
iterable of degrees belongs may also raise Python's own ``TypeError`` or
``AttributeError``.  Every call runs under a hard time limit, so a call that
spins fails the test instead of hanging it.  The call table is the one
``tools/replay.py`` replays.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from mpmath import mp

import qbernoulli
from qbernoulli import (
    CoefficientStream, DomainError, PolyZ, QBernError, QContext, TruncatedSeries, bernoulli_number,
    bessel_derivative_at, corollary_wrappers, eval_qtrig, growth_classify, leading_term, phi21, phi32,
    q_factorial, q_int, qfun, ratio_diagnostic,
)

_PATH = Path(__file__).resolve().parents[1] / "tools" / "replay.py"
_spec = importlib.util.spec_from_file_location("replay", _PATH)
replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay)

POOLS = replay.objects(qbernoulli)
LIMIT = 3.0  # seconds
WRONG_OBJECTS = (None, 3, "x", [1, 2], PolyZ([1, 2]), TruncatedSeries([1, 2]),
                 CoefficientStream.finite(["1"]), QContext.from_q(Fraction(1, 4), 0, 64))
CONTRACT = (QBernError, ValueError)


def call(name, args, allowed):
    """Run one call under the time limit; an exception outside allowed fails the test."""
    try:
        replay.call_with_limit(getattr(qbernoulli, name), args, LIMIT)
    except allowed:
        pass
    except replay.Timeout:
        pytest.fail("%s%r still running after %s s" % (name, tuple(args), LIMIT))


@st.composite
def junk_calls(draw, wrong_objects):
    """A call from the replay table with some numeric arguments junk, or, with wrong_objects,
    one object argument replaced by an object of the wrong type."""
    name = draw(st.sampled_from(sorted(replay.SIGNATURES)))
    spec = replay.SIGNATURES[name]
    objects = [i for i, pool in enumerate(spec) if isinstance(pool, (str, list))]
    spoiled = draw(st.sampled_from(objects)) if wrong_objects and objects else None
    args = []
    for i, pool in enumerate(spec):
        if i == spoiled:
            args.append(draw(st.sampled_from(WRONG_OBJECTS)))
        elif isinstance(pool, str):
            args.append(draw(st.sampled_from(POOLS[pool])))
        elif isinstance(pool, list):
            args.append(draw(st.sampled_from(pool) | st.lists(st.sampled_from(replay.JUNK), max_size=2)))
        else:
            args.append(draw(st.sampled_from(pool) | st.sampled_from(replay.JUNK)))
    return name, args


def test_the_table_covers_every_exported_function():
    functions = {name for name in qbernoulli.__all__ if not isinstance(getattr(qbernoulli, name), type)}
    assert set(replay.SIGNATURES) == functions


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(junk_calls(wrong_objects=False))
def test_junk_numbers_raise_only_library_errors(junk_call):
    call(*junk_call, CONTRACT)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(junk_calls(wrong_objects=True))
def test_wrong_objects_raise_python_type_errors(junk_call):
    call(*junk_call, CONTRACT + (TypeError, AttributeError))


# the exports that compute in mpmath, and so take a precision from the context or the caller
NUMERIC = ("bessel_derivative_at", "eval_Eq", "eval_bessel", "eval_eq", "eval_expq", "eval_modified_bessel",
           "eval_qtrig", "growth_classify", "leading_term", "named_trig_zero", "ratio_diagnostic",
           "reconstruct", "smallest_zero", "tau_estimate")


@settings(max_examples=60, deadline=None)
@given(st.integers(qfun.MAX_PRECISION_BITS + 1, 10**9), st.sampled_from(NUMERIC), st.data())
def test_precisions_past_the_cap_are_refused_at_once(bits, name, data):
    """A context's precision past the cap, or an explicit one, raises DomainError naming both
    before any series is summed; exact work on that context is served as before."""
    ctx = POOLS["ctx"][0]
    past = QContext(ctx.q, ctx.alpha, bits)
    args = [past]
    for pool in replay.SIGNATURES[name][1:]:
        args.append(data.draw(st.sampled_from(POOLS[pool] if isinstance(pool, str) else pool)))
    if name in ("smallest_zero", "named_trig_zero"):
        args[-1] = data.draw(st.sampled_from([None, bits]))
    message = "a precision of %d bits is past the cap of %d bits" % (bits, qfun.MAX_PRECISION_BITS)
    with pytest.raises(DomainError, match=message):
        replay.call_with_limit(getattr(qbernoulli, name), args, LIMIT)
    if name in ("smallest_zero", "named_trig_zero"):
        args[0], args[-1] = ctx, bits
        with pytest.raises(DomainError, match=message):
            replay.call_with_limit(getattr(qbernoulli, name), args, LIMIT)
    assert bernoulli_number(past, 2, 4) == bernoulli_number(ctx, 2, 4)


def test_replay_marks_and_resets_a_precision_left_behind():
    assert replay.drift() == ""
    mp.prec = 61
    assert replay.drift() == " [mp.prec=61]"
    assert mp.prec == 53


def test_a_replay_that_cannot_run_exits_2():
    # 1 means that calls differ, so CI can fail a crash and still only report a difference
    with pytest.raises(SystemExit) as stop:
        replay.main(["--against", "no-such-rev"])
    assert stop.value.code == 2


def test_a_short_replay_repeats_itself():
    # the second run reads warm caches; every line, CLI calls included, must stay the same
    first, second = (list(replay.replay(seed=5, count=80, limit=LIMIT)) for _ in range(2))
    assert len(first) == 100
    assert first == second
    assert not [line for line in first if line.endswith("! timeout")]


class TestRegressions:
    """One case per defect that the argument checks mend."""

    ctx = QContext.from_fourth_root(Fraction(1, 2), Fraction(1, 2), 64)

    def test_an_infinite_degree_is_refused(self):
        # it used to extend the factorial row for ever
        with pytest.raises(ValueError, match="n must be an integer >= 0, got inf"):
            replay.call_with_limit(q_factorial, (self.ctx, float("inf")), LIMIT)

    def test_a_bool_is_neither_degree_nor_kind(self):
        # True read degree 1 (-1/2), and a warm kind-1 row served kind True
        with pytest.raises(ValueError, match="n must be an integer >= 0, got True"):
            bernoulli_number(self.ctx, 2, True)
        bernoulli_number(self.ctx, 1, 3)
        with pytest.raises(ValueError, match="kind must be 1, 2 or 3, got True"):
            bernoulli_number(self.ctx, True, 3)

    def test_a_float_degree_is_refused_on_the_exact_path(self):
        # q_int(ctx, 2.0) returned the float 1.0625
        with pytest.raises(ValueError, match="n must be an integer >= 0, got 2.0"):
            q_int(self.ctx, 2.0)

    def test_a_trig_kind_must_be_a_qtrig_kind(self):
        # None raised KeyError
        for kind in (None, "Sin_q", 1):
            with pytest.raises(ValueError, match="kind must be QTrigKind.sin_q, .* or QTrigKind.C_q"):
                eval_qtrig(self.ctx, kind, Fraction(1, 3))

    def test_an_infinite_point_is_a_domain_error(self):
        # both raised OverflowError (nan: a bare ValueError)
        stream = CoefficientStream.finite(["1", "1/2"])
        for bad in (float("inf"), float("nan")):
            with pytest.raises(DomainError, match="z must be a finite rational"):
                ratio_diagnostic(self.ctx, 2, bad, [4])
            with pytest.raises(DomainError, match="k must be a finite rational"):
                growth_classify(self.ctx, stream, bad, 0)
            with pytest.raises(DomainError, match="gamma must be a finite rational"):
                growth_classify(self.ctx, stream, 1, bad)

    def test_junk_in_the_numeric_leftovers(self):
        stream = CoefficientStream.finite(["1", "1/2"])
        for bad in (None, "x"):
            with pytest.raises(ValueError, match="n must be an integer >= 0"):
                leading_term(self.ctx, 2, bad, Fraction(1, 4))
            with pytest.raises(DomainError, match="expected a finite real number"):
                bessel_derivative_at(self.ctx, 2, bad)
            with pytest.raises(ValueError, match="N must be an integer >= 0"):
                corollary_wrappers(self.ctx, stream, "bernoulli", bad)
        with pytest.raises(ValueError, match="N must be >= 0, got -1"):
            corollary_wrappers(self.ctx, stream, "euler", -1)

    def test_a_non_terminating_sum_raises_at_once(self):
        # with no term count these spun through 10,000 ever longer rationals
        third, fifth, seventh = Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)
        message = "does not terminate: no upper parameter is q\\*\\*-k"
        with pytest.raises(QBernError, match=message):
            replay.call_with_limit(phi32, (self.ctx, third, third, third, fifth, seventh, third), 1.0)
        with pytest.raises(QBernError, match=message):
            replay.call_with_limit(phi21, (self.ctx, third, fifth, seventh, third, None), 1.0)
        # an upper parameter q**-2 ends the sum after three terms, also in base 1/q
        for ctx in (self.ctx, self.ctx.reciprocal_base()):
            args = (ctx, ctx.q**-2, third, fifth, seventh)
            assert phi21(*args, None) == phi21(*args, 2) == phi21(*args, 5) != phi21(*args, 1)
