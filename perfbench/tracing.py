"""Spans and counters for the traced run, recorded from outside the library.

``install`` rebinds each traced public function's name in the module that
defines it and in every module that imported it by name, so that calls
from the benchmark and from inside the library both pass through one
wrapper.  A wrapper records a span (name, start, end, parent span,
request id) and counts its calls; a call made while a span of the same
name is open is a recursive self-call and goes straight through.  A
span's self time is its duration minus the time its child spans cover.

Nothing in the library changes; the wrappers live only in the traced
process.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

# per-layer metrics, in report order: (name, unit)
LAYER_METRICS = (
    ("detrep.poly_det.self_s", "s"),
    ("detrep.poly_det.calls", "count"),
    ("detrep.poly_det.repeat_share", "ratio"),
    ("detrep.number.self_s", "s"),
    ("detrep.poly_value.self_s", "s"),
    ("detrep.mu.self_s", "s"),
    ("detrep.mu.calls", "count"),
    ("detrep.mu.repeat_share", "ratio"),
    ("detrep.max_bits", "bits"),
    ("series.oracle.self_s", "s"),
    ("series.expq_reciprocal.calls", "count"),
    ("series.expq_reciprocal.self_s", "s"),
    ("qcore.q_binomial.calls", "count"),
    ("qcore.q_factorial.calls", "count"),
    ("qcore.q_factorial.repeat_share", "ratio"),
    ("qops.appell_check.self_s", "s"),
    ("qfun.certified_sum.calls", "count"),
    ("qfun.certified_sum.self_s", "s"),
    ("qfun.certified_sum.terms", "count"),
    ("qfun.certified_sum.max_workprec", "bits"),
    ("qfun.modified_bessel.calls", "count"),
    ("qfun.qtrig.calls", "count"),
    ("asympt.smallest_zero.self_s", "s"),
    ("asympt.smallest_zero.repeat_share", "ratio"),
    ("asympt.bracket.evals", "count"),
    ("asympt.bisect.evals", "count"),
    ("asympt.sign_escalations", "count"),
    ("asympt.named_trig_zero.self_s", "s"),
    ("asympt.leading_term.self_s", "s"),
    ("asympt.ratio_diagnostic.self_s", "s"),
    ("expand.l_coefficients.self_s", "s"),
    ("expand.reconstruct_poly.self_s", "s"),
    ("expand.reconstruct.self_s", "s"),
    ("cli.process_s", "s"),
    ("cli.startup_s", "s"),
    ("cli.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("trace.overhead", "ratio"),
)


def _ctx_key(ctx, *rest):
    return (ctx,) + rest


def _zero_key(ctx, kind, precision=None):
    return (ctx.q, ctx.alpha, kind, ctx.float_precision_bits if precision is None else precision)


def _bits(value) -> int:
    values = value.coeffs if hasattr(value, "coeffs") else (value,)
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values
         if isinstance(v, Fraction)),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, request id)
        self.request = None
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._open = []  # [span index, seconds covered by child spans]
        self._depth = defaultdict(int)
        self._seen = defaultdict(set)

    def span(self, name, fn, key=None, bits=False):
        """``fn`` wrapped in a span called ``name``.

        ``key`` maps the call's arguments to a hashable value; calls whose
        key was seen before count as repeats.  With ``bits``, the largest
        numerator or denominator bit length of the result feeds
        ``detrep.max_bits``.
        """

        def traced(*args, **kwargs):
            if self._depth[name]:
                return fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            repeat = False
            if key is not None:
                k = key(*args, **kwargs)
                repeat = k in self._seen[name]
                if repeat:
                    self.counts[name + ".repeats"] += 1
                else:
                    self._seen[name].add(k)
            parent = self._open[-1][0] if self._open else None
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            self._open.append(frame)
            self._depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._depth[name] -= 1
                self._open.pop()
                self.spans[frame[0]] = (name, start, end, parent, self.request)
                self.self_s[name] += end - start - frame[1]
                if self._open:
                    self._open[-1][1] += end - start
            if bits and not repeat:
                self.maxima["detrep.max_bits"] = max(self.maxima["detrep.max_bits"], _bits(result))
            return result

        return traced

    def counted_evaluate(self, phase, evaluate, precision):
        """An ``evaluate(x, wp)`` that counts its calls, and those above the
        requested precision's working precision as sign escalations."""

        def counting(x, wp):
            self.counts[phase + ".evals"] += 1
            if wp > precision + 40:
                self.counts["asympt.sign_escalations"] += 1
            return evaluate(x, wp)

        return counting

    def layer_metrics(self) -> dict:
        """The traced part of LAYER_METRICS, for one pass."""
        out = {}
        for metric, _unit in LAYER_METRICS:
            layer, _, stat = metric.rpartition(".")
            if stat == "self_s":
                out[metric] = self.self_s[layer]
            elif stat == "repeat_share":
                calls = self.counts[layer + ".calls"]
                out[metric] = self.counts[layer + ".repeats"] / calls if calls else 0.0
            elif stat in ("max_bits", "max_workprec"):
                out[metric] = self.maxima[metric]
            elif metric.startswith(("cli.", "trace.")):
                continue
            else:
                out[metric] = self.counts[metric]
        return out


def install(tracer: Tracer) -> None:
    """Rebind the traced functions in every loaded library module."""
    from qbernoulli import asympt, detrep, expand, qcore, qfun, qops, series

    cli = sys.modules.get("qbernoulli.cli")
    # (span name, defining module, function, importers, key, bits)
    table = (
        ("detrep.poly_det", detrep, "bernoulli_poly_det", (qops, expand, cli), _ctx_key, True),
        ("detrep.number", detrep, "bernoulli_number", (cli,), None, True),
        ("detrep.poly_value", detrep, "bernoulli_poly_value", (asympt,), None, True),
        ("detrep.mu", detrep, "mu", (expand,), _ctx_key, False),
        ("series.oracle", series, "oracle_bernoulli", (cli,), None, False),
        ("series.expq_reciprocal", series, "expq_reciprocal_series", (detrep,), None, False),
        ("qcore.q_binomial", qcore, "q_binomial", (detrep,), None, False),
        ("qcore.q_factorial", qcore, "q_factorial", (detrep, series, qfun, asympt, expand),
         _ctx_key, False),
        ("qops.appell_check", qops, "appell_check", (), None, False),
        ("qfun.modified_bessel", qfun, "modified_bessel_certified", (asympt,), None, False),
        ("qfun.qtrig", qfun, "qtrig_certified", (asympt,), None, False),
        ("asympt.smallest_zero", asympt, "smallest_zero", (), _zero_key, False),
        ("asympt.named_trig_zero", asympt, "named_trig_zero", (), None, False),
        ("asympt.leading_term", asympt, "leading_term", (), None, False),
        ("asympt.ratio_diagnostic", asympt, "ratio_diagnostic", (), None, False),
        ("expand.l_coefficients", expand, "l_coefficients", (), None, False),
        ("expand.reconstruct_poly", expand, "reconstruct_poly", (), None, False),
        ("expand.reconstruct", expand, "reconstruct", (), None, False),
    )
    for name, home, attr, importers, key, bits in table:
        wrapper = tracer.span(name, getattr(home, attr), key=key, bits=bits)
        for module in (home,) + importers:
            if module is not None:
                setattr(module, attr, wrapper)

    summed = tracer.span("qfun.certified_sum", qfun.certified_sum)

    def certified_sum(first_term, step, workprec, *args, **kwargs):
        metric = "qfun.certified_sum.max_workprec"
        tracer.maxima[metric] = max(tracer.maxima[metric], workprec)

        def counted_step(n, term):
            tracer.counts["qfun.certified_sum.terms"] += 1
            return step(n, term)

        return summed(first_term, counted_step, workprec, *args, **kwargs)

    qfun.certified_sum = certified_sum

    bracket, bisect = asympt.bracket_first_zero, asympt.bisect_zero

    def bracket_first_zero(evaluate, initial_step, precision, *args, **kwargs):
        counting = tracer.counted_evaluate("asympt.bracket", evaluate, precision)
        return bracket(counting, initial_step, precision, *args, **kwargs)

    def bisect_zero(evaluate, lo, hi, precision):
        return bisect(tracer.counted_evaluate("asympt.bisect", evaluate, precision), lo, hi, precision)

    asympt.bracket_first_zero = bracket_first_zero
    asympt.bisect_zero = bisect_zero
