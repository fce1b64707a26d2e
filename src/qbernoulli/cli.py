"""Command-line front end: polynomial tables, number tables, zero tables,
asymptotic diagnostics, and basis expansions, as JSON or CSV on stdout.

Exact payload entries are rational strings ("p/r"); approximate entries
are decimal strings tagged with their binary precision ("...@128b").
Diagnostics go to stderr; exit codes are 0 on success, 2 on usage errors,
3 on domain or numeric failures.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import click
import mpmath

from . import asympt as asympt_mod
from . import expand as expand_mod
from .detrep import bernoulli_number, bernoulli_poly_det
from .qcore import QBernError, QContext
from .series import oracle_bernoulli

EXIT_DOMAIN = 3


def _parse_rational(text: str, label: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError("%s must be a rational like 'p/r', got %r" % (label, text))


def _context(q_quarter, q_value, alpha, precision) -> QContext:
    if (q_quarter is None) == (q_value is None):
        raise click.UsageError("supply exactly one of --q-quarter or --q")
    alpha = _parse_rational(alpha, "--alpha")
    try:
        if q_quarter is not None:
            return QContext.from_fourth_root(
                _parse_rational(q_quarter, "--q-quarter"), alpha, precision
            )
        ctx = QContext.from_q(_parse_rational(q_value, "--q"), alpha, precision)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if ctx.fourth_root_q is None:
        click.echo(
            "warning: q^(1/4) of q=%s is irrational; exact operations needing it"
            " fail with exit code 3" % ctx.q,
            err=True,
        )
    return ctx


def _fmt_float(x, precision: int) -> str:
    digits = mpmath.libmp.prec_to_dps(precision) + 3
    return "%s@%db" % (mpmath.nstr(x, digits), precision)


def _emit_json(record: dict):
    click.echo(json.dumps(record, indent=2))


def _emit_csv(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    click.echo(buffer.getvalue(), nl=False)


def _record(command: str, parameters: dict, payload, fmt: str) -> dict:
    return {"command": command, "parameters": parameters, "format": fmt, "payload": payload}


def _echo_params(ctx: QContext, **extra) -> dict:
    params = {
        "q": str(ctx.q),
        "q_quarter": None if ctx.fourth_root_q is None else str(ctx.fourth_root_q),
        "alpha": str(ctx.alpha),
        "precision_bits": ctx.float_precision_bits,
    }
    params.update(extra)
    return params


def common_options(f):
    for option in reversed(
        [
            click.option("--alpha", default="1/2", show_default=True, help="order parameter, rational"),
            click.option("--q-quarter", "q_quarter", default=None, help="exact fourth root of q (rational)"),
            click.option("--q", "q_value", default=None, help="base q directly (rational; exact roots detected)"),
            click.option("--precision", default=128, show_default=True, type=int, help="float precision in bits"),
        ]
    ):
        f = option(f)
    return f


class _Main(click.Group):
    """The one error boundary: a library error (QBernError) in any
    subcommand prints "error: <message>" on stderr and exits 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except QBernError as exc:
            click.echo("error: %s" % exc, err=True)
            ctx.exit(EXIT_DOMAIN)


def _table(n_max: int, via: str, det, oracle) -> list[dict]:
    """Rows n = 0..n_max holding det(n), oracle(n), or both and whether
    they match."""
    rows = []
    for n in range(n_max + 1):
        row = {"n": n}
        if via in ("det", "both"):
            row["det"] = det(n)
        if via in ("oracle", "both"):
            row["oracle"] = oracle(n)
        if via == "both":
            row["match"] = row["det"] == row["oracle"]
        rows.append(row)
    return rows


@click.group(cls=_Main)
def main():
    """Generalized q-Bernoulli polynomial toolkit."""


@main.command("poly")
@common_options
@click.option("--kind", type=click.IntRange(1, 3), required=True)
@click.option("--n", "n_max", type=click.IntRange(min=0), required=True, help="largest degree")
@click.option("--via", type=click.Choice(["det", "oracle", "both"]), default="det", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
def cmd_poly(q_quarter, q_value, alpha, precision, kind, n_max, via, fmt):
    """Polynomial coefficient tables for degrees 0..N."""
    ctx = _context(q_quarter, q_value, alpha, precision)
    rows = _table(
        n_max,
        via,
        lambda n: bernoulli_poly_det(ctx, kind, n).to_strings(),
        lambda n: oracle_bernoulli(ctx, kind, n).to_strings(),
    )
    params = _echo_params(ctx, kind=kind, n=n_max, via=via)
    if fmt == "json":
        _emit_json(_record("poly", params, rows, fmt))
        return
    header = ["n", "source"] + ["z^%d" % j for j in range(n_max + 1)] + ["match"]
    flat = []
    for row in rows:
        for source in ("det", "oracle"):
            if source not in row:
                continue
            coeffs = row[source] + ["0"] * (n_max + 1 - len(row[source]))
            flat.append([row["n"], source] + coeffs + [str(row.get("match", "")).lower()])
    _emit_csv(header, flat)


@main.command("numbers")
@common_options
@click.option("--kind", type=click.IntRange(1, 3), required=True)
@click.option("--n", "n_max", type=click.IntRange(min=0), required=True, help="largest index")
@click.option("--via", type=click.Choice(["det", "oracle", "both"]), default="det", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
def cmd_numbers(q_quarter, q_value, alpha, precision, kind, n_max, via, fmt):
    """Number tables (the polynomials at z = 0) for indices 0..N."""
    ctx = _context(q_quarter, q_value, alpha, precision)
    rows = _table(
        n_max,
        via,
        lambda n: str(bernoulli_number(ctx, kind, n)),
        lambda n: str(oracle_bernoulli(ctx, kind, n).coefficient(0)),
    )
    params = _echo_params(ctx, kind=kind, n=n_max, via=via)
    if fmt == "json":
        _emit_json(_record("numbers", params, rows, fmt))
        return
    header = ["n", "det", "oracle", "match"]
    flat = [
        [r["n"], r.get("det", ""), r.get("oracle", ""), str(r.get("match", "")).lower()]
        for r in rows
    ]
    _emit_csv(header, flat)


_ZERO_NAMES = {2: ("Sin_q", "Cos_q"), 3: ("S_q", "C_q_scaled")}


@main.command("zeros")
@common_options
@click.option("--kind", type=click.IntRange(2, 3), required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
def cmd_zeros(q_quarter, q_value, alpha, precision, kind, fmt):
    """First q-Bessel zero for this context plus the named trig zeros."""
    ctx = _context(q_quarter, q_value, alpha, precision)
    entries = [("bessel_first_zero", asympt_mod.smallest_zero(ctx, kind))]
    for name in _ZERO_NAMES[kind]:
        entries.append((name, asympt_mod.named_trig_zero(ctx, name)))
    rows = [
        {
            "name": name,
            "location": _fmt_float(res.location, precision),
            "interval_lo": _fmt_float(res.certified_interval[0], precision),
            "interval_hi": _fmt_float(res.certified_interval[1], precision),
            "residual": _fmt_float(res.residual, precision),
        }
        for name, res in entries
    ]
    params = _echo_params(ctx, kind=kind)
    if fmt == "json":
        _emit_json(_record("zeros", params, rows, fmt))
        return
    header = ["name", "location", "interval_lo", "interval_hi", "residual"]
    _emit_csv(header, [[r[h] for h in header] for r in rows])


@main.command("asympt")
@common_options
@click.option("--kind", type=click.IntRange(2, 3), required=True)
@click.option("--z", default="1/4", show_default=True, help="evaluation point, rational")
@click.option("--n-max", "n_max", type=click.IntRange(min=1), required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="csv", show_default=True)
def cmd_asympt(q_quarter, q_value, alpha, precision, kind, z, n_max, fmt):
    """Exact values against leading asymptotic terms for n = 1..N."""
    ctx = _context(q_quarter, q_value, alpha, precision)
    z = _parse_rational(z, "--z")
    rows = asympt_mod.ratio_diagnostic(ctx, kind, z, range(1, n_max + 1))
    decreasing = all(
        later.abs_ratio_minus_1 < earlier.abs_ratio_minus_1
        for earlier, later in zip(rows, rows[2:])
        if earlier.abs_ratio_minus_1 is not None and later.abs_ratio_minus_1 is not None
    )
    click.echo("decreasing_trend=%s" % str(decreasing).lower(), err=True)
    table = [
        [
            row.n,
            str(row.exact_value),
            _fmt_float(row.float_value, precision),
            _fmt_float(row.leading, precision),
            "indeterminate" if row.flag else _fmt_float(row.abs_ratio_minus_1, precision),
        ]
        for row in rows
    ]
    params = _echo_params(ctx, kind=kind, z=str(z), n_max=n_max)
    if fmt == "json":
        payload = [
            dict(zip(["n", "exact_value", "float_value", "leading_term", "abs_ratio_minus_1"], r))
            for r in table
        ]
        _emit_json(_record("asympt", params, payload, fmt))
        return
    _emit_csv(["n", "exact_value", "float_value", "leading_term", "abs_ratio_minus_1"], table)


@main.command("expand")
@common_options
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--terms", "n_terms", type=click.IntRange(min=0), required=True, help="largest coefficient index N")
@click.option("--at", "at_point", default=None, help="also reconstruct at this rational point")
def cmd_expand(q_quarter, q_value, alpha, precision, input_path, n_terms, at_point):
    """Expansion coefficients L_0..L_N of a coefficient stream."""
    ctx = _context(q_quarter, q_value, alpha, precision)
    try:
        with open(input_path, "r", encoding="utf-8") as handle:
            stream = expand_mod.CoefficientStream.from_json(handle.read())
        ls = expand_mod.l_coefficients(ctx, stream, n_terms)
        payload = {"l_coefficients": [str(v) for v in ls]}
        if stream.tail_kind == "geometric":
            bound = max(expand_mod.l_truncation_bound(ctx, stream, n) for n in range(n_terms + 1))
            with mpmath.mp.workprec(precision):
                payload["truncation_bound"] = _fmt_float(
                    mpmath.mpf(bound.numerator) / mpmath.mpf(bound.denominator), precision
                )
        if at_point is not None:
            z = _parse_rational(at_point, "--at")
            value = expand_mod.reconstruct(ctx, stream, z, n_terms)
            payload["reconstruction"] = {
                "at": str(z),
                "value": _fmt_float(value, precision),
            }
            if stream.tail_kind == "finite":
                payload["reconstruction"]["exact_identity"] = (
                    expand_mod.reconstruct_poly(ctx, stream, n_terms) == stream.as_polynomial()
                )
    except ValueError as exc:
        raise click.UsageError("bad stream file: %s" % exc)
    params = _echo_params(ctx, terms=n_terms, input=str(input_path))
    _emit_json(_record("expand", params, payload, "json"))


if __name__ == "__main__":
    main()
