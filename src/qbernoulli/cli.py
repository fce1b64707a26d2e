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

# mpmath, asympt and expand are imported inside the commands that use them,
# so that poly, numbers and --help start without loading the numeric modules
from .detrep import bernoulli_number, bernoulli_poly_det
from .qcore import QBernError, QContext
from .series import oracle_bernoulli

EXIT_DOMAIN = 3
MAX_STREAM_BYTES = 1 << 24  # expand reads at most 16 MiB of --input; a longer file is a usage error


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
    import mpmath

    digits = mpmath.libmp.prec_to_dps(precision) + 3
    return "%s@%db" % (mpmath.nstr(x, digits), precision)


def _cell(value):
    """A CSV cell: an absent field is empty and a boolean is lower case."""
    if value is None:
        return ""
    return str(value).lower() if isinstance(value, bool) else value


def _emit(command: str, params: dict, fmt: str, payload, header, rows=None):
    """Every subcommand's one output: the JSON record of its payload, or the CSV
    table with header, whose rows default to the payload's fields in header order."""
    if fmt == "json":
        record = {"command": command, "parameters": params, "format": fmt, "payload": payload}
        click.echo(json.dumps(record, indent=2))
        return
    if rows is None:
        rows = [[_cell(row.get(field)) for field in header] for row in payload]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    click.echo(buffer.getvalue(), nl=False)


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
    """Rows n = 0..n_max: det(n), oracle(n), or both and whether they match.
    det runs first, so its error is the one reported if both routes fail."""
    rows = [{"n": n} for n in range(n_max + 1)]
    if via in ("det", "both"):
        for row in rows:
            row["det"] = det(row["n"])
    if via in ("oracle", "both"):
        for row in rows:
            row["oracle"] = oracle(row["n"])
            if via == "both":
                row["match"] = row["det"] == row["oracle"]
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
    rows = _table(n_max, via, lambda n: bernoulli_poly_det(ctx, kind, n).to_strings(),
                  lambda n: oracle_bernoulli(ctx, kind, n).to_strings())
    header = ["n", "source"] + ["z^%d" % j for j in range(n_max + 1)] + ["match"]
    flat = (  # read only for CSV: one row per route and degree, zero-padded to z^N
        [row["n"], source, *row[source]] + ["0"] * (n_max + 1 - len(row[source])) + [_cell(row.get("match"))]
        for row in rows
        for source in ("det", "oracle")
        if source in row
    )
    _emit("poly", _echo_params(ctx, kind=kind, n=n_max, via=via), fmt, rows, header, flat)


@main.command("numbers")
@common_options
@click.option("--kind", type=click.IntRange(1, 3), required=True)
@click.option("--n", "n_max", type=click.IntRange(min=0), required=True, help="largest index")
@click.option("--via", type=click.Choice(["det", "oracle", "both"]), default="det", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
def cmd_numbers(q_quarter, q_value, alpha, precision, kind, n_max, via, fmt):
    """Number tables (the polynomials at z = 0) for indices 0..N."""
    ctx = _context(q_quarter, q_value, alpha, precision)
    rows = _table(n_max, via, lambda n: str(bernoulli_number(ctx, kind, n)),
                  lambda n: str(oracle_bernoulli(ctx, kind, n).coefficient(0)))
    params = _echo_params(ctx, kind=kind, n=n_max, via=via)
    _emit("numbers", params, fmt, rows, ["n", "det", "oracle", "match"])


@main.command("zeros")
@common_options
@click.option("--kind", type=click.IntRange(2, 3), required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
def cmd_zeros(q_quarter, q_value, alpha, precision, kind, fmt):
    """First q-Bessel zero for this context plus the named trig zeros."""
    from . import asympt as asympt_mod

    ctx = _context(q_quarter, q_value, alpha, precision)
    entries = [("bessel_first_zero", asympt_mod.smallest_zero(ctx, kind))]
    for name, (bessel_kind, *_) in asympt_mod._NAMED.items():
        if bessel_kind == kind:
            entries.append((name, asympt_mod.named_trig_zero(ctx, name)))
    header = ["name", "location", "interval_lo", "interval_hi", "residual"]
    rows = [
        dict(zip(header, [name] + [
            _fmt_float(x, precision) for x in (res.location, *res.certified_interval, res.residual)
        ]))
        for name, res in entries
    ]
    _emit("zeros", _echo_params(ctx, kind=kind), fmt, rows, header)


@main.command("asympt")
@common_options
@click.option("--kind", type=click.IntRange(2, 3), required=True)
@click.option("--z", default="1/4", show_default=True, help="evaluation point, rational")
@click.option("--n-max", "n_max", type=click.IntRange(min=1), required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="csv", show_default=True)
def cmd_asympt(q_quarter, q_value, alpha, precision, kind, z, n_max, fmt):
    """Exact values against leading asymptotic terms for n = 1..N."""
    from . import asympt as asympt_mod

    ctx = _context(q_quarter, q_value, alpha, precision)
    z = _parse_rational(z, "--z")
    rows = asympt_mod.ratio_diagnostic(ctx, kind, z, range(1, n_max + 1))
    decreasing = all(
        later.abs_ratio_minus_1 < earlier.abs_ratio_minus_1
        for earlier, later in zip(rows, rows[2:])
        if earlier.abs_ratio_minus_1 is not None and later.abs_ratio_minus_1 is not None
    )
    click.echo("decreasing_trend=%s" % str(decreasing).lower(), err=True)
    header = ["n", "exact_value", "float_value", "leading_term", "abs_ratio_minus_1"]
    payload = [
        dict(zip(header, [
            row.n,
            str(row.exact_value),
            _fmt_float(row.float_value, precision),
            _fmt_float(row.leading, precision),
            "indeterminate" if row.flag else _fmt_float(row.abs_ratio_minus_1, precision),
        ]))
        for row in rows
    ]
    _emit("asympt", _echo_params(ctx, kind=kind, z=str(z), n_max=n_max), fmt, payload, header)


@main.command("expand")
@common_options
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--terms", "n_terms", type=click.IntRange(min=0), required=True, help="largest coefficient index N")
@click.option("--at", "at_point", default=None, help="also reconstruct at this rational point")
def cmd_expand(q_quarter, q_value, alpha, precision, input_path, n_terms, at_point):
    """Expansion coefficients L_0..L_N of a coefficient stream."""
    from . import expand as expand_mod
    from .qfun import numeric_frame, to_mpf, working_precision

    ctx = _context(q_quarter, q_value, alpha, precision)
    try:
        with open(input_path, "rb") as handle:
            data = handle.read(MAX_STREAM_BYTES + 1)  # a device such as /dev/zero never ends
        if len(data) > MAX_STREAM_BYTES:
            raise ValueError("the file is longer than the cap of %d bytes" % MAX_STREAM_BYTES)
        stream = expand_mod.CoefficientStream.from_json(data.decode("utf-8"))
        ls = expand_mod.l_coefficients(ctx, stream, n_terms)
        payload = {"l_coefficients": [str(v) for v in ls]}
        if stream.tail_kind == "geometric":
            bound = max(expand_mod.l_truncation_bounds(ctx, stream, n_terms))
            with numeric_frame(ctx) as bits, working_precision(bits):
                payload["truncation_bound"] = _fmt_float(to_mpf(bound), bits)
        if at_point is not None:
            z = _parse_rational(at_point, "--at")
            poly = expand_mod._read_off(ctx, ls)
            payload["reconstruction"] = {
                "at": str(z),
                "value": _fmt_float(expand_mod._round_at(ctx, poly, z), precision),
            }
            if stream.tail_kind == "finite":
                payload["reconstruction"]["exact_identity"] = poly == stream.as_polynomial()
    except (OSError, ValueError) as exc:  # an unreadable or too long file, bad JSON, or a schema violation
        raise click.UsageError("bad stream file: %s" % exc)
    _emit("expand", _echo_params(ctx, terms=n_terms, input=str(input_path)), "json", payload, None)


if __name__ == "__main__":
    main()
