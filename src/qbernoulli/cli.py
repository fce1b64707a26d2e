"""Command-line front end: polynomial tables, number tables, zero tables,
asymptotic diagnostics, and basis expansions, as JSON or CSV on stdout.

Exact payload entries are rational strings ("p/r"); approximate entries
are decimal strings tagged with their binary precision ("...@128b").
Diagnostics go to stderr; exit codes are 0 on success, 2 on usage errors,
3 on domain or numeric failures, and 1 when stdout refuses the output.

The parser uses the standard library only.  One table of subcommands and
options (``_COMMANDS``) drives the option scan, the help pages and the usage
errors.  Library modules are imported, and their names looked up, only when a
subcommand runs: ``--help`` loads none of them, and a rebinding such as a
tracer's reaches every call.
"""

import os
import sys

EXIT_USAGE = 2
EXIT_DOMAIN = 3
MAX_STREAM_BYTES = 1 << 24  # expand reads at most 16 MiB of --input; a longer file is a usage error


class UsageError(Exception):
    """A command line qbern rejects.  ``main`` prints "Error: <message>" on
    stderr, after the usage of the command being parsed unless the error is
    in the syntax of one option, and exits 2."""

    def __init__(self, message: str, usage: bool = True):
        super().__init__(message)
        self.message, self.usage = message, usage


def _echo(text: str, err: bool = False) -> None:
    """Write text to stdout, or to stderr with err.  A refused stdout raises
    OSError, which ``main`` reports; a refused stderr is let pass, so that a
    diagnostic no one can read never costs the result or its exit code."""
    stream = sys.stderr if err else sys.stdout  # read per call: a test runner swaps the streams
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        if not err:
            raise


def _parse_rational(text: str, label: str):
    from .qcore import parse_exact

    try:
        return parse_exact(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError("%s must be a rational like 'p/r', got %r" % (label, text))


def _context(alpha, q_quarter, q_value, precision):
    """The QContext of the options every subcommand shares."""
    from .qcore import QContext, exact_str

    if (q_quarter is None) == (q_value is None):
        raise UsageError("supply exactly one of --q-quarter or --q")
    alpha = _parse_rational(alpha, "--alpha")
    try:
        if q_quarter is not None:
            return QContext.from_fourth_root(
                _parse_rational(q_quarter, "--q-quarter"), alpha, precision
            )
        q = _parse_rational(q_value, "--q")
        ctx = QContext.from_q(q, alpha, precision)
    except ValueError as exc:
        raise UsageError(str(exc))
    if ctx.fourth_root_q is None:
        _echo(
            "warning: q^(1/4) of q=%s is irrational; exact operations needing it"
            " fail with exit code 3\n" % exact_str(q),
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


def _emit(command: str, ctx, params: dict, fmt: str, payload, header, rows=None):
    """Every subcommand's one output: the JSON record of its payload, whose
    parameters are those of ctx followed by params, or the CSV table with
    header, whose rows default to the payload's fields in header order."""
    if fmt == "json":
        import json

        from .qcore import exact_str

        q, root, alpha = (None if x is None else exact_str(x) for x in (ctx.q, ctx.fourth_root_q, ctx.alpha))
        params = {"q": q, "q_quarter": root, "alpha": alpha, "precision_bits": ctx.float_precision_bits,
                  **params}
        record = {"command": command, "parameters": params, "format": fmt, "payload": payload}
        _echo(json.dumps(record, indent=2) + "\n")
        return
    import csv
    import io

    if rows is None:
        rows = [[_cell(row.get(field)) for field in header] for row in payload]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _echo(buffer.getvalue())


# ---------------------------------------------------------------------------
# The option table and the parser it drives


class _Option:
    """One ``--flag VALUE`` option: the parameter it fills, how its value is
    read (text, an integer with optional bounds, a choice or an existing
    file), its default and its help line."""

    def __init__(self, flag, dest=None, *, kind="TEXT", bounds=None, choices=None,
                 default=None, required=False, help=""):
        self.flag, self.dest = flag, dest or flag[2:]
        self.kind = "INTEGER RANGE" if bounds else kind
        self.bounds, self.choices = bounds, choices
        self.default, self.required, self.help = default, required, help

    def term(self) -> str:
        """The option as the help lists it: the flag and what its value is."""
        if self is _HELP:
            return self.flag
        return "%s %s" % (self.flag, "[%s]" % "|".join(self.choices) if self.choices else self.kind)

    def describe_bounds(self) -> str:
        lo, hi = self.bounds
        if hi is None:
            return "x>=%d" % lo
        return "%d<=x<=%d" % (lo, hi)

    def help_text(self) -> str:
        extras = [] if self.default is None else ["default: %s" % self.default]
        extras += [self.describe_bounds()] if self.bounds else []
        extras += ["required"] if self.required else []
        if not extras:
            return self.help
        return "%s  [%s]" % (self.help, "; ".join(extras)) if self.help else "[%s]" % "; ".join(extras)

    def convert(self, text: str):
        """The option's value from its command-line text, or a UsageError."""
        try:
            return self._convert(text)
        except ValueError as exc:
            raise UsageError("Invalid value for '%s': %s" % (self.flag, exc))

    def _convert(self, text: str):
        if self.choices:
            if text not in self.choices:
                raise ValueError("%r is not one of %s." % (text, ", ".join(map(repr, self.choices))))
            return text
        if self.kind == "FILE":
            import stat

            try:
                mode = os.stat(text).st_mode
            except OSError:
                raise ValueError("File %r does not exist." % text)
            if stat.S_ISDIR(mode):
                raise ValueError("File %r is a directory." % text)
            if not os.access(text, os.R_OK):
                raise ValueError("File %r is not readable." % text)
            return text
        if self.kind == "TEXT":
            return text
        try:
            value = int(text)
        except ValueError:
            raise ValueError("%r is not a valid %s." % (text, self.kind.lower()))
        if self.bounds:
            lo, hi = self.bounds
            if value < lo or (hi is not None and value > hi):
                raise ValueError("%d is not in the range %s." % (value, self.describe_bounds()))
        return value


_HELP = _Option("--help", help="Show this message and exit.")
_COMMON = (
    _Option("--alpha", default="1/2", help="order parameter, rational"),
    _Option("--q-quarter", "q_quarter", help="exact fourth root of q (rational)"),
    _Option("--q", "q_value", help="base q directly (rational; exact roots detected)"),
    _Option("--precision", kind="INTEGER", default=128, help="float precision in bits"),
)
_COMMANDS = {}  # name -> (function, help text, options)


def _command(name, text, *options):
    def register(function):
        _COMMANDS[name] = (function, text, _COMMON + options)
        return function

    return register


def _scan(args, options, interspersed):
    """Read the options in args.  An option's value is the next argument,
    whatever it looks like (so ``--alpha -1/2`` works), or the text after
    ``=``; a repeated option keeps its last value; an unknown or abbreviated
    option is an error; "--" ends the options.  Returns the raw values by
    option, the options in order of first use, and the positional arguments:
    all of them, or, unless interspersed, those from the first one on."""
    by_flag = {option.flag: option for option in options}
    values, order, positional = {}, [], []
    args = list(args)
    while args:
        arg = args.pop(0)
        if arg == "--":
            break
        if arg[:1] != "-" or arg == "-":
            if not interspersed:
                args.insert(0, arg)
                break
            positional.append(arg)
            continue
        flag, attached, value = arg.partition("=")
        option = by_flag.get(flag)
        if option is None:
            if arg[:2] != "--":  # a single dash starts short options, and there are none
                raise UsageError("No such option %r." % arg[:2])
            raise UsageError(_no_such("option", flag, by_flag))
        if option is _HELP:
            if attached:
                raise UsageError("Option %r does not take a value." % flag, usage=False)
            value = True
        elif not attached:
            if not args:
                raise UsageError("Option %r requires an argument." % flag, usage=False)
            value = args.pop(0)
        values[option] = value
        if option not in order:
            order.append(option)
    return values, order, positional + args


def _no_such(what: str, name: str, known) -> str:
    from difflib import get_close_matches

    message = "No such %s %r." % (what, name)
    close = sorted(get_close_matches(name, known))
    if len(close) == 1:
        return "%s Did you mean %r?" % (message, close[0])
    if close:
        return "%s (Did you mean one of: %s?)" % (message, ", ".join(map(repr, close)))
    return message


def _wrap(text: str, width: int, first: str = "", rest: str = "") -> list[str]:
    import textwrap

    return textwrap.wrap(text, width, initial_indent=first, subsequent_indent=rest,
                         replace_whitespace=False)


def _definitions(rows, width: int) -> list[str]:
    """A two-column list indented by two: terms padded to the longest, texts wrapped."""
    column = max(len(term) for term, _ in rows) + 2
    lines = []
    for term, text in rows:
        wrapped = _wrap(text, max(width - column - 2, 10))
        lines.append("  %s%s%s" % (term, " " * (column - len(term)), wrapped[0]))
        lines += [" " * (column + 2) + line for line in wrapped[1:]]
    return lines


def _summary(text: str, limit: int) -> str:
    """A command's line in the list of commands: its help text up to the end
    of the first sentence, or as many words as fit in limit characters with
    "..." after them."""
    words = text.split()
    for end in range(1, len(words) + 1):
        head = " ".join(words[:end])
        if len(head) > limit:
            break
        if head.endswith(".") or end == len(words):
            return head
        if len(head) == limit:
            break
    while end > 1 and len(" ".join(words[:end - 1])) + 3 > limit:
        end -= 1
    return " ".join(words[:end - 1]) + "..."


def _program_name() -> str:
    """The name that usage lines give: the script's file name, or
    ``python -m <module>`` for a module run with -m."""
    package = getattr(sys.modules["__main__"], "__package__", None)
    path = sys.argv[0]
    if not package:
        return os.path.basename(path)
    name = os.path.splitext(os.path.basename(path))[0]
    if name != "__main__":
        package = "%s.%s" % (package, name)
    return "python -m %s" % package.lstrip(".")


class _Run:
    """One command line: its program name, help width and the subcommand
    being parsed, which usage errors name."""

    def __init__(self, prog: str, width=None):
        self.prog, self._width, self.command = prog, width, None

    @property
    def width(self) -> int:
        if self._width is None:
            import shutil

            self._width = max(min(shutil.get_terminal_size().columns, 80) - 2, 50)
        return self._width

    def dispatch(self, args):
        if not args:
            _echo(self.help(), err=True)
            return EXIT_USAGE
        values, _, rest = _scan(args, (_HELP,), interspersed=False)
        if _HELP in values:
            _echo(self.help())
            return 0
        if not rest:
            raise UsageError("Missing command.")
        name, args = rest[0], rest[1:]
        if name not in _COMMANDS:
            if name[:1] and not name[:1].isalnum() and _scan(rest, (_HELP,), interspersed=False)[0]:
                _echo(self.help())  # an option-like name after "--" is read as qbern's own options
                return 0
            raise UsageError(_no_such("command", name, _COMMANDS))
        self.command = name
        function, _, options = _COMMANDS[name]
        values, order, rest = _scan(args, options + (_HELP,), interspersed=True)
        if _HELP in values:
            _echo(self.help())
            return 0
        params = {}
        for option in order + [option for option in options if option not in order]:
            if option in values:
                params[option.dest] = option.convert(values[option])
            elif option.required:
                raise UsageError("Missing option %r." % option.flag)
            else:
                params[option.dest] = option.default
        if rest:
            raise UsageError("Got unexpected extra argument%s (%s)" % ("s" * (len(rest) > 1), " ".join(rest)))
        from .qcore import QBernError

        shared = {option.dest: params.pop(option.dest) for option in _COMMON}
        try:
            return function(_context(**shared), **params)
        except QBernError as exc:  # the one error boundary for library errors
            _echo("error: %s\n" % exc, err=True)
            return EXIT_DOMAIN

    def path(self) -> str:
        return self.prog if self.command is None else "%s %s" % (self.prog, self.command)

    def usage(self) -> str:
        pieces = "[OPTIONS]" if self.command else "[OPTIONS] COMMAND [ARGS]..."
        prefix = "Usage: %s " % self.path()
        if self.width >= len(prefix) + 20:
            return "\n".join(_wrap(pieces, self.width, prefix, " " * len(prefix)))
        # too narrow for both on one line: the pieces go on lines of their own
        return prefix + "\n" + "\n".join(_wrap(pieces, self.width, " " * 11, " " * 11))

    def usage_error(self, message: str) -> str:
        return "%s\nTry '%s --help' for help.\n\nError: %s\n" % (self.usage(), self.path(), message)

    def help(self) -> str:
        if self.command is None:
            text = "Generalized q-Bernoulli polynomial toolkit."
            options = (_HELP,)
        else:
            _, text, options = _COMMANDS[self.command]
            options += (_HELP,)
        lines = [self.usage(), ""] + _wrap(text, self.width, "  ", "  ") + ["", "Options:"]
        lines += _definitions([(option.term(), option.help_text()) for option in options], self.width)
        if self.command is None:
            lines += ["", "Commands:"]
            limit = self.width - 6 - max(map(len, _COMMANDS))
            lines += _definitions([(name, _summary(_COMMANDS[name][1], limit))
                                   for name in sorted(_COMMANDS)], self.width)
        return "\n".join(lines) + "\n"



# ---------------------------------------------------------------------------
# The subcommands


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


_ROUTE = _Option("--via", choices=("det", "oracle", "both"), default="det")
_JSON_OR_CSV = _Option("--format", "fmt", choices=("json", "csv"), default="json")


@_command("poly", "Polynomial coefficient tables for degrees 0..N.",
          _Option("--kind", bounds=(1, 3), required=True),
          _Option("--n", "n_max", bounds=(0, None), required=True, help="largest degree"),
          _ROUTE, _JSON_OR_CSV)
def cmd_poly(ctx, kind, n_max, via, fmt):
    from . import detrep, series

    rows = _table(n_max, via, lambda n: detrep.bernoulli_poly_det(ctx, kind, n).to_strings(),
                  lambda n: series.oracle_bernoulli(ctx, kind, n).to_strings())
    header = ["n", "source"] + ["z^%d" % j for j in range(n_max + 1)] + ["match"]
    flat = (  # read only for CSV: one row per route and degree, zero-padded to z^N
        [row["n"], source, *row[source]] + ["0"] * (n_max + 1 - len(row[source])) + [_cell(row.get("match"))]
        for row in rows
        for source in ("det", "oracle")
        if source in row
    )
    _emit("poly", ctx, {"kind": kind, "n": n_max, "via": via}, fmt, rows, header, flat)


@_command("numbers", "Number tables (the polynomials at z = 0) for indices 0..N.",
          _Option("--kind", bounds=(1, 3), required=True),
          _Option("--n", "n_max", bounds=(0, None), required=True, help="largest index"),
          _ROUTE, _JSON_OR_CSV)
def cmd_numbers(ctx, kind, n_max, via, fmt):
    from . import detrep, series
    from .qcore import exact_str

    rows = _table(n_max, via, lambda n: exact_str(detrep.bernoulli_number(ctx, kind, n)),
                  lambda n: exact_str(series.oracle_bernoulli(ctx, kind, n).coefficient(0)))
    _emit("numbers", ctx, {"kind": kind, "n": n_max, "via": via}, fmt, rows, ["n", "det", "oracle", "match"])


@_command("zeros", "First q-Bessel zero for this context plus the named trig zeros.",
          _Option("--kind", bounds=(2, 3), required=True), _JSON_OR_CSV)
def cmd_zeros(ctx, kind, fmt):
    from . import asympt as asympt_mod

    entries = [("bessel_first_zero", asympt_mod.smallest_zero(ctx, kind))]
    for name, (bessel_kind, *_) in asympt_mod._NAMED.items():
        if bessel_kind == kind:
            entries.append((name, asympt_mod.named_trig_zero(ctx, name)))
    header = ["name", "location", "interval_lo", "interval_hi", "residual"]
    rows = [
        dict(zip(header, [name] + [
            _fmt_float(x, ctx.float_precision_bits)
            for x in (res.location, *res.certified_interval, res.residual)
        ]))
        for name, res in entries
    ]
    _emit("zeros", ctx, {"kind": kind}, fmt, rows, header)


@_command("asympt", "Exact values against leading asymptotic terms for n = 1..N.",
          _Option("--kind", bounds=(2, 3), required=True),
          _Option("--z", default="1/4", help="evaluation point, rational"),
          _Option("--n-max", "n_max", bounds=(1, None), required=True),
          _Option("--format", "fmt", choices=("json", "csv"), default="csv"))
def cmd_asympt(ctx, kind, z, n_max, fmt):
    from . import asympt as asympt_mod
    from .qcore import exact_str

    point = _parse_rational(z, "--z")
    rows = asympt_mod.ratio_diagnostic(ctx, kind, point, range(1, n_max + 1))
    decreasing = all(
        later.abs_ratio_minus_1 < earlier.abs_ratio_minus_1
        for earlier, later in zip(rows, rows[2:])
        if earlier.abs_ratio_minus_1 is not None and later.abs_ratio_minus_1 is not None
    )
    _echo("decreasing_trend=%s\n" % str(decreasing).lower(), err=True)
    header = ["n", "exact_value", "float_value", "leading_term", "abs_ratio_minus_1"]
    precision = ctx.float_precision_bits
    payload = [
        dict(zip(header, [
            row.n,
            exact_str(row.exact_value),
            _fmt_float(row.float_value, precision),
            _fmt_float(row.leading, precision),
            "indeterminate" if row.flag else _fmt_float(row.abs_ratio_minus_1, precision),
        ]))
        for row in rows
    ]
    _emit("asympt", ctx, {"kind": kind, "z": exact_str(point), "n_max": n_max}, fmt, payload, header)


@_command("expand", "Expansion coefficients L_0..L_N of a coefficient stream.",
          _Option("--input", "input_path", kind="FILE", required=True),
          _Option("--terms", "n_terms", bounds=(0, None), required=True, help="largest coefficient index N"),
          _Option("--at", "at_point", help="also reconstruct at this rational point"))
def cmd_expand(ctx, input_path, n_terms, at_point):
    from . import expand as expand_mod
    from .qcore import exact_str
    from .qfun import numeric_frame, to_mpf, working_precision

    try:
        with open(input_path, "rb") as handle:
            data = handle.read(MAX_STREAM_BYTES + 1)  # a device such as /dev/zero never ends
        if len(data) > MAX_STREAM_BYTES:
            raise ValueError("the file is longer than the cap of %d bytes" % MAX_STREAM_BYTES)
        stream = expand_mod.CoefficientStream.from_json(data.decode("utf-8"))
    except (OSError, ValueError) as exc:  # an unreadable or too long file, bad JSON, or a schema violation
        raise UsageError("bad stream file: %s" % exc)
    ls = expand_mod.l_coefficients(ctx, stream, n_terms)
    payload = {"l_coefficients": [exact_str(v) for v in ls]}
    if stream.tail_kind == "geometric":
        bound = max(expand_mod.l_truncation_bounds(ctx, stream, n_terms))
        with numeric_frame(ctx) as bits, working_precision(bits):
            payload["truncation_bound"] = _fmt_float(to_mpf(bound), bits)
    if at_point is not None:
        point = _parse_rational(at_point, "--at")
        poly = expand_mod._read_off(ctx, ls)
        payload["reconstruction"] = {
            "at": exact_str(point),
            "value": _fmt_float(expand_mod._round_at(ctx, poly, point), ctx.float_precision_bits),
        }
        if stream.tail_kind == "finite":
            payload["reconstruction"]["exact_identity"] = poly == stream.as_polynomial()
    _emit("expand", ctx, {"terms": n_terms, "input": input_path}, "json", payload, None)


def main(args=None, prog_name=None, standalone_mode=True, terminal_width=None, **_ignored):
    """Run one qbern command line; args default to ``sys.argv[1:]``.

    Standalone (the default), exit through SystemExit with 0, 2 or 3.
    Otherwise return None after a subcommand, 0 after a help page, 2 after
    an empty command line and 3 after a domain error, and raise UsageError.
    The keywords are those of the command objects of the usual CLI toolkits,
    so that a test runner such as ``CliRunner`` drives ``main``; other
    keywords it passes for its context are accepted and ignored."""
    run = _Run(_program_name() if prog_name is None else prog_name, terminal_width)
    args = sys.argv[1:] if args is None else list(args)
    if not standalone_mode:
        return run.dispatch(args)
    try:
        code = run.dispatch(args)
    except UsageError as exc:
        _echo(run.usage_error(exc.message) if exc.usage else "Error: %s\n" % exc.message, err=True)
        code = EXIT_USAGE
    except KeyboardInterrupt:
        _echo("\nAborted!\n", err=True)
        code = 1
    except OSError as exc:  # a write to stdout failed; the commands' own file errors are usage errors
        code = _write_failed(exc)
        # send what is still buffered nowhere, so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code or 0)


# a test runner calls main.main(...) and names the program after main.name
main.main, main.name = main, "main"


def _write_failed(exc: OSError) -> int:
    """Exit code 1 for output stdout refused: silently if its reader left, as
    with `qbern ... | head -1`, else after one line on stderr, as for a full disk."""
    if not isinstance(exc, BrokenPipeError):
        _echo("error: cannot write the output: %s\n" % exc, err=True)
    return 1


def run():
    """The process entry point of ``qbern`` and ``python -m qbernoulli.cli``.

    Runs ``main()``, flushes stdout and stderr, and leaves through
    ``os._exit`` with main's exit code: the output is complete by then, and
    the interpreter's teardown (its last garbage collections and the clearing
    of every module) would only delay the exit.  An exception other than
    SystemExit propagates, so it prints its traceback and exits 1 the usual
    way.  In-process callers use ``main``, which returns or raises SystemExit."""
    try:
        main()
    except SystemExit as exc:
        code = exc.code
    try:
        sys.stdout.flush()
    except OSError as exc:
        code = _write_failed(exc)
    try:
        sys.stderr.flush()
    except OSError:  # a diagnostic stderr refused changes no exit code, as in _echo
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
