import csv
import io
import itertools
import json
import os
import re
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from qbernoulli import CoefficientStream, PolyZ, QContext, bernoulli_number, bernoulli_poly_det, cli, qfun
from qbernoulli.cli import _fmt_float, main

DATA = Path(__file__).parent / "data"


def run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


def exact_error_transcript() -> str:
    """stdout, stderr and exit code of poly and numbers at q = 1/2, alpha = 1/4,
    for every kind, route and n in (1, 3).  q has no rational square root,
    so the exact routes raise from degree 2 on, each on its own q-power."""
    parts = []
    for command, kind, via, n in itertools.product(
        ("poly", "numbers"), "123", ("det", "oracle", "both"), "13"
    ):
        argv = [command, "--kind", kind, "--q", "1/2", "--alpha", "1/4", "--n", n, "--via", via]
        result = run(*argv)
        parts.append(
            "$ qbern %s\n[exit %d]\n%s[stderr]\n%s"
            % (" ".join(argv), result.exit_code, result.stdout, result.stderr)
        )
    return "".join(parts)


EXPAND_CONTEXTS = (
    ("--q-quarter", "1/2", "--alpha", "1/2"),
    ("--q", "1/2", "--alpha", "1/4"),
    ("--q", "1/2", "--alpha", "1/3"),
    ("--q-quarter", "2/3", "--alpha", "-1/2"),
)
EXPAND_STREAMS = (
    ("empty", [], "finite"),
    ("zeros", ["0", "0", "0"], "finite"),
    ("one", ["1"], "finite"),
    ("linear", ["1", "2", "0", "0"], "finite"),
    ("cubic", ["2", "-1", "1/2", "1/3"], "finite"),
    ("geometric", ["1", "1/2", "-1/4", "1/8"], {"geometric": "1/4"}),
    ("geometric_zeros", ["0", "0", "0", "0"], {"geometric": "1/4"}),
    ("uncertifiable", ["1", "1", "1", "1"], {"geometric": "4"}),
)


def expand_transcript(tmp_path) -> str:
    """stdout, stderr and exit code of expand over four contexts (alpha = 1/4
    fails from moment 2 on, alpha = 1/3 is not exact), finite and geometric
    streams, --terms 0, 1 and 3, and --at 1/3 at --terms 3.  The stream
    directory is replaced by <dir>."""
    parts = []
    for context, (name, coefficients, tail) in itertools.product(EXPAND_CONTEXTS, EXPAND_STREAMS):
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps({"coefficients": coefficients, "tail": tail}))
        for extra in (["--terms", "0"], ["--terms", "1"], ["--terms", "3"], ["--terms", "3", "--at", "1/3"]):
            argv = ["expand", *context, "--input", str(path), *extra]
            result = run(*argv)
            parts.append(
                "$ qbern %s\n[exit %d]\n%s[stderr]\n%s"
                % (" ".join(argv), result.exit_code, result.stdout, result.stderr)
            )
    return "".join(parts).replace(str(tmp_path), "<dir>")


NUMERIC_CONTEXTS = (
    ("--q-quarter", "1/2", "--alpha", "1/2"),
    ("--q-quarter", "2/3", "--alpha", "-1/2"),
    ("--q-quarter", "3/4", "--alpha", "0"),
)


def numeric_transcript() -> str:
    """stdout, stderr and exit code of zeros (kinds 2 and 3 at 64, 128, 256 and
    1024 bits) and asympt (kinds 2 and 3, json and csv, --n-max 12) over three
    contexts."""
    argvs = [
        ["zeros", *context, "--kind", kind, "--precision", precision]
        for context, kind, precision in itertools.product(NUMERIC_CONTEXTS, "23", ("64", "128", "256", "1024"))
    ] + [
        ["asympt", *context, "--kind", kind, "--n-max", "12", "--format", fmt]
        for context, kind, fmt in itertools.product(NUMERIC_CONTEXTS, "23", ("json", "csv"))
    ]
    parts = []
    for argv in argvs:
        result = run(*argv)
        parts.append(
            "$ qbern %s\n[exit %d]\n%s[stderr]\n%s"
            % (" ".join(argv), result.exit_code, result.stdout, result.stderr)
        )
    return "".join(parts)


class TestPoly:
    def test_degree_one_row(self):
        result = run("poly", "--kind", "1", "--q", "1/4", "--alpha", "1/2", "--n", "1")
        assert result.exit_code == 0
        record = json.loads(result.stdout)
        assert record["command"] == "poly"
        assert record["payload"][1]["det"] == ["-1/2", "1"]
        assert record["payload"][0]["det"] == ["1"]

    def test_both_routes_match(self):
        result = run(
            "poly", "--kind", "2", "--q", "1/16", "--alpha", "0", "--n", "6", "--via", "both"
        )
        assert result.exit_code == 0
        record = json.loads(result.stdout)
        assert all(row["match"] for row in record["payload"])

    def test_round_trip_to_polyz(self):
        result = run("poly", "--kind", "3", "--q-quarter", "1/2", "--alpha", "1", "--n", "5")
        record = json.loads(result.stdout)
        ctx = QContext.from_fourth_root(Fraction(1, 2), Fraction(1))
        for row in record["payload"]:
            assert PolyZ.from_strings(row["det"]) == bernoulli_poly_det(ctx, 3, row["n"])

    def test_csv_shape(self):
        result = run(
            "poly", "--kind", "1", "--q", "1/4", "--n", "2", "--format", "csv", "--via", "det"
        )
        lines = result.stdout.splitlines()
        assert lines[0] == "n,source,z^0,z^1,z^2,match"
        assert lines[1] == "0,det,1,0,0,"
        assert lines[2] == "1,det,-1/2,1,0,"


class TestNumbers:
    def test_first_numbers(self):
        result = run("numbers", "--kind", "1", "--q", "1/4", "--n", "1", "--via", "both")
        record = json.loads(result.stdout)
        assert record["payload"][0]["det"] == "1"
        assert record["payload"][1]["det"] == "-1/2"
        assert all(row["match"] for row in record["payload"])

    def test_kinds_1_and_2_columns_identical(self):
        first = run("numbers", "--kind", "1", "--q", "1/4", "--n", "8")
        second = run("numbers", "--kind", "2", "--q", "1/4", "--n", "8")
        values_1 = [row["det"] for row in json.loads(first.stdout)["payload"]]
        values_2 = [row["det"] for row in json.loads(second.stdout)["payload"]]
        assert values_1 == values_2


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert run("poly", "--kind", "1", "--n", "2").exit_code == 2  # no q given
        assert run("poly", "--kind", "1", "--q", "1/4", "--q-quarter", "1/2", "--n", "1").exit_code == 2
        assert run("poly", "--kind", "9", "--q", "1/4", "--n", "1").exit_code == 2
        assert run("poly", "--kind", "1", "--q", "x", "--n", "1").exit_code == 2

    def test_domain_error_is_3(self):
        # kind 3 needs sqrt(q); q = 1/2 has none
        result = run("poly", "--kind", "3", "--q", "1/2", "--n", "2")
        assert result.exit_code == 3
        assert "rational square root" in result.stderr
        # alpha = 1/3 is not exact: every route fails, also at n = 0
        for command, via in itertools.product(("poly", "numbers"), ("det", "oracle", "both")):
            result = run(command, "--kind", "1", "--q", "1/2", "--alpha", "1/3", "--n", "0", "--via", via)
            assert result.exit_code == 3
            assert "exact mode requires 4*alpha to be an integer, got alpha=1/3" in result.stderr

    def test_irrational_fourth_root_warns(self):
        result = run("poly", "--kind", "1", "--q", "1/4", "--n", "1")
        assert result.exit_code == 0
        assert "irrational" in result.stderr
        assert "exit code 3" in result.stderr


class TestZeros:
    def test_zero_table(self):
        result = run(
            "zeros", "--kind", "2", "--q", "1/2", "--precision", "80", "--format", "csv"
        )
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "name,location,interval_lo,interval_hi,residual"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["bessel_first_zero", "Sin_q", "Cos_q"]
        for line in lines[1:]:
            residual = line.rsplit(",", 1)[1]
            assert residual.endswith("@80b")
            mantissa = residual.split("@")[0]
            assert "e-" in mantissa  # residuals are tiny


    def test_a_precision_past_the_cap_exits_3_naming_it(self, tmp_path):
        bits = qfun.MAX_PRECISION_BITS + 1
        message = "error: a precision of %d bits is past the cap of %d bits\n" % (bits, qfun.MAX_PRECISION_BITS)
        result = run("zeros", "--kind", "2", "--q-quarter", "1/2", "--precision", str(bits))
        assert (result.exit_code, result.stdout, result.stderr) == (3, "", message)
        # a geometric stream's truncation bound is a float, so expand refuses it too
        stream = tmp_path / "geometric.json"
        stream.write_text(CoefficientStream(("1", "-1/4"), "geometric", Fraction(1, 8)).to_json())
        expand = ("expand", "--q-quarter", "1/2", "--input", str(stream), "--terms", "1", "--precision")
        result = run(*expand, str(bits))
        assert (result.exit_code, result.stdout, result.stderr) == (3, "", message)
        assert run(*expand, str(bits - 1)).exit_code == 0
        # the cap is the numerics': an exact table at that precision is served
        assert run("numbers", "--kind", "2", "--q-quarter", "1/2", "--n", "3", "--precision", str(bits)).exit_code == 0

    @pytest.mark.parametrize("precision", [128, 512])
    @pytest.mark.parametrize("kind", [2, 3])
    @pytest.mark.parametrize(
        "context", [("--q", "1/2", "--alpha", "1/2"), ("--q-quarter", "3/4", "--alpha", "-1/2")]
    )
    def test_certificates_read_back(self, context, kind, precision):
        result = run("zeros", *context, "--kind", str(kind), "--precision", str(precision))
        assert result.exit_code == 0

        def value(text):
            return Fraction(text.rpartition("@")[0])

        rows = json.loads(result.stdout)["payload"]
        assert len(rows) == 3
        for row in rows:
            assert value(row["interval_lo"]) <= value(row["location"]) <= value(row["interval_hi"])
            assert value(row["residual"]) <= Fraction(1, 2 ** (precision - 16))

class TestAsympt:
    def test_table_and_trend(self):
        result = run(
            "asympt",
            "--kind", "2", "--q", "1/2", "--alpha", "1/2",
            "--z", "1/4", "--n-max", "8", "--precision", "96",
        )
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "n,exact_value,float_value,leading_term,abs_ratio_minus_1"
        assert len(lines) == 9
        assert "decreasing_trend=true" in result.stderr

    def test_zero_point_matches_numbers_route(self):
        table = run(
            "asympt", "--kind", "2", "--q", "1/2", "--z", "0", "--n-max", "4", "--precision", "80"
        )
        numbers = run("numbers", "--kind", "2", "--q", "1/2", "--n", "4")
        exact = [line.split(",")[1] for line in table.stdout.splitlines()[1:]]
        expected = [row["det"] for row in json.loads(numbers.stdout)["payload"][1:]]
        assert exact == expected
        # odd degrees degenerate at z = 0 for this alpha and are flagged
        flags = [line.rsplit(",", 1)[1] for line in table.stdout.splitlines()[1:]]
        assert flags[0] == "indeterminate" and flags[2] == "indeterminate"
        assert flags[1] != "indeterminate" and flags[3] != "indeterminate"


class TestCsvCells:
    """A CSV table holds the JSON payload's fields in header order: an absent
    field is an empty cell and a boolean is lower case."""

    @staticmethod
    def cell(row, field):
        value = row.get(field)
        if value is None:
            return ""
        return str(value).lower() if isinstance(value, bool) else str(value)

    @pytest.mark.parametrize(
        "argv, header",
        [
            (("numbers", "--kind", "2", "--q-quarter", "1/2", "--n", "3", "--via", via), "n,det,oracle,match")
            for via in ("det", "oracle", "both")
        ]
        + [
            (("zeros", "--kind", "3", "--q-quarter", "1/2", "--precision", "64"),
             "name,location,interval_lo,interval_hi,residual"),
            (("asympt", "--kind", "2", "--q", "1/2", "--z", "0", "--n-max", "4", "--precision", "64"),
             "n,exact_value,float_value,leading_term,abs_ratio_minus_1"),
        ],
    )
    def test_csv_rows_are_the_payload_fields(self, argv, header):
        as_json, as_csv = run(*argv, "--format", "json"), run(*argv, "--format", "csv")
        assert as_json.exit_code == as_csv.exit_code == 0
        payload = json.loads(as_json.stdout)["payload"]
        lines = list(csv.reader(io.StringIO(as_csv.stdout)))
        assert lines[0] == header.split(",")
        assert lines[1:] == [[self.cell(row, field) for field in lines[0]] for row in payload]
        if "both" in argv:
            assert {line[3] for line in lines[1:]} == {"true"}


class TestExpand:
    def test_monomial_stream(self, tmp_path):
        stream = tmp_path / "stream.json"
        stream.write_text('{"coefficients": ["0", "0", "0", "1"], "tail": "finite"}')
        result = run(
            "expand", "--q", "1/2", "--alpha", "1/2",
            "--input", str(stream), "--terms", "5", "--at", "1/3",
        )
        assert result.exit_code == 0
        record = json.loads(result.stdout)
        ls = record["payload"]["l_coefficients"]
        assert ls[4] == "0" and ls[5] == "0"
        assert record["payload"]["reconstruction"]["exact_identity"] is True

    def test_value_keeps_its_precision(self, tmp_path):
        # the terms L_n B_n(1/3) / [n]_q! reach 10^100 here, and the exact sum is rounded once
        stream = tmp_path / "stream.json"
        stream.write_text(
            '{"coefficients": ["-2/9", "-5/6", "3", "-9/8", "-1/9", "-1/2",'
            ' "2/3", "1", "1", "-2/3", "1", "-9/2"]}'
        )
        result = run(
            "expand", "--q-quarter", "1/2", "--alpha", "1/2",
            "--input", str(stream), "--terms", "12", "--at", "1/3",
        )
        assert result.exit_code == 0
        reconstruction = json.loads(result.stdout)["payload"]["reconstruction"]
        assert reconstruction["value"].startswith("-0.2102808684313028163")
        assert reconstruction["exact_identity"] is True

    def test_at_reconstructs_once(self, tmp_path, monkeypatch):
        # one L row serves the payload and the read-off, and one exact partial sum serves both
        # the rounded value and exact_identity
        from qbernoulli import expand

        calls = {"l_coefficients": 0, "_read_off": 0}
        for name in calls:
            def counted(*a, _name=name, _fn=getattr(expand, name)):
                calls[_name] += 1
                return _fn(*a)

            monkeypatch.setattr(expand, name, counted)
        stream = tmp_path / "stream.json"
        stream.write_text('{"coefficients": ["1", "-2/3", "0", "5"], "tail": "finite"}')
        result = run(
            "expand", "--q-quarter", "1/2", "--alpha", "1/2",
            "--input", str(stream), "--terms", "6", "--at", "1/3",
        )
        assert result.exit_code == 0 and calls == {"l_coefficients": 1, "_read_off": 1}
        reconstruction = json.loads(result.stdout)["payload"]["reconstruction"]
        assert reconstruction["exact_identity"] is True
        ctx = QContext.from_fourth_root(Fraction(1, 2), Fraction(1, 2))
        value = expand.reconstruct(ctx, expand.CoefficientStream.finite([1, Fraction(-2, 3), 0, 5]), Fraction(1, 3), 6)
        assert reconstruction["value"] == _fmt_float(value, 128)

    def test_pochhammer_stream_l0(self, tmp_path):
        stream = tmp_path / "stream.json"
        stream.write_text('{"coefficients": ["1", "-1"], "tail": "finite"}')
        result = run("expand", "--q", "1/2", "--input", str(stream), "--terms", "1")
        record = json.loads(result.stdout)
        assert record["payload"]["l_coefficients"][0] == "1/2"

    def test_uncertifiable_tail_is_3(self, tmp_path):
        stream = tmp_path / "stream.json"
        stream.write_text('{"coefficients": ["1", "1"], "tail": {"geometric": "50"}}')
        result = run("expand", "--q", "1/2", "--input", str(stream), "--terms", "1")
        assert result.exit_code == 3
        assert "cannot truncate" in result.stderr

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"coefficients": 5}', "'coefficients'"),
            ('["1", "1/2"]', "JSON object"),
            ('{"coefficients": ["1", "one half"]}', "'coefficients[1]'"),
            ('{"coefficients": ["1", null]}', "'coefficients[1]'"),
            ('{"coefficients": [0.5]}', "'coefficients[0]'"),
            ('{"coefficients": ["1/0"]}', "'coefficients[0]'"),
            ('{"coefficients": ["1"], "tail": {"geometric": []}}', "'tail.geometric'"),
            ('{"coefficients": ["1"], "tail": "infinite"}', "'tail'"),
        ],
    )
    def test_malformed_stream_is_2(self, tmp_path, text, field):
        stream = tmp_path / "stream.json"
        stream.write_text(text)
        result = run("expand", "--q", "1/2", "--input", str(stream), "--terms", "1")
        assert result.exit_code == 2
        assert field in result.stderr
        assert "Traceback" not in result.stderr

    def test_deeply_nested_stream_is_2(self, tmp_path):
        stream = tmp_path / "deep.json"
        stream.write_text("[" * 100000 + "]" * 100000)
        result = run("expand", "--q", "1/2", "--input", str(stream), "--terms", "1")
        assert result.exit_code == 2
        assert "bad stream file: the JSON document nests too deeply" in result.stderr
        assert "Traceback" not in result.stderr and result.stdout == ""

    def test_unreadable_stream_is_2(self, tmp_path, monkeypatch):
        from qbernoulli import cli

        def unreadable(*args, **kwargs):
            raise OSError(5, "Input/output error")

        stream = tmp_path / "stream.json"
        stream.write_text('{"coefficients": ["1"]}')
        monkeypatch.setattr(cli, "open", unreadable, raising=False)
        result = run("expand", "--q", "1/2", "--input", str(stream), "--terms", "1")
        assert result.exit_code == 2
        assert "bad stream file: [Errno 5] Input/output error" in result.stderr
        assert "Traceback" not in result.stderr and result.stdout == ""


    def test_endless_stream_is_2(self):
        # a device file passes click's checks; the read stops at the cap
        result = run("expand", "--q", "1/2", "--input", "/dev/zero", "--terms", "1")
        assert result.exit_code == 2
        assert "bad stream file: the file is longer than the cap of 16777216 bytes" in result.stderr
        assert "Traceback" not in result.stderr and result.stdout == ""

    def test_stream_one_byte_over_the_cap_is_2(self, tmp_path, monkeypatch):
        from qbernoulli import cli

        stream = tmp_path / "stream.json"
        stream.write_text('{"coefficients": ["0", "0", "1"], "tail": "finite"}')
        size = stream.stat().st_size
        monkeypatch.setattr(cli, "MAX_STREAM_BYTES", size)
        assert run("expand", "--q", "1/2", "--input", str(stream), "--terms", "2").exit_code == 0
        monkeypatch.setattr(cli, "MAX_STREAM_BYTES", size - 1)
        result = run("expand", "--q", "1/2", "--input", str(stream), "--terms", "2")
        assert result.exit_code == 2
        assert "bad stream file: the file is longer than the cap of %d bytes" % (size - 1) in result.stderr
        assert "Traceback" not in result.stderr and result.stdout == ""


class TestParsingRules:
    """The option scan reads a command line as click did."""

    def test_negative_rationals_are_values(self, tmp_path):
        result = run("numbers", "--kind", "2", "--q-quarter", "2/3", "--alpha", "-1/2", "--n", "2")
        assert result.exit_code == 0
        assert json.loads(result.stdout)["parameters"]["alpha"] == "-1/2"
        result = run("asympt", "--kind", "2", "--q-quarter", "1/2", "--z", "-3/7", "--n-max", "2",
                     "--precision", "64", "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.stdout)["parameters"]["z"] == "-3/7"
        stream = tmp_path / "stream.json"
        stream.write_text('{"coefficients": ["1", "2"], "tail": "finite"}')
        result = run("expand", "--q-quarter", "1/2", "--input", str(stream), "--terms", "2", "--at", "-1/3")
        assert result.exit_code == 0
        assert json.loads(result.stdout)["payload"]["reconstruction"]["at"] == "-1/3"

    def test_attached_value_equals_a_separate_one(self):
        argv = ("numbers", "--kind", "2", "--q-quarter", "1/2")
        attached, separate = run(*argv, "--n=5"), run(*argv, "--n", "5")
        assert attached.exit_code == separate.exit_code == 0
        assert attached.stdout == separate.stdout

    def test_a_repeated_option_keeps_its_last_value(self):
        repeated = run("numbers", "--kind", "1", "--q", "1/2", "--kind", "2", "--q-quarter", "1/2",
                       "--q", "1/4", "--n", "9", "--n", "3", "--q-quarter", "1/2", "--q", "1/3")
        # the last --q-quarter and the last --q are both given, so the context is rejected
        assert repeated.exit_code == 2
        assert "supply exactly one of --q-quarter or --q" in repeated.stderr
        repeated = run("numbers", "--kind", "1", "--kind", "2", "--q-quarter", "2/3", "--q-quarter", "1/2",
                       "--n", "9", "--n", "3", "--format", "csv", "--format", "json")
        assert repeated.exit_code == 0
        assert repeated.stdout == run("numbers", "--kind", "2", "--q-quarter", "1/2", "--n", "3").stdout

    @pytest.mark.parametrize("extra, message", [
        (["--prec", "64"], "Error: No such option '--prec'. Did you mean '--precision'?\n"),
        (["--bogus"], "Error: No such option '--bogus'.\n"),
        (["-p", "64"], "Error: No such option '-p'.\n"),
    ])
    def test_a_prefix_or_an_unknown_option_exits_2(self, extra, message):
        result = run("zeros", "--kind", "2", "--q-quarter", "1/2", *extra, prog_name="qbern")
        assert result.exit_code == 2 and result.stdout == ""
        assert result.stderr == "Usage: qbern zeros [OPTIONS]\nTry 'qbern zeros --help' for help.\n\n" + message

    def test_help_comes_before_values_but_after_the_option_scan(self):
        result = run("poly", "--kind", "9", "--help", prog_name="qbern")
        assert result.exit_code == 0 and result.stderr == ""
        assert result.stdout.startswith("Usage: qbern poly [OPTIONS]\n\n  Polynomial coefficient tables")
        result = run("zeros", "--kind", "2", "--z", "1", "--help")
        assert result.exit_code == 2 and result.stdout == ""
        assert "Error: No such option '--z'. Did you mean '--q'?" in result.stderr


class TestEntryPoint:
    @pytest.mark.parametrize("argv, code, last_line", [
        (["numbers", "--kind", "1", "--q", "1/4", "--n", "1"], 0, "exit code 3"),
        (["numbers", "--kind", "1", "--q", "1/4"], 2, "Error: Missing option '--n'."),
        (["numbers", "--kind", "3", "--q", "2/3", "--n", "5"], 3, "error: exact q**(1/2) needs a rational square root of q=2/3"),
    ])
    def test_main_reads_sys_argv_and_exits(self, monkeypatch, capsys, argv, code, last_line):
        # the qbern console script calls main() with no arguments
        monkeypatch.setattr(sys, "argv", ["qbern"] + argv)
        with pytest.raises(SystemExit) as exit:
            main()
        assert exit.value.code == code
        out, err = capsys.readouterr()
        assert err.endswith(last_line + "\n")
        assert bool(out) == (code == 0)

    def test_an_interrupt_exits_1_with_aborted(self, monkeypatch):
        from qbernoulli import detrep

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(detrep, "bernoulli_number", interrupted)
        result = run("numbers", "--kind", "2", "--q-quarter", "1/2", "--n", "3")
        assert (result.exit_code, result.stdout, result.stderr) == (1, "", "\nAborted!\n")


class TestRun:
    """``run``, the process entry point: main, a flush of both streams, then os._exit."""

    @pytest.fixture
    def exits(self, monkeypatch):
        codes = []
        monkeypatch.setattr(os, "_exit", codes.append)
        return codes

    @pytest.mark.parametrize("argv, code", [
        (["numbers", "--kind", "1", "--q", "1/4", "--n", "1"], 0),
        (["numbers", "--kind", "1", "--q", "1/4"], 2),
        (["numbers", "--kind", "3", "--q", "2/3", "--n", "5"], 3),
    ])
    def test_main_s_exit_code_reaches_the_exit(self, capsys, monkeypatch, exits, argv, code):
        monkeypatch.setattr(sys, "argv", ["qbern"] + argv)
        cli.run()
        assert exits == [code]
        assert bool(capsys.readouterr().out) == (code == 0)

    def test_stdout_is_flushed_before_the_exit(self, monkeypatch):
        raw = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8"))  # holds writes until a flush

        def unflushed_main():
            sys.stdout.write("last line\n")
            sys.exit(0)

        monkeypatch.setattr(cli, "main", unflushed_main)
        exits = []
        monkeypatch.setattr(os, "_exit", lambda code: exits.append((code, raw.getvalue())))
        cli.run()
        assert exits == [(0, b"last line\n")]

    @pytest.mark.parametrize("error, stderr", [
        (BrokenPipeError(32, "Broken pipe"), ""),
        (OSError(28, "No space left on device"), "error: cannot write the output: [Errno 28] No space left on device\n"),
    ])
    def test_a_failed_final_flush_exits_1(self, monkeypatch, exits, error, stderr):
        class Refusing(io.StringIO):
            def flush(self):
                raise error

        err = io.StringIO()
        monkeypatch.setattr(sys, "stdout", Refusing())
        monkeypatch.setattr(sys, "stderr", err)
        monkeypatch.setattr(cli, "main", lambda: sys.exit(0))
        cli.run()
        assert (exits, err.getvalue()) == ([1], stderr)

    def test_an_error_escaping_main_propagates_without_the_exit(self, monkeypatch, exits):
        def failing_main():
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "main", failing_main)
        with pytest.raises(RuntimeError, match="boom"):
            cli.run()
        assert exits == []


class TestLargeExactValues:
    def test_a_table_past_the_int_string_limit(self):
        # str() of an int of more than 4300 digits raises ValueError by default
        result = run("numbers", "--kind", "2", "--q-quarter", "1/2", "--n", "90")
        assert result.exit_code == 0, result.output
        rows = json.loads(result.stdout)["payload"]
        assert [row["n"] for row in rows] == list(range(91))
        assert max(len(row["det"]) for row in rows) > 2 * 4300  # the control: past the limit
        ctx = QContext.from_fourth_root(Fraction(1, 2), Fraction(1, 2))
        for row in rows:
            # parsed through decimal, which has no digit limit
            value = Fraction(*(int(Decimal(part)) for part in row["det"].split("/")))
            assert value == bernoulli_number(ctx, 2, row["n"]), row["n"]


class TestGoldenFiles:
    def test_poly_golden(self):
        args = ["poly", "--kind", "1", "--q", "1/4", "--alpha", "1/2", "--n", "6", "--via", "both"]
        first = run(*args)
        second = run(*args)
        assert first.stdout == second.stdout
        golden = (DATA / "golden_poly_k1_q14.json").read_text()
        assert first.stdout == golden

    def test_numbers_golden(self):
        args = ["numbers", "--kind", "1", "--q", "1/4", "--alpha", "1/2", "--n", "6", "--via", "both"]
        first = run(*args)
        second = run(*args)
        assert first.stdout == second.stdout
        golden = (DATA / "golden_numbers_k1_q14.json").read_text()
        assert first.stdout == golden

    def test_poly_golden_csv(self):
        args = [
            "poly", "--kind", "1", "--q-quarter", "1/2", "--alpha", "1/2",
            "--n", "4", "--format", "csv",
        ]
        first = run(*args)
        assert first.stdout == (DATA / "golden_poly_k1_b12.csv").read_text()

    def test_help_texts_golden(self):
        # the width is pinned so that the terminal running the tests cannot wrap the text
        texts = []
        for args in ([], ["poly"], ["numbers"], ["zeros"], ["asympt"], ["expand"]):
            argv = args + ["--help"]
            result = run(*argv, prog_name="qbern", terminal_width=80)
            assert result.exit_code == 0
            texts.append("$ qbern %s\n%s" % (" ".join(argv), result.stdout))
        assert "".join(texts) == (DATA / "golden_help.txt").read_text()

    def test_exact_errors_golden(self):
        # which q-power each route fails on, and that degree 1 still succeeds
        assert exact_error_transcript() == (DATA / "golden_exact_errors.txt").read_text()

    def test_expand_golden(self, tmp_path):
        # the L_n sums, truncation bounds and reconstructions, and each failure's cause
        assert expand_transcript(tmp_path) == (DATA / "golden_expand.txt").read_text()

    def test_numeric_golden(self):
        # every byte but the residuals, which need only stay below 2^-(p-16)
        residual = re.compile(r'"residual": "([^"@]*)@(\d+)b"')
        transcript = numeric_transcript()
        found = residual.findall(transcript)
        assert len(found) == 72
        for value, precision in found:
            assert abs(mpmath.mpf(value)) <= mpmath.mpf(2) ** (16 - int(precision))
        masked = [residual.sub('"residual": <masked>', text)
                  for text in (transcript, (DATA / "golden_numeric.txt").read_text())]
        assert masked[0] == masked[1]


UNIT = st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda x: 0 < x < 1)
SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=8)
JUNK = st.sampled_from(["0", "1", "-1", "3/2", "1/0", "0.5", "x", "", "1/3"])
# stream documents: well-formed, with a wrong field, or not JSON at all
STREAM = st.one_of(
    st.fixed_dictionaries(
        {"coefficients": st.lists(SMALL.map(str), max_size=8)},
        optional={
            "tail": st.one_of(st.just("finite"), st.builds(lambda r: {"geometric": str(r)}, SMALL))
        },
    ).map(json.dumps),
    st.fixed_dictionaries(
        {"coefficients": st.one_of(st.lists(st.one_of(JUNK, st.none(), st.floats(-1, 1)), max_size=4), JUNK)},
        optional={"tail": st.one_of(JUNK, st.builds(lambda r: {"geometric": r}, JUNK))},
    ).map(json.dumps),
    st.text(max_size=8),
)


@st.composite
def cli_argv(draw):
    """A well-formed argv for one of the five subcommands (n <= 6,
    precision <= 256), or that argv with one option dropped, one value
    replaced by junk, or an unknown option added."""
    command = draw(st.sampled_from(["poly", "numbers", "zeros", "asympt", "expand"]))
    if draw(st.booleans()):
        base = ["--q-quarter", str(draw(UNIT))]
    else:
        base = ["--q", str(draw(UNIT))]
    alpha = draw(st.one_of(st.integers(-3, 8).map(lambda k: Fraction(k, 4)), SMALL))
    options = [base, ["--alpha", str(alpha)], ["--precision", str(draw(st.integers(8, 256)))]]
    kinds = st.integers(1, 3) if command in ("poly", "numbers") else st.integers(2, 3)
    if command == "expand":
        options += [["--input", "STREAM"], ["--terms", str(draw(st.integers(0, 6)))]]
        if draw(st.booleans()):
            options.append(["--at", str(draw(SMALL))])
    else:
        options.append(["--kind", str(draw(kinds))])
        options.append(["--format", draw(st.sampled_from(["json", "csv"]))])
    if command in ("poly", "numbers"):
        options.append(["--n", str(draw(st.integers(0, 6)))])
        options.append(["--via", draw(st.sampled_from(["det", "oracle", "both"]))])
    if command == "asympt":
        options += [["--n-max", str(draw(st.integers(1, 6)))], ["--z", str(draw(SMALL))]]
    fault = draw(st.sampled_from(["none", "none", "none", "drop", "junk", "unknown"]))
    if fault == "drop":
        del options[draw(st.integers(0, len(options) - 1))]
    elif fault == "junk":
        options[draw(st.integers(0, len(options) - 1))][1] = draw(JUNK)
    elif fault == "unknown":
        options.append(["--bogus"])
    return [command] + [item for option in options for item in option]


@pytest.fixture(scope="module")
def stream_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("streams")


class TestExitCodeContract:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(argv=cli_argv(), stream=STREAM)
    def test_any_argv_exits_cleanly(self, stream_dir, argv, stream):
        path = stream_dir / "stream.json"
        path.write_text(stream, encoding="utf-8")
        argv = [str(path) if a == "STREAM" else a for a in argv]
        result = run(*argv)
        assert result.exit_code in (0, 2, 3), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        if result.exit_code != 0:
            return
        if "csv" in argv or (argv[0] == "asympt" and "json" not in argv):
            rows = list(csv.reader(io.StringIO(result.stdout)))
            assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)
        else:
            assert json.loads(result.stdout)["command"] == argv[0]
