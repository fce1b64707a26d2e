"""The package's lazy export surface and its import boundary.

``import qbernoulli`` loads no submodule, and the exact CLI commands load
neither mpmath nor the numeric modules; both are checked in a fresh
interpreter, since this test process has long since imported everything.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import qbernoulli
from qbernoulli.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).resolve().parent / "data"

# the package's exports, by defining module
EXPORTS = {
    "qcore": ["DomainError", "ExactModeError", "ExactScalar", "QBernError", "QContext",
              "q_binomial", "q_factorial", "q_int", "q_pochhammer"],
    "series": ["PolyZ", "TruncatedSeries", "gf_denominator", "gf_numerator",
               "oracle_bernoulli", "series_mul", "series_reciprocal"],
    "qfun": ["QTrigKind", "eval_Eq", "eval_bessel", "eval_eq", "eval_expq",
             "eval_modified_bessel", "eval_qtrig", "phi21", "phi32", "recip_expq_coeffs"],
    "detrep": ["bernoulli_number", "bernoulli_poly_det", "bernoulli_poly_value",
               "build_matrix", "mu"],
    "qops": ["appell_check", "delta_q", "dq", "dq_inverse_base"],
    "asympt": ["AsymptoticTerm", "RatioRow", "ZeroResult", "bessel_derivative_at",
               "leading_term", "named_trig_zero", "ratio_diagnostic", "smallest_zero"],
    "expand": ["CoefficientStream", "GrowthVerdict", "corollary_wrappers", "growth_classify",
               "l_coefficients", "psi", "reconstruct", "reconstruct_poly", "tau_estimate"],
}
NUMERIC = ("mpmath", "qbernoulli.qfun", "qbernoulli.asympt", "qbernoulli.expand")

BOUNDARY_SCRIPT = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m == "mpmath" or m.startswith("qbernoulli."))

import qbernoulli
report = {"import": loaded()}
from qbernoulli import cli
for name, argv in [
    ("help", ["--help"]),
    ("poly", ["poly", "--kind", "2", "--q-quarter", "1/2", "--n", "4", "--via", "both"]),
    ("numbers", ["numbers", "--kind", "1", "--q", "1/4", "--n", "5", "--via", "both"]),
    ("error", ["numbers", "--kind", "3", "--q", "2/3", "--n", "5"]),
    ("zeros", ["zeros", "--kind", "2", "--q-quarter", "1/2", "--precision", "64"]),
]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv, standalone_mode=False)
    report[name] = {"code": code, "loaded": loaded()}
print(json.dumps(report))
"""


def test_every_export_resolves_to_its_defining_object():
    names = [name for group in EXPORTS.values() for name in group]
    assert len(names) == 52
    assert sorted(qbernoulli.__all__) == sorted(names)
    assert set(names) <= set(dir(qbernoulli))
    for module, group in EXPORTS.items():
        home = importlib.import_module("qbernoulli." + module)
        for name in group:
            assert getattr(qbernoulli, name) is getattr(home, name), name
    assert qbernoulli.__version__ == "0.1.0"


def test_unknown_names_and_submodules():
    with pytest.raises(AttributeError, match="nope"):
        qbernoulli.nope
    with pytest.raises(ImportError):
        from qbernoulli import nope  # noqa: F401
    from qbernoulli import asympt

    assert asympt is sys.modules["qbernoulli.asympt"]


def test_exact_commands_never_load_the_numeric_modules():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    result = subprocess.run([sys.executable, "-c", BOUNDARY_SCRIPT], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(result.stdout)
    assert report["import"] == []
    for name, code in (("help", 0), ("poly", None), ("numbers", None), ("error", 3)):
        assert report[name]["code"] == code, name
        assert not set(NUMERIC) & set(report[name]["loaded"]), name
    # the control: a numeric command does load them, so the check can see a load
    assert report["zeros"]["code"] is None
    assert {"mpmath", "qbernoulli.asympt"} <= set(report["zeros"]["loaded"])


def run_module(*argv, **kwargs):
    """``python -m qbernoulli.cli argv`` in a fresh interpreter, with src first on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *kwargs.pop("flags", ()), "-m", "qbernoulli.cli", *argv],
                          env=env, timeout=120, **{"text": True, **kwargs})


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["poly", "--kind", "2", "--q-quarter", "1/2", "--n", "4", "--via", "both"], 0),
    (["numbers", "--kind", "1", "--q", "1/4", "--n", "5", "--via", "both"], 0),
    (["numbers", "--kind", "3", "--q", "2/3", "--n", "5"], 3),
])
def test_the_command_line_never_loads_click(argv, code):
    # -X importtime names every module the run imports, on stderr
    result = run_module(*argv, flags=("-X", "importtime"), capture_output=True)
    assert result.returncode == code, result.stderr
    loaded = {line.rpartition("|")[2].strip() for line in result.stderr.splitlines()
              if line.startswith("import time:")}
    assert "qbernoulli" in loaded  # the control: the listing does show this run's imports
    assert not {name for name in loaded if name == "click" or name.startswith("click.")}
    if argv == ["--help"]:  # the module itself runs as __main__
        assert not {name for name in loaded if name.startswith("qbernoulli.")}
        assert not {"fractions", "csv", "json", "mpmath"} & loaded


def test_the_module_run_exits_2_on_usage_and_3_on_domain_errors():
    result = run_module("poly", "--kind", "1", "--q", "x", "--n", "1", capture_output=True)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == ("Usage: python -m qbernoulli.cli poly [OPTIONS]\n"
                             "Try 'python -m qbernoulli.cli poly --help' for help.\n\n"
                             "Error: --q must be a rational like 'p/r', got 'x'\n")
    result = run_module("poly", "--kind", "3", "--q", "1/2", "--n", "2", capture_output=True)
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.endswith("\nerror: exact q**(1/2) needs a rational square root of q=1/2\n")
    assert "Traceback" not in result.stderr


def test_a_closed_stdout_exits_1_quietly():
    # as with `qbern numbers ... | head -1`: the reader is gone before the table is written
    read, write = os.pipe()
    os.close(read)
    try:
        result = run_module("numbers", "--kind", "2", "--q-quarter", "1/2", "--n", "3",
                            stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (1, "")


@pytest.fixture
def buffered(monkeypatch):
    """stdout buffered as a pipe's is by default, so a write the process does not
    flush before it exits is lost."""
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", [
    ["--help"],
    ["numbers", "--kind", "2", "--q-quarter", "1/2", "--n", "3"],
])
def test_a_full_stdout_exits_1_with_one_error_line(buffered, argv):
    with open("/dev/full", "w") as full:
        result = run_module(*argv, stdout=full, stderr=subprocess.PIPE)
    assert (result.returncode, result.stderr) == (
        1, "error: cannot write the output: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("argv, golden", [
    (["poly", "--kind", "1", "--q", "1/4", "--alpha", "1/2", "--n", "6", "--via", "both"],
     "golden_poly_k1_q14.json"),
    (["numbers", "--kind", "1", "--q", "1/4", "--alpha", "1/2", "--n", "6", "--via", "both"],
     "golden_numbers_k1_q14.json"),
    (["poly", "--kind", "1", "--q-quarter", "1/2", "--alpha", "1/2", "--n", "4", "--format", "csv"],
     "golden_poly_k1_b12.csv"),
])
def test_the_module_run_writes_the_golden_files(buffered, argv, golden):
    result = run_module(*argv, capture_output=True, text=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (DATA / golden).read_bytes()


def test_an_output_larger_than_a_pipe_buffer_arrives_whole(buffered):
    # 3.4 MB, more than a pipe holds at once: all of it must reach the reader before the exit
    argv = ["poly", "--kind", "2", "--q-quarter", "1/2", "--n", "60", "--via", "both"]
    result = run_module(*argv, capture_output=True)
    assert (result.returncode, result.stderr) == (0, "")
    expected = CliRunner().invoke(main, argv)
    assert expected.exit_code == 0
    assert len(expected.stdout) > 1 << 20
    assert result.stdout == expected.stdout
