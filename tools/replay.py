"""Replay a seeded list of library and CLI calls, one canonical line per call.

Run from the root of a checkout (stdlib only, besides the package under test)::

    PYTHONPATH=src python3 tools/replay.py --seed 1
    python3 tools/replay.py --seed 1 --against HEAD~1

Each call runs one function of ``qbernoulli.__all__`` or one ``qbern``
subcommand, with arguments drawn from the seed: mostly valid ones, and in
about one call of four a junk value (None, -1, 0, 3, 1/3, 1.5, 2.0, inf,
nan, True or "x") in one numeric argument, that is a kind, a degree, a point
or a precision.  Each line holds the call and its outcome: the result in
canonical form (an mpf as its ``_mpf_`` tuple, a Fraction as "p/r"), the
exception's type and message, or "timeout" for a call still running after
LIMIT seconds; a CLI call gives its exit code, stdout and stderr.  A call
that leaves mpmath's process-wide precision other than 53 bits gets
" [mp.prec=N]" appended, and the precision is set back to 53 before the next
call.  A call that leaves it at 53 adds nothing, so ``--against`` still
compares with revisions whose replay has no such check.

``--against REV`` runs the same call list twice, in fresh interpreters: on
this checkout's ``src/`` and on REV's, extracted from ``git archive`` into a
temporary directory, so a killed run leaves nothing in the repository.  It
prints the first differing calls and exits 1 if any line differs, or 2 if
either replay or ``git archive`` fails, so a crash is told apart from a
difference.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import random
import signal
import subprocess
import sys
import tarfile
import tempfile
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COUNT = 1000  # library calls per seed; a quarter as many CLI calls follow
LIMIT = 1.0  # seconds before a call counts as a timeout
SHOW = 20  # differing calls printed by --against

JUNK = (None, -1, 0, 3, F(1, 3), 1.5, 2.0, float("inf"), float("nan"), True, "x")
CLI_JUNK = ("x", "-1", "0", "1.5", "inf", "nan", "", "1/0")
KIND, KIND23, DEGREE = (1, 2, 3), (2, 3), (0, 1, 2, 3, 4, 5)
POINT = (F(0), F(1, 3), F(-1, 2), F(5, 4), 2, 0.25)
POSITIVE = (F(1, 3), F(5, 4), 2)
PRECISION = (None, 24, 64)

# function -> its arguments: a tuple is a pool of valid values for a numeric argument, a list a
# pool of iterables of degrees, and a string names a pool of objects (see objects)
SIGNATURES = {
    "q_int": ("ctx", DEGREE),
    "q_factorial": ("ctx", DEGREE),
    "q_binomial": ("ctx", DEGREE, DEGREE),
    "q_pochhammer": (POINT, POINT, DEGREE),
    "gf_denominator": ("ctx", KIND, DEGREE),
    "gf_numerator": ("ctx", KIND, DEGREE),
    "oracle_bernoulli": ("ctx", KIND, DEGREE),
    "series_mul": ("series", "series"),
    "series_reciprocal": ("series",),
    "eval_Eq": ("ctx", POINT),
    "eval_eq": ("ctx", POINT),
    "eval_expq": ("ctx", POINT),
    "eval_bessel": ("ctx", KIND, (1, 2), POSITIVE),
    "eval_modified_bessel": ("ctx", KIND, (1, 2), POINT),
    "eval_qtrig": ("ctx", "trig", POINT),
    "phi21": ("ctx", POINT, POINT, POINT, POINT, DEGREE),
    "phi32": ("ctx", POINT, POINT, POINT, POINT, POINT, POINT, DEGREE),
    "recip_expq_coeffs": ("ctx", DEGREE),
    "bernoulli_number": ("ctx", KIND, DEGREE),
    "bernoulli_poly_det": ("ctx", KIND, DEGREE),
    "bernoulli_poly_value": ("ctx", KIND, DEGREE, POINT),
    "build_matrix": ("ctx", KIND, DEGREE),
    "mu": ("ctx", KIND, DEGREE),
    "appell_check": ("ctx", KIND, DEGREE),
    "delta_q": ("ctx", "poly"),
    "dq": ("ctx", "poly"),
    "dq_inverse_base": ("ctx", "poly"),
    "bessel_derivative_at": ("ctx", KIND, POSITIVE),
    "leading_term": ("ctx", KIND23, (1, 2, 3, 4), POINT),
    "named_trig_zero": ("ctx", "which", PRECISION),
    "ratio_diagnostic": ("ctx", KIND23, POINT, [(1, 2), (3,), range(1, 5)]),
    "smallest_zero": ("ctx", KIND, PRECISION),
    "corollary_wrappers": ("ctx", "stream", "variant", DEGREE),
    "growth_classify": ("ctx", "stream", (F(1, 2), 1, 2), (F(0), F(1, 2), -1)),
    "l_coefficients": ("ctx", "stream", DEGREE),
    "psi": ("ctx", DEGREE),
    "reconstruct": ("ctx", "stream", POINT, DEGREE),
    "reconstruct_poly": ("ctx", "stream", DEGREE),
    "tau_estimate": ("ctx", "stream", [range(1, 4), (0, 2), ()]),
}


def objects(qb) -> dict:
    """The pools of non-numeric arguments, built from the package under test."""
    return {
        "ctx": [
            qb.QContext.from_fourth_root(F(1, 2), F(1, 2), 64),
            qb.QContext.from_fourth_root(F(2, 3), F(-1, 2), 64),
            qb.QContext.from_q(F(1, 4), F(0), 64),
            qb.QContext.from_q(F(1, 2), F(1, 3), 64),
            # ctx0's q and alpha at another precision, so the calls also cross one (q, alpha)'s
            # cache store at two precisions
            qb.QContext.from_fourth_root(F(1, 2), F(1, 2), 96),
            # a rational q with a float alpha, and its float twin: the two share a cache store,
            # so the twin's exact calls meet the rows the first one warmed
            qb.QContext(q=F(1, 4), alpha=0.5, float_precision_bits=64),
            qb.QContext(q=0.25, alpha=0.5, float_precision_bits=64),
        ],
        "series": [qb.TruncatedSeries([1, F(1, 2), F(-1, 3)]), qb.TruncatedSeries([2, 0, 1])],
        "poly": [qb.PolyZ([1, 2, F(1, 3)]), qb.PolyZ([0, 0, 0, 5])],
        "trig": list(qb.QTrigKind),
        "which": ["Sin_q", "Cos_q", "S_q", "C_q_scaled"],
        "variant": ["bernoulli", "euler"],
        "stream": [
            qb.CoefficientStream.finite(["1", "1/2", "1/3"]),
            qb.CoefficientStream(("1", "-1/4", "1/16"), "geometric", F(1, 8)),
        ],
    }


def draw_call(rng: random.Random, name: str, pools: dict):
    """(args, labels) of one call to name: labels print the objects as pool name and index."""
    spec = SIGNATURES[name]
    numeric = [i for i, pool in enumerate(spec) if not isinstance(pool, str)]
    spoiled = rng.choice(numeric) if numeric and rng.random() < 0.25 else None
    args, labels = [], []
    for i, pool in enumerate(spec):
        if isinstance(pool, str):
            k = rng.randrange(len(pools[pool]))
            args.append(pools[pool][k])
            labels.append("%s%d" % (pool, k))
            continue
        if i == spoiled:
            value = rng.choice(JUNK)
            value = [value] if isinstance(pool, list) else value
        else:
            value = rng.choice(pool)
        args.append(value)
        labels.append(canonical(value))
    return args, labels


def canonical(value) -> str:
    """A printable form that two runs agree on exactly when their values agree."""
    if isinstance(value, F):
        return str(value)
    if hasattr(value, "_mpf_"):
        return "mpf%r" % (value._mpf_,)
    if dataclasses.is_dataclass(value):  # a record of a revision older than qcore.Record
        names = [f.name for f in dataclasses.fields(value)]
    elif hasattr(value, "_fields") and hasattr(value, "_derived"):  # a qcore.Record, printed as one
        names = value._fields + value._derived
    else:
        names = None
    if names is not None:
        fields = ("%s=%s" % (name, canonical(getattr(value, name))) for name in names)
        return "%s(%s)" % (type(value).__name__, ", ".join(fields))
    if hasattr(value, "coeffs"):  # PolyZ and TruncatedSeries
        return "%s%s" % (type(value).__name__, canonical(value.coeffs))
    if isinstance(value, (list, tuple)):
        return "[%s]" % ", ".join(map(canonical, value))
    if isinstance(value, dict):
        return "{%s}" % ", ".join("%s: %s" % (k, canonical(v)) for k, v in value.items())
    return repr(value)


class Timeout(BaseException):
    """Raised into a call that outlives its limit; a BaseException, so no library handler stops it."""


def call_with_limit(fn, args, limit: float):
    """fn(*args), interrupted by Timeout after limit seconds (a SIGALRM timer: main thread only)."""

    def expire(signum, frame):
        raise Timeout

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def outcome(fn, args, limit: float) -> str:
    """"= result", "! Type: message" or "! timeout" for fn(*args)."""
    try:
        return "= " + canonical(call_with_limit(fn, args, limit))
    except Timeout:
        return "! timeout"
    except Exception as exc:
        return "! %s: %s" % (type(exc).__name__, exc)


def drift() -> str:
    """" [mp.prec=N]" when the last call left mpmath's precision at N bits rather than 53, else
    ""; the precision is 53 again afterwards."""
    from mpmath import mp

    prec, mp.prec = mp.prec, 53
    return "" if prec == 53 else " [mp.prec=%d]" % prec


def cli_argv(rng: random.Random, stream_path: str) -> list:
    """One qbern command line; in about one call of four, one option value is junk."""
    context = rng.choice([["--q-quarter", "1/2", "--alpha", "1/2"], ["--q-quarter", "2/3", "--alpha", "-1/2"],
                          ["--q", "1/4", "--alpha", "0"], ["--q", "1/2", "--alpha", "1/3"]])
    command = rng.choice(["poly", "numbers", "zeros", "asympt", "expand"])
    options = {
        "poly": [("--kind", "123"), ("--n", "0134"), ("--via", ["det", "oracle", "both"])],
        "numbers": [("--kind", "123"), ("--n", "0145"), ("--format", ["json", "csv"])],
        "zeros": [("--kind", "23"), ("--precision", ["24", "64"])],
        "asympt": [("--kind", "23"), ("--z", ["1/4", "-1/3", "0"]), ("--n-max", "135"),
                   ("--format", ["json", "csv"])],
        "expand": [("--input", [stream_path]), ("--terms", "023"), ("--at", ["1/3", "-2"])],
    }[command]
    argv = [command, *context]
    spoiled = rng.randrange(len(options)) if rng.random() < 0.25 else None
    for i, (flag, values) in enumerate(options):
        argv += [flag, rng.choice(CLI_JUNK) if i == spoiled else rng.choice(list(values))]
    return argv


def replay(seed: int, count: int = COUNT, limit: float = LIMIT):
    """Yield the canonical line of each call in the seed's list: count library calls, then
    count // 4 command lines."""
    import qbernoulli as qb
    from click.testing import CliRunner
    from qbernoulli.cli import main

    rng, pools = random.Random(seed), objects(qb)
    for i in range(count):
        name = rng.choice(sorted(SIGNATURES))
        args, labels = draw_call(rng, name, pools)
        fn = getattr(qb, name, None)
        result = "! missing" if fn is None else outcome(fn, args, limit) + drift()
        yield "%d %s(%s) %s" % (i, name, ", ".join(labels), result)
    with tempfile.TemporaryDirectory() as tmp:
        stream = os.path.join(tmp, "stream.json")
        with open(stream, "w", encoding="utf-8") as handle:
            json.dump({"coefficients": ["1", "1/2", "-1/3"], "tail": "finite"}, handle)

        def invoke(argv):
            result = CliRunner().invoke(main, argv, prog_name="qbern")
            crash = [] if isinstance(result.exception, (SystemExit, type(None))) else [repr(result.exception)]
            return [result.exit_code, result.stdout, result.stderr] + crash

        for i in range(count, count + count // 4):
            argv = cli_argv(rng, stream)
            line = "%d $ qbern %s %s" % (i, " ".join(argv), outcome(invoke, (argv,), limit) + drift())
            yield line.replace(tmp, "<dir>")


def run_on(src: Path, seed: int) -> list:
    """The replay lines of this call list with src first on the import path, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, __file__, "--seed", str(seed)], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        print("replay on %s failed:\n%s" % (src, done.stderr), file=sys.stderr)
        sys.exit(2)  # not 1, which means that calls differ
    return done.stdout.splitlines()


def against(rev: str, seed: int) -> int:
    """Replay on this checkout and on rev; print the first differing lines, and return 1 if any differ
    (exit 2 if either cannot run)."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True)
    if archive.returncode != 0:
        print("git archive %s failed:\n%s" % (rev, archive.stderr.decode(errors="replace")), file=sys.stderr)
        sys.exit(2)
    with tempfile.TemporaryDirectory(prefix="replay-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            # the "data" filter, where this Python has it, refuses links and paths out of tmp
            tar.extractall(tmp, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        theirs, ours = run_on(Path(tmp) / "src", seed), run_on(ROOT / "src", seed)
    differing = [(a, b) for a, b in zip(theirs, ours) if a != b]
    for a, b in differing[:SHOW]:
        print("- %s\n+ %s" % (a, b))
    print("%d of %d calls differ from %s" % (len(differing), len(ours), rev), file=sys.stderr)
    return 1 if differing or len(theirs) != len(ours) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--against", metavar="REV", help="compare with the same calls on git revision REV")
    args = parser.parse_args(argv)
    if args.against:
        return against(args.against, args.seed)
    for line in replay(args.seed):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
