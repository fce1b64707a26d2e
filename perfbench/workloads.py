"""Seeded request lists and the per-request work and checks of the three
workloads.

Every request list is a pure function of the seed.  The dimensions that
set a request's cost (the rational height of q, the table size and the
kind for exact-tables; the precision, q, alpha and kind for
certified-zeros; the command and its size for cli-session) come from a
fixed design that every seed uses in full, and the seed draws the rest:
the order, the sign of alpha = +-1/2 for certified-zeros, and for
cli-session the stream values and which error cases are sent.  Two seeds
thus send different inputs of nearly the same cost, which keeps the
seed-to-seed spread of the timings small.

A runner executes one request and returns ``(ok, exact)``: whether every
check on its output held, and the exact outputs (rational strings) that
feed the run's digest.  Runners import the library lazily, so that the
import is part of a pass's measured set-up.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

WORKLOADS = ("exact-tables", "certified-zeros", "cli-session")


# ---------------------------------------------------------------------------
# exact-tables: determinant tables, oracle tables, numbers and the ladder

B_POOL = ("1/2", "2/3", "3/4", "3/7", "5/11")
ALPHA_POOL = ("-1/2", "0", "1/2", "1")
# final table degree per alpha: the alphas whose moments cost most get the
# smaller tables, so that requests of one b cost about the same
FINAL_N = {"-1/2": 12, "0": 11, "1/2": 11, "1": 10}
FINAL_N_SMOKE = {"-1/2": 6, "0": 5, "1/2": 5, "1": 4}
# a first visit builds the table to final - EXTEND, a revisit extends it
EXTEND = 2


def exact_tables_requests(rng: random.Random, smoke: bool) -> list[dict]:
    b_pool, final_n = (B_POOL[:2], FINAL_N_SMOKE) if smoke else (B_POOL, FINAL_N)
    # every (b, alpha) once, with the kinds dealt in turn: the height of b,
    # the table size and the kind set a request's cost, so they are fixed
    # and the seed draws the order of first visits and revisits
    contexts = [
        {"b": b, "alpha": a, "final": final_n[a], "kind": 1 + (i + j) % 3}
        for i, b in enumerate(b_pool)
        for j, a in enumerate(ALPHA_POOL)
    ]
    rng.shuffle(contexts)
    # interleave first visits and revisits: each context is opened once and
    # extended once, later, so half the requests reuse an earlier context
    requests, pending = [], []
    while contexts or pending:
        if pending and (not contexts or rng.random() < 0.5):
            ctx = pending.pop(rng.randrange(len(pending)))
            n, revisit = ctx["final"], True
        else:
            ctx = contexts.pop()
            pending.append(ctx)
            n, revisit = ctx["final"] - EXTEND, False
        requests.append({"b": ctx["b"], "alpha": ctx["alpha"], "kind": ctx["kind"],
                         "n": n, "revisit": revisit})
    return requests


class ExactTables:
    def __init__(self, workdir: Path):
        from qbernoulli import detrep, qcore, qops, series

        self.detrep, self.qcore, self.qops, self.series = detrep, qcore, qops, series

    def setup(self, requests) -> dict:
        return {}

    def run(self, req: dict):
        ctx = self.qcore.QContext.from_fourth_root(Fraction(req["b"]), Fraction(req["alpha"]))
        kind, n_max = req["kind"], req["n"]
        polys = [self.detrep.bernoulli_poly_det(ctx, kind, n) for n in range(n_max + 1)]
        oracle = [self.series.oracle_bernoulli(ctx, kind, n) for n in range(n_max + 1)]
        numbers = [self.detrep.bernoulli_number(ctx, kind, n) for n in range(n_max + 1)]
        ladder = self.qops.appell_check(ctx, kind, n_max)
        ok = (
            polys == oracle
            and all(num == p.coefficient(0) for num, p in zip(numbers, polys))
            and len(ladder) == n_max
            and all(entry["pass"] for entry in ladder)
        )
        exact = [",".join(p.to_strings()) for p in polys] + [str(v) for v in numbers]
        return ok, exact


# ---------------------------------------------------------------------------
# certified-zeros: first Bessel zero, named trig zeros, derivative there

# (precision, q values, (alpha, kind) pairs dealt to the q values in turn).
# Every request has its own q, so no request finds another's zeros in the
# library's cache.  The cost of a zero varies irregularly with q and
# alpha, so the design is fixed and the seed draws only what costs the
# same either way: the sign of each alpha = +-1/2 (such a request computes
# its own zero and the other sign's as the two named reductions) and the
# order.  Those requests compute two zeros, the others three.
ALL_PAIRS = tuple((a, k) for a in ALPHA_POOL for k in (2, 3))
ZERO_PLAN = (
    (128, ("1/3", "1/4", "1/5", "1/6", "1/7", "1/8", "1/9", "1/10", "1/11", "1/12",
           "2/5", "2/7", "2/9", "2/11", "2/13", "2/15", "2/17", "2/19",
           "3/8", "3/10", "3/11", "3/13", "3/14", "3/16"), ALL_PAIRS),
    (256, ("3/7", "4/9", "5/12", "5/13"), (("0", 2), ("1", 3), ("1/2", 2), ("1/2", 3))),
    (512, ("1/2", "1/15"), (("1/2", 2), ("1/2", 3))),
    (1024, ("1/16",), (("1/2", 2),)),
)
ZERO_PLAN_SMOKE = ((128, ("1/3", "1/4", "1/5", "1/6", "1/7", "1/8", "1/9", "1/10",
                          "2/5", "2/7", "2/9", "2/11"), ALL_PAIRS),)
NAMED_ZEROS = {2: ("Sin_q", "Cos_q"), 3: ("S_q", "C_q_scaled")}


def certified_zeros_requests(rng: random.Random, smoke: bool) -> list[dict]:
    requests = []
    for precision, qs, pairs in ZERO_PLAN_SMOKE if smoke else ZERO_PLAN:
        for i, q in enumerate(qs):
            alpha, kind = pairs[i % len(pairs)]
            if alpha in ("-1/2", "1/2"):
                alpha = rng.choice(("-1/2", "1/2"))
            requests.append({"q": q, "alpha": alpha, "kind": kind, "precision": precision})
    rng.shuffle(requests)
    return requests


class CertifiedZeros:
    def __init__(self, workdir: Path):
        import mpmath

        from qbernoulli import asympt, qcore

        self.asympt, self.qcore, self.mpmath = asympt, qcore, mpmath

    def setup(self, requests) -> dict:
        return {}

    def run(self, req: dict):
        p, kind = req["precision"], req["kind"]
        ctx = self.qcore.QContext.from_q(Fraction(req["q"]), Fraction(req["alpha"]), p)
        zero = self.asympt.smallest_zero(ctx, kind, p)
        named = [self.asympt.named_trig_zero(ctx, name, p) for name in NAMED_ZEROS[kind]]
        derivative = self.asympt.bessel_derivative_at(ctx, kind, zero.location)
        # criterion 7's 2^-112 at 128 bits, scaled to the precision
        bound = self.mpmath.mpf(2) ** -(p - 16)
        ok = all(
            r.certified_interval[0] <= r.location <= r.certified_interval[1]
            and r.residual <= bound
            for r in [zero] + named
        )
        # the modified function is 1 at 0 and falls through its first zero
        return ok and derivative < 0, []


# ---------------------------------------------------------------------------
# cli-session: one `python -m qbernoulli.cli` subprocess per request

CLI_POOL = tuple((b, a) for b in ("1/2", "2/3", "3/4") for a in ("0", "1/2", "1"))
# per command, the sizes every list uses once each
CLI_PLAN = {
    "poly": (5, 6, 7, 8, 9, 10, 11),  # --n, with --via both
    "numbers": (8, 9, 10, 11, 12, 13, 14),  # --n, with --via both
    "asympt": (8, 9, 10, 11, 12, 14),  # --n-max
    "zeros": (128, 128, 128, 128, 128, 256),  # --precision
    "expand": ("finite", "finite", "finite", "geometric", "geometric", "geometric"),
}
CLI_PLAN_SMOKE = {
    "poly": (4, 5),
    "numbers": (5, 6),
    "asympt": (6, 7),
    "zeros": (128, 128),
    "expand": ("finite", "geometric"),
}
# requests that must fail with the domain exit code 3 (about 5% of a list)
CLI_ERRORS = (
    ["poly", "--kind", "3", "--q", "1/2", "--n", "4"],  # kind 3 needs a rational sqrt(q)
    ["numbers", "--kind", "3", "--q", "2/3", "--n", "5"],
    ["expand", "--q-quarter", "1/2", "--alpha", "1/2", "--input", "{bad}", "--terms", "2"],
)
GEOMETRIC_RATIO = "1/4"
# a ratio whose tail no expansion can certify: rho * sigma >= 1
UNCERTIFIABLE_RATIO = "4"


def _rational(rng: random.Random) -> str:
    return str(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def cli_session_requests(rng: random.Random, smoke: bool) -> list[dict]:
    plan = CLI_PLAN_SMOKE if smoke else CLI_PLAN
    requests = []
    # the context, kind, format and stream length of every item are fixed
    # as well, since they set its cost; the seed draws the stream values,
    # which error cases are sent, and the order
    for c, (command, sizes) in enumerate(plan.items()):
        kinds = (2, 3) if command in ("asympt", "zeros") else (1, 2, 3)
        for i, size in enumerate(sizes):
            b, alpha = CLI_POOL[(i + 2 * c) % len(CLI_POOL)]
            kind = kinds[i % len(kinds)]
            fmt = ("json", "csv")[i % 2]
            argv = [command, "--q-quarter", b, "--alpha", alpha]
            if command in ("poly", "numbers"):
                argv += ["--kind", str(kind), "--n", str(size), "--via", "both", "--format", fmt]
            elif command == "asympt":
                argv += ["--kind", str(kind), "--n-max", str(size), "--format", fmt]
            elif command == "zeros":
                fmt = "json"
                argv += ["--kind", str(kind), "--precision", str(size)]
            else:
                fmt = "json"
                # a finite stream of degree <= 5 is reproduced exactly from
                # 6+ terms; a geometric stream is cut before its last index
                length = 3 + i % 4
                stream = {"coefficients": [_rational(rng) for _ in range(length)]}
                if size == "finite":
                    stream["tail"] = "finite"
                    terms = 6 + i % 3
                else:
                    stream["tail"] = {"geometric": GEOMETRIC_RATIO}
                    terms = length - 1
                stream_id = "stream%d" % i
                argv += ["--input", "{%s}" % stream_id, "--terms", str(terms), "--at", "1/3"]
                requests.append({"argv": argv, "exit": 0, "format": fmt,
                                 "stream": stream, "stream_id": stream_id})
                continue
            requests.append({"argv": argv, "exit": 0, "format": fmt})
    for argv in rng.sample(CLI_ERRORS, 1 if smoke else 2):
        requests.append({"argv": argv, "exit": 3, "format": None})
    rng.shuffle(requests)
    return requests


def _parse(stdout: str, fmt: str):
    if fmt == "json":
        return json.loads(stdout)
    rows = list(csv.reader(io.StringIO(stdout)))
    if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged or empty CSV")
    return rows


def check_cli_output(req: dict, code: int, stdout: str, stderr: str):
    """Check one CLI result; returns (ok, exact rational strings)."""
    if code != req["exit"]:
        return False, []
    if req["exit"] != 0:
        return "error:" in stderr and "Traceback" not in stderr, []
    try:
        out = _parse(stdout, req["format"])
    except ValueError:
        return False, []
    command = req["argv"][0]
    argv = req["argv"]
    exact = []
    if command in ("poly", "numbers"):
        n_max = int(argv[argv.index("--n") + 1])
        if req["format"] == "json":
            rows = out["payload"]
            ok = len(rows) == n_max + 1 and all(r["match"] is True for r in rows)
            for r in rows:
                exact += r["det"] if command == "poly" else [r["det"]]
        else:
            rows = out[1:]
            expected = 2 * (n_max + 1) if command == "poly" else n_max + 1
            ok = len(rows) == expected and all(r[-1] == "true" for r in rows)
            exact += [",".join(r[:-1]) for r in rows]
    elif command == "asympt":
        n_max = int(argv[argv.index("--n-max") + 1])
        if req["format"] == "json":
            rows = out["payload"]
            exact += [r["exact_value"] for r in rows]
        else:
            rows = out[1:]
            exact += [r[1] for r in rows]
        ok = len(rows) == n_max
    elif command == "zeros":
        # the same certificate as certified-zeros, read back from the text
        bound = Fraction(1, 2 ** (int(argv[argv.index("--precision") + 1]) - 16))

        def value(text):
            return Fraction(text.rpartition("@")[0])

        rows = out["payload"]
        ok = len(rows) == 3 and all(
            value(r["interval_lo"]) <= value(r["location"]) <= value(r["interval_hi"])
            and value(r["residual"]) <= bound
            for r in rows
        )
    else:
        payload = out["payload"]
        terms = int(argv[argv.index("--terms") + 1])
        exact += payload["l_coefficients"]
        ok = len(payload["l_coefficients"]) == terms + 1
        if req["stream"]["tail"] == "finite":
            ok = ok and payload["reconstruction"]["exact_identity"] is True
        else:
            ok = ok and "truncation_bound" in payload
    return ok, exact


HELP_RUNS = 3


class CliSession:
    """Sends each request to a fresh ``python -m qbernoulli.cli``."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.root = Path.cwd()
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.paths = {}
        self.stdout_bytes = 0

    def _cli(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "qbernoulli.cli"] + argv,
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=150,
        )

    def setup(self, requests) -> dict:
        """Write the stream files and time the bare start-up (``--help``)."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        bad = self.workdir / "stream-bad.json"
        bad.write_text(json.dumps({"coefficients": ["1", "1/2", "1/3"],
                                   "tail": {"geometric": UNCERTIFIABLE_RATIO}}))
        self.paths["bad"] = str(bad)
        for req in requests:
            if "stream" in req:
                path = self.workdir / ("%s.json" % req["stream_id"])
                path.write_text(json.dumps(req["stream"]))
                self.paths[req["stream_id"]] = str(path)
        help_s = []
        for _ in range(HELP_RUNS):
            start = perf_counter()
            result = self._cli(["--help"])
            help_s.append(perf_counter() - start)
            if result.returncode != 0:
                raise RuntimeError("qbernoulli.cli --help failed: %s" % result.stderr)
        return {"help_s": help_s}

    def argv(self, req: dict) -> list[str]:
        return [a.format(**self.paths) for a in req["argv"]]

    def run(self, req: dict):
        result = self._cli(self.argv(req))
        self.stdout_bytes += len(result.stdout.encode())
        return check_cli_output(req, result.returncode, result.stdout, result.stderr)


GENERATORS = {
    "exact-tables": exact_tables_requests,
    "certified-zeros": certified_zeros_requests,
    "cli-session": cli_session_requests,
}
RUNNERS = {
    "exact-tables": ExactTables,
    "certified-zeros": CertifiedZeros,
    "cli-session": CliSession,
}


def make_requests(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The workload's request list: a pure function of (workload, seed, smoke)."""
    return GENERATORS[workload](random.Random("%s:%d" % (workload, seed)), smoke)
