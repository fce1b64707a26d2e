"""One pass of one workload, in a fresh interpreter.

run.py starts this script once per pass with ``PYTHONPATH`` pointing at the
checkout's ``src``.  It builds the request list from the seed, sets up
the workload (importing the library is part of that), prints ``ready``,
then sends the requests one at a time, each only after the last one has
finished, and checks every output.  The pass's results go to stdout as
one JSON line.

For cli-session with ``--replay 1`` the pass afterwards replays the same
requests in-process through ``cli.main(..., standalone_mode=False)``; that
replay is what the traced run instruments, since spans cannot cross the
subprocess boundary.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import tracing
import workloads

MAX_MESSAGES = 5


class Digest:
    """sha256 over the exact outputs of every request, in order."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.count = 0

    def add(self, index: int, exact) -> None:
        self._hash.update(b"#%d\n" % index)
        for text in exact:
            self._hash.update(text.encode() + b"\n")
        self.count += len(exact)

    def hexdigest(self):
        return self._hash.hexdigest() if self.count else None


def send(requests, run, tracer=None):
    """Closed loop over the request list; returns latencies, checks,
    digest and the first failure messages."""
    latencies, oks, messages, digest = [], [], [], Digest()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        start = perf_counter()
        try:
            ok, exact = run(req)
            problem = "failed its check"
        except Exception as exc:  # a request that raises counts as failed
            ok, exact, problem = False, [], "raised %r" % exc
        latencies.append(perf_counter() - start)
        oks.append(bool(ok))
        if not ok and len(messages) < MAX_MESSAGES:
            messages.append("request %d %s: %s" % (i, problem, json.dumps(req)))
        digest.add(i, exact)
    return {"latency_s": latencies, "ok": oks, "digest": digest.hexdigest(),
            "messages": messages}


def replay_cli(requests, paths, tracer):
    """Run each request through ``cli.main`` in this process."""
    import click

    from qbernoulli import cli

    main = cli.main.main
    if tracer is not None:
        tracing.install(tracer)
        main = tracer.span("cli", main)

    def run(req):
        argv = [a.format(**paths) for a in req["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rv = main(argv, prog_name="qbern", standalone_mode=False)
                code = rv if isinstance(rv, int) else 0
            except SystemExit as exc:
                code = exc.code
            except click.ClickException as exc:
                code = exc.exit_code
        return workloads.check_cli_output(req, code, out.getvalue(), err.getvalue())

    return send(requests, run, tracer)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--replay", type=int, default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    requests = workloads.make_requests(args.workload, args.seed, bool(args.smoke))
    runner = workloads.RUNNERS[args.workload](args.workdir)
    result = {"setup": runner.setup(requests), "requests": len(requests)}
    print("ready", flush=True)

    tracer = tracing.Tracer() if args.trace else None
    cli = args.workload == "cli-session"
    if tracer is not None and not cli:
        tracing.install(tracer)
    if cli:
        result.update(send(requests, runner.run))
        result["stdout_bytes"] = runner.stdout_bytes
        result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if args.replay:
            result["replay"] = replay_cli(requests, runner.paths, tracer)
    else:
        result.update(send(requests, runner.run, tracer))
        result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if args.spans is not None:
            with open(args.spans, "w", encoding="utf-8") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(span) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
