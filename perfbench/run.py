"""The qbernoulli benchmark: three seeded workloads with checked outputs.

Run from the root of a checkout (stdlib only; the package need not be
installed)::

    python3 perfbench/run.py --workload exact-tables --seed 1 --seconds 60 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``exact-tables``: determinant and oracle polynomial tables, number
  tables and the ladder check, over (q, alpha) contexts, half of them
  revisited to extend an earlier table.
* ``certified-zeros``: first q-Bessel zero, both named q-trig zeros and
  the Bessel derivative there, at 128 to 1024 bits.  Not listed in
  BENCHMARK.json: its layers are also measured on cli-session, and leaving
  it out gives the other two longer, steadier runs.  Run it by name to
  check that an exact-layer change leaves the numeric layers alone.
* ``cli-session``: one ``python -m qbernoulli.cli`` subprocess per
  request over a mix of all five subcommands, 5% of them expected domain
  errors.

A run repeats passes until ``--seconds`` would be exceeded.  Each pass is a
fresh interpreter (perfbench/worker.py) that builds the seed's fixed
request list and sends it closed-loop from one client, so no pass sees
another's caches.  Every output is checked, and the exact outputs of
every pass must hash to one digest.

End-to-end metrics (``--trace 0``) come from untraced passes:

* ``setup_s``: median interpreter start + ``import qbernoulli`` + input
  generation over the passes; for cli-session the median
  ``python -m qbernoulli.cli --help``.
* ``wall_s``: median time to finish the request list.
* ``latency_p50_s`` / ``latency_tail_s``: each request's latency is its
  median over the passes; these are the median and the highest
  percentile with at least ten requests beyond it.
* ``peak_rss_mb``: median peak resident set of the pass's process (for
  cli-session, the peak over its children).

``error_rate`` (failed / attempted) is printed in the report; it is 0 on a
correct program, so the result line carries it as ``failed`` and
``attempted`` rather than as a metric.  With ``--trace 1`` passes alternate
untraced and traced, and the result line holds the per-layer metrics of
perfbench/tracing.py, the medians over the traced passes, plus the tracing
overhead.

The last line of stdout is the JSON result; the readable report goes to
stderr, and the full record (environment, digest, per-pass data) to
``.perfbench/`` in the checkout.  ``--smoke`` runs a few-second version
of each workload for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("peak_rss_mb", "MiB"),
)
PASS_TIMEOUT = 170
TAIL_BEYOND = 10
# exact-output digests recorded per workload and seed (full runs, not
# --smoke); a commit whose exact answers differ fails on these seeds
KNOWN_DIGESTS = HERE / "digests.json"


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def run_pass(root: Path, args, traced: bool, replay: bool, workdir: Path, spans: Path) -> dict:
    """One pass in a fresh interpreter; set-up is timed from the spawn to
    the worker's ``ready`` line."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--smoke", str(int(args.smoke)), "--trace", str(int(traced)),
        "--replay", str(int(replay)), "--workdir", str(workdir),
    ]
    if traced:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        out, _ = proc.communicate(timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError("a %s pass did not finish in %d s" % (args.workload, PASS_TIMEOUT))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError("the %s worker exited with code %s" % (args.workload, proc.returncode))
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    result["traced"] = traced
    return result


def tail(values):
    """(value, percentile, samples beyond): the highest percentile that
    still has at least TAIL_BEYOND samples above it (nearest rank)."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def per_request_medians(passes):
    return [statistics.median(column) for column in zip(*(p["latency_s"] for p in passes))]


def help_median(passes):
    """Median bare start-up, ``python -m qbernoulli.cli --help``."""
    return statistics.median(s for p in passes for s in p["setup"]["help_s"])


def end_to_end(passes, cli: bool) -> tuple[dict, dict]:
    latencies = per_request_medians(passes)
    value, percentile, beyond = tail(latencies)
    metrics = {
        "setup_s": help_median(passes) if cli else statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(sum(p["latency_s"]) for p in passes),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": value,
        "peak_rss_mb": statistics.median(p["peak_rss_kib"] for p in passes) / 1024,
    }
    notes = {
        "latency_tail_s": "p%.1f, %d of %d requests beyond" % (percentile, beyond, len(latencies)),
        "latency_p50_s": "each request's latency is its median over %d passes" % len(passes),
    }
    return metrics, notes


def per_layer(passes, cli: bool) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]

    def wall(p):
        return sum((p["replay"] if cli else p)["latency_s"])

    layers = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    layers["cli.process_s"] = statistics.median(per_request_medians(passes)) if cli else 0.0
    layers["cli.startup_s"] = help_median(passes) if cli else 0.0
    layers["cli.stdout_bytes"] = statistics.median(p["stdout_bytes"] for p in passes) if cli else 0
    layers["trace.overhead"] = (
        statistics.median(wall(p) for p in traced) / statistics.median(wall(p) for p in plain) - 1
    )
    return layers


def environment(root: Path) -> dict:
    import mpmath

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git not available)"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "trace_overhead": "measured by --trace 1",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few-second run for tests")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "qbernoulli" / "__init__.py").is_file():
        print("perfbench: no src/qbernoulli in %s; run from the root of a qbernoulli "
              "checkout" % root, file=sys.stderr)
        return 2
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    # byte-compile once so that no pass pays for it in its set-up
    compileall.compile_dir(root / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    cli = args.workload == "cli-session"
    workdir = out_dir / ("work-%d" % os.getpid())
    spans = out_dir / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))

    passes = []
    started = perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(root, args, traced, cli and bool(args.trace), workdir, spans))
            elapsed = perf_counter() - started
            done = len(passes) >= (2 if args.trace else 1)
            # stop before a further pass of average length would overrun
            if done and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = [ok for p in passes for ok in p["ok"] + p.get("replay", {}).get("ok", [])]
    failed = checks.count(False)
    digests = {p["digest"] for p in passes} | {p["replay"]["digest"] for p in passes if "replay" in p}
    messages = [m for p in passes for m in p["messages"] + p.get("replay", {}).get("messages", [])]
    if len(digests) > 1:
        messages.append("the exact outputs differ between passes")
    known = None if args.smoke else (
        json.loads(KNOWN_DIGESTS.read_text()).get(args.workload, {}).get(str(args.seed)))
    if known is not None and digests != {known}:
        messages.append("the exact outputs differ from the digest recorded for this seed, %s"
                        % known)
    correct = failed == 0 and len(digests) == 1 and known in (None, *digests)
    plain = [p for p in passes if not p["traced"]]
    metrics, notes = end_to_end(plain, cli)
    env = environment(root)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": env,
        "passes": len(passes), "requests_per_pass": passes[0]["requests"],
        "attempted": len(checks), "failed": failed, "error_rate": failed / len(checks),
        "digest": sorted(d or "none" for d in digests),
        "end_to_end": metrics, "notes": notes,
        "pass_wall_s": [sum(p["latency_s"]) for p in passes],
        "pass_setup_s": [p["setup_s"] for p in passes],
        "messages": messages,
    }
    if args.trace:
        record["per_layer"] = per_layer(passes, cli)
        env["trace_overhead"] = record["per_layer"]["trace.overhead"]
        units = dict(tracing.LAYER_METRICS)
        shown = {k: {"value": v, "unit": units[k]} for k, v in record["per_layer"].items()}
    else:
        units = dict(END_TO_END)
        shown = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    name = "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (out_dir / name).write_text(json.dumps(record, indent=1))

    report = [
        "qbernoulli benchmark: workload=%s seed=%d trace=%d passes=%d requests/pass=%d"
        % (args.workload, args.seed, args.trace, len(passes), passes[0]["requests"]),
        "environment: " + " ".join("%s=%s" % kv for kv in env.items()),
    ]
    for key, unit in END_TO_END:
        note = notes.get(key)
        report.append("  %-15s %.6g %s%s" % (key, metrics[key], unit, "  (%s)" % note if note else ""))
    report.append("  %-15s %.6g ratio  (%d failed of %d attempted)"
                  % ("error_rate", record["error_rate"], failed, len(checks)))
    report.append("  %-15s %s" % ("exact digest", ", ".join(record["digest"])))
    if args.trace:
        for key, unit in tracing.LAYER_METRICS:
            report.append("  %-36s %.6g %s" % (key, record["per_layer"][key], unit))
    report += ["  " + m for m in messages]
    print("\n".join(report), file=sys.stderr)

    print(json.dumps({"correct": correct, "attempted": len(checks), "failed": failed,
                      "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
