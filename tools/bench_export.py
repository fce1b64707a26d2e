"""Export one perfbench result into the committed BENCH_<short-sha>.json.

Run from the root of a checkout, on a record that ``perfbench/run.py
--trace 1`` wrote (stdlib only)::

    python3 tools/bench_export.py .perfbench/result-exact-tables-seed7-trace1.json

The BENCH file at the root of the checkout holds the commit, Python and
mpmath that produced it and, per workload, the run's end-to-end metrics
(from its untraced passes), its per-layer metrics (from its traced
passes) and ``max_bits``, the largest numerator or denominator bit length
of an exact result.  Exporting another workload of the same commit adds it
to the same file; exporting the same workload again replaces its entry.
A smoke run, an untraced run, a run with failed checks or a run without a
commit is refused with exit code 2 and a message naming the cause.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

SHORT_SHA = 7


class ExportError(Exception):
    """The result cannot be exported; the message names why."""


def workload_entry(result: dict) -> dict:
    """The BENCH entry of one perfbench result record."""
    if result.get("smoke"):
        raise ExportError("a --smoke run is a test of the benchmark, not a measurement")
    if not result.get("trace") or "per_layer" not in result:
        raise ExportError("per-layer metrics need a --trace 1 run")
    if result["failed"]:
        raise ExportError("%d of %d checks failed" % (result["failed"], result["attempted"]))
    return {
        "seed": result["seed"],
        "seconds": result["seconds"],
        "passes": result["passes"],
        "attempted": result["attempted"],
        "digest": result["digest"],
        "end_to_end": result["end_to_end"],
        "per_layer": result["per_layer"],
        "max_bits": result["per_layer"]["detrep.max_bits"],
    }


def export(result: dict) -> Path:
    """Write or extend BENCH_<short-sha>.json in the current directory; returns its path."""
    env = result["environment"]
    commit = env["commit"]
    if not re.fullmatch(r"[0-9a-f]{40}", commit):
        raise ExportError("the run records no commit (%s)" % commit)
    head = {"commit": commit, "python": env["python"], "mpmath": env["mpmath"]}
    path = Path("BENCH_%s.json" % commit[:SHORT_SHA])
    bench = json.loads(path.read_text()) if path.exists() else dict(head, workloads={})
    for key, value in head.items():
        if bench.get(key) != value:
            raise ExportError("%s records %s %s, this run %s" % (path.name, key, bench.get(key), value))
    bench["workloads"][result["workload"]] = workload_entry(result)
    bench["workloads"] = dict(sorted(bench["workloads"].items()))
    path.write_text(json.dumps(bench, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("result", type=Path, help="a .perfbench/result-*.json record")
    args = parser.parse_args(argv)
    try:
        path = export(json.loads(args.result.read_text()))
    except KeyError as exc:
        message = "the record lacks the field %s" % exc
    except (OSError, ValueError, ExportError) as exc:
        message = str(exc)
    else:
        print(path)
        return 0
    print("bench_export: %s" % message, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
