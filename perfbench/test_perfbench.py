"""The benchmark's own tests: seeded inputs, the output checks, the tracer,
the tail statistic, and a smoke run of every workload in both modes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_request_list_is_a_pure_function_of_the_seed(workload):
    first = workloads.make_requests(workload, 7)
    assert first == workloads.make_requests(workload, 7)
    assert first != workloads.make_requests(workload, 8)
    assert len(first) > run.TAIL_BEYOND


def test_exact_tables_revisits_half_the_requests():
    requests = workloads.make_requests("exact-tables", 3)
    revisits = [r for r in requests if r["revisit"]]
    assert len(revisits) * 2 == len(requests)
    for r in revisits:
        opened = requests[: requests.index(r)]
        assert any(o["b"] == r["b"] and o["alpha"] == r["alpha"] and not o["revisit"]
                   for o in opened)


def test_certified_zeros_uses_a_fresh_q_per_request():
    requests = workloads.make_requests("certified-zeros", 3)
    assert len({r["q"] for r in requests}) == len(requests)
    assert {r["precision"] for r in requests} == {128, 256, 512, 1024}


def _poly_record(match):
    rows = [{"n": 0, "det": ["1"], "oracle": ["1"], "match": True},
            {"n": 1, "det": ["-1/2", "1"], "oracle": ["-1/2", "1"], "match": match}]
    return json.dumps({"payload": rows})


def test_cli_checks_catch_a_mismatch_and_a_wrong_exit_code():
    req = {"argv": ["poly", "--n", "1"], "exit": 0, "format": "json"}
    assert workloads.check_cli_output(req, 0, _poly_record(True), "") == (
        True, ["1", "-1/2", "1"])
    assert not workloads.check_cli_output(req, 0, _poly_record(False), "")[0]
    assert not workloads.check_cli_output(req, 3, "", "error: x")[0]
    assert not workloads.check_cli_output(req, 0, "not json", "")[0]
    domain = {"argv": ["poly"], "exit": 3, "format": None}
    assert workloads.check_cli_output(domain, 3, "", "error: needs sqrt(q)")[0]
    assert not workloads.check_cli_output(domain, 1, "", "Traceback ...")[0]


def test_tracer_self_time_and_recursion():
    tracer = tracing.Tracer()

    def fact(n):
        return 1 if n == 0 else n * traced_fact(n - 1)

    traced_fact = tracer.span("fact", fact, key=lambda n: n)
    outer = tracer.span("outer", lambda: traced_fact(5) + traced_fact(5))
    assert outer() == 240
    # the recursive self-calls pass straight through the wrapper
    assert tracer.counts["fact.calls"] == 2
    assert tracer.counts["fact.repeats"] == 1
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "fact", "fact"]
    outer_span = tracer.spans[0]
    children = sum(s[2] - s[1] for s in tracer.spans[1:])
    assert tracer.spans[1][3] == 0
    assert tracer.self_s["outer"] == pytest.approx(outer_span[2] - outer_span[1] - children)


def test_tail_keeps_ten_samples_beyond():
    value, percentile, beyond = run.tail(list(range(40)))
    assert (value, percentile, beyond) == (29, 75.0, 10)


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in (ROOT / "perfbench").glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exact-tables", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
