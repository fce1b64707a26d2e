import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_export.py"
_spec = importlib.util.spec_from_file_location("bench_export", _PATH)
bench_export = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_export)

COMMIT = "0123456789abcdef0123456789abcdef01234567"


def result(workload="exact-tables", trace=1, **changes):
    """A record of the shape perfbench/run.py writes."""
    record = {
        "workload": workload, "seed": 3, "seconds": 60.0, "trace": trace, "smoke": False,
        "environment": {"commit": COMMIT, "python": "3.11.7", "mpmath": "1.3.0",
                        "mpmath_backend": "python", "nproc": 2},
        "passes": 40, "requests_per_pass": 40, "attempted": 1600, "failed": 0,
        "error_rate": 0.0, "digest": ["ab" * 32],
        "end_to_end": {"setup_s": 0.14, "wall_s": 0.4, "latency_p50_s": 0.01,
                       "latency_tail_s": 0.012, "peak_rss_mb": 24.5},
        "pass_wall_s": [0.4] * 40, "messages": [],
    }
    if trace:
        record["per_layer"] = {"detrep.poly_det.self_s": 0.1, "detrep.max_bits": 812,
                               "trace.overhead": 0.3}
    record.update(changes)
    return record


@pytest.fixture(autouse=True)
def in_tmp_path(tmp_path, monkeypatch):
    """The exporter writes to the current directory, as run from a checkout root."""
    monkeypatch.chdir(tmp_path)


def run_main(tmp_path, record, capsys):
    source = tmp_path / ("result-%s.json" % record["workload"])
    source.write_text(json.dumps(record))
    code = bench_export.main([str(source)])
    return code, capsys.readouterr()


def test_two_workloads_share_one_file(tmp_path, capsys):
    assert run_main(tmp_path, result(), capsys)[0] == 0
    code, out = run_main(tmp_path, result("cli-session"), capsys)
    assert code == 0
    path = tmp_path / "BENCH_0123456.json"
    assert out.out.strip() == path.name
    bench = json.loads(path.read_text())
    assert (bench["commit"], bench["python"], bench["mpmath"]) == (COMMIT, "3.11.7", "1.3.0")
    assert list(bench["workloads"]) == ["cli-session", "exact-tables"]
    entry = bench["workloads"]["exact-tables"]
    assert entry["end_to_end"]["wall_s"] == 0.4
    assert entry["per_layer"]["detrep.poly_det.self_s"] == 0.1
    assert entry["max_bits"] == 812
    assert entry["seed"] == 3 and entry["digest"] == ["ab" * 32]


def test_reexport_replaces_the_workload(tmp_path, capsys):
    run_main(tmp_path, result(), capsys)
    run_main(tmp_path, result(seed=9), capsys)
    bench = json.loads((tmp_path / "BENCH_0123456.json").read_text())
    assert bench["workloads"]["exact-tables"]["seed"] == 9


@pytest.mark.parametrize(
    "record, cause",
    [
        (result(trace=0), "--trace 1"),
        (result(smoke=True), "--smoke"),
        (result(failed=2), "2 of 1600 checks failed"),
        (dict(result(), environment=dict(result()["environment"], commit="unknown (git not available)")),
         "no commit"),
        ({"workload": "exact-tables"}, "lacks the field"),
    ],
)
def test_refuses_what_is_not_a_measurement(tmp_path, capsys, record, cause):
    code, out = run_main(tmp_path, record, capsys)
    assert code == 2
    assert cause in out.err
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_refuses_another_environment(tmp_path, capsys):
    run_main(tmp_path, result(), capsys)
    other = result("cli-session")
    other["environment"]["python"] = "3.12.1"
    code, out = run_main(tmp_path, other, capsys)
    assert code == 2 and "python 3.11.7" in out.err
