"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from repro.pipelines import CompilerSession, parse_opt_level  # noqa: E402
from repro.service import ServiceError  # noqa: E402
from repro.workloads import get_workload  # noqa: E402
from spans import Tracer  # noqa: E402

STREAMS = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import jobs
seed = int(sys.argv[2])
eligible = [jobs.generated_name(s) for s in jobs.POOL_SEEDS]
programs = jobs.compile_programs(seed, eligible)
print(json.dumps({
    "verify": [jobs.verify_pass(seed, i) for i in range(2)],
    "compile": [programs, jobs.compile_pass(seed, 0, programs)],
    "relcheck": jobs.relcheck_pass(seed, 0),
    "service": [jobs.service_stream(seed, jobs.SERVICE_REQUESTS, subrun)
                for subrun in range(jobs.SERVICE_SUBRUNS)],
}))
"""


def _streams(seed: int, hash_seed: str) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, "-c", STREAMS, str(ROOT),
                           str(seed)], env=env, check=True,
                          capture_output=True).stdout


def test_job_streams_are_byte_identical_for_a_seed():
    first = _streams(7, "1")
    assert first == _streams(7, "2")
    assert first != _streams(8, "1")
    service = json.loads(first)["service"]
    other = json.loads(_streams(8, "1"))["service"]
    assert len(service) == jobs.SERVICE_SUBRUNS
    for mine, theirs in zip(service, other):
        assert len(mine) == jobs.SERVICE_REQUESTS
        assert sorted(mine) == sorted(theirs)


def _summary(records, limit=1.0):
    return metrics.RunSummary("unit", records, elapsed=2.0, setup_s=0.1,
                              peak_rss_mb=10.0, latency_limit=limit)


def test_tail_reports_percentile_and_sample_count():
    values = [float(i) for i in range(1, 101)]
    value, percentile, samples = metrics.tail(values)
    assert (value, percentile, samples) == (90.0, 90.0, 100)
    assert sum(v > value for v in values) == metrics.TAIL_SAMPLES_BEYOND
    assert metrics.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)
    records = [metrics.JobRecord("p", "-OVERIFY", v) for v in values]
    report = "\n".join(metrics.report_lines(_summary(records)))
    assert "latency_s.tail" in report and "p90.0, n=100" in report


class _RefusingClient:
    def verify(self, **request):
        raise ServiceError("server at capacity", kind="backpressure",
                           retryable=True, retry_after=0.5)


def test_refused_request_fails_and_misses_the_limit():
    expected = workloads.load_expected()
    tracer = Tracer(True)
    refused = workloads._service_request(_RefusingClient(), expected, tracer,
                                         "req:0", "wc", "-O0")
    assert refused.failed and refused.latency is None
    assert tracer.counts["service.rejected"] == 1
    answered = metrics.JobRecord("wc", "-OVERIFY", 0.05, decided=True)
    summary = _summary([answered, refused])
    values = metrics.end_to_end(summary)
    assert summary.failed == 1
    assert values["within_limit_ratio"] == 0.5
    report = "\n".join(metrics.report_lines(summary))
    assert re.search(r"failed_ratio +0.5 ratio +\(1/2\)", report)


@pytest.fixture
def small_registry(monkeypatch):
    monkeypatch.setattr(jobs, "registry_names",
                        lambda: ["buggy_div", "true"])


def _planted(tmp_path: Path) -> Path:
    expected = json.loads(workloads.EXPECTED_PATH.read_text())
    expected["bugs"]["true"] = [{"kind": "division by zero",
                                 "min_input_bytes": 1,
                                 "max_input_bytes": None, "why": "planted"}]
    expected["programs"]["buggy_div"]["return_u32"] += 1
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    return path


def test_planted_wrong_entry_counts_as_wrong_answer(small_registry,
                                                    tmp_path, monkeypatch):
    clean = workloads.run_verify_registry(1, 0.0, Tracer(False))
    assert clean.attempted == 4 and clean.wrong_answers == 0
    monkeypatch.setattr(workloads, "EXPECTED_PATH", _planted(tmp_path))
    planted = workloads.run_verify_registry(1, 0.0, Tracer(False))
    assert planted.wrong_answers == 2
    wrong = [r for r in planted.records if r.wrong]
    assert {r.program for r in wrong} == {"true"}


def test_planted_concrete_answer_counts_as_wrong(small_registry, tmp_path,
                                                 monkeypatch):
    monkeypatch.setattr(workloads, "EXPECTED_PATH", _planted(tmp_path))
    monkeypatch.setattr(jobs, "GENERATED_PER_RUN", 0)
    summary = workloads.run_compile_mix(1, 0.0, Tracer(False))
    wrong = {(r.program, r.level) for r in summary.records if r.wrong}
    assert wrong == {("buggy_div", level) for level in jobs.ALL_LEVELS}


def _module(name: str, level: str):
    return CompilerSession().compile(
        get_workload(name).source, level=parse_opt_level(level)).module


def test_settle_tells_real_bugs_from_phantoms():
    # An undecided tail -OVERIFY run reports an out-of-bounds access with
    # no test input; the exact exploration shows it cannot happen.
    assert workloads.settle(_module("tail", "-OVERIFY"), 3, set(),
                            []) is False
    # buggy_div divides by zero; with that missing from the answer key,
    # the input the exact exploration finds reproduces it: a wrong answer.
    module = _module("buggy_div", "-O0")
    assert workloads.settle(module, 3, set(), []) is True
    assert workloads.settle(module, 3, {"division by zero"}, []) is False


def test_benchmark_refuses_to_run_without_program_sources(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    run = subprocess.run([sys.executable, str(copy / "run.py"),
                          "--workload", "compile-mix", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode != 0 and run.stdout == ""
