"""Benchmark: translation validation cold vs store-warmed vs memoized.

Relcheck discharges its per-path equivalence queries through the same
solver stack the backends use, so the PR 7 knowledge store must amortize
re-checks the way it amortizes re-verification: a warm run (solver
caches primed from a cold run's store) answers its group queries from
store records, and an unchanged module pair short-circuits entirely
through the whole-run memo.  The floor assertions — zero divergences,
warm runs actually hitting the store, memo runs returning byte-identical
verdicts — hold under ``--benchmark-disable`` too (the check.sh smoke).

Run with:  python -m pytest benchmarks/test_relcheck_bench.py --benchmark-only
"""

import pytest

from repro.pipelines import CompileOptions, OptLevel, compile_source
from repro.relcheck import RelcheckConfig, relcheck_modules
from repro.service.store import SolverKnowledgeStore
from repro.symex import SharedSolverCaches
from repro.workloads import get_workload

PAIR = (OptLevel.O0, OptLevel.OVERIFY)
INPUT_BYTES = 3
CONFIG = RelcheckConfig(input_bytes=INPUT_BYTES, timeout_seconds=120.0)


@pytest.fixture(scope="module")
def wc_pair():
    source = get_workload("wc").source
    return tuple(compile_source(source, CompileOptions(level=level)).module
                 for level in PAIR)


def _check(module_a, module_b, **kwargs):
    return relcheck_modules(module_a, module_b, config=CONFIG,
                            pair=("-O0", "-OVERIFY"), **kwargs)


def _verdict_content(report):
    return [(v.index, v.kind, v.status, v.counterexample)
            for v in report.verdicts]


def test_relcheck_cold(benchmark, wc_pair):
    module_a, module_b = wc_pair
    report = benchmark.pedantic(lambda: _check(module_a, module_b),
                                rounds=3, warmup_rounds=0)
    assert report.clean and not report.truncated
    assert report.stats.paths_proved >= 1
    benchmark.extra_info["paths_proved"] = report.stats.paths_proved
    benchmark.extra_info["equivalence_folded"] = \
        report.stats.equivalence_folded


def test_relcheck_warm_floor(benchmark, wc_pair, tmp_path):
    """Warm floor: a store-primed re-check reproduces the cold verdicts
    exactly and really answers from the store (store_hits > 0)."""
    module_a, module_b = wc_pair
    store_path = tmp_path / "knowledge.jsonl"
    cold = _check(module_a, module_b, store=SolverKnowledgeStore(store_path))
    assert cold.clean and not cold.truncated

    reports = []

    def warm_run():
        store = SolverKnowledgeStore(store_path)
        assert store.load()
        caches = SharedSolverCaches()
        store.prime(caches)
        # No store handed to the run: the whole-run memo must not
        # short-circuit what this test is measuring.
        report = _check(module_a, module_b, shared_caches=caches)
        reports.append(report)
        return report

    benchmark.pedantic(warm_run, rounds=3, warmup_rounds=0)
    warm = reports[-1]
    assert warm.clean and not warm.truncated
    assert _verdict_content(warm) == _verdict_content(cold)
    assert warm.solver_stats.store_hits > 0
    benchmark.extra_info["store_hits"] = warm.solver_stats.store_hits


def test_relcheck_memo_floor(benchmark, wc_pair, tmp_path):
    """Memo floor: an unchanged pair re-checks via the whole-run memo —
    provenance ``memo-hit``, verdicts and counters byte-identical."""
    module_a, module_b = wc_pair
    store_path = tmp_path / "knowledge.jsonl"
    cold = _check(module_a, module_b, store=SolverKnowledgeStore(store_path))
    assert cold.clean and cold.provenance == "cold"

    def memo_run():
        store = SolverKnowledgeStore(store_path)
        assert store.load()
        return _check(module_a, module_b, store=store)

    memo = benchmark.pedantic(memo_run, rounds=3, warmup_rounds=0)
    assert memo.provenance == "memo-hit"
    assert memo.clean
    assert _verdict_content(memo) == _verdict_content(cold)
    assert memo.stats.as_dict() == cold.stats.as_dict()
