"""Reproducibility of the sequential engine.

Verification outcomes are memoized by the knowledge store, compared
level-against-level by the Table 1 harness and relcheck, and replayed by
the benchmark, so one exploration must mean one answer: a repeated run
reproduces every counter, and exhaustive exploration visits the same path
set under every search discipline.  The searcher only shapes order and
memory, and relcheck sorts the reference paths before checking them, so
its verdicts cannot depend on the discipline either.
"""

import pytest

from repro.pipelines import CompileOptions, OptLevel, compile_source
from repro.symex import (
    BFSSearcher, DFSSearcher, ExecutionState, RandomSearcher,
    SharedSolverCaches, SymexLimits, explore, make_searcher,
)
from repro.verification import VerificationRequest, make_backend
from repro.workloads import get_workload

from conftest import compile_workload_module

LIMITS = SymexLimits(timeout_seconds=120.0)

#: The headline kernel, a branchier text filter, and the two seeded-bug
#: programs (several error paths each).
WORKLOADS = ["wc", "uniq", "buggy_div", "buggy_index"]
INPUT_BYTES = 3


def _outcome_fingerprint(report):
    """Everything about a run that must not vary between runs or
    searchers.  Timings, state ids and model-dependent test inputs are
    excluded."""
    stats = report.stats
    return {
        "paths_completed": stats.paths_completed,
        "paths_errored": stats.paths_errored,
        "paths_terminated": stats.paths_terminated,
        "total_paths": stats.total_paths,
        "instructions": stats.instructions_interpreted,
        "branches": stats.branches_encountered,
        "forks": stats.forks,
        "states_created": stats.states_created,
        "bug_signatures": frozenset(report.bug_signatures()),
        "queries": report.solver_stats.queries,
        "timed_out": stats.timed_out,
    }


class TestExplorationDeterminism:
    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize("searcher", ["dfs", "bfs"])
    def test_repeat_run_is_identical(self, name, searcher):
        module = compile_workload_module(name)
        first, second = (explore(module, INPUT_BYTES, searcher=searcher,
                                 limits=LIMITS) for _ in range(2))
        assert _outcome_fingerprint(first) == _outcome_fingerprint(second)
        assert [(p.status, p.instructions, p.constraint_count)
                for p in first.paths] == \
            [(p.status, p.instructions, p.constraint_count)
             for p in second.paths]

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_bfs_visits_the_dfs_path_set(self, name):
        module = compile_workload_module(name)
        dfs = explore(module, INPUT_BYTES, searcher="dfs", limits=LIMITS)
        bfs = explore(module, INPUT_BYTES, searcher="bfs", limits=LIMITS)
        assert _outcome_fingerprint(dfs) == _outcome_fingerprint(bfs)

    def test_random_searcher_same_path_set(self):
        module = compile_workload_module("wc")
        baseline = explore(module, INPUT_BYTES, limits=LIMITS)
        randomized = explore(module, INPUT_BYTES, searcher="random",
                             limits=LIMITS)
        assert _outcome_fingerprint(baseline) == \
            _outcome_fingerprint(randomized)

    def test_every_error_path_files_one_bug_report(self):
        module = compile_workload_module("buggy_div")
        report = explore(module, INPUT_BYTES, limits=LIMITS)
        assert report.stats.paths_errored >= 1
        assert len(report.bugs) == report.stats.paths_errored
        errored = [p for p in report.paths if p.status.value == "error"]
        assert len(errored) == len(report.bugs)

    @pytest.mark.parametrize("level", [OptLevel.O0, OptLevel.OVERIFY],
                             ids=["O0", "OVERIFY"])
    def test_backend_outcome_matches_explore(self, level):
        """The Table 1 ingredients the symex backend reports are exactly
        the hand-driven executor's, on an optimized and an unoptimized
        build of a seeded-bug program."""
        module = compile_source(get_workload("buggy_index").source,
                                CompileOptions(level=level)).module
        direct = explore(module, INPUT_BYTES, limits=LIMITS)
        outcome = make_backend("symex").verify(
            module, VerificationRequest(symbolic_input_bytes=INPUT_BYTES,
                                        timeout_seconds=120.0))
        assert outcome.paths == direct.stats.total_paths
        assert outcome.errors == direct.stats.paths_errored
        assert outcome.instructions == direct.stats.instructions_interpreted
        assert outcome.bug_signatures == direct.bug_signatures()
        assert outcome.timed_out == direct.stats.timed_out


class TestSearcherDiscipline:
    @pytest.mark.parametrize("name,cls", [("dfs", DFSSearcher),
                                          ("bfs", BFSSearcher),
                                          ("random", RandomSearcher)])
    def test_make_searcher_names(self, name, cls):
        searcher = make_searcher(name)
        assert type(searcher) is cls
        assert searcher.empty()

    def test_make_searcher_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown search strategy"):
            make_searcher("steal")

    def test_random_searcher_seed_fixes_the_order(self):
        states = [ExecutionState() for _ in range(8)]
        orders = []
        for _ in range(2):
            searcher = RandomSearcher(seed=7)
            for state in states:
                searcher.add(state)
            orders.append([searcher.pop() for _ in range(len(states))])
        assert orders[0] == orders[1]


class TestRelcheckDeterminism:
    @staticmethod
    def _fingerprint(report):
        return {
            "stats": report.stats.as_dict(),
            "verdicts": [(v.index, v.kind, v.status, v.detail,
                          v.counterexample) for v in report.verdicts],
            "divergences": [(d.kind, d.detail, d.counterexample)
                            for d in report.divergences],
            "truncated": report.truncated,
        }

    @pytest.mark.parametrize("name", ["wc", "buggy_div"])
    def test_repeat_runs_are_identical(self, name):
        from repro.relcheck import RelcheckConfig, relcheck_workload

        config = RelcheckConfig(input_bytes=INPUT_BYTES)
        first, second = (relcheck_workload(name, config=config)
                         for _ in range(2))
        assert first.clean and second.clean
        assert self._fingerprint(first) == self._fingerprint(second)

    def test_divergence_counterexamples_are_reproducible(
            self, dce_drops_traps):
        """A planted miscompile yields the same divergence kinds and the
        same concrete counterexamples on every run."""
        from repro.frontend import compile_to_ir
        from repro.pipelines import build_pipeline_from_text
        from repro.relcheck import RelcheckConfig, relcheck_modules

        source = """
        int main(unsigned char *input, int len) {
            int t = 100 / input[0];
            return 7;
        }
        """
        module_a = compile_to_ir(source)
        module_b = compile_to_ir(source)
        build_pipeline_from_text("mem2reg,dce").run(module_b)
        first, second = (
            relcheck_modules(module_a, module_b, pair=("-O0", "-Obroken"),
                             config=RelcheckConfig(input_bytes=1))
            for _ in range(2))
        assert not first.clean
        assert self._fingerprint(first) == self._fingerprint(second)

    def test_warm_shared_caches_do_not_change_verdicts(self):
        """The service hands one cache set to job after job: a second
        check answered from warm caches must reach the cold verdicts."""
        from repro.relcheck import RelcheckConfig, relcheck_modules

        config = RelcheckConfig(input_bytes=2)
        module_a = compile_workload_module("wc", OptLevel.O0)
        module_b = compile_workload_module("wc", OptLevel.OVERIFY)
        caches = SharedSolverCaches()
        cold = relcheck_modules(module_a, module_b, config=config,
                                shared_caches=caches)
        warm = relcheck_modules(module_a, module_b, config=config,
                                shared_caches=caches)
        assert cold.clean and warm.clean
        fingerprint = self._fingerprint(cold)
        assert fingerprint["verdicts"] == \
            self._fingerprint(warm)["verdicts"]
        assert fingerprint["truncated"] == warm.truncated
        assert warm.solver_stats.cache_hits >= 1

    def test_reference_searcher_does_not_change_verdicts(self):
        from repro.relcheck import RelcheckConfig, relcheck_workload

        runs = [relcheck_workload(
                    "buggy_div",
                    config=RelcheckConfig(input_bytes=INPUT_BYTES,
                                          searcher=searcher))
                for searcher in ("dfs", "bfs")]
        assert self._fingerprint(runs[0]) == self._fingerprint(runs[1])
