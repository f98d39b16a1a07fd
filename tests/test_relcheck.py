"""Cross-level translation validation (``src/repro/relcheck/``).

Three layers of coverage:

1. **Positive sweep** — registry workloads at the paper's pair
   (-O0, -OVERIFY) and at (-O2, -O3) must relcheck with zero
   divergences.  The tier-1 default is a fast, trap-exercising subset;
   set ``RELCHECK_WORKLOADS=all`` (nightly CI) for the full registry, or
   ``RELCHECK_WORKLOADS=wc,cat`` for a specific list.
2. **Negative tests** — re-open the two fuzzer-found miscompiles through
   the ``dce_drops_traps`` and ``jump_threading_ignores_phi_uses``
   fixtures (``conftest.py``) and assert relcheck catches each with
   a *replayable* counterexample: the concrete input must make the two
   modules visibly disagree under the concrete interpreter.
3. **Plumbing** — trap-deletion whitelist semantics, the
   ``SolverKnowledgeStore`` whole-run memo, and the
   ``CompilerSession.compile_and_validate`` surface.
"""

from __future__ import annotations

import os

import pytest

from repro.frontend import compile_to_ir
from repro.interp import run_module
from repro.pipelines import (
    CompileOptions, CompilerSession, OptLevel, build_pipeline_from_text,
    compile_source,
)
from repro.relcheck import (
    RelcheckConfig, relcheck_modules, relcheck_workload,
)
from repro.service.store import SolverKnowledgeStore
from repro.workloads import workload_names

# ------------------------------------------------------- positive sweep

PAIRS = [("O0", "OVERIFY"), ("O2", "O3")]

#: Fast subset exercising both verdict kinds: return-value paths (wc,
#: echo, yes, rev, cut) and trap-agreement paths (buggy_div,
#: buggy_index) at both pairs, each under a second.
_DEFAULT_SWEEP = ["wc", "buggy_div", "buggy_index", "echo", "true", "yes",
                  "rev", "cut"]

_SWEEP_CONFIG = RelcheckConfig(input_bytes=2, max_paths=64,
                               timeout_seconds=30.0,
                               query_deadline_seconds=1.0)


def _sweep_workloads():
    names = os.environ.get("RELCHECK_WORKLOADS", "")
    if names == "all":
        return workload_names()
    if names:
        return [name for name in names.split(",") if name]
    return _DEFAULT_SWEEP


@pytest.mark.parametrize("pair", PAIRS, ids=["O0vOVERIFY", "O2vO3"])
@pytest.mark.parametrize("name", _sweep_workloads())
def test_registry_workloads_equivalent(name, pair):
    """Every checked path of every swept workload must agree: no
    divergence verdicts at either level pair."""
    report = relcheck_workload(name, levels=pair, config=_SWEEP_CONFIG)
    assert report.clean, [d.describe() for d in report.divergences]
    assert report.stats.divergences == 0
    if os.environ.get("RELCHECK_WORKLOADS", "") == "":
        # The default subset is chosen to be exhaustively decidable: no
        # truncation, no unknowns, and at least one path positively
        # discharged (an all-unknown run would be a vacuous pass).
        # Expanded sweeps (nightly ``RELCHECK_WORKLOADS=all``) include
        # workloads whose heavier paths legitimately time out to
        # unknown; there only "zero divergences" is asserted.
        assert not report.truncated
        assert report.stats.unknown_paths == 0
        assert report.stats.phantom_paths == 0
        assert report.stats.paths_proved + report.stats.trap_agreements >= 1


# -------------------------------------------- negative: planted miscompiles

_TRAPPING_DIV = """
int main(unsigned char *input, int len) {
    int t = 100 / input[0];
    return 7;
}
"""


def _plant(source: str, pipeline_text: str):
    """Reference module (straight lowering) vs the module a broken
    pipeline produces."""
    module_a = compile_to_ir(source)
    module_b = compile_to_ir(source)
    build_pipeline_from_text(pipeline_text).run(module_b)
    return module_a, module_b


def test_unsafe_dce_trap_deletion_is_caught(dce_drops_traps):
    """DCE with the trap check removed deletes the (otherwise-dead)
    trapping division — the fuzzer-found DCE miscompile.  Relcheck must
    report a trap-deleted divergence whose counterexample concretely
    traps the reference module but not the optimized one."""
    module_a, module_b = _plant(_TRAPPING_DIV, "mem2reg,dce")
    report = relcheck_modules(module_a, module_b,
                              config=RelcheckConfig(input_bytes=1),
                              pair=("-O0", "-Obroken"))
    assert not report.clean
    kinds = {d.kind for d in report.divergences}
    assert "trap-deleted" in kinds
    witness = next(d.counterexample for d in report.divergences
                   if d.kind == "trap-deleted")
    assert witness is not None
    # The counterexample must *replay*: concrete semantics disagree.
    result_a = run_module(module_a, witness)
    result_b = run_module(module_b, witness)
    assert result_a.crashed
    assert "division by zero" in str(result_a.error)
    assert not result_b.crashed
    assert result_b.return_value == 7


def test_whitelisted_trap_deletion_is_counted_clean(dce_drops_traps):
    """The same plant with ``division by zero`` whitelisted is licensed:
    no divergence, but the deletion is still counted, never silent."""
    module_a, module_b = _plant(_TRAPPING_DIV, "mem2reg,dce")
    config = RelcheckConfig(input_bytes=1,
                            trap_whitelist=frozenset({"division by zero"}))
    report = relcheck_modules(module_a, module_b, config=config,
                              pair=("-O0", "-Obroken"))
    assert report.clean
    assert report.stats.whitelisted_trap_deletions == 1


_LOOP_SUM = """
int main(unsigned char *input, int len) {
    int total = 0;
    for (int i = 0; i < 2; i = i + 1) {
        total = total + input[i];
    }
    return total;
}
"""


def test_unsafe_jump_threading_is_caught(jump_threading_ignores_phi_uses):
    """Jump threading without the outside-use phi check threads the loop
    entry past the header, orphaning the induction phi — the
    fuzzer-found jump-threading miscompile.  The optimized module is
    broken badly enough that its replay may die inside the engine rather
    than produce a comparable return value, so the assertion is on what
    relcheck promises: a divergence verdict with a counterexample input
    on which the two modules *visibly* disagree when concretely
    executed."""
    module_a, module_b = _plant(
        _LOOP_SUM, "mem2reg,instcombine,dce,jump-threading,"
        "simplifycfg")
    report = relcheck_modules(module_a, module_b,
                              config=RelcheckConfig(input_bytes=2),
                              pair=("-O0", "-Obroken"))
    assert not report.clean
    witnesses = [d.counterexample for d in report.divergences
                 if d.counterexample is not None]
    assert witnesses, [d.describe() for d in report.divergences]
    witness = witnesses[0]
    result_a = run_module(module_a, witness)
    result_b = run_module(module_b, witness)
    # Reference semantics: the byte sum.  The threaded module crashes.
    assert not result_a.crashed
    assert result_a.return_value == sum(witness) & 0xFFFFFFFF
    assert result_b.crashed


# ------------------------------------------------------------- plumbing

def test_store_memo_round_trip(tmp_path):
    """A second run over an unchanged pair must be answered from the
    store's whole-run memo — same verdicts, same counters, no solving."""
    path = tmp_path / "store.jsonl"
    config = RelcheckConfig(input_bytes=2)

    store = SolverKnowledgeStore(path)
    store.load()
    cold = relcheck_workload("wc", config=config, store=store)
    assert cold.provenance == "cold"
    assert cold.clean and not cold.truncated

    warm_store = SolverKnowledgeStore(path)
    assert warm_store.load()
    warm = relcheck_workload("wc", config=config, store=warm_store)
    assert warm.provenance == "memo-hit"
    assert warm.clean
    assert warm.stats.as_dict() == cold.stats.as_dict()
    assert ([(v.index, v.kind, v.status, v.counterexample)
             for v in warm.verdicts]
            == [(v.index, v.kind, v.status, v.counterexample)
                for v in cold.verdicts])


def test_compile_and_validate_surface():
    """The session-level surface compiles both levels (shared front end)
    and returns the per-level results plus the relcheck report."""
    from repro.workloads import get_workload

    session = CompilerSession()
    results, report = session.compile_and_validate(
        get_workload("buggy_div").source,
        relcheck_config=RelcheckConfig(input_bytes=2))
    assert set(results) == {OptLevel.O0, OptLevel.OVERIFY}
    assert report.clean
    assert report.pair == (str(OptLevel.O0), str(OptLevel.OVERIFY))
    assert report.stats.paths_proved + report.stats.trap_agreements >= 1
