"""The repository benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload verify-registry --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` records spans and counts around every call into the
program and reports the per-layer metrics instead (plus tracing
overhead), and writes the spans to ``.perfbench/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every answer is checked against
``perfbench/expected.json``; ``correct`` is false when any differs.
``BENCHMARK.json`` lists the workloads and metrics; ``perfbench/baseline.json``
holds the predictions, definitions, findings and the baseline.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("verify-registry", "compile-mix", "service-zipf",
                  "relcheck-registry")


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _use_program_sources() -> None:
    """Put the program's sources on the path; refuse to run without
    them."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources under "
                         f"{ROOT / 'src'}; run from a full checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def _pin_to_one_cpu() -> None:
    """Run the benchmark, and every process it starts, on one CPU.  The
    CPUs of a shared virtual machine change speed independently of each
    other, so the host-speed reference (``hostspeed.py``) tracks the
    program only when both run on the same CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _span_cost() -> float:
    """Seconds one traced span costs, measured on an empty span."""
    from spans import Tracer

    probe = Tracer(True)
    start = time.perf_counter()
    for _ in range(2000):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - start) / 2000


def layer_metrics(tracer: object, summary: object) -> Dict[str, Tuple[float,
                                                                       str]]:
    """Per-layer metrics of a traced run: seconds and counts are per job
    of the layer that did them; a layer that does no work on this
    workload reports 0."""
    from workloads import TRACED_PASSES

    counts = tracer.counts
    totals = tracer.total_seconds()
    selfs = tracer.self_seconds()

    def c(name: str) -> float:
        return counts.get(name, 0.0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    jobs = summary.attempted
    compiles = sum(c(f"ir.builds.{lvl}") for lvl in
                   ("-O0", "-O1", "-O2", "-O3", "-OVERIFY"))
    symex_jobs = c("symex.jobs")
    solver_jobs = symex_jobs + c("relcheck.jobs")
    relcheck_jobs = c("relcheck.jobs")
    answered = c("service.answered")
    requests = c("service.requests")
    metrics: Dict[str, Tuple[float, str]] = {
        "frontend.s": (ratio(totals.get("frontend", 0.0), jobs), "s"),
        "frontend.parses": (ratio(c("frontend.parses"), compiles), "ratio"),
        "frontend.reuses": (ratio(c("frontend.reuses"), compiles), "ratio"),
        "pipelines.s": (ratio(totals.get("pipelines", 0.0), jobs), "s"),
        "passes.s": (ratio(c("passes.s"), compiles), "s"),
    }
    for name in TRACED_PASSES:
        metrics[f"pass.{name}.s"] = (ratio(c(f"pass.{name}.s"), compiles),
                                     "s")
    metrics["analysis.cache_hit_ratio"] = (
        ratio(c("analysis.hits"), c("analysis.hits") + c("analysis.misses")),
        "ratio")
    for level in ("-O0", "-O2", "-OVERIFY"):
        key = level.lstrip("-")
        metrics[f"ir.instructions.{key}"] = (
            ratio(c(f"ir.instructions.{level}"), c(f"ir.builds.{level}")),
            "count")
        metrics[f"interp.instructions.{key}"] = (
            ratio(c(f"interp.instructions.{level}"),
                  c(f"interp.runs.{level}")), "count")
    for name in ("functions_inlined", "loops_unswitched", "loops_unrolled",
                 "branches_converted"):
        metrics[f"table3.{name}"] = (
            ratio(c(f"table3.{name}"), c("ir.builds.-OVERIFY")), "count")
    metrics["overify_speedup"] = (overify_speedup(summary.records), "ratio")
    solver_s = c("solver.time_seconds")
    symex_solver_s = solver_s - c("relcheck.solver_s")
    metrics.update({
        "symex.s": (ratio(c("symex.s"), symex_jobs), "s"),
        "symex.self_s": (ratio(c("symex.s") - symex_solver_s, symex_jobs),
                         "s"),
        "symex.paths": (ratio(c("symex.paths"), symex_jobs), "count"),
        "symex.instructions": (ratio(c("symex.instructions"), symex_jobs),
                               "count"),
        "symex.forks": (ratio(c("symex.forks"), symex_jobs), "count"),
        "symex.paths_per_s": (ratio(c("symex.paths"), c("symex.s")), "1/s"),
        "symex.timeout_ratio": (ratio(c("symex.timeouts"), symex_jobs),
                                "ratio"),
        "symex.budget_overshoot_s": (
            ratio(c("symex.budget_overshoot_s"), c("symex.timeouts")), "s"),
        "solver.s": (ratio(solver_s, solver_jobs), "s"),
        "solver.queries": (ratio(c("solver.queries"), solver_jobs), "count"),
        "solver.queries_per_branch": (
            ratio(c("solver.queries") - c("relcheck.solver_queries"),
                  c("symex.branches")), "ratio"),
        "solver.csp_searches": (ratio(c("solver.csp_searches"), solver_jobs),
                                "count"),
        "solver.assignments_tried": (
            ratio(c("solver.assignments_tried"), solver_jobs), "count"),
        "solver.prune_splits": (ratio(c("solver.prune_splits"), solver_jobs),
                                "count"),
        "solver.cache_hits": (
            ratio(c("solver.cache_hits") + c("solver.ubtree_hits")
                  + c("solver.model_cache_hits"), solver_jobs), "count"),
        "solver.group_queries": (ratio(c("solver.group_queries"),
                                       solver_jobs), "count"),
        "solver.cache_hit_ratio": (
            ratio(c("solver.cache_hits") + c("solver.ubtree_hits")
                  + c("solver.model_cache_hits"), c("solver.group_queries")),
            "ratio"),
        "solver.unknown_results": (ratio(c("solver.unknown_results"),
                                         solver_jobs), "count"),
        "solver.unknown_ratio": (
            ratio(c("solver.unknown_results"), c("solver.queries")),
            "ratio"),
        "interp.run_s": (ratio(c("interp.run_s"), c("interp.jobs")), "s"),
        "service.queue_wait_s": (
            ratio(c("service.queue_wait_s"),
                  answered - c("service.deduped")), "s"),
        "service.compile_s": (ratio(c("service.compile_s"), answered), "s"),
        "service.verify_s": (ratio(c("service.verify_s"),
                                   c("service.verifies")), "s"),
        "service.memo_hit_ratio": (ratio(c("service.memo_hits"), answered),
                                   "ratio"),
        "service.dedupe_ratio": (ratio(c("service.deduped"), answered),
                                 "ratio"),
        "service.rejected_ratio": (ratio(c("service.rejected"), requests),
                                   "ratio"),
        "service.memo_hit_latency_s.p50": (
            statistics.median(tracer.samples["service.memo_hit_latency_s"])
            if tracer.samples.get("service.memo_hit_latency_s") else 0.0,
            "s"),
        "store.records": (c("store.records"), "count"),
        "store.bytes": (c("store.bytes"), "bytes"),
        "store.load_s": (c("store.load_s"), "s"),
        "store.prime_s": (c("store.prime_s"), "s"),
        "store.save_s": (c("store.save_s"), "s"),
        "store.saves": (c("store.saves"), "count"),
        "relcheck.s": (ratio(c("relcheck.s"), relcheck_jobs), "s"),
        "relcheck.solver_s": (ratio(c("relcheck.solver_s"), relcheck_jobs),
                              "s"),
    })
    for key in ("paths_proved", "equivalence_queries", "equivalence_folded",
                "selects_resolved", "unknown_paths", "phantom_paths"):
        metrics[f"relcheck.{key}"] = (ratio(c(f"relcheck.{key}"),
                                            relcheck_jobs), "count")
    metrics["job.self_s"] = (ratio(selfs.get("job", 0.0), jobs), "s")
    return metrics


def overify_speedup(records: List[object]) -> float:
    """Geometric mean over programs of t(-O0) / t(-OVERIFY), from the
    jobs that ran a program at both levels (0 when none did)."""
    times: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        if record.latency is not None:
            times.setdefault((record.program, record.level),
                             []).append(record.latency)
    logs = []
    for (program, level), values in times.items():
        if level == "-O0" and (program, "-OVERIFY") in times:
            overify = statistics.fmean(times[(program, "-OVERIFY")])
            logs.append(math.log(statistics.fmean(values) / overify))
    return math.exp(statistics.fmean(logs)) if logs else 0.0


def main(argv: List[str]) -> int:
    args = _parse_args(argv)
    _use_program_sources()
    _pin_to_one_cpu()
    os.chdir(ROOT)

    from metrics import END_TO_END_UNITS, end_to_end, report_lines
    from spans import Tracer
    from workloads import RUN_DIR, WORKLOADS

    tracer = Tracer(bool(args.trace))
    summary = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    for line in report_lines(summary):
        print(line)
    if args.trace:
        values = layer_metrics(tracer, summary)
        span_cost = _span_cost()
        replay = tracer.total_seconds().get("frontend", 0.0) + \
            tracer.total_seconds().get("store", 0.0)
        overhead = (replay + span_cost * len(tracer.spans)) / \
            summary.measured["elapsed"]
        values["trace.overhead_ratio"] = (overhead, "ratio")
        values["trace.latency_s.p50"] = (
            statistics.median(summary.latencies()), "s")
        print(f"  tracing overhead: {overhead:.4f} of the run "
              f"({len(tracer.spans)} spans at {span_cost * 1e6:.1f} us, "
              f"{replay:.3f} s of replays); traced latency p50 "
              f"{values['trace.latency_s.p50'][0]:.6g} s")
        for name, value in sorted(tracer.self_seconds().items()):
            print(f"  self time {name:<12} {value:.6g} s")
        RUN_DIR.mkdir(exist_ok=True)
        tracer.write(str(RUN_DIR / f"trace-{args.workload}-{args.seed}.json"))
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in values.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end(summary).items()}
    print(json.dumps({"correct": summary.wrong_answers == 0,
                      "attempted": summary.attempted,
                      "failed": summary.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
