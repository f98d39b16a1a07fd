"""The four workloads: job bodies, load loops and layer counts.

Every call into the program goes through its public API.  Spans wrap
those calls (names are the program's module names: ``pipelines``,
``frontend``, ``symex``, ``interp``, ``relcheck``, ``service``,
``store``); counts record what the program reports back at the same
boundary.  Work done only to trace (front-end and store replays) runs
outside the timed part of each job.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.frontend import analyze, lower, parse
from repro.pipelines import (
    CompileOptions, CompilerSession, OptLevel, link_sources, parse_opt_level,
)
from repro.relcheck import RelcheckConfig, relcheck_modules
from repro.service import ServiceClient, ServiceError
from repro.service.store import SolverKnowledgeStore
from repro.symex import SymbolicExecutor, SymexLimits
from repro.symex.solver import SharedSolverCaches
from repro.verification import VerificationRequest, make_backend
from repro.workloads import get_workload

import jobs
from hostspeed import HostSpeed
from metrics import JobRecord, RunSummary, rescale_run
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
#: Scratch files of a run (service socket and store), inside the checkout.
RUN_DIR = Path(".perfbench")

#: Setups per run; the median is reported.
SETUP_REPEATS = 7
#: Wall budget of the exploration that settles an unconfirmed bug report
#: (see :func:`settle`).
SETTLE_BUDGET_S = 30.0

# verify-registry -----------------------------------------------------------
VERIFY_INPUT_BYTES = 3
#: Per-job wall budget of the symbolic executor.  The per-query deadline
#: equals it, so one solver search cannot run unbounded past the budget.
VERIFY_BUDGET_S = 0.5
VERIFY_BACKEND = "symex<query-deadline-ms=500>"
VERIFY_LIMIT_S = 1.0
#: Nominal seconds of one pass (see :func:`pass_count`).
VERIFY_PASS_S = 17.0

# compile-mix ---------------------------------------------------------------
COMPILE_LIMIT_S = 0.5
COMPILE_PASS_S = 22.0

# relcheck-registry ---------------------------------------------------------
#: Path, fork, per-phase time and per-query budgets.  A job runs one
#: reference exploration and at most ``max_paths`` replays, each capped
#: by ``timeout_seconds``, so ``RELCHECK_JOB_BOUND_S`` bounds the job.
#: The path, fork and query budgets end every job first (cksum, the
#: slowest, takes about 1.2 s); the per-phase time budget is only a
#: backstop.  With a phase budget that ends jobs (0.1 s), how many
#: phases of cksum and factor fit depended on the host's speed, so their
#: latencies jumped between runs and the tail with them.
RELCHECK_CONFIG = RelcheckConfig(
    input_bytes=2, max_paths=8, max_forks=32, timeout_seconds=2.0,
    replay_max_paths=8, query_deadline_seconds=0.05)
RELCHECK_JOB_BOUND_S = RELCHECK_CONFIG.timeout_seconds * \
    (1 + RELCHECK_CONFIG.max_paths) + 1.0
RELCHECK_LIMIT_S = 2.0
RELCHECK_PASS_S = 6.0

# service-zipf --------------------------------------------------------------
#: The load is a closed loop over one connection, in
#: ``jobs.SERVICE_SUBRUNS`` sub-runs of a fixed Zipf mix of
#: ``jobs.SERVICE_REQUESTS`` requests, each against a fresh server that
#: opens the same warmed store.  What was tried before:
#:
#: - an open loop with Poisson arrivals (3/s, 60 requests a run) spread
#:   the latency tail by 0.3-0.9 of its median across seeds, because
#:   random bursts of cold jobs queue behind store saves;
#: - two connections spread it by 0.38 over five seeds: the server runs
#:   jobs on threads that share one interpreter lock, so a memo hit that
#:   met the other connection's cold verification took several times as
#:   long, and which ones met was down to timing;
#: - one server for all 300 requests spread it by 0.23: the server keeps
#:   every compiled module, so its collection pauses grow with the
#:   requests it has served, and where the long ones fell was down to
#:   timing.
#:
#: A one-byte input keeps the knowledge store, and hence every save,
#: small.  A run sends a fixed number of requests rather than filling
#: ``--seconds``, so the server's memory does not depend on throughput.
SERVICE_INPUT_BYTES = 1
SERVICE_BUDGET_S = 0.25
SERVICE_BACKEND = "symex<query-deadline-ms=250>"
#: Pairs outside the mixes the store is warmed with before the run.
SERVICE_WARM_PAIRS = 6
SERVICE_LIMIT_S = 2.0

#: The passes whose time the trace reports one by one (the top passes by
#: time).
TRACED_PASSES = ("simplifycfg", "gvn", "instcombine", "sccp", "load-elim",
                 "mem2reg")
#: Error kinds the runtime-checks pass may re-spell as a check failure;
#: answers compare them as one kind.
_MEMORY_KINDS = {"null pointer dereference", "out-of-bounds memory access",
                 "runtime check failure"}


# ----------------------------------------------------------------- answers

def load_expected() -> Dict[str, object]:
    with open(EXPECTED_PATH) as handle:
        expected = json.load(handle)
    missing = [name for name in jobs.registry_names()
               if name not in expected["programs"]]
    if missing:
        raise RuntimeError(f"answer key has no entry for {missing}")
    return expected


def _kind_class(kind: str) -> str:
    return "memory safety" if kind in _MEMORY_KINDS else kind


def expected_bug_kinds(expected: Dict[str, object], name: str,
                       input_bytes: int) -> Set[str]:
    return {_kind_class(bug["kind"])
            for bug in expected["bugs"].get(name, ())
            if bug["min_input_bytes"] <= input_bytes
            and (bug["max_input_bytes"] or input_bytes) >= input_bytes}


def exact(termination_reason: str, engine_errors: int,
          solver: Dict[str, float]) -> bool:
    """Whether a verification reached a verdict: the exploration finished
    within its budget, no path was lost to an engine error, and no solver
    answer it rests on was inexact."""
    return not termination_reason and engine_errors == 0 and \
        solver.get("unknown_results", 0) == 0


def check_bugs(expected: Dict[str, object], name: str, input_bytes: int,
               found: Set[str], decided: bool) -> Tuple[bool, str]:
    """``(wrong, detail)``: a decided verification must find exactly the
    expected bug kinds; an undecided one may miss some, never add one."""
    want = expected_bug_kinds(expected, name, input_bytes)
    got = {_kind_class(kind) for kind in found}
    wrong = got != want if decided else not got <= want
    return wrong, f"bug kinds {sorted(got)}, expected {sorted(want)}"


def settle(module: object, input_bytes: int, want: Set[str],
           inputs: List[Optional[bytes]]) -> Optional[bool]:
    """Settle the bug kinds beyond the answer key ``want`` that an
    undecided verification of ``module`` reported.

    ``True`` when one reproduces in the interpreter on a reported test
    input or on one found by an exact exploration (a wrong answer);
    ``False`` when an exact, complete exploration with fact pruning finds
    none (a phantom of the undecided run); ``None`` when neither settles
    it within ``SETTLE_BUDGET_S``."""
    interp = make_backend("interp")

    def reproduces(data: Optional[bytes]) -> bool:
        if data is None:
            return False
        outcome = interp.verify(module,
                                VerificationRequest(concrete_input=data))
        return any(_kind_class(signature[0]) not in want
                   for signature in outcome.bug_signatures)

    if any(reproduces(data) for data in inputs):
        return True
    report = SymbolicExecutor(
        module, limits=SymexLimits(timeout_seconds=SETTLE_BUDGET_S),
        fact_pruning=True).run(input_bytes)
    extra = [bug for bug in report.bugs
             if _kind_class(bug.kind.value) not in want]
    if any(reproduces(bug.test_input) for bug in extra):
        return True
    if extra or not exact(report.stats.termination_reason,
                          report.stats.engine_errors,
                          report.solver_stats.as_dict()):
        return None
    return False


def settle_unconfirmed(records: List[JobRecord], expected: Dict[str, object],
                       input_bytes: int,
                       evidence: Dict[jobs.Job, Tuple[object, List[bytes]]]
                       ) -> None:
    """Settle, after the timed part, every record whose undecided job
    reported a bug kind the answer key does not have (:func:`settle`).
    ``evidence`` maps a job to its module and the reported test inputs;
    a job without evidence (a service request) is compiled here."""
    verdicts: Dict[jobs.Job, Optional[bool]] = {}
    for record in records:
        if not record.unconfirmed:
            continue
        job = (record.program, record.level)
        if job not in verdicts:
            module, inputs = evidence.get(job) or (CompilerSession().compile(
                get_workload(record.program).source,
                level=parse_opt_level(record.level)).module, [])
            verdicts[job] = settle(
                module, input_bytes,
                expected_bug_kinds(expected, record.program, input_bytes),
                inputs)
        verdict = verdicts[job]
        if verdict is None:
            continue
        record.unconfirmed = False
        record.wrong, record.phantom = verdict, not verdict
        record.detail += "; reproduces in the interpreter" if verdict \
            else "; phantom: an exact exploration finds none"


def clock_seconds(explore_seconds: float, timed_out: bool,
                  solver: Dict[str, float], query_deadline: float) -> float:
    """The part of a job's latency that a wall clock set, which is not
    scaled to the nominal host (see ``hostspeed``): the whole exploration
    (``explore_seconds``) when it ran into its budget, else the time its
    solver queries spent until they were cut at their deadline."""
    if timed_out:
        return explore_seconds
    return solver.get("query_deadlines", 0) * query_deadline


def check_concrete(entry: Dict[str, object], return_value: Optional[int],
                   trap: Optional[str]) -> Tuple[bool, str]:
    want_trap = entry["trap"]
    if want_trap is not None or trap is not None:
        got = _kind_class(trap) if trap else None
        want = _kind_class(want_trap) if want_trap else None
        return got != want, f"trap {trap!r}, expected {want_trap!r}"
    got = None if return_value is None else return_value & 0xFFFFFFFF
    return got != entry["return_u32"], \
        f"returned {got}, expected {entry['return_u32']}"


# ------------------------------------------------------------- layer counts

def count_compile(tracer: Tracer, result: object, level: str) -> None:
    if not tracer.enabled:
        return
    durations: Dict[str, float] = {}
    for record in result.pass_history:
        durations[record.pass_name] = durations.get(record.pass_name, 0.0) \
            + record.duration_seconds
    tracer.count("passes.s", sum(durations.values()))
    for name in TRACED_PASSES:
        tracer.count(f"pass.{name}.s", durations.get(name, 0.0))
    stats = result.analysis_stats
    tracer.count("analysis.hits", stats.hits)
    tracer.count("analysis.misses", stats.misses)
    tracer.count(f"ir.instructions.{level}", result.instruction_count)
    tracer.count(f"ir.builds.{level}", 1)
    if level == "-OVERIFY":
        for name, value in result.table3_row().items():
            tracer.count(f"table3.{name}", value)


def count_session(tracer: Tracer, session: CompilerSession) -> None:
    tracer.count("frontend.parses", session.stats.frontend_parses)
    tracer.count("frontend.reuses", session.stats.frontend_reuses)


def count_solver(tracer: Tracer, solver: Dict[str, float]) -> None:
    for key in ("time_seconds", "queries", "csp_searches",
                "assignments_tried", "prune_splits", "cache_hits",
                "ubtree_hits", "model_cache_hits", "group_queries",
                "unknown_results"):
        tracer.count(f"solver.{key}", solver.get(key, 0))


def replay_frontend(tracer: Tracer, source: str, level: str) -> None:
    """Time the front end on the source a job compiled (trace only)."""
    full = link_sources(source, CompileOptions(level=parse_opt_level(level)))
    with tracer.span("frontend"):
        unit = parse(full)
        analyze(unit)
        lower(unit, "replay")


# --------------------------------------------------------------- load loop

def pass_count(seconds: float, pass_seconds: float) -> int:
    """The passes of a run of ``seconds``: as many as fit at
    ``pass_seconds`` a pass (its time on the nominal host), at least one.
    The count depends on ``--seconds`` alone, not on how fast the host
    happens to be, so every run of a workload holds the same jobs and its
    tail is the same percentile."""
    return max(1, int(seconds / pass_seconds + 0.5))


def run_passes(pass_jobs: Callable[[int], List[jobs.Job]],
               run_job: Callable[[jobs.Job, str], JobRecord],
               passes: int) -> Tuple[List[JobRecord], float, float]:
    """Run ``passes`` whole passes over the job set, one job at a time;
    the records and the run's elapsed time, scaled to the nominal host
    and as measured.  Each pass is a group of its own: latency
    percentiles are taken in each pass, and the median over passes is
    reported.

    What the benchmark holds when the passes start (imported layers,
    answer key, builds made before the passes) is frozen out of the
    garbage collector, and before each job the garbage earlier jobs left
    is collected, outside the job's timing.  A job then pays for the
    collections its own allocations trigger over the heap it builds, as
    it would in a fresh process, and not for a collection that earlier
    jobs left due.  A host-speed sample follows each collection, so every
    job lies between two samples and its latency is scaled by the samples
    around it (``metrics.rescale_run``)."""
    gc.collect()
    gc.freeze()
    host = HostSpeed()
    records: List[JobRecord] = []
    start = time.perf_counter()
    for pass_index in range(passes):
        for job in pass_jobs(pass_index):
            gc.collect()
            host.sample()
            record = run_job(job, f"{pass_index}:{len(records)}")
            record.group = pass_index
            records.append(record)
    host.sample()
    elapsed = time.perf_counter() - start - host.total()
    gc.unfreeze()
    return records, rescale_run(records, host, elapsed), elapsed


def import_program() -> None:
    """Import the program's layers in a fresh interpreter: the start-up
    every command-line use pays, so set-up time shows work moved into
    import."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c",
                    "import repro.pipelines, repro.verification, "
                    "repro.relcheck, repro.service, repro.workloads"],
                   env=env, check=True)


def timed_setups(setup: Callable[[], object],
                 before: Callable[[], None] = lambda: None
                 ) -> Tuple[float, float, object]:
    """Run ``setup`` ``SETUP_REPEATS`` times, each after an untimed
    ``before`` and between two host-speed samples; the median time scaled
    to the nominal host, the median as measured, and the last result."""
    host = HostSpeed()
    times = []
    measured = []
    result = None
    for _ in range(SETUP_REPEATS):
        before()
        sample = host.sample()
        start = time.perf_counter()
        result = setup()
        measured.append(time.perf_counter() - start)
        times.append(host.scale(measured[-1],
                                (sample + host.sample()) / 2))
    return statistics.median(times), statistics.median(measured), result


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------- verify-registry

def run_verify_registry(seed: int, seconds: float,
                        tracer: Tracer) -> RunSummary:
    def setup() -> Tuple[Dict[str, object], object]:
        import_program()
        expected = load_expected()
        jobs.verify_pass(seed, 0)
        return expected, make_backend(VERIFY_BACKEND)

    setup_s, measured_setup_s, (expected, backend) = timed_setups(setup)
    request = VerificationRequest(symbolic_input_bytes=VERIFY_INPUT_BYTES,
                                  timeout_seconds=VERIFY_BUDGET_S)
    evidence: Dict[jobs.Job, Tuple[object, List[bytes]]] = {}

    def run_job(job: jobs.Job, job_id: str) -> JobRecord:
        name, level = job
        source = get_workload(name).source
        with tracer.span("job", job_id):
            start = time.perf_counter()
            session = CompilerSession()
            with tracer.span("pipelines"):
                result = session.compile(source,
                                         level=parse_opt_level(level))
            with tracer.span("symex"):
                outcome = backend.verify(result.module, request)
            latency = time.perf_counter() - start
            if tracer.enabled:
                replay_frontend(tracer, source, level)
        decided = exact(outcome.termination_reason, outcome.engine_errors,
                        outcome.solver_stats)
        wrong, detail = check_bugs(
            expected, name, VERIFY_INPUT_BYTES,
            {signature[0] for signature in outcome.bug_signatures}, decided)
        if not decided and wrong:
            want = expected_bug_kinds(expected, name, VERIFY_INPUT_BYTES)
            evidence.setdefault(job, (result.module, [
                bug.test_input for bug in outcome.detail.bugs
                if _kind_class(bug.kind.value) not in want]))
        if tracer.enabled:
            count_session(tracer, session)
            count_compile(tracer, result, level)
            count_symex(tracer, outcome, VERIFY_BUDGET_S)
        return JobRecord(name, level, latency, decided=decided,
                         failed=outcome.engine_errors > 0,
                         wrong=decided and wrong,
                         unconfirmed=not decided and wrong, detail=detail,
                         clock_s=clock_seconds(outcome.seconds,
                                               outcome.timed_out,
                                               outcome.solver_stats,
                                               VERIFY_BUDGET_S))

    records, elapsed, measured = run_passes(
        lambda i: jobs.verify_pass(seed, i), run_job,
        pass_count(seconds, VERIFY_PASS_S))
    settle_unconfirmed(records, expected, VERIFY_INPUT_BYTES, evidence)
    return RunSummary("verify-registry", records, elapsed, setup_s,
                      peak_rss_mb(), VERIFY_LIMIT_S,
                      notes=[f"{VERIFY_INPUT_BYTES}-byte symbolic input, "
                             f"{VERIFY_BUDGET_S:g} s budget per job, "
                             f"backend {VERIFY_BACKEND}"],
                      measured={"setup_s": measured_setup_s,
                                "elapsed": measured})


def count_symex(tracer: Tracer, outcome: object, budget: float) -> None:
    report = outcome.detail
    tracer.count("symex.s", outcome.seconds)
    tracer.count("symex.paths", outcome.paths)
    tracer.count("symex.instructions", outcome.instructions)
    tracer.count("symex.forks", report.stats.forks)
    tracer.count("symex.branches", report.stats.branches_encountered)
    tracer.count("symex.jobs", 1)
    if outcome.timed_out:
        tracer.count("symex.timeouts", 1)
        tracer.count("symex.budget_overshoot_s",
                     max(0.0, outcome.seconds - budget))
    count_solver(tracer, outcome.solver_stats)


# -------------------------------------------------------------- compile-mix

def run_compile_mix(seed: int, seconds: float, tracer: Tracer) -> RunSummary:
    def setup() -> Tuple[Dict[str, object], List[str], Dict[str, str]]:
        import_program()
        expected = load_expected()
        eligible = [name for name, entry in expected["generated"].items()
                    if "reason" not in entry]
        programs = jobs.compile_programs(seed, eligible)
        sources = {name: jobs.program_source(name) for name in programs}
        return expected, programs, sources

    setup_s, measured_setup_s, (expected, programs, sources) = \
        timed_setups(setup)
    interp = make_backend("interp")
    # One session per program, dropped once its five builds have run (they
    # run in a row), so the heap holds one program's builds at a time.
    sessions: Dict[str, CompilerSession] = {}
    builds: Dict[str, int] = {}

    def end_program(name: str) -> None:
        builds[name] = builds.get(name, 0) + 1
        if builds[name] < len(jobs.ALL_LEVELS):
            return
        if tracer.enabled:
            count_session(tracer, sessions[name])
        del sessions[name], builds[name]

    def next_pass(pass_index: int) -> List[jobs.Job]:
        return jobs.compile_pass(seed, pass_index, programs)

    def answer_entry(name: str) -> Dict[str, object]:
        if name.startswith("gen-"):
            return expected["generated"][name]
        return expected["programs"][name]

    def run_job(job: jobs.Job, job_id: str) -> JobRecord:
        name, level = job
        session = sessions.setdefault(name, CompilerSession())
        entry = answer_entry(name)
        request = VerificationRequest(
            concrete_input=bytes.fromhex(entry["input"]))
        with tracer.span("job", job_id):
            start = time.perf_counter()
            with tracer.span("pipelines"):
                result = session.compile(sources[name],
                                         level=parse_opt_level(level))
            with tracer.span("interp"):
                outcome = interp.verify(result.module, request)
            latency = time.perf_counter() - start
            if tracer.enabled:
                replay_frontend(tracer, sources[name], level)
        end_program(name)
        trap = next(iter(outcome.bug_signatures))[0] \
            if outcome.bug_signatures else None
        wrong, detail = check_concrete(entry, outcome.return_value, trap)
        if tracer.enabled:
            count_compile(tracer, result, level)
            tracer.count("interp.jobs", 1)
            tracer.count("interp.run_s", outcome.seconds)
            if not name.startswith("gen-"):
                tracer.count(f"interp.instructions.{level}",
                             outcome.instructions)
                tracer.count(f"interp.runs.{level}", 1)
        return JobRecord(name, level, latency, decided=True, wrong=wrong,
                         detail=detail, drawn=name.startswith("gen-"))

    records, elapsed, measured = run_passes(
        next_pass, run_job, pass_count(seconds, COMPILE_PASS_S))
    generated = [name for name in programs if name.startswith("gen-")]
    return RunSummary("compile-mix", records, elapsed, setup_s,
                      peak_rss_mb(), COMPILE_LIMIT_S,
                      notes=[f"generated programs drawn: "
                             f"{', '.join(generated)}"],
                      measured={"setup_s": measured_setup_s,
                                "elapsed": measured})


# -------------------------------------------------------- relcheck-registry

def run_relcheck_registry(seed: int, seconds: float,
                          tracer: Tracer) -> RunSummary:
    def setup() -> Dict[str, object]:
        import_program()
        expected = load_expected()
        jobs.relcheck_pass(seed, 0)
        return expected

    setup_s, measured_setup_s, expected = timed_setups(setup)
    levels = [OptLevel.O0, OptLevel.OVERIFY]
    # Every pair is compiled once before the measured passes (a job is one
    # proof; relcheck only reads the modules, so every pass proves the
    # same builds).
    compiled: Dict[str, Dict[OptLevel, object]] = {}
    for name in jobs.registry_names():
        session = CompilerSession()
        with tracer.span("pipelines", f"build:{name}"):
            compiled[name] = session.compile_at_levels(
                get_workload(name).source, levels=levels)
        if tracer.enabled:
            count_session(tracer, session)
            for level in levels:
                count_compile(tracer, compiled[name][level], str(level))

    def run_job(job: jobs.Job, job_id: str) -> JobRecord:
        name, pair = job
        builds = compiled[name]
        with tracer.span("job", job_id):
            start = time.perf_counter()
            with tracer.span("relcheck"):
                report = relcheck_modules(
                    builds[OptLevel.O0].module,
                    builds[OptLevel.OVERIFY].module,
                    config=RELCHECK_CONFIG, pair=("-O0", "-OVERIFY"))
            latency = time.perf_counter() - start
        stats = report.stats
        proved = not report.truncated and stats.unknown_paths == 0
        missed = latency > RELCHECK_JOB_BOUND_S
        if tracer.enabled:
            tracer.count("relcheck.jobs", 1)
            tracer.count("relcheck.s", latency)
            tracer.count("relcheck.solver_queries",
                         report.solver_stats.queries)
            tracer.count("relcheck.solver_s",
                         report.solver_stats.time_seconds)
            for key in ("paths_proved", "equivalence_queries",
                        "equivalence_folded", "selects_resolved",
                        "unknown_paths", "phantom_paths"):
                tracer.count(f"relcheck.{key}", getattr(stats, key))
            count_solver(tracer, report.solver_stats.as_dict())
        detail = "; ".join(d.describe() for d in report.divergences) or \
            ("missed the whole-job bound" if missed else "")
        return JobRecord(name, pair, latency,
                         decided=(proved or bool(report.divergences))
                         and not missed,
                         failed=missed, wrong=not report.clean,
                         detail=detail,
                         clock_s=clock_seconds(
                             latency, False, report.solver_stats.as_dict(),
                             RELCHECK_CONFIG.query_deadline_seconds))

    records, elapsed, measured = run_passes(
        lambda i: jobs.relcheck_pass(seed, i), run_job,
        pass_count(seconds, RELCHECK_PASS_S))
    return RunSummary("relcheck-registry", records, elapsed, setup_s,
                      peak_rss_mb(), RELCHECK_LIMIT_S,
                      notes=[f"{RELCHECK_CONFIG.input_bytes}-byte input, "
                             f"whole-job bound {RELCHECK_JOB_BOUND_S:g} s"],
                      measured={"setup_s": measured_setup_s,
                                "elapsed": measured})


# ------------------------------------------------------------- service-zipf

class ServerProcess:
    """``python -m repro serve`` in its own process, with a store file."""

    def __init__(self, socket_path: Path, store_path: Path,
                 log_path: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(socket_path),
             "--store", str(store_path), "--backend", SERVICE_BACKEND,
             "--pool", "2"],
            env=env, stdout=self._log, stderr=subprocess.STDOUT)
        self.client = ServiceClient(socket_path, timeout=60.0)

    def wait_ready(self) -> None:
        """Poll ``ping`` every millisecond until the server answers.  The
        client's own wait polls every 50 ms, which rounds set-up time to
        its polls: medians of the same set-up jumped by 0.1 s."""
        end = time.monotonic() + 60.0
        while True:
            try:
                if self.client.ping():
                    return
            except ServiceError:
                if self.process.poll() is not None:
                    raise
            if time.monotonic() >= end:
                raise ServiceError("verification service did not come up "
                                   "within 60 s")
            time.sleep(0.001)

    def stop(self) -> None:
        try:
            if self.process.poll() is None:
                try:
                    self.client.shutdown()
                except ServiceError:
                    pass
                try:
                    self.process.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        finally:
            self._log.close()


def run_service_zipf(seed: int, seconds: float, tracer: Tracer) -> RunSummary:
    RUN_DIR.mkdir(exist_ok=True)
    socket_path = RUN_DIR / "service.sock"
    warm_path = RUN_DIR / "store-warm.jsonl"
    store_path = RUN_DIR / "store.jsonl"
    log_path = RUN_DIR / "server.log"
    for stale in (warm_path, store_path, log_path):
        if stale.exists():
            stale.unlink()
    servers: List[ServerProcess] = [
        ServerProcess(socket_path, warm_path, log_path)]
    warmup = jobs.service_warmup(jobs.SERVICE_REQUESTS, SERVICE_WARM_PAIRS)

    def fresh_store() -> None:
        """Stop the running server; the next one opens a copy of the
        warmed store."""
        servers[-1].stop()
        shutil.copyfile(warm_path, store_path)

    def start_server() -> None:
        servers.append(ServerProcess(socket_path, store_path, log_path))
        servers[-1].wait_ready()

    def setup() -> Dict[str, object]:
        expected = load_expected()
        for subrun in range(jobs.SERVICE_SUBRUNS):
            jobs.service_stream(seed, jobs.SERVICE_REQUESTS, subrun)
        start_server()
        return expected

    records: List[JobRecord] = []
    elapsed = measured = 0.0
    server_stats: List[Dict[str, object]] = []
    try:
        # Warm the store (untimed): a long-running service opens a store
        # that already holds knowledge and memo entries.
        servers[0].wait_ready()
        for name, level in warmup:
            servers[0].client.verify(
                workload=name, level=level, input_bytes=SERVICE_INPUT_BYTES,
                timeout=SERVICE_BUDGET_S, deadline=SERVICE_BUDGET_S)
        setup_s, measured_setup_s, expected = timed_setups(
            setup, before=fresh_store)
        for subrun in range(jobs.SERVICE_SUBRUNS):
            if subrun:
                fresh_store()
                start_server()
            sub_records, sub_elapsed, sub_measured, stats = _drive_service(
                seed, subrun, expected, tracer, socket_path)
            records.extend(sub_records)
            elapsed += sub_elapsed
            measured += sub_measured
            server_stats.append(stats)
    finally:
        for server in servers:
            server.stop()
    settle_unconfirmed(records, expected, SERVICE_INPUT_BYTES, {})
    if tracer.enabled:
        tracer.count("store.saves", sum(stats.get("saves", 0)
                                        for stats in server_stats))
        replay_store(tracer, store_path)
    summary = RunSummary("service-zipf", records, elapsed, setup_s,
                         peak_rss_mb() + peak_rss_mb(
                             resource.RUSAGE_CHILDREN),
                         SERVICE_LIMIT_S,
                         notes=[f"{jobs.SERVICE_SUBRUNS} sub-runs of "
                                f"{jobs.SERVICE_REQUESTS} requests, each "
                                f"against a fresh server; closed loop over "
                                f"one connection, "
                                f"{SERVICE_INPUT_BYTES}-byte input, "
                                f"{SERVICE_BUDGET_S:g} s job budget, store "
                                f"warmed with {len(warmup)} pairs outside "
                                f"the mixes",
                                f"peak RSS: benchmark "
                                f"{peak_rss_mb():.1f} MB, server "
                                f"{peak_rss_mb(resource.RUSAGE_CHILDREN):.1f}"
                                f" MB"] + [
                             f"server, sub-run {subrun}: "
                             + json.dumps(stats, sort_keys=True)
                             for subrun, stats in enumerate(server_stats)],
                         measured={"setup_s": measured_setup_s,
                                   "elapsed": measured})
    return summary


def _drive_service(seed: int, subrun: int, expected: Dict[str, object],
                   tracer: Tracer, socket_path: Path
                   ) -> Tuple[List[JobRecord], float, float,
                              Dict[str, object]]:
    """Closed loop over one connection: the next request goes out as soon
    as the previous one is answered, until the seeded request stream of
    sub-run ``subrun`` has been sent.  A host-speed sample is taken
    between requests, while the server is idle, and every latency is
    scaled by the samples on either side of it.  Returns the records, the
    elapsed time scaled to the nominal host and as measured, and the
    server's stats."""
    client = ServiceClient(socket_path, timeout=60.0)
    host = HostSpeed()
    records: List[JobRecord] = []
    start = time.perf_counter()
    for index, (name, level) in enumerate(jobs.service_stream(
            seed, jobs.SERVICE_REQUESTS, subrun)):
        host.sample()
        record = _service_request(client, expected, tracer,
                                  f"req:{subrun}:{index}", name, level)
        record.group = subrun
        records.append(record)
    host.sample()
    elapsed = time.perf_counter() - start - host.total()
    return (records, rescale_run(records, host, elapsed), elapsed,
            client.stats())


def _service_request(client: ServiceClient, expected: Dict[str, object],
                     tracer: Tracer, job_id: str, name: str,
                     level: str) -> JobRecord:
    tracer.count("service.requests", 1)
    sent = time.perf_counter()
    with tracer.span("job", job_id):
        try:
            with tracer.span("service"):
                response = client.verify(
                    workload=name, level=level,
                    input_bytes=SERVICE_INPUT_BYTES,
                    timeout=SERVICE_BUDGET_S, deadline=SERVICE_BUDGET_S,
                    job_id=job_id)
        except ServiceError as exc:
            if exc.kind == "backpressure":
                tracer.count("service.rejected", 1)
            return JobRecord(name, level, None, failed=True,
                             detail=f"{exc.kind}: {exc}")
    latency = time.perf_counter() - sent
    clean = response["engine_errors"] == 0
    decided = exact(response["termination_reason"], response["engine_errors"],
                    response["solver"])
    wrong, detail = check_bugs(
        expected, name, SERVICE_INPUT_BYTES,
        {signature[0] for signature in response["bug_signatures"]}, decided)
    if tracer.enabled:
        memo = response["provenance"] == "memo-hit"
        tracer.count("service.answered", 1)
        tracer.count("service.compile_s", response["compile_seconds"])
        if response["deduped"]:
            tracer.count("service.deduped", 1)
        else:
            # A deduped answer carries the wall time of the job it rode,
            # which started before this request was sent.
            tracer.count("service.queue_wait_s",
                         latency - response["wall_seconds"])
        if memo:
            tracer.count("service.memo_hits", 1)
            tracer.record("service.memo_hit_latency_s", latency)
        elif not response["deduped"]:
            tracer.count("service.verifies", 1)
            tracer.count("service.verify_s", response["verify_seconds"])
            tracer.count("symex.s", response["verify_seconds"])
            tracer.count("symex.paths", response["paths"])
            tracer.count("symex.instructions", response["instructions"])
            tracer.count("symex.jobs", 1)
            if response["timed_out"]:
                tracer.count("symex.timeouts", 1)
                tracer.count("symex.budget_overshoot_s", max(
                    0.0, response["verify_seconds"] - SERVICE_BUDGET_S))
            count_solver(tracer, response["solver"])
    return JobRecord(name, level, latency, decided=decided,
                     failed=not clean, wrong=decided and wrong,
                     unconfirmed=not decided and wrong, detail=detail,
                     clock_s=clock_seconds(response["verify_seconds"],
                                           response["timed_out"],
                                           response["solver"],
                                           SERVICE_BUDGET_S))


def replay_store(tracer: Tracer, store_path: Path) -> None:
    """Replay the knowledge store's public API on the file the run wrote
    (trace only): load, prime a fresh cache set, save a copy."""
    if not store_path.exists():
        return
    tracer.count("store.bytes", store_path.stat().st_size)
    copy_path = RUN_DIR / "store-replay.jsonl"
    shutil.copyfile(store_path, copy_path)
    store = SolverKnowledgeStore(copy_path)
    with tracer.span("store"):
        start = time.perf_counter()
        store.load()
        tracer.count("store.load_s", time.perf_counter() - start)
        tracer.count("store.records", len(store))
        start = time.perf_counter()
        store.prime(SharedSolverCaches(num_stripes=8, locked=True))
        tracer.count("store.prime_s", time.perf_counter() - start)
        start = time.perf_counter()
        store.save()
        tracer.count("store.save_s", time.perf_counter() - start)
    copy_path.unlink()


WORKLOADS = {
    "verify-registry": run_verify_registry,
    "compile-mix": run_compile_mix,
    "service-zipf": run_service_zipf,
    "relcheck-registry": run_relcheck_registry,
}
