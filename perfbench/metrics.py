"""Turning job records into the benchmark's end-to-end metrics."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from hostspeed import HostSpeed

#: A tail percentile needs at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_s.p50": "s",
    "latency_s.tail": "s",
    "jobs_per_s": "1/s",
    "decided_ratio": "ratio",
    "within_limit_ratio": "ratio",
    "overify_verdict_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class JobRecord:
    """One attempted job.  ``latency`` is ``None`` when the job produced
    no answer (refused, errored)."""

    program: str
    level: str
    latency: Optional[float]
    decided: bool = False
    failed: bool = False
    wrong: bool = False
    #: An undecided job reported a bug the answer key does not have, and
    #: neither a replay nor an exact exploration settled whether it is
    #: real (a replayed one is ``wrong``, a refuted one ``phantom``).
    unconfirmed: bool = False
    #: An undecided job reported a bug that an exact exploration showed
    #: cannot happen.
    phantom: bool = False
    detail: str = ""
    #: The pass or sub-run the job belongs to: latency percentiles are
    #: taken in each and the median over them is reported.
    group: int = 0
    #: The program comes from a seeded draw (compile-mix's generated
    #: programs), so which programs run changes with the seed.
    drawn: bool = False
    #: ``latency`` as measured; ``latency`` itself is scaled to the
    #: nominal host by :meth:`rescale`.
    measured: Optional[float] = None
    #: Seconds of ``latency`` that a wall clock set rather than the
    #: host's speed (a budget the job ran into, solver queries cut at
    #: their deadline); that part is not scaled.
    clock_s: float = 0.0

    def rescale(self, reference: float) -> None:
        """Scale ``latency``, but for its ``clock_s``, to the nominal host
        by the reference time around the job (see ``hostspeed``)."""
        if self.latency is not None:
            self.measured = self.latency
            clock = min(self.clock_s, self.latency)
            self.latency = clock + HostSpeed.scale(self.latency - clock,
                                                   reference)


@dataclass
class RunSummary:
    workload: str
    records: List[JobRecord]
    elapsed: float
    setup_s: float
    peak_rss_mb: float
    latency_limit: float
    notes: List[str] = field(default_factory=list)
    #: Medians as measured, before scaling to the nominal host:
    #: ``setup_s`` and ``elapsed``.
    measured: Dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(record.failed for record in self.records)

    @property
    def wrong_answers(self) -> int:
        return sum(record.wrong for record in self.records)

    def latencies(self) -> List[float]:
        return [record.latency for record in self.records
                if record.latency is not None]


def rescale_run(records: List[JobRecord], host: HostSpeed,
                elapsed: float) -> float:
    """Scale every record's latency by the host-speed samples around it;
    ``host.samples`` holds one sample before each job and one after the
    last.  Returns the run's ``elapsed`` time on the nominal host: the
    jobs' latencies as reported plus the time between jobs, scaled by the
    run's median sample."""
    for job, record in enumerate(records):
        record.rescale(host.around(job))
    answered = [record for record in records if record.latency is not None]
    between = elapsed - sum(record.measured for record in answered)
    return sum(record.latency for record in answered) + \
        host.run_scale(between)


def tail(values: List[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest percentile with at
    least ``TAIL_SAMPLES_BEYOND`` samples beyond it.  With too few
    samples for any such percentile the median is reported (percentile
    50)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_SAMPLES_BEYOND:
        return statistics.median(ordered), 50.0, n
    index = n - TAIL_SAMPLES_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def overify_verdict(records: List[JobRecord]) -> Tuple[float, int]:
    """``(seconds, programs)``: the summed time to verdict of the -OVERIFY
    jobs, as the sum over programs of the median latency of each one's
    -OVERIFY jobs.  A relcheck job proves an (-O0, -OVERIFY) pair and
    counts as its program's -OVERIFY job.  Drawn programs are left out: a
    sum over a seeded draw measures the draw as much as the program.

    On workloads that run one pass, every program has one -OVERIFY job
    and this is their sum.  Where a mix repeats some programs
    (service-zipf), a program's typical request counts, so neither the
    first request that verifies nor a collection pause that one request
    happened to meet outweighs the memo hits."""
    latencies: Dict[str, List[float]] = {}
    for record in records:
        if record.level.endswith("-OVERIFY") and \
                record.latency is not None and not record.drawn:
            latencies.setdefault(record.program, []).append(record.latency)
    if not latencies:
        raise RuntimeError("no -OVERIFY job produced an answer")
    return (sum(statistics.median(values) for values in latencies.values()),
            len(latencies))


def groups(records: List[JobRecord], measured: bool = False
           ) -> List[List[float]]:
    """The answered latencies of each pass or sub-run, in order: as
    reported, or as ``measured``."""
    by_group: Dict[int, List[float]] = {}
    for record in records:
        value = record.measured if measured else record.latency
        if value is not None:
            by_group.setdefault(record.group, []).append(value)
    return [by_group[group] for group in sorted(by_group)]


def end_to_end(summary: RunSummary) -> Dict[str, float]:
    """The end-to-end metrics.  Latency percentiles are taken in each
    pass or sub-run and the median over them is reported."""
    latencies = summary.latencies()
    if not latencies:
        raise RuntimeError(f"{summary.workload}: no job produced an answer")
    parts = groups(summary.records)
    attempted = summary.attempted
    within = sum(1 for record in summary.records
                 if not record.failed and record.latency is not None
                 and record.latency <= summary.latency_limit)
    return {
        "setup_s": summary.setup_s,
        "latency_s.p50": statistics.median(
            statistics.median(part) for part in parts),
        "latency_s.tail": statistics.median(tail(part)[0] for part in parts),
        "jobs_per_s": len(latencies) / summary.elapsed,
        "decided_ratio": sum(r.decided for r in summary.records) / attempted,
        "within_limit_ratio": within / attempted,
        "overify_verdict_s": overify_verdict(summary.records)[0],
        "peak_rss_mb": summary.peak_rss_mb,
    }


def report_lines(summary: RunSummary) -> List[str]:
    """The human-readable report: every end-to-end metric by name, unit
    and sample count, plus the correctness gate."""
    values = end_to_end(summary)
    parts = groups(summary.records)
    samples = sum(len(part) for part in parts)
    sizes = f"n={samples}"
    tail_of = f"p{tail(parts[0])[1]:.1f}, n={samples}"
    if len(parts) > 1:
        sizes = f"median of {len(parts)} passes or sub-runs, n=" + \
            "+".join(str(len(part)) for part in parts)
        tail_of = "p" + "/".join(f"{tail(part)[1]:.1f}" for part in parts) \
            + f" of each, median of {len(parts)}, n=" + \
            "+".join(str(len(part)) for part in parts)
    measured = groups(summary.records, measured=True)
    raw = dict(summary.measured)
    if measured:
        raw["latency_s.p50"] = statistics.median(
            statistics.median(part) for part in measured)
        raw["latency_s.tail"] = statistics.median(
            tail(part)[0] for part in measured)
    attempted = summary.attempted
    counts = {
        "setup_s": "median of setups",
        "latency_s.p50": sizes,
        "latency_s.tail": tail_of,
        "jobs_per_s": f"{samples} jobs in {summary.elapsed:.2f} s",
        "decided_ratio": f"{sum(r.decided for r in summary.records)}"
                         f"/{attempted}",
        "within_limit_ratio": f"limit {summary.latency_limit:g} s, "
                              f"n={attempted}",
        "overify_verdict_s": f"summed over "
                             f"{overify_verdict(summary.records)[1]} "
                             f"programs",
        "peak_rss_mb": "max resident set",
    }
    raw["jobs_per_s"] = raw.get("elapsed")
    lines = [f"workload {summary.workload}: {attempted} jobs attempted; "
             f"times scaled to the nominal host (see hostspeed.py)"]
    for name, value in values.items():
        count = counts[name]
        if raw.get(name) is not None:
            count += f"; measured {raw[name]:.6g} s"
        lines.append(f"  {name:<20} {value:12.6g} {END_TO_END_UNITS[name]:<6}"
                     f" ({count})")
    lines.append(f"  {'failed_ratio':<20} {summary.failed / attempted:12.6g}"
                 f" ratio  ({summary.failed}/{attempted})")
    lines.append(f"  {'wrong_answers':<20} {summary.wrong_answers:12d} "
                 f"count  (must be 0)")
    phantoms = sum(record.phantom for record in summary.records)
    lines.append(f"  {'phantom_bugs':<20} {phantoms:12d} count  "
                 f"(bug reports of undecided jobs that an exact "
                 f"exploration refutes)")
    unconfirmed = sum(record.unconfirmed for record in summary.records)
    lines.append(f"  {'unconfirmed_bugs':<20} {unconfirmed:12d} count  "
                 f"(bug reports of undecided jobs not in the answer key "
                 f"and not settled)")
    for record in summary.records:
        if record.wrong or record.failed or record.unconfirmed or \
                record.phantom:
            state = "WRONG" if record.wrong else \
                "FAILED" if record.failed else \
                "UNCONFIRMED" if record.unconfirmed else "PHANTOM"
            lines.append(f"  {state} {record.program} {record.level}: "
                         f"{record.detail}")
    lines.extend(f"  note: {note}" for note in summary.notes)
    return lines
