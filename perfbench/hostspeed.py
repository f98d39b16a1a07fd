"""A host-speed reference timed around every job.

The shared virtual machines the benchmark runs on change speed from one
second to the next, and each CPU on its own: on a 2-vCPU machine with
nothing else running, the mean of 15 compiles of the same program was
72 ms in one stretch and 98 ms a few seconds later, and the two CPUs ran
the reference below anywhere from 0.6 to 1.5 times as fast as each other.
Raw times of runs made minutes apart then differ by more than any bound a
regression check could use.  So the benchmark runs on one CPU
(``run.py``), times a fixed piece of its own pure-Python work
(:func:`reference_seconds`) right before and right after each job, and
reports the job's time as it would read on a host where that reference
takes ``NOMINAL_S``:

    reported = measured * NOMINAL_S / median(references around the job)

taking the median of the ``WINDOW`` samples on either side of the job and
the two right around it: one 2-3 ms sample is noisier than the few tenths
of a second of host speed that a long job averages over.

Over ten such 15-compile stretches the scaled means stayed within 11% of
each other where the raw ones moved by more than a third.  The reference is the benchmark's
code, not the program's, so a change to the program cannot move it; only
the host's speed does.  The part of a job's time that a wall clock set
is not scaled: the exploration of a job that ran into its budget, and
the deadline of each solver query that was cut at its deadline.  Report lines print the measured
medians next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: The reference's time on the host the scale is anchored to (2-vCPU
#: shared virtual machine, Python 3.11, in its fast state).
NOMINAL_S = 0.003
#: Samples on either side of a job's own two that its scale takes in.
WINDOW = 3


class _Node:
    __slots__ = ("op", "args", "value")

    def __init__(self, op: str, args: tuple, value: int) -> None:
        self.op = op
        self.args = args
        self.value = value


def reference_seconds() -> float:
    """Time one run of the reference: allocate small objects, count them
    in a dict keyed by tuples, sort them, the kind of work a compiler
    pass does."""
    start = time.perf_counter()
    nodes = []
    table = {}
    for i in range(1500):
        node = _Node("add" if i % 3 else "mul", (i % 17, i % 5), i)
        nodes.append(node)
        key = (node.op, node.args)
        table[key] = table.get(key, 0) + node.value
    nodes.sort(key=lambda node: (node.args, -node.value))
    return time.perf_counter() - start


class HostSpeed:
    """The reference samples of one run, in the order they were taken."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        seconds = reference_seconds()
        self.samples.append(seconds)
        return seconds

    @staticmethod
    def scale(seconds: float, reference: float) -> float:
        """``seconds`` measured where the reference took ``reference``
        seconds, on the nominal host."""
        return seconds * NOMINAL_S / reference

    def around(self, job: int) -> float:
        """The reference time around job number ``job``, which ran between
        samples ``job`` and ``job + 1``."""
        return statistics.median(
            self.samples[max(0, job - WINDOW):job + 2 + WINDOW])

    def run_scale(self, seconds: float) -> float:
        """``seconds`` spread over the whole run, scaled by the run's
        median sample."""
        return seconds * NOMINAL_S / statistics.median(self.samples)

    def total(self) -> float:
        """Seconds spent taking samples."""
        return sum(self.samples)
