"""Seeded job streams of the four workloads.

Everything a run feeds the program under test is derived here from the
``--seed`` argument and the registry, and nothing else: no clock, no
``hash()``, no set iteration.  The same seed gives byte-identical streams
in any process (``tests/test_bench.py`` pins this).
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.fuzz.generator import GeneratorConfig, generate_program
from repro.workloads import all_workloads, get_workload

#: The paper's Figure 4 pair.
VERIFY_LEVELS = ("-O0", "-OVERIFY")
ALL_LEVELS = ("-O0", "-O1", "-O2", "-O3", "-OVERIFY")
SERVICE_LEVELS = ("-O0", "-O2", "-OVERIFY")

#: Larger programs than the fuzzer's defaults: more helpers (function
#: count) and longer blocks (function size), which the single-function
#: registry programs cannot vary.
GENERATOR_CONFIG = GeneratorConfig(input_bytes=3, max_helpers=5,
                                   max_block_statements=8)
#: Generator seeds of the pool the compile-mix draw picks from.  The
#: answer key holds a gcc answer for every member.
POOL_SEEDS = tuple(range(1000, 1024))
#: Generated programs drawn into each compile-mix run (the pool has 21
#: members with an answer: three per size stratum).
GENERATED_PER_RUN = 7
#: Which of ``GeneratorConfig.concrete_inputs()`` a generated program runs
#: on (the mixed-bytes input).
GENERATED_INPUT_INDEX = 6

#: A service-zipf run is ``SERVICE_SUBRUNS`` sub-runs, each against a
#: fresh server, of ``SERVICE_REQUESTS`` requests.  Each sub-run has its
#: own fixed rank order of the (program, level) pairs, as if a different
#: set of users, and its requests follow the Zipf weights of that order.
#: Size and exponent are fitted to the measured prototype traffic of the
#: service (300 requests, 59 of them cold, 20%): at exponent 1.8, 75
#: requests cover 14 pairs, so 19% of the requests are the first of their
#: pair and go cold, and the rest are memo hits.
SERVICE_SUBRUNS = 4
SERVICE_REQUESTS = 75
ZIPF_EXPONENT = 1.8
#: Seed of the rank orders: which pairs are hot in a sub-run is the same
#: for every ``--seed``.
ZIPF_RANK_SEED = "service-zipf-ranks"

Job = Tuple[str, str]


def registry_names() -> List[str]:
    return [workload.name for workload in all_workloads()]


def generated_name(seed: int) -> str:
    return f"gen-{seed}"


def generated_pool() -> List[Tuple[str, str, bytes]]:
    """``(name, source, input)`` of every generated pool member."""
    data = GENERATOR_CONFIG.concrete_inputs()[GENERATED_INPUT_INDEX]
    return [(generated_name(seed), generate_program(seed, GENERATOR_CONFIG),
             data) for seed in POOL_SEEDS]


def program_source(name: str) -> str:
    if name.startswith("gen-"):
        return generate_program(int(name[4:]), GENERATOR_CONFIG)
    return get_workload(name).source


def _rng(workload: str, seed: int, pass_index: int = 0) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def verify_pass(seed: int, pass_index: int) -> List[Job]:
    """One pass of ``verify-registry``: every registry program at both
    levels, in a seeded order."""
    jobs = [(name, level) for name in registry_names()
            for level in VERIFY_LEVELS]
    _rng("verify-registry", seed, pass_index).shuffle(jobs)
    return jobs


def compile_programs(seed: int, eligible: List[str]) -> List[str]:
    """The programs of one ``compile-mix`` run: the registry plus a seeded
    draw of ``GENERATED_PER_RUN`` pool members from ``eligible``.

    The draw is stratified by source size (one program from each of
    ``GENERATED_PER_RUN`` equal strata), so every run compiles a similar
    spread of program sizes and the seed does not decide how much work a
    run holds."""
    by_size = sorted(eligible, key=lambda n: (len(program_source(n)), n))
    rng = _rng("compile-mix-draw", seed)
    drawn = []
    for stratum in range(GENERATED_PER_RUN):
        low = stratum * len(by_size) // GENERATED_PER_RUN
        high = (stratum + 1) * len(by_size) // GENERATED_PER_RUN
        drawn.append(rng.choice(by_size[low:high]))
    return registry_names() + sorted(drawn, key=lambda n: int(n[4:]))


def compile_pass(seed: int, pass_index: int,
                 programs: List[str]) -> List[Job]:
    """One pass of ``compile-mix``: every drawn program at all five
    levels.  The programs come in a seeded order, each with its five
    levels in a row (in a seeded order), so one program's session lives
    only while its own builds run."""
    rng = _rng("compile-mix", seed, pass_index)
    order = list(programs)
    rng.shuffle(order)
    jobs = []
    for name in order:
        levels = list(ALL_LEVELS)
        rng.shuffle(levels)
        jobs.extend((name, level) for level in levels)
    return jobs


def relcheck_pass(seed: int, pass_index: int) -> List[Job]:
    """One pass of ``relcheck-registry``: the whole registry (cksum
    included) as (-O0, -OVERIFY) pairs, in a seeded order."""
    jobs = [(name, "-O0..-OVERIFY") for name in registry_names()]
    _rng("relcheck-registry", seed, pass_index).shuffle(jobs)
    return jobs


def service_mix(count: int, subrun: int = 0) -> List[Tuple[Job, int]]:
    """``count`` requests over registry programs x ``SERVICE_LEVELS``:
    ``((program, level), requests)`` in the rank order of sub-run
    ``subrun``, with request counts following the Zipf weights of that
    order exactly (largest-remainder rounding).  Pairs with no request
    are left out."""
    return [(item, quota) for item, quota in _zipf_quotas(count, subrun)
            if quota]


def _zipf_quotas(count: int, subrun: int) -> List[Tuple[Job, int]]:
    items = [(name, level) for name in registry_names()
             for level in SERVICE_LEVELS]
    random.Random(f"{ZIPF_RANK_SEED}:{subrun}").shuffle(items)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
               for rank in range(len(items))]
    shares = [count * weight / sum(weights) for weight in weights]
    quotas = [int(share) for share in shares]
    by_remainder = sorted(range(len(items)),
                          key=lambda i: (quotas[i] - shares[i], i))
    for index in by_remainder[:count - sum(quotas)]:
        quotas[index] += 1
    return list(zip(items, quotas))


def service_warmup(count: int, pairs: int) -> List[Job]:
    """The pairs the store is warmed with before a ``service-zipf`` run:
    the ``pairs`` highest-ranked pairs (in sub-run 0's order) that no
    sub-run's mix of ``count`` requests asks for.  Every sub-run's server
    then opens a store that holds solver knowledge and memo entries, and
    every pair a mix does ask for still goes cold on its first request."""
    asked = {item for subrun in range(SERVICE_SUBRUNS)
             for item, _ in service_mix(count, subrun)}
    return [item for item, _ in _zipf_quotas(count, 0)
            if item not in asked][:pairs]


def service_stream(seed: int, count: int, subrun: int = 0) -> List[Job]:
    """The ``count`` requests of sub-run ``subrun`` of a ``service-zipf``
    run: the requests of :func:`service_mix` in a seeded order.  Every
    seed sends the same multiset of requests."""
    stream = [item for item, quota in service_mix(count, subrun)
              for _ in range(quota)]
    _rng("service-zipf", seed, subrun).shuffle(stream)
    return stream
