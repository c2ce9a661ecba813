"""E-PAR — sharded parallel evaluation: exactness and wall-clock speedup.

The PR 2 acceptance experiment: route every ordered pair of a 400-node
Waxman internetwork through the prescribed scheme, serially and with
``workers=4``, and check that (a) the parallel report is bit-identical to
the serial one (source-grouped shards, an order-restoring merge and
associative merges make the fold exact) and (b) the parallel pass is at
least 2x faster in wall-clock time.  The speedup bar only binds where it
is physically meaningful — process pools cannot beat serial on a single
core, so on machines with fewer than 4 usable CPUs the run still
verifies exactness and records the measured ratio, annotated with the
core count, for trend tracking.
"""

import os
import time

import random

from conftest import record
from repro.algebra import ShortestPath
from repro.core import EvaluationOptions, evaluate_scheme, oracle_cache, sample_pairs
from repro.core.compiler import build_scheme
from repro.graphs import assign_random_weights, waxman

N = 400
WORKERS = 4
REQUIRED_SPEEDUP = 2.0


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def test_parallel_matches_serial_with_speedup():
    algebra = ShortestPath()
    graph = waxman(N, rng=random.Random(11))
    assign_random_weights(graph, algebra, rng=random.Random(12))
    scheme = build_scheme(graph, algebra)
    pairs = sample_pairs(graph)
    # Pay the oracle build before timing: both passes then measure pure
    # routing, not the shared (cached) all-pairs computation.
    oracle_cache.get(graph, algebra, attr=scheme.attr, scheme_name=scheme.name)

    start = time.perf_counter()
    serial = evaluate_scheme(graph, algebra, scheme)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = evaluate_scheme(
        graph, algebra, scheme, options=EvaluationOptions(workers=WORKERS))
    parallel_s = time.perf_counter() - start

    speedup = serial_s / parallel_s if parallel_s else float("inf")
    cpus = _usable_cpus()
    enforced = cpus >= WORKERS

    record(
        "parallel_speedup",
        [
            f"waxman n={N}: {len(pairs)} ordered pairs, "
            f"{serial.pairs} routable",
            f"serial    {serial_s:8.2f}s",
            f"workers={WORKERS} {parallel_s:8.2f}s  (speedup {speedup:.2f}x, "
            f"{cpus} usable CPUs)",
            f"reports identical: {parallel == serial}",
            f"2x bar enforced: {enforced}",
        ],
        data={
            "n": N,
            "pairs": len(pairs),
            "routable_pairs": serial.pairs,
            "workers": WORKERS,
            "serial_seconds": serial_s,
            "parallel_seconds": parallel_s,
            "speedup": speedup,
            "usable_cpus": cpus,
            "speedup_enforced": enforced,
            "identical": parallel == serial,
            "max_memory_bits": serial.memory.max_bits,
        },
    )

    assert parallel == serial
    assert parallel.stretch == serial.stretch
    assert parallel.memory == serial.memory
    if enforced:
        assert speedup >= REQUIRED_SPEEDUP, (
            f"workers={WORKERS} on {cpus} CPUs only reached "
            f"{speedup:.2f}x (< {REQUIRED_SPEEDUP}x)"
        )
