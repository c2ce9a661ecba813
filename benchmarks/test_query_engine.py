"""E-QRY — vectorized query engine: all-pairs evaluation vs the seed loop.

The query-engine acceptance experiment.  A Cowen scheme is built once on
an integer-weight Erdős–Rényi instance (n = 1024), the oracle's preferred
trees are pre-built for every source, and then the **same all-pairs shard**
(n·(n−1) ordered pairs) is evaluated twice:

* **reference** — the referee, ``simulate._reference_shard``, called by
  name: one ``scheme.route(s, t)`` call per pair, hop by hop through
  Python ``local_decision`` evaluations, then the stretch report;
* **batch** — ``route_shard``, which walks the compiled query tables
  (:mod:`repro.routing.compiled_query`): the whole shard steps through
  the flat int arrays one vectorized step at a time, and optimality and
  stretch are decided on the integer keys.

The batch timing includes its own table compile and both include the
stretch report, so the ratio is end-to-end for a single shard.  Exactness comes first: both engines must
produce the same routed/delivered/optimal counts, failure tuples and
stretch report, bit for bit.  The asserted bar is **>= 4x wall clock**;
the ratio lands in the committed baseline as ``query_speedup`` so
``compare_baseline.py`` trips when pair evaluation decays back toward
per-pair Python speed.

Skips (not fails) when numpy — the ``repro[fast]`` optional extra — is
not installed.
"""

import random
import time

import pytest

from conftest import record
from repro.algebra import ShortestPath
from repro.core.simulate import _reference_shard, oracle_cache, route_shard
from repro.graphs import assign_random_weights, erdos_renyi
from repro.graphs.weighting import WEIGHT_ATTR
from repro.routing import compiled_query
from repro.routing.cowen import CowenScheme
from repro.routing.stretch import measure_stretch

N = 1024
MAX_WEIGHT = 16
REQUIRED_SPEEDUP = 4.0

pytestmark = pytest.mark.skipif(
    not compiled_query.numpy_available(),
    reason="numpy not installed (the repro[fast] optional extra)",
)


def test_query_all_pairs_speedup():
    algebra = ShortestPath(max_weight=MAX_WEIGHT)
    graph = erdos_renyi(N, rng=random.Random(61))
    assign_random_weights(graph, algebra, rng=random.Random(62))
    scheme = CowenScheme(graph, algebra, rng=random.Random(63))
    oracle = oracle_cache.get(graph, algebra, WEIGHT_ATTR)
    nodes = list(graph.nodes())
    pairs = [(s, t) for s in nodes for t in nodes if s != t]
    # Pre-build every preferred tree so both timings measure evaluation,
    # not oracle construction.
    oracle.ensure_sources(nodes)

    start = time.perf_counter()
    routed, delivered, optimal, failures, samples = _reference_shard(
        algebra, scheme, oracle, list(pairs))
    stretch = measure_stretch(algebra, samples, scheme_name=scheme.name)
    reference_s = time.perf_counter() - start

    start = time.perf_counter()
    batch = route_shard(algebra, scheme, oracle, list(pairs))
    batch_s = time.perf_counter() - start

    # Exactness first: speed without bit-identity would corrupt reports.
    assert batch.routed == routed
    assert batch.delivered == delivered
    assert batch.optimal == optimal
    assert batch.failures == failures
    assert batch.stretch == stretch

    speedup = reference_s / batch_s if batch_s else float("inf")
    per_pair_reference = reference_s / len(pairs) * 1e6
    per_pair_batch = batch_s / len(pairs) * 1e6

    record(
        "query_engine",
        [
            f"erdos-renyi n={N}, cowen scheme, all-pairs shard of "
            f"{len(pairs)} ordered pairs, integer weights in "
            f"[1, {MAX_WEIGHT}]",
            f"reference (per-pair loop)  {reference_s:7.2f}s "
            f"({per_pair_reference:6.2f} us/pair)",
            f"batch (compiled tables)    {batch_s:7.2f}s "
            f"({per_pair_batch:6.2f} us/pair)",
            f"wall clock: {speedup:.1f}x vs reference "
            f"(bar: {REQUIRED_SPEEDUP}x)",
            "shard results bit-identical across engines "
            "(counts, failures, stretch)",
        ],
        data={
            "n": N,
            "pairs": len(pairs),
            "max_weight": MAX_WEIGHT,
            "reference_seconds": reference_s,
            "batch_seconds": batch_s,
            "query_speedup": speedup,
        },
    )

    assert speedup >= REQUIRED_SPEEDUP, (
        f"batch query engine ran {speedup:.1f}x the reference loop "
        f"(reference {reference_s:.2f}s, batch {batch_s:.2f}s; "
        f"need {REQUIRED_SPEEDUP}x)"
    )
