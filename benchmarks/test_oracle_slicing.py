"""E-ORC — lazy per-source oracle: sampled-pairs build slicing.

The PR 4 acceptance experiment.  On the largest seeded Erdős–Rényi
instance of the Table 1 suite (n = 512), a workload of ``2n`` sampled
pairs no longer pays for the all-pairs oracle: the lazy
:class:`~repro.paths.store.PreferredWeightOracle` builds one Dijkstra
tree per *distinct source actually routed from*, never ``n``.

Two workloads are measured:

* **source-concentrated** (the asserted case): ``2n`` pairs whose
  sources come from a pool of ``n/8`` nodes — the client-server / stub
  traffic shape where few nodes originate most flows (cf. ``stub_pairs``
  for BGP topologies).  The lazy oracle must build at least 3× fewer
  trees than the eager ``n`` (asserted via the ``oracle.trees_built``
  telemetry counter, end-to-end through ``evaluate_scheme``).
* **uniform** (recorded for context): ``2n`` uniformly sampled pairs
  touch ≈ ``(1 - e^-2) n ≈ 0.86 n`` distinct sources, so laziness saves
  little there by design — the win is workload-shaped, and the numbers
  make that honest.
"""

import random
import time

from conftest import record
from repro.algebra import ShortestPath
from repro.core import (
    EvaluationOptions,
    PreferredWeightOracle,
    evaluate_scheme,
    oracle_cache,
    uniform_pairs,
)
from repro.core.compiler import build_scheme
from repro.graphs import assign_random_weights, erdos_renyi
from repro.obs.metrics import disable, enable, registry, reset
from repro.obs.tracing import clear_spans

N = 512
PAIR_COUNT = 2 * N
SOURCE_POOL = N // 8
REQUIRED_BUILD_RATIO = 3.0


def _concentrated_pairs(graph, count, pool_size, rng):
    """*count* distinct ordered pairs with sources from a *pool_size* pool."""
    nodes = sorted(graph.nodes())
    sources = sorted(rng.sample(nodes, pool_size))
    pairs = set()
    while len(pairs) < count:
        s = rng.choice(sources)
        t = rng.choice(nodes)
        if s != t:
            pairs.add((s, t))
    return sorted(pairs)


def test_lazy_oracle_slices_tree_builds():
    algebra = ShortestPath()
    graph = erdos_renyi(N, rng=random.Random(31))
    assign_random_weights(graph, algebra, rng=random.Random(32))
    scheme = build_scheme(graph, algebra)

    # Eager baseline: what every evaluation paid before PR 4.
    eager = PreferredWeightOracle(graph, algebra)
    start = time.perf_counter()
    eager.ensure_sources(graph.nodes())
    eager_s = time.perf_counter() - start
    assert eager.trees_built == N

    # Context: a uniform 2n sample still touches most sources.
    uniform = uniform_pairs(graph, PAIR_COUNT, rng=random.Random(41))
    lazy_uniform = PreferredWeightOracle(graph, algebra)
    for s, t in uniform:
        lazy_uniform(s, t)
    uniform_built = lazy_uniform.trees_built

    # The asserted case: source-concentrated workload, measured end to
    # end through the evaluation harness and its telemetry counter.
    pairs = _concentrated_pairs(graph, PAIR_COUNT, SOURCE_POOL,
                                random.Random(42))
    oracle_cache.clear()
    enable()
    reset()
    clear_spans()
    try:
        start = time.perf_counter()
        report = evaluate_scheme(graph, algebra, scheme,
                                 options=EvaluationOptions(pairs=pairs))
        lazy_s = time.perf_counter() - start
        built = registry().counter("oracle.trees_built").value
        cache_stats = oracle_cache.stats()
    finally:
        disable()
        reset()
        clear_spans()
        oracle_cache.clear()

    ratio = N / built if built else float("inf")
    uniform_ratio = N / uniform_built if uniform_built else float("inf")

    record(
        "oracle_slicing",
        [
            f"erdos-renyi n={N}: {PAIR_COUNT} sampled pairs "
            f"(source pool {SOURCE_POOL})",
            f"eager oracle      {N} trees   {eager_s:7.2f}s",
            f"lazy, concentrated {built} trees  {lazy_s:7.2f}s incl. routing "
            f"({ratio:.1f}x fewer builds)",
            f"lazy, uniform 2n   {uniform_built} trees "
            f"({uniform_ratio:.2f}x fewer builds — uniform sampling touches "
            f"most sources)",
            f"delivered {report.delivered}/{report.pairs}, "
            f"sources cached {cache_stats['sources_cached']}",
            f"3x bar (concentrated): {ratio:.1f}x >= "
            f"{REQUIRED_BUILD_RATIO}x",
        ],
        data={
            "n": N,
            "pair_count": PAIR_COUNT,
            "source_pool": SOURCE_POOL,
            "eager_trees_built": N,
            "eager_build_seconds": eager_s,
            "lazy_trees_built": built,
            "lazy_eval_seconds": lazy_s,
            "build_ratio": ratio,
            "uniform_trees_built": uniform_built,
            "uniform_build_ratio": uniform_ratio,
            "sources_cached": cache_stats["sources_cached"],
            "delivered": report.delivered,
            "pairs": report.pairs,
        },
    )

    assert built <= SOURCE_POOL
    assert ratio >= REQUIRED_BUILD_RATIO, (
        f"lazy oracle built {built} trees for {PAIR_COUNT} pairs "
        f"(only {ratio:.1f}x fewer than eager {N})"
    )
    assert report.all_delivered
