"""E-KRN — compiled graph kernel: comparisons-per-edge and wall clock.

The PR 5 acceptance experiment.  On an integer-weight Erdős–Rényi
instance at n = 1024, per-source preferred-path tree builds run through
two engines:

* **reference** — the seed implementation (networkx adjacency walk,
  ``_HeapEntry`` heap), called by name as ``_reference_tree``;
* **kernel** — CSR arrays plus the Dial-style bucketed frontier, which
  the integer-key capability of ``ShortestPath`` unlocks.

The asserted quantity is deterministic: algebra **comparisons per edge
relaxation** (counted by instrumenting ``leq_finite``), which the bucket
frontier must cut by at least 2× versus the reference engine — bucket
runs never pay heap-sift key comparisons or ``eq`` staleness checks.
Wall-clock speedup is recorded for context (the acceptance criterion is
an OR; CI containers make time-based assertions flaky).  Both engines
must return identical trees.
"""

import random
import time

from conftest import record
from repro.algebra import ShortestPath
from repro.graphs import assign_random_weights, erdos_renyi
from repro.graphs.weighting import WEIGHT_ATTR
from repro.paths.dijkstra import (
    _reference_tree,
    compile_graph,
    preferred_path_tree,
)

N = 1024
SOURCES = 48
MAX_WEIGHT = 16
REQUIRED_COMPARISON_RATIO = 2.0


class CountingShortestPath(ShortestPath):
    """ShortestPath that counts every finite-weight order comparison."""

    name = "shortest-path-counting"

    def __init__(self, max_weight):
        super().__init__(max_weight)
        self.leq_calls = 0

    def leq_finite(self, w1, w2):
        self.leq_calls += 1
        return w1 <= w2


def _measure(engine, graph, sources):
    """(trees, comparisons, seconds, stats-of-last-run) for one engine."""
    algebra = CountingShortestPath(MAX_WEIGHT)
    compiled = None
    start = time.perf_counter()
    if engine == "reference":
        trees = [_reference_tree(graph, algebra, source, WEIGHT_ATTR)
                 for source in sources]
    else:
        compiled = compile_graph(graph, WEIGHT_ATTR)
        trees = [preferred_path_tree(graph, algebra, source,
                                     compiled=compiled)
                 for source in sources]
    elapsed = time.perf_counter() - start
    return trees, algebra.leq_calls, elapsed, compiled


def test_kernel_cuts_comparisons_per_edge():
    seed_algebra = ShortestPath(max_weight=MAX_WEIGHT)
    rng = random.Random(51)
    graph = erdos_renyi(N, rng=rng)
    assign_random_weights(graph, seed_algebra, rng=random.Random(52))
    sources = sorted(random.Random(53).sample(sorted(graph.nodes()), SOURCES))
    arcs = 2 * graph.number_of_edges()  # directed arcs scanned per sweep

    ref_trees, ref_cmp, ref_s, _ = _measure("reference", graph, sources)
    kern_trees, kern_cmp, kern_s, compiled = _measure("kernel", graph, sources)

    # Bit-identical trees, and the bucket frontier actually engaged.
    for ref, kern in zip(ref_trees, kern_trees):
        assert ref.weight == kern.weight
        assert ref.parent == kern.parent
    assert compiled.bucket_plan(CountingShortestPath(MAX_WEIGHT)) is not None

    denom = arcs * SOURCES
    ref_cpe = ref_cmp / denom
    kern_cpe = kern_cmp / denom
    ratio = ref_cpe / kern_cpe
    wall_speedup = ref_s / kern_s if kern_s else float("inf")

    record(
        "dijkstra_kernel",
        [
            f"erdos-renyi n={N} arcs={arcs}: {SOURCES} tree builds, "
            f"integer weights in [1, {MAX_WEIGHT}]",
            f"reference    {ref_cmp:>10d} comparisons "
            f"({ref_cpe:6.2f}/edge)  {ref_s:6.2f}s",
            f"kernel       {kern_cmp:>10d} comparisons "
            f"({kern_cpe:6.2f}/edge)  {kern_s:6.2f}s",
            f"comparisons/edge: {ratio:.1f}x fewer than reference "
            f"(bar: {REQUIRED_COMPARISON_RATIO}x)",
            f"wall clock: {wall_speedup:.2f}x vs reference (informational)",
        ],
        data={
            "n": N,
            "arcs": arcs,
            "tree_builds": SOURCES,
            "max_weight": MAX_WEIGHT,
            "reference_comparisons_per_edge": ref_cpe,
            "kernel_comparisons_per_edge": kern_cpe,
            "comparison_ratio": ratio,
            "reference_seconds": ref_s,
            "kernel_seconds": kern_s,
            "wall_clock_speedup": wall_speedup,
        },
    )

    assert ratio >= REQUIRED_COMPARISON_RATIO, (
        f"bucket kernel does {kern_cpe:.2f} comparisons/edge vs reference "
        f"{ref_cpe:.2f} — only {ratio:.1f}x fewer "
        f"(need {REQUIRED_COMPARISON_RATIO}x)"
    )
