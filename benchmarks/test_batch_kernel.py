"""E-BAT — vectorized batch engine: all-pairs wall clock vs the PR 5 kernel.

The batch-engine acceptance experiment.  On the same integer-weight
Erdős–Rényi instance as E-KRN (n = 1024), the full all-pairs sweep —
one preferred-path tree per source — runs through two engines:

* **kernel** — the PR 5 compiled CSR kernel with the Dial bucket
  frontier, one Python sweep per source;
* **batch** — the vectorized multi-source engine
  (:mod:`repro.paths.batch`): sources run in lanes of 128 through
  numpy-level Dial sweeps over the shared int arrays, decoded back to
  weight objects at the end.

Both timings include their own graph compile and plan construction, so
the ratio is end-to-end.  The asserted bar is **>= 5x wall clock** for
the whole all-pairs build; the ratio also lands in the committed
baseline as ``batch_speedup`` so ``compare_baseline.py`` trips when the
vectorized path decays back toward per-source Python speed.  Every tree
must be bit-identical to the kernel's (its weight and parent rows) —
speed without exactness would corrupt golden traces.

Skips (not fails) when numpy — the ``repro[fast]`` optional extra — is
not installed.
"""

import random
import time

import pytest

from conftest import record
from repro.algebra import ShortestPath
from repro.graphs import assign_random_weights, erdos_renyi
from repro.graphs.weighting import WEIGHT_ATTR
from repro.paths import batch
from repro.paths.dijkstra import compile_graph
from repro.paths.kernel import kernel_tree

N = 1024
MAX_WEIGHT = 16
REQUIRED_SPEEDUP = 5.0

pytestmark = pytest.mark.skipif(
    not batch.numpy_available(),
    reason="numpy not installed (the repro[fast] optional extra)",
)


def test_batch_all_pairs_speedup():
    algebra = ShortestPath(max_weight=MAX_WEIGHT)
    rng = random.Random(51)
    graph = erdos_renyi(N, rng=rng)
    assign_random_weights(graph, algebra, rng=random.Random(52))
    sources = list(graph.nodes())
    arcs = 2 * graph.number_of_edges()

    start = time.perf_counter()
    kernel_compiled = compile_graph(graph, WEIGHT_ATTR)
    kernel_runs = [kernel_tree(kernel_compiled, algebra, source)
                   for source in sources]
    kernel_s = time.perf_counter() - start

    start = time.perf_counter()
    batch_compiled = compile_graph(graph, WEIGHT_ATTR)
    plan = batch.batch_plan(batch_compiled, algebra)
    assert plan is not None
    weights, parents = batch.batch_trees(batch_compiled, algebra, sources,
                                         plan=plan)
    batch_s = time.perf_counter() - start

    # Exactness first: every lane bit-identical to its kernel sweep.
    assert len(weights) == len(parents) == len(kernel_runs) == N
    for kernel_run, weight, parent in zip(kernel_runs, weights, parents):
        assert weight == kernel_run.weight
        assert parent == kernel_run.parent

    speedup = kernel_s / batch_s if batch_s else float("inf")
    per_source_kernel = kernel_s / N * 1e3
    per_source_batch = batch_s / N * 1e3

    record(
        "batch_kernel",
        [
            f"erdos-renyi n={N} arcs={arcs}: all-pairs preferred-path "
            f"trees, integer weights in [1, {MAX_WEIGHT}]",
            f"kernel (per-source Dial)   {kernel_s:7.2f}s "
            f"({per_source_kernel:6.2f} ms/source)",
            f"batch  (vectorized lanes)  {batch_s:7.2f}s "
            f"({per_source_batch:6.2f} ms/source)",
            f"wall clock: {speedup:.1f}x vs kernel "
            f"(bar: {REQUIRED_SPEEDUP}x)",
            "trees bit-identical across engines (weight and parent rows)",
        ],
        data={
            "n": N,
            "arcs": arcs,
            "tree_builds": N,
            "max_weight": MAX_WEIGHT,
            "kernel_seconds": kernel_s,
            "batch_seconds": batch_s,
            "batch_speedup": speedup,
        },
    )

    assert speedup >= REQUIRED_SPEEDUP, (
        f"batch all-pairs sweep ran {speedup:.1f}x the kernel "
        f"(kernel {kernel_s:.2f}s, batch {batch_s:.2f}s; "
        f"need {REQUIRED_SPEEDUP}x)"
    )
