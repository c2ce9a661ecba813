"""Property test: the compiled kernel == the reference engine, exactly.

The compiled kernel's contract is *bit-identical* results — not just
equal weights, but the same parent pointers and the same insertion order
of the ``weight``/``parent`` dicts (the golden-trace harness depends on
it).  Hypothesis drives random seeded graphs through both engines and
compares the full :class:`~repro.paths.dijkstra.PathTree` structure.
The algebras cover both kernel frontiers: Dial buckets, and the heap for
algebras without a bucket plan (Fraction weights, or a key range too wide
to bucket).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.algebra.catalog import (
    MinHop,
    MostReliablePath,
    ShortestPath,
    WidestPath,
)
from repro.algebra.lexicographic import (
    shortest_widest_path,
    widest_shortest_path,
)
from repro.graphs.generators import erdos_renyi
from repro.graphs.weighting import assign_random_weights
from repro.paths.dijkstra import (
    _reference_tree,
    compile_graph,
    preferred_path_tree,
)

# (factory, needs unsafe): shortest-widest is declared non-isotone — the
# engines still must agree on whatever generalized Dijkstra computes for
# it, which is exactly what unsafe=True runs.
ALGEBRAS = [
    (MinHop, False),
    (lambda: ShortestPath(max_weight=9), False),
    (lambda: WidestPath(max_capacity=9), False),
    (lambda: widest_shortest_path(max_weight=9, max_capacity=9), False),
    (lambda: shortest_widest_path(max_weight=9, max_capacity=9), True),
    # no bucket plan: the kernel runs its heap frontier
    (lambda: MostReliablePath(denominator=8), False),
    (lambda: ShortestPath(max_weight=10**6), False),
]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=4, max_value=14),
    algebra_index=st.integers(min_value=0, max_value=len(ALGEBRAS) - 1),
)
def test_engines_produce_identical_path_trees(seed, n, algebra_index):
    factory, unsafe = ALGEBRAS[algebra_index]
    algebra = factory()
    rng = random.Random(seed)
    graph = erdos_renyi(n, p=0.4, rng=rng)
    assign_random_weights(graph, algebra, rng=rng)
    compiled = compile_graph(graph)
    for root in graph.nodes():
        reference = _reference_tree(graph, algebra, root)
        tree = preferred_path_tree(graph, algebra, root, unsafe=unsafe,
                                   compiled=compiled)
        assert tree.root == reference.root
        assert tree.weight == reference.weight, root
        assert tree.parent == reference.parent, root
        assert tree.reachable() == reference.reachable(), root
        # dict insertion order is part of the bit-identical contract
        assert list(tree.weight) == list(reference.weight), root
        assert list(tree.parent) == list(reference.parent), root
