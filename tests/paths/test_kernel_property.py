"""Property test: the compiled kernel == the reference engine, exactly.

The compiled kernel's contract is *bit-identical* results — not just
equal weights, but the same parent pointers (the golden-trace harness
depends on them).  Hypothesis drives random seeded graphs, self-loops
included, through both engines and compares the
:class:`~repro.paths.dijkstra.PathTree` maps; the kernel's maps are made
from its rows in node-index order, the reference's in first-relaxation
order, so the maps compare by content.
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
from repro.graphs.weighting import WEIGHT_ATTR, assign_random_weights
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
    self_loops=st.booleans(),
)
def test_engines_produce_identical_path_trees(seed, n, algebra_index,
                                              self_loops):
    factory, unsafe = ALGEBRAS[algebra_index]
    algebra = factory()
    rng = random.Random(seed)
    graph = erdos_renyi(n, p=0.4, rng=rng)
    assign_random_weights(graph, algebra, rng=rng)
    if self_loops:
        # A loop at the root must not label it (PathTree's contract).
        weights = [data[WEIGHT_ATTR] for _, _, data in graph.edges(data=True)]
        for node in list(graph.nodes()):
            if weights and rng.random() < 0.35:
                graph.add_edge(node, node,
                               **{WEIGHT_ATTR: rng.choice(weights)})
    compiled = compile_graph(graph)
    for root in graph.nodes():
        reference = _reference_tree(graph, algebra, root)
        tree = preferred_path_tree(graph, algebra, root, unsafe=unsafe,
                                   compiled=compiled)
        assert tree.root == reference.root
        assert tree.weight == reference.weight, root
        assert tree.parent == reference.parent, root
        assert tree.reachable() == reference.reachable(), root
        assert root not in tree.weight and root not in reference.weight
