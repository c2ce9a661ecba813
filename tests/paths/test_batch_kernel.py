"""Property and unit tests for the vectorized multi-source batch engine.

The batch engine's contract is *bit-identical* results against the PR 5
kernel: the same weight and parent rows, for every lane of every chunk,
ragged tails included — and hence the reference engine's weights and
parents, compared as maps.  Hypothesis drives random seeded graphs (with
unreachable regions, ``phi``-dropped arcs, self-loops and heterogeneous
node keys) through all three engines; unit tests cover eligibility fallbacks, cache
invalidation after ``patch_weight``, the tree store's engine choice and
bulk build, and telemetry counters.

When numpy (the optional ``repro[fast]`` extra) is absent the
batch-specific tests skip — and the fallback tests still assert that the
engine quietly degrades to the kernel rather than failing.
"""

import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.base import PHI, key_codec
from repro.algebra.catalog import (
    MinHop,
    MostReliablePath,
    ShortestPath,
    UsablePath,
    WidestPath,
)
from repro.algebra.lexicographic import (
    LexicographicProduct,
    flatten_weight,
    lexicographic_chain,
    shortest_widest_path,
    widest_shortest_path,
)
from repro.graphs.generators import erdos_renyi
from repro.graphs.weighting import WEIGHT_ATTR, assign_random_weights
from repro.obs.metrics import (
    disable as telemetry_disable,
    enable as telemetry_enable,
    metrics as telemetry_metrics,
    reset as telemetry_reset,
)
from repro.paths import batch
from repro.paths.dijkstra import PathTree, _reference_tree
from repro.paths.kernel import compile_graph, kernel_tree
from repro.paths.store import PreferredWeightOracle

needs_numpy = pytest.mark.skipif(
    not batch.numpy_available(),
    reason="numpy not installed (the repro[fast] optional extra)",
)

# Algebras with a key combine: eligible for the batch engine.  Widest
# and usable path have step 0 (one key per window, in waves); shortest
# path and min-hop settle one key per window in one wave; the products
# with a shortest-path head settle multi-key windows.
KEYED_ALGEBRAS = [
    MinHop,
    lambda: ShortestPath(max_weight=9),
    UsablePath,
    lambda: LexicographicProduct(ShortestPath(max_weight=7), MinHop()),
    lambda: WidestPath(max_capacity=9),
    lambda: widest_shortest_path(max_weight=9, max_capacity=9),
    lambda: shortest_widest_path(max_weight=9, max_capacity=9),
    lambda: LexicographicProduct(
        widest_shortest_path(max_weight=9, max_capacity=9), MinHop()),
]


def _mixed_keys(graph):
    """Relabel a third of the nodes to strings: heterogeneous node keys."""
    import networkx as nx

    return nx.relabel_nodes(
        graph, {n: (f"s{n}" if n % 3 == 0 else n) for n in graph.nodes()}
    )


def _assert_identical(weight, parent, reference):
    """Batch rows equal to a kernel run's, entry for entry."""
    __tracebackhide__ = True
    assert weight == reference.weight
    assert parent == reference.parent


@needs_numpy
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=2, max_value=16),
    p=st.floats(min_value=0.05, max_value=0.6),
    algebra_index=st.integers(min_value=0, max_value=len(KEYED_ALGEBRAS) - 1),
    batch_size=st.sampled_from([1, 3, 256]),
    phi_arcs=st.booleans(),
    self_loops=st.booleans(),
)
def test_batch_bit_identical_to_kernel_and_reference(
    seed, n, p, algebra_index, batch_size, phi_arcs, self_loops
):
    algebra = KEYED_ALGEBRAS[algebra_index]()
    rng = random.Random(seed)
    graph = _mixed_keys(erdos_renyi(n, p=p, rng=rng))
    assign_random_weights(graph, algebra, rng=rng)
    if phi_arcs:
        for u, v in graph.edges():
            if rng.random() < 0.2:
                graph[u][v][WEIGHT_ATTR] = PHI
    if self_loops:
        _add_self_loops(graph, rng)
    compiled = compile_graph(graph)
    plan = batch.batch_plan(compiled, algebra)
    assert plan is not None
    roots = list(graph.nodes())
    # batch_size=3 against n up to 16 exercises ragged tail chunks
    weights, parents = batch.batch_trees(compiled, algebra, roots, plan=plan,
                                         batch_size=batch_size)
    assert len(weights) == len(parents) == len(roots)
    for root, weight, parent in zip(roots, weights, parents):
        _assert_identical(weight, parent, kernel_tree(compiled, algebra, root))
        # The shortest-widest products are not isotone, but every engine
        # still runs the same generalized Dijkstra.
        tree = PathTree.from_rows(root, compiled.nodes, weight, parent)
        reference = _reference_tree(graph, algebra, root)
        assert tree.weight == reference.weight
        assert tree.parent == reference.parent
        # decoded weights must be plain Python objects, not numpy scalars
        # (golden traces serialize them to JSON byte-for-byte)
        for value in tree.weight.values():
            assert all(type(part) is int
                       for part in flatten_weight(value)), value


def _add_self_loops(graph, rng):
    """A loop at about a third of the nodes, weighted like an edge."""
    weights = [data[WEIGHT_ATTR] for _, _, data in graph.edges(data=True)]
    for node in list(graph.nodes()):
        if weights and rng.random() < 0.35:
            graph.add_edge(node, node, **{WEIGHT_ATTR: rng.choice(weights)})


class TestEligibility:
    def _compiled(self, algebra, n=10, seed=3):
        rng = random.Random(seed)
        graph = erdos_renyi(n, p=0.4, rng=rng)
        assign_random_weights(graph, algebra, rng=rng)
        return graph, compile_graph(graph)

    @needs_numpy
    def test_keyless_algebra_is_ineligible(self):
        # Fraction weights have no integer key: per-algebra fallback
        algebra = MostReliablePath(denominator=9)
        _, compiled = self._compiled(algebra)
        assert batch.batch_plan(compiled, algebra) is None

    @needs_numpy
    def test_keyless_product_is_ineligible(self):
        # one keyless factor leaves the whole product without a combine
        algebra = LexicographicProduct(ShortestPath(9), MostReliablePath(9))
        _, compiled = self._compiled(algebra)
        assert key_codec(algebra, 9) is None
        assert batch.batch_plan(compiled, algebra) is None

    @needs_numpy
    def test_widest_shortest_window_spans_the_widest_base(self):
        # S x W: an edge raises the flattened key by at least its
        # shortest-path weight times W's key base, so one window settles
        # up to that many distinct keys at once.
        algebra = widest_shortest_path(max_weight=9, max_capacity=9)
        _, compiled = self._compiled(algebra)
        plan = batch.batch_plan(compiled, algebra)
        assert plan is not None
        least = min(weight[0] for weight in compiled.weights)
        assert plan.step == least * 9 > 1
        for other, step in ((MinHop(), 1), (WidestPath(9), 0)):
            _, compiled = self._compiled(other)
            assert batch.batch_plan(compiled, other).step == step

    @needs_numpy
    def test_plan_is_memoized(self):
        algebra = ShortestPath(9)
        _, compiled = self._compiled(algebra)
        assert batch.batch_plan(compiled, algebra) is batch.batch_plan(
            compiled, algebra)

    def test_numpy_absent_disables_plans(self, monkeypatch):
        algebra = ShortestPath(9)
        graph, compiled = self._compiled(algebra)
        monkeypatch.setattr(batch, "_np", None)
        assert not batch.numpy_available()
        assert batch.batch_plan(compiled, algebra) is None

    def test_store_falls_back_per_algebra(self):
        # Fraction weights have no batch plan: the store's bulk build
        # counts one fallback and runs the kernel, with identical trees.
        algebra = MostReliablePath(denominator=9)
        graph, _ = self._compiled(algebra)
        store = PreferredWeightOracle(graph, algebra)
        telemetry_enable()
        telemetry_reset()
        try:
            trees = store.trees(graph.nodes())
            counters = telemetry_metrics().snapshot()["counters"]
        finally:
            telemetry_reset()
            telemetry_disable()
        assert counters.get("path_engine.batch_fallbacks") == 1
        assert counters.get("path_engine.runs{engine=heap}") == len(trees)
        assert store.stats()["path_engine"] == "kernel"
        for root, tree in trees.items():
            reference = _reference_tree(graph, algebra, root)
            assert tree.weight == reference.weight

    def test_store_without_numpy_falls_back(self, monkeypatch):
        algebra = ShortestPath(9)
        graph, _ = self._compiled(algebra)
        monkeypatch.setattr(batch, "_np", None)
        store = PreferredWeightOracle(graph, algebra)
        trees = store.trees(graph.nodes())
        assert store.stats()["path_engine"] == "kernel"
        for root, tree in trees.items():
            reference = _reference_tree(graph, algebra, root)
            assert tree.weight == reference.weight
            assert tree.parent == reference.parent

    @needs_numpy
    def test_batch_trees_without_plan_raises(self):
        algebra = MostReliablePath(denominator=9)
        _, compiled = self._compiled(algebra)
        with pytest.raises(ValueError, match="no batch plan"):
            batch.batch_trees(compiled, algebra, [0])


@needs_numpy
class TestOverflowGuards:
    """Long lexicographic chains whose keys outgrow int64 arithmetic."""

    def _instance(self, *algebras, n=10, seed=12):
        algebra = lexicographic_chain(*algebras)
        rng = random.Random(seed)
        graph = erdos_renyi(n, p=0.4, rng=rng)
        assign_random_weights(graph, algebra, rng=rng)
        return graph, algebra

    @pytest.mark.parametrize("components", [6, 8])
    def test_chain_falls_back_to_the_kernel(self, components):
        # 6 components: the key bound (901^6) fits int64, but packed
        # (key, event rank) pairs would not even for one lane.  8: the
        # key bound itself is past int64 headroom, so no codec at all.
        graph, algebra = self._instance(*[ShortestPath(100)] * components)
        n = graph.number_of_nodes()
        compiled = compile_graph(graph)
        assert (key_codec(algebra, n - 1) is None) == (components == 8)
        assert batch.batch_plan(compiled, algebra) is None
        telemetry_enable()
        telemetry_reset()
        try:
            trees = PreferredWeightOracle(graph, algebra).trees(graph.nodes())
            counters = telemetry_metrics().snapshot()["counters"]
        finally:
            telemetry_reset()
            telemetry_disable()
        assert counters.get("path_engine.batch_fallbacks") == 1
        assert "path_engine.batch_sweeps" not in counters
        for root, tree in trees.items():
            reference = _reference_tree(graph, algebra, root)
            assert tree.weight == reference.weight
            assert tree.parent == reference.parent

    def test_wide_chunks_narrow_to_the_plan_lanes(self):
        # This chain's packed pairs fit a few lanes, not one per root:
        # the sweep runs narrower chunks rather than overflow.
        graph, algebra = self._instance(*[ShortestPath(100)] * 5,
                                        WidestPath(100))
        compiled = compile_graph(graph)
        plan = batch.batch_plan(compiled, algebra)
        assert plan is not None
        assert plan.max_lanes < graph.number_of_nodes()
        roots = list(graph.nodes())
        weights, parents = batch.batch_trees(compiled, algebra, roots,
                                             plan=plan)
        for root, weight, parent in zip(roots, weights, parents):
            _assert_identical(weight, parent,
                              kernel_tree(compiled, algebra, root))


class TestInvalidation:
    @needs_numpy
    def test_patch_weight_invalidates_cached_batch_arrays(self):
        import networkx as nx

        algebra = ShortestPath(16)
        graph = nx.path_graph(5)
        for u, v in graph.edges():
            graph[u][v][WEIGHT_ATTR] = 2
        compiled = compile_graph(graph)
        plan_before = batch.batch_plan(compiled, algebra)
        (weight_before,), _ = batch.batch_trees(compiled, algebra, [0],
                                                plan=plan_before)
        assert weight_before[4] == 8
        assert compiled.patch_weight(2, 3, 9)
        plan_after = batch.batch_plan(compiled, algebra)
        assert plan_after is not plan_before
        (weight_after,), (parent_after,) = batch.batch_trees(
            compiled, algebra, [0], plan=plan_after)
        _assert_identical(weight_after, parent_after,
                          kernel_tree(compiled, algebra, 0))
        assert weight_after[4] == 15


@needs_numpy
class TestAllPairsAndOracle:
    def _instance(self, n=14, seed=5):
        algebra = ShortestPath(9)
        rng = random.Random(seed)
        graph = _mixed_keys(erdos_renyi(n, p=0.35, rng=rng))
        assign_random_weights(graph, algebra, rng=rng)
        return graph, algebra

    def test_oracle_bulk_build_matches_per_source(self):
        graph, algebra = self._instance(seed=6)
        sources = list(graph.nodes())[:8]
        # One missing source at a time: the store runs the kernel.
        serial = PreferredWeightOracle(graph, algebra)
        for source in sources:
            serial.ensure_sources([source])
        bulk = PreferredWeightOracle(graph, algebra)
        bulk.ensure_sources(sources)
        assert serial.stats()["path_engine"] == "kernel"
        assert bulk.stats()["path_engine"] == "batch"
        assert bulk.trees_built == serial.trees_built == len(sources)
        assert bulk.trees_requested == serial.trees_requested == len(sources)
        for source in sources:
            assert bulk._tables[source] == serial._tables[source]
            assert list(bulk._tables[source]) == list(serial._tables[source])
            assert bulk._parents[source] == serial._parents[source]
        # re-ensuring is a cache hit, not a rebuild
        bulk.ensure_sources(sources)
        assert bulk.trees_built == len(sources)

    def test_oracle_single_source_still_works(self):
        graph, algebra = self._instance(seed=7)
        oracle = PreferredWeightOracle(graph, algebra)
        source = next(iter(graph.nodes()))
        oracle.ensure_sources([source])
        assert oracle.trees_built == 1
        assert oracle.stats()["path_engine"] == "kernel"

    def test_batch_counters_emitted(self):
        graph, algebra = self._instance(seed=8)
        store = PreferredWeightOracle(graph, algebra)
        telemetry_enable()
        telemetry_reset()
        try:
            store.trees(graph.nodes())
            counters = telemetry_metrics().snapshot()["counters"]
        finally:
            telemetry_reset()
            telemetry_disable()
        n = graph.number_of_nodes()
        assert store.stats()["path_engine"] == "batch"
        assert "path_engine.batch_fallbacks" not in counters
        assert counters.get("path_engine.batch_sweeps") == 1
        assert counters.get("path_engine.batch_sources") == n
        assert counters.get("path_engine.runs{engine=batch}") == n
        assert counters.get("path_engine.batch_relaxations", 0) > 0
