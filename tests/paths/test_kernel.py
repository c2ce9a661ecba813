"""Tests for the compiled path-engine kernel (CSR arrays + Dial buckets)."""

import pickle
import random
import warnings

import networkx as nx
import pytest

from repro.algebra.catalog import (
    MinHop,
    MostReliablePath,
    ShortestPath,
    UsablePath,
    WidestPath,
)
from repro.algebra.lexicographic import (
    shortest_widest_path,
    widest_shortest_path,
)
from repro.exceptions import AlgebraError
from repro.graphs.generators import erdos_renyi, grid, ring
from repro.graphs.weighting import WEIGHT_ATTR, assign_random_weights
from repro.obs.metrics import (
    disable as telemetry_disable,
    enable as telemetry_enable,
    registry as telemetry_registry,
    reset as telemetry_reset,
)
from repro.paths.dijkstra import preferred_path_tree
from repro.paths.kernel import (
    ENGINE_ENV,
    compile_graph,
    kernel_tree,
    node_ranks,
    resolve_engine,
)


def _weighted_er(n, seed, algebra, p=0.35):
    rng = random.Random(seed)
    graph = erdos_renyi(n, p=p, rng=rng)
    assign_random_weights(graph, algebra, rng=rng)
    return graph


class TestCompiledGraph:
    def test_csr_layout_matches_adjacency(self):
        graph = _weighted_er(12, 0, ShortestPath(9))
        compiled = compile_graph(graph, WEIGHT_ATTR)
        assert compiled.nodes == list(graph.nodes())
        assert len(compiled.indptr) == len(compiled.nodes) + 1
        assert compiled.num_edges == 2 * graph.number_of_edges()
        for node in graph.nodes():
            i = compiled.node_index[node]
            span = slice(compiled.indptr[i], compiled.indptr[i + 1])
            neighbors = [compiled.nodes[j] for j in compiled.indices[span]]
            assert neighbors == list(graph.neighbors(node))
            weights = compiled.weights[span]
            assert weights == [graph[node][v][WEIGHT_ATTR] for v in neighbors]

    def test_digraph_compiles_out_edges(self):
        graph = nx.DiGraph()
        graph.add_edge("a", "b", weight=1)
        graph.add_edge("b", "a", weight=2)
        graph.add_edge("b", "c", weight=3)
        compiled = compile_graph(graph, "weight")
        assert compiled.directed
        b = compiled.node_index["b"]
        span = slice(compiled.indptr[b], compiled.indptr[b + 1])
        assert sorted(compiled.weights[span]) == [2, 3]

    def test_phi_edges_dropped_at_compile_time(self):
        from repro.algebra.base import PHI

        graph = nx.Graph()
        graph.add_edge(0, 1, weight=1)
        graph.add_edge(1, 2, weight=PHI)
        compiled = compile_graph(graph, "weight")
        assert compiled.num_edges == 2  # only 0-1, both directions
        tree = preferred_path_tree(graph, ShortestPath(), 0, compiled=compiled)
        assert 2 not in tree.reachable()

    def test_pickle_roundtrip_preserves_arrays_and_drops_caches(self):
        graph = _weighted_er(10, 1, ShortestPath(9))
        compiled = compile_graph(graph, WEIGHT_ATTR)
        compiled.bucket_plan(ShortestPath(9))  # populate a derived cache
        compiled.scratch["junk"] = object()
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.nodes == compiled.nodes
        assert clone.indptr == compiled.indptr
        assert clone.indices == compiled.indices
        assert clone.weights == compiled.weights
        assert clone.scratch == {}
        # and the clone still runs
        run = kernel_tree(clone, ShortestPath(9), 0)
        assert run.weight == kernel_tree(compiled, ShortestPath(9), 0).weight


class TestBucketPlan:
    def test_integer_algebras_engage_buckets(self):
        for algebra in (ShortestPath(9), MinHop(), WidestPath(9),
                        UsablePath(), widest_shortest_path(9, 9)):
            graph = _weighted_er(10, 2, algebra)
            compiled = compile_graph(graph, WEIGHT_ATTR)
            assert compiled.bucket_plan(algebra) is not None, algebra.name
            run = kernel_tree(compiled, algebra, 0)
            assert run.stats.bucket_engaged, algebra.name

    def test_fraction_weights_decline(self):
        algebra = MostReliablePath(denominator=8)
        graph = _weighted_er(8, 3, algebra)
        compiled = compile_graph(graph, WEIGHT_ATTR)
        assert compiled.bucket_plan(algebra) is None
        run = kernel_tree(compiled, algebra, 0)
        assert not run.stats.bucket_engaged
        assert run.stats.engine == "heap"

    def test_oversized_key_range_declines(self):
        algebra = ShortestPath(max_weight=10**9)
        graph = ring(6)
        assign_random_weights(graph, algebra, rng=random.Random(4))
        compiled = compile_graph(graph, WEIGHT_ATTR)
        assert compiled.bucket_plan(algebra) is None
        # the heap fallback still answers correctly
        tree = preferred_path_tree(graph, algebra, 0, compiled=compiled)
        ref = preferred_path_tree(graph, algebra, 0, engine="reference")
        assert tree.weight == ref.weight

    def test_plan_decision_is_memoized(self):
        algebra = ShortestPath(9)
        graph = _weighted_er(8, 5, algebra)
        compiled = compile_graph(graph, WEIGHT_ATTR)
        assert compiled.bucket_plan(algebra) is compiled.bucket_plan(algebra)


class TestEngineResolution:
    def test_default_is_kernel(self, monkeypatch):
        # A single root leaves the batch engine no sweep to share.
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert resolve_engine(single_root=True) == "kernel"
        assert resolve_engine("auto", single_root=True) == "kernel"

    def test_default_is_batch(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert resolve_engine() == "batch"

    def test_forced_batch_applies_to_a_single_root(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "batch")
        assert resolve_engine(single_root=True) == "batch"
        monkeypatch.delenv(ENGINE_ENV)
        assert resolve_engine("batch", single_root=True) == "batch"

    def test_default_single_root_tree_runs_the_kernel(self, monkeypatch):
        from repro.paths import dijkstra as dijkstra_mod

        monkeypatch.delenv(ENGINE_ENV, raising=False)
        calls = []

        def counting_kernel_tree(compiled, algebra, root):
            calls.append(root)
            return kernel_tree(compiled, algebra, root)

        monkeypatch.setattr(dijkstra_mod, "kernel_tree", counting_kernel_tree)
        algebra = ShortestPath(9)
        graph = _weighted_er(10, 6, algebra)
        tree = preferred_path_tree(graph, algebra, 0)
        assert calls == [0]
        reference = preferred_path_tree(graph, algebra, 0, engine="reference")
        assert tree.parent == reference.parent

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "reference")
        assert resolve_engine() == "reference"
        monkeypatch.setenv(ENGINE_ENV, "compiled")
        assert resolve_engine() == "kernel"

    def test_kernel_heap_is_no_longer_an_engine(self):
        with pytest.raises(ValueError):
            resolve_engine("kernel-heap")
        with pytest.raises(ValueError):
            resolve_engine("no-buckets")

    def test_invalid_env_value_warns_once_and_defaults(self, monkeypatch):
        from repro import env as env_mod

        monkeypatch.setenv(ENGINE_ENV, "warp-drive")
        monkeypatch.setattr(env_mod, "_WARNED", set())
        with pytest.warns(RuntimeWarning, match="warp-drive"):
            assert resolve_engine() == "batch"
        # one warning per bad value per process: the repeat is silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_engine() == "batch"

    def test_invalid_explicit_engine_raises(self):
        with pytest.raises(ValueError):
            resolve_engine("warp-drive")

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "reference")
        assert resolve_engine("kernel") == "kernel"

    def test_env_forces_engine_through_preferred_path_tree(self, monkeypatch):
        algebra = ShortestPath(9)
        graph = _weighted_er(10, 6, algebra)
        trees = {}
        for engine in ("kernel", "reference"):
            monkeypatch.setenv(ENGINE_ENV, engine)
            trees[engine] = preferred_path_tree(graph, algebra, 0)
        assert trees["kernel"].weight == trees["reference"].weight
        assert trees["kernel"].parent == trees["reference"].parent


class TestDispatchGuards:
    def test_missing_root_raises_under_kernel(self):
        graph = ring(4)
        assign_random_weights(graph, ShortestPath(), rng=random.Random(0))
        with pytest.raises(AlgebraError):
            preferred_path_tree(graph, ShortestPath(), 99, engine="kernel")

    def test_compiled_attr_mismatch_raises(self):
        graph = ring(4)
        assign_random_weights(graph, ShortestPath(), rng=random.Random(0))
        compiled = compile_graph(graph, WEIGHT_ATTR)
        with pytest.raises(ValueError):
            preferred_path_tree(graph, ShortestPath(), 0, attr="other",
                                compiled=compiled)


class TestCounters:
    def test_kernel_counters_reach_the_registry(self):
        algebra = ShortestPath(9)
        graph = _weighted_er(10, 7, algebra)
        telemetry_enable()
        try:
            telemetry_reset()
            preferred_path_tree(graph, algebra, 0, engine="kernel")
            registry = telemetry_registry()
            assert registry.counter("path_engine.runs", engine="bucket").value == 1
            assert registry.counter("path_engine.bucket_engaged").value == 1
            assert registry.counter(
                "path_engine.relaxations", engine="bucket").value > 0
            preferred_path_tree(graph, algebra, 0, engine="reference")
            assert registry.counter(
                "path_engine.runs", engine="reference").value == 1
        finally:
            telemetry_disable()
            telemetry_reset()

    def test_relaxation_counts_agree_across_engines(self):
        from repro.paths.kernel import _heap_tree

        algebra = ShortestPath(9)
        graph = _weighted_er(12, 8, algebra)
        compiled = compile_graph(graph, WEIGHT_ATTR)
        bucket = kernel_tree(compiled, algebra, 0).stats
        heap = _heap_tree(compiled, algebra, compiled.node_index[0])[3]
        assert bucket.bucket_engaged and not heap.bucket_engaged
        assert bucket.relaxations == heap.relaxations
        assert bucket.frontier_pushes == heap.frontier_pushes
        assert bucket.stale_pops == heap.stale_pops


class TestNodeRanks:
    def test_comparable_nodes_keep_sorted_order(self):
        ranks = node_ranks([3, 1, 2, 0])
        assert [node for node, _ in sorted(ranks.items(), key=lambda kv: kv[1])] \
            == [0, 1, 2, 3]

    def test_heterogeneous_nodes_get_deterministic_ranks(self):
        nodes = [1, "a", (2, 3), 0]
        ranks = node_ranks(nodes)
        assert ranks == node_ranks(list(reversed(nodes)))
        assert sorted(ranks.values()) == [0, 1, 2, 3]


class TestOracleAdoption:
    def test_oracle_shares_one_compiled_graph(self, monkeypatch):
        from repro.core.simulate import PreferredWeightOracle

        # The reference engine never compiles a graph: pin the default.
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        algebra = ShortestPath(9)
        graph = _weighted_er(10, 9, algebra)
        oracle = PreferredWeightOracle(graph, algebra)
        oracle(0, 1)
        first = oracle._compiled
        assert first is not None
        oracle(3, 4)
        assert oracle._compiled is first

    def test_reference_engine_skips_compilation(self, monkeypatch):
        from repro.core.simulate import PreferredWeightOracle

        monkeypatch.setenv(ENGINE_ENV, "reference")
        algebra = ShortestPath(9)
        graph = _weighted_er(10, 12, algebra)
        oracle = PreferredWeightOracle(graph, algebra)
        oracle(0, 1)
        assert oracle._compiled is None
        assert oracle.stats()["path_engine"] == "reference"


class TestGridAndStringNodes:
    def test_grid_tuple_nodes(self):
        algebra = WidestPath(9)
        graph = grid(4, 4)
        assign_random_weights(graph, algebra, rng=random.Random(13))
        root = list(graph.nodes())[0]
        kernel = preferred_path_tree(graph, algebra, root, engine="kernel")
        reference = preferred_path_tree(graph, algebra, root, engine="reference")
        assert kernel.weight == reference.weight
        assert kernel.parent == reference.parent

    def test_shortest_widest_unsafe_matches_reference(self):
        algebra = shortest_widest_path(9, 9)
        graph = _weighted_er(10, 14, algebra)
        kernel = preferred_path_tree(graph, algebra, 0, unsafe=True,
                                     engine="kernel")
        reference = preferred_path_tree(graph, algebra, 0, unsafe=True,
                                        engine="reference")
        assert kernel.weight == reference.weight
        assert kernel.parent == reference.parent
