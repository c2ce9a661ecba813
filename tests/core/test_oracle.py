"""The PR 4 lazy oracle: engine dispatch, laziness, pickling, concurrency.

Covers :class:`repro.paths.store.PreferredWeightOracle` directly plus the
:class:`~repro.paths.store.OracleCache` fixes that ride along: the
per-key build lock (no thundering herd), the explicit ``attr`` key
component, and truthful per-scheme ``oracle`` span attribution on hits.
``TestTreeStore`` covers the oracle as the one tree store the Cowen and
destination-table schemes are built from.
"""

import pickle
import random
import threading
import time

import networkx as nx
import pytest

from repro.algebra.bgp import valley_free_algebra
from repro.algebra.catalog import ShortestPath, WidestPath
from repro.algebra.lexicographic import shortest_widest_path, widest_shortest_path
from repro.core.compiler import build_scheme
from repro.core.simulate import evaluate_scheme
from repro.exceptions import AlgebraError
from repro.graphs.bgp_topologies import coned_as_topology
from repro.graphs.generators import erdos_renyi, ring
from repro.graphs.weighting import assign_random_weights
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import disable as telemetry_disable
from repro.obs.metrics import enable as telemetry_enable
from repro.obs.metrics import registry as telemetry_registry
from repro.obs.metrics import reset as telemetry_reset
from repro.paths.dijkstra import _reference_tree
from repro.paths.enumerate import preferred_by_enumeration
from repro.paths.store import OracleCache, PreferredWeightOracle, oracle_cache
from repro.protocols.disputes import DisputeWheelAlgebra, bad_gadget
from repro.routing.cowen import CowenScheme
from repro.routing.destination_table import DestinationTableScheme


@pytest.fixture(autouse=True)
def clean_global_state():
    oracle_cache.clear()
    telemetry_disable()
    telemetry_reset()
    obs_tracing.clear_spans()
    yield
    oracle_cache.clear()
    telemetry_disable()
    telemetry_reset()
    obs_tracing.clear_spans()


def _sp_instance(n=12, seed=1):
    algebra = ShortestPath()
    graph = erdos_renyi(n, rng=random.Random(seed))
    assign_random_weights(graph, algebra, rng=random.Random(seed + 1))
    return graph, algebra


class TestEngineSelection:
    def test_regular_algebra_uses_dijkstra(self):
        graph, algebra = _sp_instance()
        assert PreferredWeightOracle(graph, algebra).engine == "dijkstra"

    def test_shortest_widest_engine(self):
        algebra = shortest_widest_path(max_weight=5, max_capacity=5)
        graph = ring(6)
        assign_random_weights(graph, algebra, rng=random.Random(3))
        assert PreferredWeightOracle(graph, algebra).engine == "shortest-widest"

    def test_bgp_engine(self):
        algebra = valley_free_algebra()
        graph = coned_as_topology(2, 2, 2, rng=random.Random(4))
        assert PreferredWeightOracle(graph, algebra).engine == "bgp"

    def test_non_monotone_falls_back_to_enumeration(self):
        oracle = PreferredWeightOracle(bad_gadget(3), DisputeWheelAlgebra())
        assert oracle.engine == "enumeration"


class TestLaziness:
    def test_no_builds_at_construction(self):
        graph, algebra = _sp_instance()
        oracle = PreferredWeightOracle(graph, algebra)
        assert oracle.trees_built == 0
        assert oracle.trees_requested == 0
        assert oracle.stats()["sources_cached"] == 0

    def test_query_builds_only_its_source(self):
        graph, algebra = _sp_instance()
        oracle = PreferredWeightOracle(graph, algebra)
        oracle(0, 5)
        oracle(0, 7)
        oracle(1, 3)
        assert oracle.trees_built == 2  # sources 0 and 1, each once
        assert oracle.trees_requested == 3
        assert oracle.stats()["sources_cached"] == 2

    def test_matches_enumeration_truth_lazily(self):
        graph, algebra = _sp_instance()
        oracle = PreferredWeightOracle(graph, algebra)
        truth = preferred_by_enumeration(graph, algebra, 0, 5)
        assert oracle(0, 5) == truth.weight
        assert oracle.trees_built == 1

    def test_ensure_sources_bulk_builds_once(self):
        graph, algebra = _sp_instance()
        oracle = PreferredWeightOracle(graph, algebra)
        oracle.ensure_sources([0, 1, 0, 2, 1])  # duplicates collapse
        assert oracle.trees_built == 3
        assert oracle.trees_requested == 3
        oracle.ensure_sources([0, 1, 2])  # idempotent: no rebuilds
        assert oracle.trees_built == 3
        oracle(0, 5)  # queries ride the prebuilt tables
        assert oracle.trees_built == 3

    def test_enumeration_memoizes_pairs_and_builds_nothing(self):
        algebra = DisputeWheelAlgebra()
        graph = bad_gadget(3)
        oracle = PreferredWeightOracle(graph, algebra)
        oracle.ensure_sources(graph.nodes())  # no-op for enumeration
        assert oracle.trees_built == 0
        first = oracle(1, 0)
        truth = preferred_by_enumeration(graph, algebra, 1, 0)
        assert first == (truth.weight if truth else first)
        assert oracle(1, 0) == first  # memoized
        assert oracle.trees_built == 0
        assert oracle.trees_requested == 2

    def test_telemetry_counters_emitted(self):
        telemetry_enable()
        graph, algebra = _sp_instance()
        oracle = PreferredWeightOracle(graph, algebra)
        oracle(0, 5)
        oracle(0, 7)
        oracle.ensure_sources([2])
        registry = telemetry_registry()
        assert registry.counter("oracle.trees_built").value == 2
        assert registry.counter("oracle.trees_requested").value == 3


class TestPickle:
    def test_roundtrip_keeps_tables_and_counters(self):
        graph, algebra = _sp_instance()
        oracle = PreferredWeightOracle(graph, algebra)
        expected = oracle(0, 5)
        clone = pickle.loads(pickle.dumps(oracle))
        assert clone.trees_built == 1
        assert clone.stats()["sources_cached"] == 1
        assert clone(0, 5) == expected
        assert clone.trees_built == 1  # the shipped table was reused
        clone(1, 3)  # the recreated lock supports fresh builds
        assert clone.trees_built == 2


class TestThreadSafety:
    def test_concurrent_queries_build_each_source_once(self):
        graph, algebra = _sp_instance(n=10)
        oracle = PreferredWeightOracle(graph, algebra)
        builds = []
        original = oracle._build_table

        def slow_build(source):
            builds.append(source)
            time.sleep(0.01)  # widen the race window
            return original(source)

        oracle._build_table = slow_build
        barrier = threading.Barrier(4)
        results = []

        def query():
            barrier.wait()
            results.append(oracle(0, 5))

        threads = [threading.Thread(target=query) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert builds == [0]  # one build despite four racing queries
        assert len(set(results)) == 1
        assert oracle.trees_built == 1


class TestOracleCacheConcurrency:
    def test_thundering_herd_builds_once(self, monkeypatch):
        graph, algebra = _sp_instance()
        cache = OracleCache(capacity=4)
        built = []
        original = PreferredWeightOracle.__init__

        def slow_init(self, *args, **kwargs):
            built.append(args)
            time.sleep(0.01)  # widen the race window
            original(self, *args, **kwargs)

        monkeypatch.setattr(PreferredWeightOracle, "__init__", slow_init)
        barrier = threading.Barrier(4)
        oracles = []

        def fetch():
            barrier.wait()
            oracles.append(cache.get(graph, algebra))

        threads = [threading.Thread(target=fetch) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(built) == 1  # exactly one construction
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 3
        assert all(o is oracles[0] for o in oracles)

    def test_attr_is_a_key_component(self):
        """Regression: two weight attributes on one graph never alias."""
        algebra = ShortestPath()
        graph = ring(6)
        for u, v, data in graph.edges(data=True):
            data["weight"] = 1
            data["toll"] = 5
        cache = OracleCache(capacity=4)
        a = cache.get(graph, algebra, attr="weight")
        b = cache.get(graph, algebra, attr="toll")
        assert a is not b
        assert a.attr == "weight" and b.attr == "toll"
        assert cache.stats()["misses"] == 2
        assert a(0, 3) != b(0, 3)  # different attribute, different weights
        assert cache.get(graph, algebra, attr="weight") is a  # and a hit

    def test_hit_spans_carry_current_scheme(self):
        telemetry_enable()
        graph, algebra = _sp_instance()
        cache = OracleCache(capacity=4)
        cache.get(graph, algebra, scheme_name="first")
        cache.get(graph, algebra, scheme_name="second")
        spans = [s for s in obs_tracing.spans() if s.name == "oracle"]
        assert len(spans) == 2
        assert dict(spans[0].tags) == {"scheme": "first", "cache_hit": "false"}
        assert dict(spans[1].tags) == {"scheme": "second", "cache_hit": "true"}

    def test_clear_resets_everything(self):
        graph, algebra = _sp_instance()
        cache = OracleCache(capacity=4)
        cache.get(graph, algebra)
        cache.get(graph, algebra)
        cache.clear()
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0
        assert stats["entries"] == 0
        assert len(cache) == 0

    def test_stats_aggregates_cached_trees(self):
        graph, algebra = _sp_instance()
        cache = OracleCache(capacity=4)
        oracle = cache.get(graph, algebra)
        oracle(0, 5)
        oracle(1, 5)
        stats = cache.stats()
        assert stats["trees_built"] == 2
        assert stats["trees_requested"] == 2
        assert stats["sources_cached"] == 2


class TestCachedTreesAccumulate:
    def test_trees_survive_across_evaluations(self):
        """The cache hands back the same lazy oracle, trees included."""
        graph, algebra = _sp_instance()
        first = oracle_cache.get(graph, algebra)
        first(0, 5)
        built = first.trees_built
        again = oracle_cache.get(graph, algebra)
        assert again is first
        again(0, 7)  # same source: no new build
        assert again.trees_built == built


class TestTreeStore:
    """Schemes build from the oracle's trees; each tree is built once."""

    @pytest.mark.parametrize("mode", ["exact", "compact"])
    def test_build_and_evaluate_build_each_tree_once(self, mode):
        graph, algebra = _sp_instance(n=20)
        scheme = build_scheme(graph, algebra, mode=mode, rng=4)
        report = evaluate_scheme(graph, algebra, scheme)
        n = graph.number_of_nodes()
        assert report.pairs == n * (n - 1)
        assert oracle_cache.stats()["misses"] == 1
        oracle = oracle_cache.get(graph, algebra)
        assert oracle.trees_built == n
        # The scheme holds the store's row objects, not copies, and the
        # labeller never wrote them: they are still the referee's trees.
        weights, parents = oracle.rows(list(graph.nodes()))
        for i in range(n):
            assert scheme._weight_rows[i] is weights[i]
            if isinstance(scheme, CowenScheme):
                assert scheme._parent_rows[i] is parents[i]
        for source, tree in oracle.trees(graph.nodes()).items():
            assert tree.parent == _reference_tree(graph, algebra, source).parent
        assert oracle.trees_built == n

    def test_explicit_store_bypasses_the_cache(self):
        graph, algebra = _sp_instance()
        store = PreferredWeightOracle(graph, algebra)
        scheme = build_scheme(graph, algebra, mode="compact", rng=4,
                              oracle=store)
        assert len(oracle_cache) == 0
        assert store.trees_built == graph.number_of_nodes()
        assert scheme._parent_rows[0] is store.rows([0])[1][0]

    def test_schemes_without_trees_leave_the_store_alone(self):
        # Widest path is selective: one Lemma 1 tree, no per-source trees.
        graph = erdos_renyi(12, rng=random.Random(1))
        algebra = WidestPath()
        assign_random_weights(graph, algebra, rng=random.Random(2))
        build_scheme(graph, algebra)
        assert len(oracle_cache) == 0

    def test_storeless_schemes_build_from_a_private_store(self, monkeypatch):
        from repro.paths import dijkstra as dijkstra_mod
        from repro.paths import kernel as kernel_mod

        compiles = []
        original = kernel_mod.compile_graph

        def counting_compile(*args, **kwargs):
            compiles.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(kernel_mod, "compile_graph", counting_compile)
        monkeypatch.setattr(dijkstra_mod, "compile_graph", counting_compile)
        graph, algebra = _sp_instance()
        CowenScheme(graph, algebra, rng=random.Random(4))
        DestinationTableScheme(graph, algebra)
        # At most one compiled graph per scheme, not one per node, and the
        # process-wide cache is left alone.
        assert len(compiles) <= 2
        assert len(oracle_cache) == 0

    @pytest.mark.parametrize("factory", [ShortestPath, widest_shortest_path],
                             ids=["batch-eligible", "kernel-fallback"])
    def test_store_trees_match_the_reference_engine(self, factory):
        # The scheme and its referee share these trees, so an independent
        # engine checks them.
        algebra = factory()
        graph = erdos_renyi(20, rng=random.Random(7))
        assign_random_weights(graph, algebra, rng=random.Random(8))
        # Loops at some sources: a root never labels itself.
        for source in sorted(graph.nodes())[::3]:
            for u, v, weight in list(graph.edges(source, data="weight"))[:1]:
                graph.add_edge(source, source, weight=weight)
        build_scheme(graph, algebra, mode="exact")
        sources = sorted(graph.nodes())[::5]
        one_by_one = PreferredWeightOracle(graph, algebra)
        for source in sources:
            one_by_one.ensure_sources([source])   # one missing tree: the kernel
        for store in (oracle_cache.get(graph, algebra), one_by_one):
            for source, tree in store.trees(sources).items():
                reference = _reference_tree(graph, algebra, source)
                assert tree.weight == reference.weight
                assert tree.parent == reference.parent
                assert source not in tree.weight

    def test_reordered_graph_gets_its_own_store(self):
        # Equal content, different adjacency order: ties between
        # equal-weight paths break differently, so the trees differ and
        # a scheme built after the first graph's must not reuse them.
        algebra = ShortestPath(max_weight=3)
        graph = erdos_renyi(16, rng=random.Random(1))
        assign_random_weights(graph, algebra, rng=random.Random(2))
        reordered = nx.Graph()
        reordered.add_nodes_from(graph.nodes())
        reordered.add_edges_from(reversed(list(graph.edges(data=True))))
        pairs = [(s, t) for s in graph for t in graph if s != t]
        build_scheme(graph, algebra)
        after_first = build_scheme(reordered, algebra)
        assert oracle_cache.stats()["misses"] == 2
        oracle_cache.clear()
        fresh = build_scheme(reordered, algebra)
        assert [after_first.route(s, t).path for s, t in pairs] == \
            [fresh.route(s, t).path for s, t in pairs]

    def test_engines_without_trees_refuse(self):
        graph = erdos_renyi(8, rng=random.Random(1))
        algebra = shortest_widest_path()
        assign_random_weights(graph, algebra, rng=random.Random(2))
        with pytest.raises(AlgebraError, match="keeps no path trees"):
            PreferredWeightOracle(graph, algebra).trees([0])
