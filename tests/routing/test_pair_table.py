"""Tests for source-destination pair tables (the non-isotone fallback)."""

import random

import pytest

import repro.paths.shortest_widest as shortest_widest
from repro.algebra.catalog import MostReliablePath, ShortestPath, WidestPath
from repro.algebra.lexicographic import LexicographicProduct, shortest_widest_path
from repro.core.simulate import EvaluationOptions, oracle_cache, run_experiment
from repro.exceptions import RoutingError
from repro.graphs.generators import erdos_renyi, ring
from repro.graphs.weighting import assign_random_weights
from repro.paths.enumerate import preferred_by_enumeration
from repro.paths.store import PreferredWeightOracle
from repro.routing.memory import memory_report
from repro.routing.pair_table import PairTableScheme


class TestShortestWidest:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_routes_on_preferred_sw_paths(self, seed):
        algebra = shortest_widest_path(max_weight=9, max_capacity=9)
        rng = random.Random(seed)
        graph = erdos_renyi(10, p=0.4, rng=rng)
        assign_random_weights(graph, algebra, rng=rng)
        scheme = PairTableScheme(graph, algebra)
        for s in graph.nodes():
            for t in graph.nodes():
                if s == t:
                    continue
                result = scheme.route(s, t)
                assert result.delivered, (s, t)
                realized = algebra.path_weight(graph, list(result.path))
                truth = preferred_by_enumeration(graph, algebra, s, t).weight
                assert algebra.eq(realized, truth), (s, t)

    def test_route_follows_installed_path_exactly(self):
        algebra = shortest_widest_path()
        rng = random.Random(3)
        graph = ring(7)
        assign_random_weights(graph, algebra, rng=rng)
        scheme = PairTableScheme(graph, algebra)
        for s, t in [(0, 3), (2, 6)]:
            assert scheme.route(s, t).path == scheme.installed_path(s, t)


class TestEnumerationOracleFallback:
    def test_default_oracle_enumerates(self):
        # Non-isotone, but not shortest-widest: the private store enumerates.
        algebra = LexicographicProduct(WidestPath(5), MostReliablePath(5))
        rng = random.Random(4)
        graph = ring(6)
        assign_random_weights(graph, algebra, rng=rng)
        scheme = PairTableScheme(graph, algebra)
        for s in graph.nodes():
            for t in graph.nodes():
                if s != t:
                    assert scheme.route(s, t).delivered
                    realized = algebra.path_weight(graph, list(
                        scheme.installed_path(s, t)))
                    truth = preferred_by_enumeration(graph, algebra, s, t)
                    assert algebra.eq(realized, truth.weight)


class TestStorePaths:
    """``PreferredWeightOracle.paths``: what a pair table installs."""

    @pytest.mark.parametrize("algebra, engine", [
        (shortest_widest_path(max_weight=5, max_capacity=5), "shortest-widest"),
        (LexicographicProduct(WidestPath(5), MostReliablePath(5)), "enumeration"),
        (ShortestPath(max_weight=5), "dijkstra"),
    ], ids=["shortest-widest", "enumeration", "dijkstra"])
    def test_paths_realize_the_store_weights(self, algebra, engine):
        graph = erdos_renyi(9, p=0.4, rng=random.Random(11))
        assign_random_weights(graph, algebra, rng=random.Random(12))
        store = PreferredWeightOracle(graph, algebra)
        assert store.engine == engine
        for s in graph.nodes():
            paths = store.paths(s)
            for t in graph.nodes():
                if t == s:
                    continue
                truth = preferred_by_enumeration(graph, algebra, s, t)
                if truth is None:
                    assert t not in paths
                    continue
                path = paths[t]
                assert path[0] == s and path[-1] == t
                realized = algebra.path_weight(graph, list(path))
                assert algebra.eq(realized, store(s, t))
                assert algebra.eq(realized, truth.weight)

    def test_regular_algebra_installs_the_store_tree_paths(self):
        algebra = ShortestPath(max_weight=5)
        graph = erdos_renyi(10, p=0.4, rng=random.Random(13))
        assign_random_weights(graph, algebra, rng=random.Random(14))
        store = PreferredWeightOracle(graph, algebra)
        scheme = PairTableScheme(graph, algebra, oracle=store)
        trees = store.trees(graph.nodes())
        for s, tree in trees.items():
            for t in tree.reachable():
                assert scheme.installed_path(s, t) == tuple(tree.path_to(t))
        assert store.trees_built == graph.number_of_nodes()

    def test_invalidation_drops_paths_with_their_weights(self):
        algebra = shortest_widest_path(max_weight=5, max_capacity=5)
        graph = erdos_renyi(10, p=0.4, rng=random.Random(15))
        assign_random_weights(graph, algebra, rng=random.Random(16))
        graph.add_node("island")
        graph.add_edge("island", "far", weight=(3, 1))
        store = PreferredWeightOracle(graph, algebra)
        for source in graph.nodes():
            store.paths(source)
        u, v = next(iter(graph.edges(0)))
        graph[u][v]["weight"] = (1, 9)
        result = store.invalidate_edge(u, v, (1, 9))
        # Only the sources that cannot reach the edge keep their routes.
        assert result.kept == 2
        assert set(store._paths) == set(store._tables) == {"island", "far"}
        rebuilt = PreferredWeightOracle(graph, algebra)
        for source in graph.nodes():
            assert store.paths(source) == rebuilt.paths(source)


class TestOneSolvePerSource:
    def test_build_and_evaluate_solve_each_source_once(self, monkeypatch):
        # The pair table installs the cached store's routes, and the
        # evaluation that follows checks against the same store.
        algebra = shortest_widest_path()
        rng = random.Random(3)
        graph = erdos_renyi(32, rng=rng)
        assign_random_weights(graph, algebra, rng=rng)
        calls = []
        original = shortest_widest.shortest_widest_routes

        def counting(graph, source, *args, **kwargs):
            calls.append(source)
            return original(graph, source, *args, **kwargs)

        monkeypatch.setattr(shortest_widest, "shortest_widest_routes",
                            counting)
        oracle_cache.clear()
        try:
            result = run_experiment(graph, algebra,
                                    options=EvaluationOptions(rng=1))
        finally:
            oracle_cache.clear()
        assert result.scheme.name == "pair-table"
        assert result.report.all_optimal
        assert sorted(calls) == sorted(graph.nodes())


class TestMemoryScalesQuadratically:
    def test_total_entries_quadratic(self):
        """The paper's O(n^2 log d) per-router trivial bound: total installed
        entries grow with the number of pairs, i.e. ~n^2."""
        algebra = shortest_widest_path(max_weight=5, max_capacity=5)
        totals = []
        for n in (8, 16):
            rng = random.Random(6)
            graph = erdos_renyi(n, p=0.5, rng=rng)
            assign_random_weights(graph, algebra, rng=rng)
            scheme = PairTableScheme(graph, algebra)
            totals.append(memory_report(scheme).total_bits)
        assert totals[1] > 3.0 * totals[0]

    def test_header_carries_both_endpoints(self):
        algebra = ShortestPath()
        graph = ring(4)
        assign_random_weights(graph, algebra, rng=random.Random(7))
        scheme = PairTableScheme(graph, algebra)
        assert scheme.initial_header(1, 3) == (1, 3)

    def test_missing_entry_raises(self):
        algebra = ShortestPath()
        graph = ring(4)
        assign_random_weights(graph, algebra, rng=random.Random(8))
        scheme = PairTableScheme(graph, algebra)
        with pytest.raises(RoutingError):
            scheme.local_decision(0, (99, 98))
