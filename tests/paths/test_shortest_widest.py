"""Tests for the exact shortest-widest path solver."""

import random

import networkx as nx
import pytest

from repro.algebra.lexicographic import shortest_widest_path
from repro.graphs.generators import erdos_renyi, ring
from repro.graphs.weighting import assign_random_weights
from repro.paths.enumerate import preferred_by_enumeration
from repro.paths.kernel import compile_graph
from repro.paths.shortest_widest import (
    _compiled_restricted,
    _compiled_widest,
    _reference_restricted,
    _reference_widest,
    all_pairs_shortest_widest,
    shortest_widest_routes,
    widest_bottlenecks,
)


@pytest.fixture
def algebra():
    return shortest_widest_path(max_weight=9, max_capacity=9)


class TestWidestBottlenecks:
    def test_simple_bottleneck(self):
        g = nx.Graph()
        g.add_edge(0, 1, weight=(5, 1))
        g.add_edge(1, 2, weight=(3, 1))
        g.add_edge(0, 2, weight=(2, 1))
        best = widest_bottlenecks(g, 0)
        assert best[1] == 5
        assert best[2] == 3  # via 1, not the direct capacity-2 edge

    def test_unreachable_omitted(self):
        g = nx.Graph()
        g.add_edge(0, 1, weight=(5, 1))
        g.add_node(2)
        assert 2 not in widest_bottlenecks(g, 0)


class TestAgainstEnumeration:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_ground_truth(self, algebra, seed):
        rng = random.Random(seed)
        graph = erdos_renyi(9, p=0.4, rng=rng)
        assign_random_weights(graph, algebra, rng=rng)
        for source in graph.nodes():
            routes = shortest_widest_routes(graph, source)
            for target in graph.nodes():
                if target == source:
                    continue
                truth = preferred_by_enumeration(graph, algebra, source, target)
                assert truth is not None
                assert algebra.eq(routes[target].weight, truth.weight), (
                    source, target, routes[target].weight, truth.weight,
                )

    def test_paths_realize_weights(self, algebra):
        rng = random.Random(4)
        graph = ring(8)
        assign_random_weights(graph, algebra, rng=rng)
        for route in shortest_widest_routes(graph, 0).values():
            realized = algebra.path_weight(graph, list(route.path))
            assert algebra.eq(realized, route.weight)


class TestNonIsotonicityShowsUp:
    def test_sw_preferred_paths_do_not_form_a_tree(self):
        """The hallmark of non-isotone algebras (Proposition 2): two
        preferred paths from one source can disagree on a shared prefix's
        continuation — realized here as a destination whose preferred path
        does not contain the preferred path of an intermediate node."""
        g = nx.Graph()
        # wide-but-long vs narrow-but-short alternatives
        g.add_edge(0, 1, weight=(10, 5))
        g.add_edge(0, 2, weight=(2, 1))
        g.add_edge(1, 3, weight=(10, 5))
        g.add_edge(2, 3, weight=(2, 1))
        g.add_edge(3, 4, weight=(2, 1))
        routes = shortest_widest_routes(g, 0)
        # to 3 the wide path wins; to 4 the bottleneck is 2 anyway, so the
        # short narrow path wins -> the paths diverge although 3 precedes 4.
        assert routes[3].path == (0, 1, 3)
        assert routes[4].path == (0, 2, 3, 4)


class TestAllPairs:
    def test_shape(self, algebra):
        graph = ring(6)
        assign_random_weights(graph, algebra, rng=random.Random(5))
        routes = all_pairs_shortest_widest(graph)
        assert len(routes) == 6
        assert all(len(r) == 5 for r in routes.values())


class TestEngineEquivalence:
    """The compiled sweeps against the seed sweeps, called by name."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_compiled_matches_reference(self, algebra, seed):
        rng = random.Random(seed)
        graph = erdos_renyi(10, p=0.4, rng=rng)
        assign_random_weights(graph, algebra, rng=rng)
        compiled = compile_graph(graph)
        for source in graph.nodes():
            reference = _reference_widest(graph, source)
            via_compiled = _compiled_widest(compiled, source)
            assert reference == via_compiled
            assert list(reference) == list(via_compiled)  # insertion order
            # One restricted sweep per distinct bottleneck, as the solver runs.
            for value in set(reference.values()):
                expected = _reference_restricted(graph, source, value)
                got = _compiled_restricted(compiled, source, value)
                assert got == expected
                assert [list(part) for part in got] == [
                    list(part) for part in expected]

    def test_bottlenecks_identical_across_engines(self, algebra):
        rng = random.Random(6)
        graph = erdos_renyi(12, p=0.35, rng=rng)
        assign_random_weights(graph, algebra, rng=rng)
        reference = _reference_widest(graph, 0)
        compiled = widest_bottlenecks(graph, 0)
        assert reference == compiled
        assert list(reference) == list(compiled)


class TestHeterogeneousNodes:
    def test_mixed_node_types_do_not_raise(self):
        """Weight ties used to fall through to comparing raw node objects
        in the heap; int-vs-str nodes then raised TypeError."""
        g = nx.Graph()
        # equal weights everywhere force heap ties between 1 and "b"
        g.add_edge(0, 1, weight=(5, 1))
        g.add_edge(0, "b", weight=(5, 1))
        g.add_edge(1, "target", weight=(5, 1))
        g.add_edge("b", "target", weight=(5, 1))
        routes = shortest_widest_routes(g, 0)
        assert routes["target"].weight == (5, 2)
        assert routes["target"].path in ((0, 1, "target"), (0, "b", "target"))
        # The seed sweeps break the same ties on the same node ranks.
        assert _reference_widest(g, 0)["target"] == 5
        dist, parent = _reference_restricted(g, 0, 5)
        assert dist["target"] == 2
        assert parent["target"] == routes["target"].path[1]

    def test_mixed_node_types_are_deterministic(self):
        g = nx.Graph()
        g.add_edge(0, 1, weight=(5, 1))
        g.add_edge(0, "b", weight=(5, 1))
        g.add_edge(1, "target", weight=(5, 1))
        g.add_edge("b", "target", weight=(5, 1))
        first = shortest_widest_routes(g, 0)
        assert first == shortest_widest_routes(g, 0)
