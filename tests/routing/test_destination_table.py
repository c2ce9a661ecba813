"""Tests for destination-based routing tables (Proposition 2 / Observation 1)."""

import math
import random

import networkx as nx
import pytest

from repro.algebra.catalog import MostReliablePath, ShortestPath, WidestPath
from repro.algebra.lexicographic import shortest_widest_path, widest_shortest_path
from repro.exceptions import NotApplicableError, RoutingError
from repro.graphs.generators import erdos_renyi, grid, max_degree
from repro.graphs.weighting import assign_random_weights
from repro.paths.enumerate import preferred_by_enumeration
from repro.routing.destination_table import DestinationTableScheme
from repro.routing.memory import memory_report


REGULAR = [
    ShortestPath(max_weight=9),
    WidestPath(max_capacity=9),
    MostReliablePath(denominator=8),
    widest_shortest_path(max_weight=9, max_capacity=9),
]


class TestCorrectness:
    @pytest.mark.parametrize("algebra", REGULAR, ids=lambda a: a.name)
    def test_delivers_on_preferred_paths(self, algebra):
        rng = random.Random(1)
        graph = erdos_renyi(10, p=0.4, rng=rng)
        assign_random_weights(graph, algebra, rng=rng)
        scheme = DestinationTableScheme(graph, algebra)
        for s in graph.nodes():
            for t in graph.nodes():
                if s == t:
                    continue
                result = scheme.route(s, t)
                assert result.delivered, (s, t, result.reason)
                realized = scheme.realized_weight(result)
                truth = preferred_by_enumeration(graph, algebra, s, t).weight
                assert algebra.eq(realized, truth), (s, t)

    def test_header_is_plain_destination_id(self):
        graph = grid(3, 3)
        assign_random_weights(graph, ShortestPath(), rng=random.Random(2))
        scheme = DestinationTableScheme(graph, ShortestPath())
        assert scheme.initial_header(0, 8) == 8

    @pytest.mark.parametrize("algebra", REGULAR, ids=lambda a: a.name)
    def test_unsafe_per_destination_build_matches_the_store(self, algebra):
        # unsafe=True is the one construction that bypasses the tree store.
        rng = random.Random(3)
        graph = erdos_renyi(12, p=0.4, rng=rng)
        assign_random_weights(graph, algebra, rng=rng)
        forced = DestinationTableScheme(graph, algebra, unsafe=True)
        stored = DestinationTableScheme(graph, algebra)
        assert forced._next_hop == stored._next_hop
        assert forced._weight_rows == stored._weight_rows

    def test_stuck_packet_raises(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=1)
        graph.add_node(2)
        scheme = DestinationTableScheme(graph, ShortestPath())
        with pytest.raises(RoutingError):
            scheme.local_decision(0, 2)


class TestMemory:
    def test_table_bits_formula(self):
        """Observation 1: n-1 entries of (log n + log d) bits each."""
        graph = grid(4, 4)
        assign_random_weights(graph, ShortestPath(), rng=random.Random(3))
        scheme = DestinationTableScheme(graph, ShortestPath())
        n = 16
        for node in graph.nodes():
            expected = (n - 1) * (
                math.ceil(math.log2(n)) + math.ceil(math.log2(graph.degree(node)))
            )
            assert scheme.table_bits(node) == expected

    def test_memory_grows_linearly(self):
        bits = []
        for n in (16, 32, 64):
            graph = erdos_renyi(n, rng=random.Random(4))
            assign_random_weights(graph, ShortestPath(), rng=random.Random(5))
            scheme = DestinationTableScheme(graph, ShortestPath())
            bits.append(memory_report(scheme).max_bits)
        assert bits[1] > 1.7 * bits[0]
        assert bits[2] > 1.7 * bits[1]


class TestGuardrails:
    def test_rejects_non_isotone_algebra(self):
        graph = grid(2, 2)
        assign_random_weights(graph, shortest_widest_path(), rng=random.Random(6))
        with pytest.raises(NotApplicableError):
            DestinationTableScheme(graph, shortest_widest_path())

    def test_rejects_directed_graphs(self):
        g = nx.DiGraph()
        g.add_edge(0, 1, weight=1)
        with pytest.raises(NotApplicableError):
            DestinationTableScheme(g, ShortestPath())
