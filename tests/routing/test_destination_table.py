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
from repro.routing.encoding import decode_port_table, encode_destination_table_node
from repro.routing.memory import label_bits_for_nodes, memory_report, port_bits


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

    def test_entries_are_the_reachable_targets(self):
        """Two components and an isolated node: a node's table, as charged
        and as encoded, holds one entry per target it can reach.  The
        charge counts the node's own tree, which assumes reachability is
        symmetric (an undirected graph, a commutative ⊕)."""
        graph = nx.Graph()
        nx.add_path(graph, [0, 1, 2, 3])
        graph.add_edges_from([(4, 5), (5, 6), (6, 4)])
        graph.add_node(7)
        algebra = ShortestPath(max_weight=9)
        assign_random_weights(graph, algebra, rng=random.Random(8))
        scheme = DestinationTableScheme(graph, algebra)
        report = memory_report(scheme)
        n = graph.number_of_nodes()
        for node in graph.nodes():
            reachable = nx.node_connected_component(graph, node) - {node}
            degree = graph.degree(node)
            charged = len(reachable) * (label_bits_for_nodes(n)
                                        + port_bits(degree))
            assert scheme.table_bits(node) == charged, node
            assert report.per_node_bits[node] == charged, node
            writer = encode_destination_table_node(scheme, node)
            assert writer.bit_length == charged, node
            decoded = decode_port_table(writer.bits(), len(reachable), n,
                                        degree)
            assert set(decoded) == reachable, node
        with pytest.raises(RoutingError, match="no route from 0 to 4"):
            scheme.local_decision(0, 4)    # the other component
        with pytest.raises(RoutingError, match="no route from 0 to 8"):
            scheme.local_decision(0, 8)    # outside the graph

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
