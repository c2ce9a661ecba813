"""Tests for heavy-path tree routing (Theorem 1's O(log n) scheme)."""

import math
import random

import networkx as nx
import pytest

from repro.algebra.catalog import ShortestPath, UsablePath, WidestPath
from repro.core.simulate import EvaluationOptions, evaluate_scheme
from repro.exceptions import NotApplicableError
from repro.graphs.generators import erdos_renyi, path_graph, random_tree, star
from repro.graphs.weighting import assign_random_weights, assign_uniform_weight
from repro.paths.enumerate import preferred_by_enumeration
from repro.paths.spanning_tree import tree_path
from repro.routing.memory import memory_report
from repro.routing.query_engine import QUERY_ENGINE_ENV
from repro.routing.tree_routing import TreeRoutingScheme


class TestDeliveryOnTrees:
    @pytest.mark.parametrize("seed", range(6))
    def test_delivers_on_random_trees(self, seed):
        tree = random_tree(30, rng=random.Random(seed))
        assign_uniform_weight(tree, 1)
        scheme = TreeRoutingScheme(tree, UsablePath(), tree=tree,
                                   check_properties=False)
        for s in tree.nodes():
            for t in tree.nodes():
                result = scheme.route(s, t)
                assert result.delivered, (seed, s, t, result.reason)

    def test_routes_follow_the_unique_tree_path(self):
        tree = random_tree(25, rng=random.Random(7))
        assign_uniform_weight(tree, 1)
        scheme = TreeRoutingScheme(tree, UsablePath(), tree=tree,
                                   check_properties=False)
        for s, t in [(0, 24), (5, 13), (20, 1)]:
            result = scheme.route(s, t)
            assert list(result.path) == tree_path(tree, s, t)

    @pytest.mark.parametrize("builder", [path_graph, star], ids=["path", "star"])
    def test_degenerate_trees(self, builder):
        tree = builder(16)
        assign_uniform_weight(tree, 1)
        scheme = TreeRoutingScheme(tree, UsablePath(), tree=tree,
                                   check_properties=False)
        for s in tree.nodes():
            for t in tree.nodes():
                assert scheme.route(s, t).delivered


class TestViaLemma1:
    def test_widest_path_end_to_end_optimal(self):
        """Theorem 1 realized: tree routing yields preferred widest paths."""
        rng = random.Random(8)
        algebra = WidestPath(max_capacity=9)
        graph = erdos_renyi(10, p=0.4, rng=rng)
        assign_random_weights(graph, algebra, rng=rng)
        scheme = TreeRoutingScheme(graph, algebra)  # builds the Lemma 1 tree
        for s in graph.nodes():
            for t in graph.nodes():
                if s == t:
                    continue
                result = scheme.route(s, t)
                assert result.delivered
                realized = algebra.path_weight(graph, list(result.path))
                truth = preferred_by_enumeration(graph, algebra, s, t).weight
                assert algebra.eq(realized, truth), (s, t)

    def test_rejects_non_selective_algebra(self):
        graph = erdos_renyi(8, rng=random.Random(9))
        assign_random_weights(graph, ShortestPath(), rng=random.Random(9))
        with pytest.raises(NotApplicableError):
            TreeRoutingScheme(graph, ShortestPath())


class TestMemoryAndLabels:
    def test_local_memory_is_logarithmic(self):
        """The whole point of Theorem 1: per-node bits ~ O(log n)."""
        maxima = []
        for n in (32, 128, 512):
            tree = random_tree(n, rng=random.Random(10))
            assign_uniform_weight(tree, 1)
            scheme = TreeRoutingScheme(tree, UsablePath(), tree=tree,
                                       check_properties=False)
            maxima.append(memory_report(scheme).max_bits)
        # quadrupling n adds a constant number of bits, far from doubling
        assert maxima[1] <= maxima[0] + 16
        assert maxima[2] <= maxima[1] + 16

    def test_label_length_bounded_by_light_depth(self):
        """Heavy-path decomposition: at most log2(n) light edges per label."""
        for seed in range(4):
            n = 64
            tree = random_tree(n, rng=random.Random(seed))
            assign_uniform_weight(tree, 1)
            scheme = TreeRoutingScheme(tree, UsablePath(), tree=tree,
                                       check_properties=False)
            for node in tree.nodes():
                _, light_ports = scheme.label(node)
                assert len(light_ports) <= math.log2(n)

    def test_subtree_routing(self, monkeypatch):
        """Trees spanning a subgraph route between their own nodes; a pair
        with an endpoint off the tree is a counted failure, under either
        query engine."""
        graph = path_graph(10)
        assign_uniform_weight(graph, 1)
        sub = graph.subgraph([0, 1, 2, 3, 4]).copy()
        scheme = TreeRoutingScheme(graph, UsablePath(), tree=sub,
                                   check_properties=False)
        assert scheme.route(0, 4).delivered
        options = EvaluationOptions(pairs=[(0, 4), (0, 7), (7, 2)])
        off_tree = "7 is not on the routing tree"
        for engine in ("batch", "reference"):
            monkeypatch.setenv(QUERY_ENGINE_ENV, engine)
            report = evaluate_scheme(graph, UsablePath(), scheme, options)
            assert (report.pairs, report.delivered) == (3, 1), engine
            assert report.failures == ((0, 7, off_tree),
                                       (7, 2, off_tree)), engine

    def test_partial_tree_charges_nothing_off_the_tree(self):
        """Nodes off a tree that spans a subgraph hold no tree state: their
        table bits are 0, as their label bits are."""
        graph = nx.path_graph(10)
        assign_uniform_weight(graph, 1)
        scheme = TreeRoutingScheme(graph, UsablePath(),
                                   tree=graph.subgraph(range(5)).copy(),
                                   check_properties=False)
        bits = memory_report(scheme).per_node_bits
        assert [bits[node] for node in range(5, 10)] == [0] * 5
        assert [scheme.label_bits(node) for node in range(5, 10)] == [0] * 5
        assert all(bits[node] > 0 for node in range(5))

    def test_rejects_non_tree(self):
        graph = nx.cycle_graph(4)
        assign_uniform_weight(graph, 1)
        with pytest.raises(NotApplicableError):
            TreeRoutingScheme(graph, UsablePath(), tree=graph,
                              check_properties=False)

    def test_rejects_foreign_tree_nodes(self):
        graph = path_graph(3)
        assign_uniform_weight(graph, 1)
        foreign = nx.Graph()
        foreign.add_edge(7, 8)
        with pytest.raises(NotApplicableError):
            TreeRoutingScheme(graph, UsablePath(), tree=foreign,
                              check_properties=False)
