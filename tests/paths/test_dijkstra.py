"""Tests for generalized Dijkstra (Section 2.4)."""

import random

import networkx as nx
import pytest

from repro.algebra.base import is_phi
from repro.algebra.catalog import MostReliablePath, ShortestPath, WidestPath
from repro.algebra.lexicographic import shortest_widest_path, widest_shortest_path
from repro.algebra.bgp import provider_customer_algebra
from repro.exceptions import AlgebraError
from repro.graphs.generators import erdos_renyi, grid, ring
from repro.graphs.weighting import assign_random_weights
from repro.paths.dijkstra import preferred_path_tree
from repro.paths.enumerate import preferred_by_enumeration
from repro.paths.store import PreferredWeightOracle


REGULAR_ALGEBRAS = [
    ShortestPath(max_weight=9),
    WidestPath(max_capacity=9),
    MostReliablePath(denominator=8),
    widest_shortest_path(max_weight=9, max_capacity=9),
]


class TestAgainstGroundTruth:
    @pytest.mark.parametrize("algebra", REGULAR_ALGEBRAS, ids=lambda a: a.name)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_enumeration_on_random_graphs(self, algebra, seed):
        rng = random.Random(seed)
        graph = erdos_renyi(10, p=0.35, rng=rng)
        assign_random_weights(graph, algebra, rng=rng)
        tree = preferred_path_tree(graph, algebra, 0)
        for target in graph.nodes():
            if target == 0:
                continue
            truth = preferred_by_enumeration(graph, algebra, 0, target)
            assert truth is not None
            got = tree.weight[target]
            assert algebra.eq(got, truth.weight), (target, got, truth.weight)

    @pytest.mark.parametrize("algebra", REGULAR_ALGEBRAS, ids=lambda a: a.name)
    def test_tree_paths_realize_reported_weights(self, algebra):
        rng = random.Random(3)
        graph = grid(4, 4)
        assign_random_weights(graph, algebra, rng=rng)
        tree = preferred_path_tree(graph, algebra, 0)
        for target in tree.reachable():
            path = tree.path_to(target)
            assert path[0] == 0 and path[-1] == target
            assert algebra.eq(algebra.path_weight(graph, path), tree.weight[target])


class TestPathTree:
    def test_root_path(self):
        graph = ring(5)
        assign_random_weights(graph, ShortestPath(), rng=random.Random(0))
        tree = preferred_path_tree(graph, ShortestPath(), 2)
        assert tree.path_to(2) == [2]

    def test_unreachable_is_none(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=1)
        graph.add_node(2)
        tree = preferred_path_tree(graph, ShortestPath(), 0)
        assert tree.path_to(2) is None
        assert 2 not in tree.reachable()

    def test_all_pairs(self):
        graph = ring(6)
        assign_random_weights(graph, ShortestPath(), rng=random.Random(1))
        trees = PreferredWeightOracle(graph, ShortestPath()).trees(graph.nodes())
        assert len(trees) == 6
        # symmetry of weights on undirected graphs with commutative ⊕
        assert trees[0].weight[3] == trees[3].weight[0]


class TestGuardrails:
    def test_rejects_declared_non_isotone(self):
        graph = ring(4)
        assign_random_weights(graph, shortest_widest_path(), rng=random.Random(0))
        with pytest.raises(AlgebraError):
            preferred_path_tree(graph, shortest_widest_path(), 0)

    def test_unsafe_overrides_guardrail(self):
        graph = ring(4)
        assign_random_weights(graph, shortest_widest_path(), rng=random.Random(0))
        preferred_path_tree(graph, shortest_widest_path(), 0, unsafe=True)

    def test_rejects_right_associative(self):
        graph = nx.DiGraph()
        graph.add_edge(0, 1, weight="c")
        with pytest.raises(AlgebraError):
            preferred_path_tree(graph, provider_customer_algebra(), 0)

    def test_rejects_missing_root(self):
        graph = ring(4)
        assign_random_weights(graph, ShortestPath(), rng=random.Random(0))
        with pytest.raises(AlgebraError):
            preferred_path_tree(graph, ShortestPath(), 99)
