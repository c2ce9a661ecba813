"""Tests for the end-to-end evaluation harness."""

import random

import pytest

from repro.algebra.catalog import ShortestPath, WidestPath
from repro.algebra.lexicographic import shortest_widest_path
from repro.algebra.bgp import valley_free_algebra
from repro.core.compiler import build_scheme
from repro.core.simulate import (
    EvaluationOptions,
    evaluate_scheme,
    preferred_weight_oracle,
    sample_pairs,
)
from repro.graphs.bgp_topologies import coned_as_topology
from repro.graphs.generators import erdos_renyi, ring
from repro.graphs.weighting import assign_random_weights


class TestSamplePairs:
    def test_all_pairs(self):
        graph = ring(4)
        pairs = sample_pairs(graph)
        assert len(pairs) == 12
        assert (0, 0) not in pairs

    def test_sampling(self):
        graph = ring(10)
        pairs = sample_pairs(graph, count=5, rng=random.Random(0))
        assert len(pairs) == 5

    def test_sampling_more_than_available(self):
        graph = ring(4)
        assert len(sample_pairs(graph, count=100)) == 12


class TestOracles:
    def test_regular_oracle_uses_dijkstra(self):
        algebra = ShortestPath()
        graph = erdos_renyi(12, rng=random.Random(1))
        assign_random_weights(graph, algebra, rng=random.Random(2))
        oracle = preferred_weight_oracle(graph, algebra)
        from repro.paths.enumerate import preferred_by_enumeration

        truth = preferred_by_enumeration(graph, algebra, 0, 5)
        assert oracle(0, 5) == truth.weight

    def test_sw_oracle(self):
        algebra = shortest_widest_path(max_weight=5, max_capacity=5)
        graph = ring(6)
        assign_random_weights(graph, algebra, rng=random.Random(3))
        oracle = preferred_weight_oracle(graph, algebra)
        from repro.paths.enumerate import preferred_by_enumeration

        truth = preferred_by_enumeration(graph, algebra, 1, 4)
        assert algebra.eq(oracle(1, 4), truth.weight)

    def test_bgp_oracle(self):
        algebra = valley_free_algebra()
        graph = coned_as_topology(2, 2, 2, rng=random.Random(4))
        oracle = preferred_weight_oracle(graph, algebra)
        nodes = sorted(graph.nodes())
        assert oracle(nodes[0], nodes[-1]) in ("c", "r", "p")


class TestEvaluateScheme:
    def test_perfect_scheme_report(self):
        algebra = WidestPath()
        graph = erdos_renyi(12, rng=random.Random(5))
        assign_random_weights(graph, algebra, rng=random.Random(6))
        scheme = build_scheme(graph, algebra)
        report = evaluate_scheme(graph, algebra, scheme)
        assert report.all_delivered
        assert report.all_optimal
        assert report.stretch.max_stretch == 1
        assert report.failures == ()
        assert "tree-routing" in report.summary()

    def test_compact_scheme_report(self):
        algebra = ShortestPath()
        graph = erdos_renyi(16, rng=random.Random(7))
        assign_random_weights(graph, algebra, rng=random.Random(8))
        scheme = build_scheme(graph, algebra, mode="compact", rng=random.Random(9))
        report = evaluate_scheme(graph, algebra, scheme)
        assert report.all_delivered
        assert report.stretch.stretch3_holds

    def test_pair_subset(self):
        algebra = ShortestPath()
        graph = ring(8)
        assign_random_weights(graph, algebra, rng=random.Random(10))
        scheme = build_scheme(graph, algebra)
        report = evaluate_scheme(
            graph, algebra, scheme,
            options=EvaluationOptions(pairs=[(0, 4), (2, 6)]))
        assert report.pairs == 2

    def test_failures_surface(self, sabotaged):
        """A deliberately broken scheme shows up as failures, not silence."""
        algebra = ShortestPath()
        graph = ring(6)
        assign_random_weights(graph, algebra, rng=random.Random(11))
        scheme = build_scheme(graph, algebra)

        # sabotage: truncate one node's table
        victim = 3
        scheme = sabotaged(scheme, "_next_hop", {victim: {}})
        report = evaluate_scheme(graph, algebra, scheme)
        assert not report.all_delivered
        assert report.failures
