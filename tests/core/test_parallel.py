"""Sharded parallel evaluation: shard math, merge exactness, fallbacks."""

import random

import pytest

from repro.algebra.bgp import valley_free_algebra
from repro.algebra.catalog import ShortestPath
from repro.core.compiler import build_scheme
from repro.core.parallel import evaluate_sharded, shard_pairs_by_source
from repro.core.simulate import (
    EvaluationOptions,
    evaluate_scheme,
    route_shard,
    sample_pairs,
)
from repro.graphs.bgp_topologies import coned_as_topology
from repro.graphs.generators import barabasi_albert, erdos_renyi
from repro.graphs.weighting import assign_random_weights
from repro.paths.store import PreferredWeightOracle


def _golden_instances():
    """Three (graph, algebra, scheme) triples spanning the scheme catalog."""
    instances = []

    algebra = ShortestPath()
    graph = erdos_renyi(24, rng=random.Random(1))
    assign_random_weights(graph, algebra, rng=random.Random(2))
    instances.append(("destination-table", graph, algebra,
                      build_scheme(graph, algebra)))

    algebra = ShortestPath()
    graph = barabasi_albert(28, m=2, rng=random.Random(3))
    assign_random_weights(graph, algebra, rng=random.Random(4))
    instances.append(("cowen", graph, algebra,
                      build_scheme(graph, algebra, mode="compact",
                                   rng=random.Random(5))))

    algebra = valley_free_algebra()
    graph = coned_as_topology(2, 3, 5, rng=random.Random(6))
    instances.append(("bgp", graph, algebra, build_scheme(graph, algebra)))

    return instances


class TestShardPairsBySource:
    def test_groups_by_source_and_maps_indices(self):
        pairs = [(0, 1), (1, 2), (0, 3), (2, 4), (1, 5), (0, 6)]
        shards, index_lists = shard_pairs_by_source(pairs, workers=1,
                                                    shard_size=3)
        # Source 0's pairs land together (first group), then 1's, then 2's.
        assert shards[0] == [(0, 1), (0, 3), (0, 6)]
        assert index_lists[0] == [0, 2, 5]
        for shard, indices in zip(shards, index_lists):
            assert [pairs[i] for i in indices] == shard
            assert indices == sorted(indices)  # increasing original order

    def test_every_pair_lands_exactly_once(self):
        rng = random.Random(11)
        pairs = [(rng.randrange(6), rng.randrange(6)) for _ in range(40)]
        shards, index_lists = shard_pairs_by_source(pairs, workers=3)
        flat = sorted(i for indices in index_lists for i in indices)
        assert flat == list(range(len(pairs)))
        assert sum(len(s) for s in shards) == len(pairs)

    def test_few_sources_per_shard(self):
        # 4 sources x 5 targets, shard_size 5: each shard spans 1 source.
        pairs = [(s, t) for s in range(4) for t in range(10, 15)]
        shards, _ = shard_pairs_by_source(pairs, workers=2, shard_size=5)
        assert len(shards) == 4
        for shard in shards:
            assert len({s for s, _ in shard}) == 1

    def test_empty(self):
        assert shard_pairs_by_source([], workers=4) == ([], [])


class TestForkOracleSlicing:
    def test_workers_build_only_their_shards_sources(self):
        """Fork path: the merged worker telemetry counts one tree build
        per distinct shard source, not ``n`` per worker."""
        from repro.obs.metrics import disable, enable, registry, reset
        from repro.obs.tracing import clear_spans

        algebra = ShortestPath()
        graph = erdos_renyi(12, rng=random.Random(21))
        assign_random_weights(graph, algebra, rng=random.Random(22))
        scheme = build_scheme(graph, algebra)
        pairs = [(s, t) for s in (0, 1, 2) for t in (4, 5, 6, 7)]
        oracle = PreferredWeightOracle(graph, algebra)
        enable()
        try:
            merged = evaluate_sharded(graph, algebra, scheme, oracle, pairs,
                                      workers=2, shard_size=4)
            built = registry().counter("oracle.trees_built").value
        finally:
            disable()
            reset()
            clear_spans()
        assert merged.routed == len(pairs)
        assert built == 3
        # Copy-on-write: worker builds never mutate the parent's oracle.
        assert oracle.trees_built == 0


class TestShardMergeEquivalence:
    """workers=2,4 reports must be bit-identical to serial on every golden."""

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_identical_reports(self, index, workers):
        name, graph, algebra, scheme = _golden_instances()[index]
        serial = evaluate_scheme(graph, algebra, scheme)
        parallel = evaluate_scheme(
            graph, algebra, scheme, options=EvaluationOptions(workers=workers))
        assert parallel == serial, name
        assert parallel.stretch == serial.stretch
        assert parallel.memory == serial.memory
        assert parallel.failures == serial.failures

    def test_failures_merge_in_shard_order(self, sabotaged):
        algebra = ShortestPath()
        graph = erdos_renyi(16, rng=random.Random(7))
        assign_random_weights(graph, algebra, rng=random.Random(8))
        # sabotage one node's table
        scheme = sabotaged(build_scheme(graph, algebra), "_parent_rows", {3: {}})
        serial = evaluate_scheme(graph, algebra, scheme)
        parallel = evaluate_scheme(
            graph, algebra, scheme,
            options=EvaluationOptions(workers=2, shard_size=20))
        assert serial.failures  # the sabotage is visible
        assert parallel.failures == serial.failures

    def test_explicit_shard_size_respected(self):
        _, graph, algebra, scheme = _golden_instances()[0]
        serial = evaluate_scheme(graph, algebra, scheme)
        parallel = evaluate_scheme(
            graph, algebra, scheme,
            options=EvaluationOptions(workers=2, shard_size=7))
        assert parallel == serial


class TestTracesDroppedMerge:
    def test_parallel_traces_dropped_matches_serial(self):
        """Worker-side capture drops plus parent-side merge drops add up
        to exactly the serial drop count."""
        from repro.obs.metrics import disable, enable, reset
        from repro.obs.tracing import clear_spans

        _, graph, algebra, scheme = _golden_instances()[0]
        options = EvaluationOptions(trace_limit=3)
        enable()
        try:
            serial = evaluate_scheme(graph, algebra, scheme, options=options)
            reset()
            parallel = evaluate_scheme(
                graph, algebra, scheme,
                options=EvaluationOptions(trace_limit=3, workers=2))
        finally:
            disable()
            reset()
            clear_spans()
        assert serial.traces_dropped == serial.pairs - 3
        assert parallel.traces_dropped == serial.traces_dropped
        assert len(parallel.traces) == len(serial.traces) == 3

    @pytest.mark.parametrize("telemetry", [False, True])
    @pytest.mark.parametrize("caller_limit", [None, 5, 40])
    def test_parallel_traces_match_serial(self, telemetry, caller_limit):
        """workers=2 keeps the serial run's traces (pairs and order) and
        drop count: in the report under telemetry, and in a caller's
        capture whose limit sits below or above ``trace_limit`` (16),
        telemetry on or off."""
        from repro.obs.metrics import disable, enable, reset
        from repro.obs.tracing import capture_traces, clear_spans

        _, graph, algebra, scheme = _golden_instances()[0]

        def traced(workers):
            options = EvaluationOptions(workers=workers)
            if caller_limit is None:
                report = evaluate_scheme(graph, algebra, scheme,
                                         options=options)
                traces, dropped = report.traces, report.traces_dropped
            else:
                with capture_traces(limit=caller_limit) as capture:
                    report = evaluate_scheme(graph, algebra, scheme,
                                             options=options)
                assert report.traces == () and report.traces_dropped == 0
                traces, dropped = capture.traces, capture.dropped
            return [(trace.source, trace.target) for trace in traces], dropped

        if telemetry:
            enable()
        try:
            serial = traced(None)
            parallel = traced(2)
        finally:
            disable()
            reset()
            clear_spans()
        kept = (caller_limit if caller_limit is not None
                else 16 if telemetry else 0)
        assert len(serial[0]) == kept
        assert parallel == serial


class TestEvaluateShardedDirect:
    def test_single_shard_short_circuits_serially(self):
        _, graph, algebra, scheme = _golden_instances()[0]
        oracle = PreferredWeightOracle(graph, algebra)
        pairs = sample_pairs(graph)[:5]
        merged = evaluate_sharded(graph, algebra, scheme, oracle, pairs,
                                  workers=4, shard_size=100)
        direct = route_shard(algebra, scheme, oracle, pairs)
        assert merged.routed == direct.routed
        assert merged.stretch == direct.stretch
