"""Parallel evaluation under a forced ``spawn`` start method.

The engine forks wherever the platform offers it, so Linux would
otherwise never exercise the pickled worker state: the parent's scheme
and the caller's oracle, unpickled by the worker initializer (workers
answer from that oracle and build only the trees it lacks), the trace
room that rides with them, and the fall-back to serial evaluation when
that state cannot be pickled.  Each test forces that path by patching
``parallel._start_method``.
"""

import os
import random
import subprocess
import sys

import pytest

import repro
from repro.algebra.base import PHI
from repro.algebra.bgp import valley_free_algebra
from repro.algebra.catalog import ShortestPath
from repro.core import parallel as parallel_engine
from repro.core.compiler import build_scheme
from repro.core.parallel import evaluate_sharded, last_run_info
from repro.core.simulate import (
    EvaluationOptions,
    evaluate_scheme,
    oracle_cache,
)
from repro.graphs.bgp_topologies import coned_as_topology
from repro.graphs.generators import erdos_renyi
from repro.graphs.weighting import assign_random_weights
from repro.obs import events as obs_events
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import disable as telemetry_disable
from repro.obs.metrics import enable as telemetry_enable
from repro.obs.metrics import registry as telemetry_registry
from repro.obs.metrics import reset as telemetry_reset
from repro.paths.store import PreferredWeightOracle
from repro.routing.cowen import CowenScheme


@pytest.fixture(autouse=True)
def force_spawn(monkeypatch):
    """Force the spawn start method and make repro importable in children.

    Spawned workers rebuild ``sys.path`` from the parent's, but a
    belt-and-braces ``PYTHONPATH`` keeps the suite robust when it is run
    from an installed checkout or an unusual launcher.
    """
    monkeypatch.setattr(parallel_engine, "_start_method", lambda: "spawn")
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", src_dir + (
        os.pathsep + existing if existing else ""))
    oracle_cache.clear()
    telemetry_disable()
    telemetry_reset()
    obs_tracing.clear_spans()
    obs_events.disable()
    obs_events.clear_events()
    yield
    oracle_cache.clear()
    telemetry_disable()
    telemetry_reset()
    obs_tracing.clear_spans()
    obs_events.disable()
    obs_events.clear_events()


def _sp_instance(n=16, seed=1):
    algebra = ShortestPath()
    graph = erdos_renyi(n, rng=random.Random(seed))
    assign_random_weights(graph, algebra, rng=random.Random(seed + 1))
    return graph, algebra, build_scheme(graph, algebra)


class TestSpawnMergeExactness:
    def test_identical_report_shortest_path(self):
        graph, algebra, scheme = _sp_instance()
        serial = evaluate_scheme(graph, algebra, scheme)
        parallel = evaluate_scheme(
            graph, algebra, scheme, options=EvaluationOptions(workers=2))
        assert parallel == serial
        assert parallel.failures == serial.failures
        assert last_run_info().start_method == "spawn"

    def test_identical_report_bgp(self):
        algebra = valley_free_algebra()
        graph = coned_as_topology(2, 3, 5, rng=random.Random(6))
        scheme = build_scheme(graph, algebra)
        serial = evaluate_scheme(graph, algebra, scheme)
        parallel = evaluate_scheme(
            graph, algebra, scheme, options=EvaluationOptions(workers=2))
        assert parallel == serial

    def test_failures_keep_serial_order(self, sabotaged):
        graph, algebra, scheme = _sp_instance(seed=7)
        scheme = sabotaged(scheme, "_parent_rows", {3: {}})  # one node's table
        serial = evaluate_scheme(graph, algebra, scheme)
        parallel = evaluate_scheme(
            graph, algebra, scheme,
            options=EvaluationOptions(workers=2, shard_size=20))
        assert serial.failures
        assert parallel.failures == serial.failures

    def test_caller_capture_keeps_serial_traces(self):
        """A caller's capture above ``trace_limit`` (16), telemetry off:
        the pickled trace room still brings back the serial run's traces,
        in order, and its drop count."""
        graph, algebra, scheme = _sp_instance(n=24)

        def traced(workers):
            with obs_tracing.capture_traces(limit=40) as capture:
                evaluate_scheme(graph, algebra, scheme,
                                options=EvaluationOptions(workers=workers))
            return ([(trace.source, trace.target) for trace in capture.traces],
                    capture.dropped)

        serial = traced(None)
        parallel = traced(2)
        assert len(serial[0]) == 40
        assert parallel == serial
        assert last_run_info().fallback is None


class TestSpawnOracleSlicing:
    def test_workers_build_only_their_shards_sources(self):
        """Three single-source shards: the merged telemetry shows exactly
        three tree builds across all spawned workers — never ``n``."""
        graph, algebra, scheme = _sp_instance(n=12)
        pairs = [(s, t) for s in (0, 1, 2) for t in (4, 5, 6, 7)]
        oracle = PreferredWeightOracle(graph, algebra)
        telemetry_enable()
        merged = evaluate_sharded(graph, algebra, scheme, oracle, pairs,
                                  workers=2, shard_size=4)
        assert merged.routed == len(pairs)
        built = telemetry_registry().counter("oracle.trees_built").value
        assert built == 3
        # The parent's oracle is untouched: workers build into their copies.
        assert oracle.trees_built == 0


class SkipOddSources:
    """A picklable caller oracle: no preferred route from an odd source."""

    def __init__(self, oracle):
        self.oracle = oracle

    def __call__(self, s, t):
        return PHI if s % 2 else self.oracle(s, t)


class TestSpawnWorkerState:
    """Workers get the parent's scheme and the caller's oracle as given."""

    def test_caller_oracle_reaches_workers(self):
        graph, algebra, scheme = _sp_instance(n=24)
        oracle = SkipOddSources(oracle_cache.get(graph, algebra))
        serial = evaluate_scheme(graph, algebra, scheme,
                                 options=EvaluationOptions(oracle=oracle))
        parallel = evaluate_scheme(
            graph, algebra, scheme,
            options=EvaluationOptions(oracle=oracle, workers=2))
        assert serial.pairs == 12 * 23  # even sources only, of 24
        assert parallel == serial
        assert last_run_info().fallback is None

    def test_workers_build_no_tree_the_store_holds(self):
        algebra = ShortestPath()
        graph = erdos_renyi(16, rng=random.Random(3))
        assign_random_weights(graph, algebra, rng=random.Random(4))
        scheme = build_scheme(graph, algebra, mode="compact", rng=5)
        assert isinstance(scheme, CowenScheme)
        telemetry_enable()
        evaluate_scheme(graph, algebra, scheme,
                        options=EvaluationOptions(workers=2))
        assert last_run_info().fallback is None
        counters = telemetry_registry()
        assert counters.counter("oracle.trees_requested").value > 0
        assert counters.counter("oracle.trees_built").value == 0


#: Four two-worker evaluations in one interpreter, each feeding a live
#: event consumer: a spawn worker still starting when its run returns
#: must find the run's live event queue alive.
_FOUR_EVALUATIONS = """
import random
from repro.core import parallel
parallel._start_method = lambda: "spawn"
from repro.algebra.catalog import ShortestPath
from repro.core.compiler import build_scheme
from repro.core.simulate import EvaluationOptions, evaluate_scheme
from repro.graphs.generators import erdos_renyi
from repro.graphs.weighting import assign_random_weights
from repro.obs import events

events.enable()
events.set_live_consumer(lambda event: None)
algebra = ShortestPath()
graph = erdos_renyi(24, rng=random.Random(1))
assign_random_weights(graph, algebra, rng=random.Random(2))
scheme = build_scheme(graph, algebra)
for _ in range(4):
    evaluate_scheme(graph, algebra, scheme,
                    options=EvaluationOptions(workers=2))
"""


def test_spawn_runs_print_no_worker_traceback():
    # The script forces spawn itself; the child inherits the fixture's
    # PYTHONPATH.
    completed = subprocess.run(
        [sys.executable, "-c", _FOUR_EVALUATIONS],
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    assert "Traceback" not in completed.stderr


class TestSpawnPickleFallback:
    def test_unpicklable_scheme_falls_back_to_serial(self):
        graph, algebra, scheme = _sp_instance(seed=9)
        serial = evaluate_scheme(graph, algebra, scheme)
        scheme._unpicklable = lambda: None  # lambdas cannot be pickled
        telemetry_enable()
        parallel = evaluate_scheme(
            graph, algebra, scheme, options=EvaluationOptions(workers=2))
        fallback = telemetry_registry().counter(
            "parallel.fallback", reason="unpicklable").value
        assert fallback == 1
        telemetry_disable()
        telemetry_reset()
        obs_tracing.clear_spans()
        again = evaluate_scheme(graph, algebra, scheme)
        assert parallel == again == serial


class TestSpawnEventFoldDeterminism:
    """The durable telemetry fold must not depend on worker scheduling.

    Two identical spawn runs can finish shards in any wall-clock order;
    the folded event log and span list still have to come out in shard
    order, so their schedule-independent projections are equal run to
    run (timestamps, pids and durations legitimately differ).
    """

    def _run_with_events(self, shard_size=40):
        graph, algebra, scheme = _sp_instance(n=14, seed=21)
        oracle = PreferredWeightOracle(graph, algebra)
        pairs = [(s, t) for s in graph.nodes() for t in graph.nodes()
                 if s != t]
        telemetry_enable()
        obs_events.enable()
        try:
            merged = evaluate_sharded(graph, algebra, scheme, oracle, pairs,
                                      workers=2, shard_size=shard_size)
            log = obs_events.events()
            spans = [record.path for record in obs_tracing.spans()]
        finally:
            telemetry_disable()
            obs_events.disable()
            obs_events.clear_events()
        skeleton = [
            (event.kind, event.shard,
             event.data.get("pairs_done"), event.data.get("pairs_total"),
             event.data.get("pairs"), event.data.get("sources"))
            for event in log
        ]
        return merged, skeleton, spans

    def test_two_runs_fold_identically(self):
        first, skeleton_a, spans_a = self._run_with_events()
        oracle_cache.clear()
        telemetry_reset()
        obs_tracing.clear_spans()
        second, skeleton_b, spans_b = self._run_with_events()
        assert first == second
        assert skeleton_a == skeleton_b
        assert spans_a == spans_b

    def test_worker_events_arrive_in_shard_order(self):
        _merged, skeleton, _spans = self._run_with_events()
        worker_kinds = ("shard_heartbeat", "shard_completed",
                        "oracle_trees_built")
        worker_shards = [shard for kind, shard, *_ in skeleton
                         if kind in worker_kinds]
        assert worker_shards == sorted(worker_shards)
        completed = [shard for kind, shard, *_ in skeleton
                     if kind == "shard_completed"]
        assert completed == list(range(len(completed)))
        # Spawn workers start with a fresh log: every shard still shows
        # its lead-in heartbeat at pairs_done=0.
        lead_ins = {shard for kind, shard, done, *_ in skeleton
                    if kind == "shard_heartbeat" and done == 0}
        assert lead_ins == set(range(len(completed)))
