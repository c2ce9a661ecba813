"""Run-event stream integration with the sharded parallel engine.

The durable log contract: a parallel evaluation with events on yields a
deterministic per-shard record (dispatch, at least one heartbeat, a
completion) folded in shard order, per-shard timings feed the straggler
detector and its ``parallel.stragglers`` metric, serial fallback carries
its cause as a ``fallback_triggered`` event — and none of it perturbs
the merged report.
"""

import random

import pytest

from repro.algebra.catalog import ShortestPath
from repro.core.compiler import build_scheme
from repro.core import parallel as parallel_engine
from repro.core.parallel import (
    evaluate_sharded,
    last_fallback,
    last_run_info,
)
from repro.core.simulate import (
    EvaluationOptions,
    evaluate_scheme,
    oracle_cache,
    sample_pairs,
)
from repro.graphs.generators import erdos_renyi
from repro.graphs.weighting import assign_random_weights
from repro.obs import events as obs_events
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import disable as telemetry_disable
from repro.obs.metrics import enable as telemetry_enable
from repro.obs.metrics import registry as telemetry_registry
from repro.obs.metrics import reset as telemetry_reset
from repro.paths.store import PreferredWeightOracle


@pytest.fixture(autouse=True)
def clean_telemetry():
    def _clean():
        telemetry_disable()
        telemetry_reset()
        obs_tracing.clear_spans()
        obs_events.disable()
        obs_events.clear_events()
        obs_events.set_live_consumer(None)
        obs_events.set_current_shard(None)
        oracle_cache.clear()

    _clean()
    yield
    _clean()


def _instance(n=16, seed=1):
    algebra = ShortestPath()
    graph = erdos_renyi(n, rng=random.Random(seed))
    assign_random_weights(graph, algebra, rng=random.Random(seed + 1))
    return graph, algebra, build_scheme(graph, algebra)


def _run_parallel(graph, algebra, scheme, **options):
    oracle = PreferredWeightOracle(graph, algebra)
    pairs = sample_pairs(graph, None, random.Random(0))
    return evaluate_sharded(graph, algebra, scheme, oracle, pairs,
                            workers=2, **options), pairs


class TestDurableEventLog:
    def test_every_shard_dispatched_heartbeat_completed(self):
        graph, algebra, scheme = _instance()
        telemetry_enable()
        obs_events.enable()
        merged, pairs = _run_parallel(graph, algebra, scheme, shard_size=60)
        assert merged.routed == len(pairs)

        run = last_run_info()
        assert run is not None and run.fallback is None
        shard_count = len(run.shards)
        assert shard_count >= 2

        log = obs_events.events()
        dispatched = [e for e in log if e.kind == "shard_dispatched"]
        completed = [e for e in log if e.kind == "shard_completed"]
        heartbeats = [e for e in log if e.kind == "shard_heartbeat"]
        assert len(dispatched) == len(completed) == shard_count
        # Every shard heartbeats at least once (the pairs_done=0 lead-in).
        beat_shards = {e.shard for e in heartbeats}
        assert beat_shards == set(range(shard_count))
        assert all(e.data["pairs_done"] == 0
                   for e in heartbeats if e.data.get("pairs_done") == 0)

        # Worker events fold in shard order: the durable log's
        # shard-tagged suffix is non-decreasing.
        worker_shards = [e.shard for e in log
                         if e.kind in ("shard_heartbeat", "shard_completed",
                                       "oracle_trees_built")]
        assert worker_shards == sorted(worker_shards)

    def test_shard_completed_carries_timings(self):
        graph, algebra, scheme = _instance()
        telemetry_enable()
        obs_events.enable()
        _run_parallel(graph, algebra, scheme, shard_size=60)
        for event in obs_events.events():
            if event.kind == "shard_completed":
                assert event.data["duration_s"] >= 0
                assert event.data["pairs"] > 0
                assert event.data["routed"] == event.data["pairs"]

    def test_run_info_shard_table(self):
        graph, algebra, scheme = _instance()
        telemetry_enable()
        obs_events.enable()
        merged, pairs = _run_parallel(graph, algebra, scheme, shard_size=60)
        run = last_run_info()
        assert sum(info["pairs"] for info in run.shards) == len(pairs)
        assert [info["shard"] for info in run.shards] == list(
            range(len(run.shards)))
        for info in run.shards:
            assert info["duration_s"] >= 0
            assert info["pid"]
        assert set(run.stragglers) == {"factor", "min_s", "median_s", "shards"}

    def test_merged_result_is_scrubbed_of_shard_fields(self):
        graph, algebra, scheme = _instance()
        telemetry_enable()
        obs_events.enable()
        merged, _pairs = _run_parallel(graph, algebra, scheme, shard_size=60)
        assert merged.events is None
        assert merged.shard_id is None
        assert merged.pid is None


class TestStragglerMetric:
    def test_zero_factor_flags_all_shards(self, monkeypatch):
        monkeypatch.setattr(obs_events, "DEFAULT_STRAGGLER_FACTOR", 0.0)
        # Zero the minimum-duration floor too: this tiny run's shards all
        # finish in well under the default 50ms, and the floor exists
        # precisely so such runs are NOT flagged by default.
        monkeypatch.setattr(obs_events, "DEFAULT_STRAGGLER_MIN_S", 0.0)
        graph, algebra, scheme = _instance()
        telemetry_enable()
        obs_events.enable()
        _run_parallel(graph, algebra, scheme, shard_size=60)
        run = last_run_info()
        flagged = run.stragglers["shards"]
        # factor 0 flags every shard with positive duration; all shards
        # route real pairs, so all of them qualify.
        assert flagged == [info["shard"] for info in run.shards]
        assert all(info["straggler"] for info in run.shards)
        stragglers = telemetry_registry().counter("parallel.stragglers").value
        assert stragglers == len(run.shards)

    def test_default_floor_unflags_submillisecond_shards(self, monkeypatch):
        """The regression the floor fixes: factor 0 (everything over the
        median flagged) on a sub-millisecond run flags nothing, because
        no shard clears the 50ms minimum-duration floor."""
        monkeypatch.setattr(obs_events, "DEFAULT_STRAGGLER_FACTOR", 0.0)
        graph, algebra, scheme = _instance()
        telemetry_enable()
        obs_events.enable()
        _run_parallel(graph, algebra, scheme, shard_size=60)
        run = last_run_info()
        assert run.stragglers["min_s"] == obs_events.DEFAULT_STRAGGLER_MIN_S
        fast = [info for info in run.shards
                if (info["duration_s"] or 0.0)
                < obs_events.DEFAULT_STRAGGLER_MIN_S]
        assert fast, "expected a sub-50ms shard on this smoke-sized run"
        assert not any(info["straggler"] for info in fast)

    def test_default_factor_flags_none_on_balanced_shards(self):
        graph, algebra, scheme = _instance()
        telemetry_enable()
        obs_events.enable()
        _run_parallel(graph, algebra, scheme, shard_size=60)
        run = last_run_info()
        assert run.stragglers["factor"] == obs_events.DEFAULT_STRAGGLER_FACTOR
        shard_seconds = telemetry_registry().histogram(
            "parallel.shard_seconds")
        assert shard_seconds.count == len(run.shards)


class TestFallbackCause:
    """Pickling only happens on the spawn path, so force it."""

    @pytest.fixture(autouse=True)
    def force_spawn(self, monkeypatch):
        monkeypatch.setattr(parallel_engine, "_start_method", lambda: "spawn")

    def test_unpicklable_scheme_reports_cause(self):
        graph, algebra, scheme = _instance(seed=9)
        scheme._unpicklable = lambda: None
        telemetry_enable()
        obs_events.enable()
        parallel = evaluate_scheme(
            graph, algebra, scheme, options=EvaluationOptions(workers=2))
        fallback = last_fallback()
        assert fallback is not None
        assert fallback.reason == "unpicklable"
        assert fallback.cause
        assert "unpicklable" in fallback.summary()
        triggered = [e for e in obs_events.events()
                     if e.kind == "fallback_triggered"]
        assert len(triggered) == 1
        assert triggered[0].data["reason"] == "unpicklable"
        assert triggered[0].data["cause"] == fallback.cause
        serial = evaluate_scheme(graph, algebra, scheme)
        assert parallel == serial

    def test_serial_run_leaves_no_stale_fallback(self):
        graph, algebra, scheme = _instance(seed=9)
        scheme._unpicklable = lambda: None
        telemetry_enable()
        evaluate_scheme(graph, algebra, scheme,
                        options=EvaluationOptions(workers=2))
        assert last_fallback() is not None
        # A subsequent single-shard run (one source groups into one
        # shard, so it never reaches the pool) must clear the old cause.
        oracle = PreferredWeightOracle(graph, algebra)
        pairs = [(0, t) for t in (1, 2, 3)]
        evaluate_sharded(graph, algebra, scheme, oracle, pairs, workers=2,
                         shard_size=len(pairs))
        assert last_fallback() is None


class TestReportInvariance:
    def test_identical_report_with_events_on_and_off(self):
        graph, algebra, scheme = _instance()
        baseline = evaluate_scheme(
            graph, algebra, scheme, options=EvaluationOptions(workers=2))
        telemetry_enable()
        obs_events.enable()
        with_events = evaluate_scheme(
            graph, algebra, scheme, options=EvaluationOptions(workers=2))
        assert with_events == baseline
        serial = evaluate_scheme(graph, algebra, scheme)
        assert serial == baseline
