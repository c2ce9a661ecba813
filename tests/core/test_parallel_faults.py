"""Worker loss in the sharded parallel engine: a broken pool runs serially.

A worker killed mid-shard breaks the pool, and so does a pool that fails
while shards are being submitted; either way the engine evaluates every
pair serially, records the fallback (reason ``pool-failure``) and returns
the serial report.  An exception raised inside a worker is a bug, not a
pool failure, and propagates.  Faults reach the workers through the
``in_workers`` fixture (``tests/conftest.py``), which patches
``parallel.route_shard``.
"""

import os
import random
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.core.parallel as parallel
from repro.algebra.catalog import ShortestPath
from repro.core.compiler import build_scheme
from repro.core.parallel import last_fallback
from repro.core.simulate import EvaluationOptions, evaluate_scheme, oracle_cache
from repro.graphs.generators import erdos_renyi
from repro.graphs.weighting import assign_random_weights
from repro.obs import events as obs_events
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import disable as telemetry_disable
from repro.obs.metrics import enable as telemetry_enable
from repro.obs.metrics import registry as telemetry_registry
from repro.obs.metrics import reset as telemetry_reset


@pytest.fixture(autouse=True)
def clean_state():
    def _clean():
        telemetry_disable()
        telemetry_reset()
        obs_tracing.clear_spans()
        obs_events.disable()
        obs_events.clear_events()
        oracle_cache.clear()

    _clean()
    yield
    _clean()


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


class WorkerBug(RuntimeError):
    """What a buggy shard raises inside a worker."""


def raise_bug():
    raise WorkerBug("a bug inside a worker")


class _BreaksAfterFirstSubmit(ProcessPoolExecutor):
    """A pool whose second ``submit`` finds it broken: the first shard
    really runs, every later one raises the way a broken pool's does."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._submitted = 0

    def submit(self, fn, /, *args, **kwargs):
        if self._submitted:
            raise BrokenProcessPool("the pool broke during submission")
        self._submitted += 1
        return super().submit(fn, *args, **kwargs)


def _instance(n=16, seed=1):
    algebra = ShortestPath()
    graph = erdos_renyi(n, rng=random.Random(seed))
    assign_random_weights(graph, algebra, rng=random.Random(seed + 1))
    return graph, algebra, build_scheme(graph, algebra)


def _two_workers(graph, algebra, scheme):
    return evaluate_scheme(graph, algebra, scheme,
                           options=EvaluationOptions(workers=2))


class TestWorkerLoss:
    def test_killed_worker_falls_back_to_serial(self, in_workers):
        graph, algebra, scheme = _instance()
        serial = evaluate_scheme(graph, algebra, scheme)
        in_workers(kill_self)
        telemetry_enable()
        obs_events.enable()
        assert _two_workers(graph, algebra, scheme) == serial
        fallback = last_fallback()
        assert fallback.reason == "pool-failure"
        assert "BrokenProcessPool" in fallback.cause
        triggered = [event for event in obs_events.events()
                     if event.kind == "fallback_triggered"]
        assert [event.data["reason"] for event in triggered] == ["pool-failure"]
        assert telemetry_registry().counter(
            "parallel.fallback", reason="pool-failure").value == 1

    def test_worker_exception_propagates(self, in_workers):
        graph, algebra, scheme = _instance()
        in_workers(raise_bug)
        with pytest.raises(WorkerBug):
            _two_workers(graph, algebra, scheme)
        assert last_fallback() is None

    def test_pool_broken_at_submit_falls_back_to_serial(self, monkeypatch):
        graph, algebra, scheme = _instance()
        serial = evaluate_scheme(graph, algebra, scheme)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor",
                            _BreaksAfterFirstSubmit)
        assert _two_workers(graph, algebra, scheme) == serial
        fallback = last_fallback()
        assert fallback.reason == "pool-failure"
        assert "during submission" in fallback.cause
