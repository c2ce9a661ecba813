"""Fault tolerance of the sharded parallel engine (fork path).

The contract under test: a worker death or shard timeout costs only the
affected shards — completed results are salvaged, the pool is rebuilt,
lost shards are re-issued with bounded retries — and the merged report
stays bit-identical to an unfaulted serial run.  Faults are injected
deterministically through ``REPRO_FAULT_SPEC`` (see
:func:`repro.core.simulate.parse_fault_spec`); the spawn-path twin of
the kill test lives in ``test_parallel_spawn.py``.
"""

import random
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.core.parallel as parallel
from repro.algebra.catalog import ShortestPath
from repro.core.compiler import build_scheme
from repro.core.parallel import (
    SHARD_RETRIES_ENV,
    SHARD_TIMEOUT_ENV,
    evaluate_sharded,
    last_run_info,
)
from repro.core.simulate import (
    DEFAULT_HANG_SECONDS,
    FAULT_SPEC_ENV,
    FaultClause,
    InjectedFault,
    evaluate_scheme,
    finalize_report,
    maybe_inject_fault,
    oracle_cache,
    parse_fault_spec,
    preferred_weight_oracle,
)
from repro.graphs.generators import erdos_renyi
from repro.graphs.weighting import assign_random_weights
from repro.obs import events as obs_events
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import disable as telemetry_disable
from repro.obs.metrics import enable as telemetry_enable
from repro.obs.metrics import registry as telemetry_registry
from repro.obs.metrics import reset as telemetry_reset


@pytest.fixture(autouse=True)
def clean_state(monkeypatch):
    monkeypatch.delenv(FAULT_SPEC_ENV, raising=False)
    monkeypatch.delenv(SHARD_TIMEOUT_ENV, raising=False)
    monkeypatch.delenv(SHARD_RETRIES_ENV, raising=False)

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


class TestParseFaultSpec:
    def test_single_clause(self):
        assert parse_fault_spec("kill:shard=3:once") == (
            FaultClause(action="kill", shard=3, once=True),)

    def test_multi_clause_and_hang_duration(self):
        clauses = parse_fault_spec("hang=2.5:shard=0:once;raise:shard=4")
        assert clauses == (
            FaultClause(action="hang", shard=0, once=True, seconds=2.5),
            FaultClause(action="raise", shard=4),
        )

    def test_hang_default_duration(self):
        (clause,) = parse_fault_spec("hang:shard=1")
        assert clause.seconds == DEFAULT_HANG_SECONDS

    @pytest.mark.parametrize("bad", [
        "explode:shard=1",        # unknown action
        "kill=3:shard=1",         # only hang takes a duration
        "kill:shard=1:twice",     # unknown field
        "kill:once",              # missing shard=N
    ])
    def test_malformed_specs_fail_loudly(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)

    def test_once_clause_skips_retried_attempt(self):
        # Attempt 0 fires, attempt 1 passes: the property that makes a
        # retried shard complete deterministically.
        import os

        os.environ[FAULT_SPEC_ENV] = "raise:shard=5:once"
        try:
            with pytest.raises(InjectedFault):
                maybe_inject_fault(5, attempt=0)
            maybe_inject_fault(5, attempt=1)
            maybe_inject_fault(4, attempt=0)  # other shards untouched
            maybe_inject_fault(None, attempt=0)  # serial never injects
        finally:
            del os.environ[FAULT_SPEC_ENV]


def _instance(n=16, seed=1):
    algebra = ShortestPath()
    graph = erdos_renyi(n, rng=random.Random(seed))
    assign_random_weights(graph, algebra, rng=random.Random(seed + 1))
    return graph, algebra, build_scheme(graph, algebra)


def _run_faulted(graph, algebra, scheme, shard_size=40):
    """One single-worker sharded run: deterministic shard start order, so
    a faulted shard is exactly one lost shard and the rest displaced."""
    oracle = preferred_weight_oracle(graph, algebra)
    pairs = [(s, t) for s in graph.nodes() for t in graph.nodes() if s != t]
    merged = evaluate_sharded(graph, algebra, scheme, oracle, pairs,
                              workers=1, shard_size=shard_size)
    return finalize_report(scheme, merged), pairs


class TestKillRecovery:
    def test_bit_identical_report_without_fallback(self, monkeypatch):
        graph, algebra, scheme = _instance()
        serial = evaluate_scheme(graph, algebra, scheme)
        monkeypatch.setenv(FAULT_SPEC_ENV, "kill:shard=2:once")
        telemetry_enable()
        obs_events.enable()
        report, pairs = _run_faulted(graph, algebra, scheme)
        assert report == serial
        run = last_run_info()
        assert run.fallback is None
        assert run.recovery["recovered"] is True
        assert run.recovery["shards_lost"] == 1
        assert run.recovery["pool_rebuilds"] == 1
        assert "shards_retried" not in run.recovery

        log = obs_events.events()
        assert [e.shard for e in log if e.kind == "shard_lost"] == [2]
        assert [e.shard for e in log if e.kind == "shard_retried"] == [2]
        assert len([e for e in log if e.kind == "pool_rebuilt"]) == 1
        # The salvaged + retried table still covers every pair once.
        assert sum(info["pairs"] for info in run.shards) == len(pairs)
        assert [info["retries"] for info in run.shards] == [0, 0, 1, 0, 0, 0]

    def test_displaced_shards_reissue_without_retry_budget(self, monkeypatch):
        # Shards queued behind the dead worker are re-issued for free:
        # only the genuinely lost shard shows up in the retry counter.
        graph, algebra, scheme = _instance()
        monkeypatch.setenv(FAULT_SPEC_ENV, "kill:shard=2:once")
        telemetry_enable()
        _run_faulted(graph, algebra, scheme)
        run = last_run_info()
        assert run.fallback is None
        assert run.recovery["shards_displaced"] >= 1
        retries = telemetry_registry().counter("parallel.shard_retries").value
        assert retries == 1
        rebuilds = telemetry_registry().counter("parallel.pool_rebuilds").value
        assert rebuilds == 1


def _run_two_workers(graph, algebra, scheme):
    oracle = preferred_weight_oracle(graph, algebra)
    pairs = [(s, t) for s in graph.nodes() for t in graph.nodes() if s != t]
    merged = evaluate_sharded(graph, algebra, scheme, oracle, pairs,
                              workers=2, shard_size=60)
    return finalize_report(scheme, merged)


class TestTwoWorkerCharging:
    """A kill breaks the pool under the survivor's shard too: only the
    shard whose worker died is charged, the survivor's is displaced."""

    def test_one_kill_charges_one_shard(self, monkeypatch):
        graph, algebra, scheme = _instance(n=32)
        serial = evaluate_scheme(graph, algebra, scheme)
        monkeypatch.setenv(FAULT_SPEC_ENV, "kill:shard=1:once")
        telemetry_enable()
        obs_events.enable()
        assert _run_two_workers(graph, algebra, scheme) == serial
        run = last_run_info()
        assert run.fallback is None
        assert run.recovery["shards_lost"] == 1
        assert run.recovery["recovered"] is True
        log = obs_events.events()
        assert [e.shard for e in log if e.kind == "shard_lost"] == [1]
        retries = telemetry_registry().counter("parallel.shard_retries").value
        assert retries == 1

    def test_exhausted_run_names_the_killed_shard(self, monkeypatch):
        graph, algebra, scheme = _instance(n=32)
        serial = evaluate_scheme(graph, algebra, scheme)
        monkeypatch.setenv(FAULT_SPEC_ENV, "kill:shard=1")
        monkeypatch.setenv(SHARD_RETRIES_ENV, "1")
        assert _run_two_workers(graph, algebra, scheme) == serial
        run = last_run_info()
        assert run.fallback.reason == "retry-exhausted"
        assert run.fallback.cause.startswith("shard 1 lost 2 time(s)")
        assert run.recovery["shards_lost"] == 2


class TestTimeoutRecovery:
    def test_hung_shard_is_killed_and_retried(self, monkeypatch):
        graph, algebra, scheme = _instance()
        serial = evaluate_scheme(graph, algebra, scheme)
        monkeypatch.setenv(FAULT_SPEC_ENV, "hang=30:shard=1:once")
        monkeypatch.setenv(SHARD_TIMEOUT_ENV, "0.75")
        telemetry_enable()
        obs_events.enable()
        report, _pairs = _run_faulted(graph, algebra, scheme)
        assert report == serial
        run = last_run_info()
        assert run.fallback is None
        assert run.recovery["recovered"] is True
        lost = [e for e in obs_events.events() if e.kind == "shard_lost"]
        assert [e.shard for e in lost] == [1]
        assert "timeout" in lost[0].data["cause"]


class TestRetryExhaustion:
    def test_persistent_kill_falls_back_to_serial(self, monkeypatch):
        # No ``:once``: shard 0 dies on every attempt, exhausting the
        # retry budget — the engine gives up and the serial fallback
        # still produces the exact report (serial never injects).
        graph, algebra, scheme = _instance()
        serial = evaluate_scheme(graph, algebra, scheme)
        monkeypatch.setenv(FAULT_SPEC_ENV, "kill:shard=0")
        monkeypatch.setenv(SHARD_RETRIES_ENV, "1")
        telemetry_enable()
        obs_events.enable()
        report, _pairs = _run_faulted(graph, algebra, scheme)
        assert report == serial
        run = last_run_info()
        assert run.fallback is not None
        assert run.fallback.reason == "retry-exhausted"
        assert "shard 0" in run.fallback.cause
        assert run.recovery["recovered"] is False
        triggered = [e for e in obs_events.events()
                     if e.kind == "fallback_triggered"]
        assert len(triggered) == 1
        assert triggered[0].data["reason"] == "retry-exhausted"

    def test_raise_fault_propagates_like_a_worker_bug(self, monkeypatch):
        # ``raise`` is not a transport failure: it reproduces a genuine
        # bug inside route_shard, which must surface, not be retried.
        graph, algebra, scheme = _instance()
        monkeypatch.setenv(FAULT_SPEC_ENV, "raise:shard=0")
        with pytest.raises(InjectedFault):
            _run_faulted(graph, algebra, scheme)


class _SubmitBreaksAfterFirst(ProcessPoolExecutor):
    """A pool whose second ``submit`` finds it broken.

    Reproduces, deterministically, a worker dying while the parent is
    still submitting a round's shards: the first shard is really
    submitted (and runs, or dies under an injected kill), every later
    ``submit`` raises the way a broken pool's does.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._submitted = 0

    def submit(self, fn, /, *args, **kwargs):
        if self._submitted:
            raise BrokenProcessPool("a worker died during submission")
        self._submitted += 1
        return super().submit(fn, *args, **kwargs)


class TestSubmitTimeBreakage:
    def test_unsubmitted_shards_are_displaced_and_reissued(self, monkeypatch):
        graph, algebra, scheme = _instance()
        serial = evaluate_scheme(graph, algebra, scheme)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor",
                            _SubmitBreaksAfterFirst)
        report, pairs = _run_faulted(graph, algebra, scheme)
        assert report == serial
        run = last_run_info()
        assert run.fallback is None
        # Six shards, one completes per round: five rebuilds, and the
        # shards never submitted cost no retry budget.
        assert run.recovery == {"shards_lost": 0,
                                "shards_displaced": 5 + 4 + 3 + 2 + 1,
                                "pool_rebuilds": 5, "recovered": True}
        assert [info["retries"] for info in run.shards] == [0] * 6
        assert sum(info["pairs"] for info in run.shards) == len(pairs)

    def test_kill_during_submission_exhausts_retries(self, monkeypatch):
        # The race behind an intermittent "pool-failure": shard 0's worker
        # dies before the submission loop is done.  The breakage belongs
        # to the round, so the persistent kill still exhausts shard 0's
        # retry budget.
        graph, algebra, scheme = _instance()
        serial = evaluate_scheme(graph, algebra, scheme)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor",
                            _SubmitBreaksAfterFirst)
        monkeypatch.setenv(FAULT_SPEC_ENV, "kill:shard=0")
        monkeypatch.setenv(SHARD_RETRIES_ENV, "1")
        report, _pairs = _run_faulted(graph, algebra, scheme)
        assert report == serial
        run = last_run_info()
        assert run.fallback.reason == "retry-exhausted"
        assert "shard 0" in run.fallback.cause
        assert run.recovery["recovered"] is False


class TestSerialImmunity:
    def test_serial_evaluation_ignores_fault_spec(self, monkeypatch):
        graph, algebra, scheme = _instance()
        baseline = evaluate_scheme(graph, algebra, scheme)
        monkeypatch.setenv(FAULT_SPEC_ENV, "kill:shard=0")
        assert evaluate_scheme(graph, algebra, scheme) == baseline
