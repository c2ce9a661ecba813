"""Sharded parallel pair evaluation across worker processes.

Routing every ordered pair through a built scheme is embarrassingly
parallel: each pair's verification touches only read-only state (the
scheme's tables, the graph, the exact oracle).  This module splits the
pair list into **source-grouped** shards, evaluates them on a
``ProcessPoolExecutor``, and folds the per-shard
:class:`~repro.core.simulate.ShardResult` objects — counts, stretch
statistics, failure lists, packet traces and metric registries — back into
exactly the aggregate a serial pass would produce.

Sharding by source is what makes the lazy oracle pay off across
processes: the per-source preferred-path tree is the unit of oracle
state, so a shard spanning ``k`` sources costs its worker ``k`` tree
builds instead of the full ``n`` — the ROADMAP's "shard-level oracle
slicing".  Grouping reorders pairs, so the merge restores serial order
explicitly instead of relying on shard contiguity:

* counts and :class:`~repro.routing.stretch.StretchReport` add (both are
  order-insensitive);
* each shard remembers the original position of every pair it carries;
  failures and traces are matched back to those positions and sorted, so
  the merged report lists them in the exact serial scan order;
* within a shard, pairs stay sorted by original position, so a worker's
  bounded trace capture provably retains every trace the serial capture
  would have kept (see :func:`_fold_traces`);
* worker :class:`~repro.obs.metrics.MetricsRegistry` objects merge into
  the parent registry, and worker span logs are appended to the parent's.

Every worker starts from the parent's state — the algebra, the scheme,
the caller's oracle with every tree it has built, ``max_k`` and the room
of the trace capture that will receive its traces — installed by one
pool initializer.  The start method is the platform's best, overridable
with the ``REPRO_START_METHOD`` environment variable (CI uses it to
exercise spawn on Linux), and decides only how that state travels:

* **fork** (Linux, the common case): the child inherits the state
  copy-on-write, and nothing is pickled;
* **spawn** / **forkserver**: the parent pickles the state once, and each
  worker unpickles it.  The graph rides inside the scheme and the oracle
  and is stored once.

Either way a worker answers from the caller's oracle and builds only the
trees its shards need that the parent's oracle lacks — none for Cowen
and destination-table schemes from ``build_scheme``, which are built from
that oracle's tree store.  It compiles its query tables on its first
shard.

Shard execution is **fault-tolerant** (PR 8): each shard is submitted as
its own future, so a worker death (an OOM kill, a crash, or a shard
exceeding the per-shard ``REPRO_SHARD_TIMEOUT`` deadline) costs only the
shards that were actually in flight.  Every already-completed
:class:`~repro.core.simulate.ShardResult` is salvaged, the pool is
rebuilt, and only the lost shards are re-issued — with bounded retries
(``REPRO_SHARD_RETRIES``, default 2) per shard.  Retried shards are
deterministic and the origin-index merge is order-restoring, so a
recovered run's merged report stays bit-identical to an unfaulted serial
run.  Workers announce each shard start and their pid on a crash-safe
pipe, so the parent charges a pool breakage precisely: a shard whose
worker died or that overran its deadline is *lost* (it consumes retry
budget, ``shard_lost``/``shard_retried`` events, the
``parallel.shard_retries`` counter); every other unfinished shard is
*displaced* and re-issued for free.  Deterministic worker faults are
injectable via ``REPRO_FAULT_SPEC`` (see
:func:`repro.core.simulate.maybe_inject_fault`) for testing recovery on
both start methods.

Only when worker state cannot be pickled (under any start method but
fork), a shard exhausts its retries, or the pool keeps breaking before
any shard can run does the engine fall back to full serial evaluation
(counted on the ``parallel.fallback`` metric) rather than failing the
experiment.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import queue as _queue_mod
import signal
import threading
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import wait as _cf_wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.simulate import ShardResult, route_shard
from repro.env import env_choice, env_number
from repro.obs import events as _events
from repro.obs import tracing as _tracing
from repro.obs.metrics import (
    enable as _telemetry_enable,
    enabled as _telemetry_enabled,
    metrics as _telemetry,
    registry as _live_registry,
    reset as _metrics_reset,
    swap_registry as _swap_registry,
)

#: Shards per worker when ``shard_size`` is not pinned: a few per worker
#: smooths out per-shard cost variance without drowning in task overhead.
SHARDS_PER_WORKER = 4

#: Environment variable forcing the pool start method (fork/spawn/forkserver).
START_METHOD_ENV = "REPRO_START_METHOD"

#: Environment variable bounding re-issues per lost shard.
SHARD_RETRIES_ENV = "REPRO_SHARD_RETRIES"

#: Re-issues granted to each lost shard before the serial fallback fires.
DEFAULT_SHARD_RETRIES = 2

#: Environment variable setting the per-shard timeout in seconds
#: (unset/0 = no timeout, the default).
SHARD_TIMEOUT_ENV = "REPRO_SHARD_TIMEOUT"

#: How often the parent polls in-flight futures when a timeout is set.
_POLL_INTERVAL_S = 0.05


def shard_retry_limit(environ: Optional[Dict[str, str]] = None) -> int:
    """Re-issues allowed per lost shard (``REPRO_SHARD_RETRIES``, >= 0)."""
    return env_number(SHARD_RETRIES_ENV, DEFAULT_SHARD_RETRIES, kind=int,
                      environ=environ)


def shard_timeout(environ: Optional[Dict[str, str]] = None) -> Optional[float]:
    """The per-shard timeout in seconds, or None when disabled (default)."""
    return env_number(SHARD_TIMEOUT_ENV, 0.0, environ=environ) or None


@dataclass
class FallbackInfo:
    """Why the parallel engine reverted to serial, with the actual cause.

    ``reason`` distinguishes the ways recovery can end: ``unpicklable``
    (spawn payload never shipped), ``pool-failure`` (the pool broke
    before any shard could run, rebuilding included), and
    ``retry-exhausted`` (per-shard recovery ran and *gave up* — some
    shard kept dying past ``REPRO_SHARD_RETRIES``).  A run that lost
    shards but recovered has **no** fallback; its story lives in
    :attr:`ParallelRunInfo.recovery` instead.
    """

    reason: str        # "unpicklable" | "pool-failure" | "retry-exhausted"
    cause: str         # repr of the triggering exception

    def summary(self) -> str:
        return f"parallel fallback ({self.reason}): {self.cause}"


@dataclass
class ParallelRunInfo:
    """What the last ``evaluate_sharded`` call did, for manifests/reports.

    ``shards`` holds one JSON-ready dict per shard (id, pid, pairs,
    sources, wall-clock start, duration, routed count, retry count,
    straggler flag); ``stragglers`` the detection outcome over those
    durations; ``recovery`` the fault-tolerance outcome (how many shards
    were lost/re-issued across how many pool rebuilds, and whether the
    run recovered or gave up).  Reset at the start of every parallel run,
    so the CLI reads the state of the run it just performed.
    """

    start_method: Optional[str] = None
    workers: int = 0
    shards: List[Dict] = field(default_factory=list)
    stragglers: Dict = field(default_factory=dict)
    recovery: Dict = field(default_factory=dict)
    fallback: Optional[FallbackInfo] = None


_LAST_RUN: Optional[ParallelRunInfo] = None


def last_run_info() -> Optional[ParallelRunInfo]:
    """Shard table and straggler outcome of the most recent parallel run."""
    return _LAST_RUN


def last_fallback() -> Optional[FallbackInfo]:
    """The fallback (reason + cause) of the most recent parallel run, if any."""
    return _LAST_RUN.fallback if _LAST_RUN is not None else None


def shard_pairs_by_source(pairs: Sequence[Tuple], workers: int,
                          shard_size: Optional[int] = None
                          ) -> Tuple[List[List[Tuple]], List[List[int]]]:
    """Split *pairs* into source-grouped shards plus origin-index maps.

    Pairs are grouped by source (groups ordered by each source's first
    appearance), the grouped sequence is chunked into shards of about
    ``shard_size`` pairs, and every shard is then re-sorted by original
    position.  Returns ``(shards, index_lists)`` where
    ``index_lists[i][j]`` is the original position of ``shards[i][j]`` in
    *pairs* — what the merge uses to restore exact serial order.

    Two properties matter downstream:

    * each shard spans few distinct sources (oracle slicing), and a
      source is split across shards only at a chunk boundary;
    * within a shard, original positions are increasing, so a worker's
      capped trace capture keeps its shard's *earliest* routed pairs —
      exactly the ones a serial capture could have kept.
    """
    pairs = list(pairs)
    if not pairs:
        return [], []
    if shard_size is None:
        shard_size = max(1, math.ceil(len(pairs) / max(1, workers * SHARDS_PER_WORKER)))
    groups: "dict[object, List[int]]" = {}
    for index, pair in enumerate(pairs):
        groups.setdefault(pair[0], []).append(index)
    shards: List[List[Tuple]] = []
    index_lists: List[List[int]] = []
    chunk: List[int] = []
    for group in groups.values():
        for index in group:
            chunk.append(index)
            if len(chunk) >= shard_size:
                chunk.sort()
                shards.append([pairs[i] for i in chunk])
                index_lists.append(chunk)
                chunk = []
    if chunk:
        chunk.sort()
        shards.append([pairs[i] for i in chunk])
        index_lists.append(chunk)
    return shards, index_lists


def _start_method() -> Optional[str]:
    """The pool start method: the env override when valid, else fork.

    An unrecognized ``REPRO_START_METHOD`` value applies the default
    after a one-time ``RuntimeWarning`` (see
    :func:`repro.env.env_choice`) — a typo must not silently exercise
    the wrong start path.
    """
    methods = {method: method
               for method in multiprocessing.get_all_start_methods()}
    methods[""] = "fork" if "fork" in methods else None
    return env_choice(START_METHOD_ENV, methods)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

#: The parent's ``(algebra, scheme, oracle, max_k, trace_room)``,
#: installed in each worker process by :func:`_init_worker`; see
#: :func:`_trace_room`.
_WORKER_STATE = None

#: The worker's shard-start notification channel (a ``SimpleQueue`` whose
#: synchronous pipe write survives the worker being killed right after):
#: the parent uses it to attribute a pool breakage to the shards that had
#: actually started.
_STARTED_QUEUE = None


def _init_worker(state, telemetry_enabled: bool, events_enabled: bool,
                 live_queue, started_queue) -> None:
    """Install the parent's state in a new worker, with fresh telemetry.

    *state* is the parent's ``(algebra, scheme, oracle, max_k,
    trace_room)``: the tuple itself under fork, whose children inherit
    their initargs unpickled, and its pickle under every other start
    method.  A forked child also inherits the parent's registry, span
    log, event log and any active trace capture; merging those back
    would double-count, so the worker starts them empty and captures
    each shard's traces into a buffer of its own (:func:`_run_shard`).
    *live_queue*, when given, becomes the worker's live event tee back to
    the parent's progress renderer.
    """
    global _WORKER_STATE, _STARTED_QUEUE
    _WORKER_STATE = pickle.loads(state) if isinstance(state, bytes) else state
    _STARTED_QUEUE = started_queue
    if telemetry_enabled:
        _telemetry_enable()
    if events_enabled:
        _events.enable()
    _metrics_reset()
    _tracing.clear_spans()
    _tracing._capture = None
    _events.reset_worker(live_queue=live_queue)


def _run_shard(task: Tuple[int, int, List[Tuple]]) -> ShardResult:
    """Evaluate one shard attempt in a worker; ship back results + telemetry.

    *task* is ``(shard_id, attempt, pairs)``; the attempt number feeds the
    deterministic fault hook (a ``:once`` clause fires only on attempt 0,
    so re-issued shards complete) and is stamped on the result for the
    run manifest's retry column.
    """
    shard_id, attempt, shard = task
    algebra, scheme, oracle, max_k, trace_room = _WORKER_STATE
    if _STARTED_QUEUE is not None:
        try:
            _STARTED_QUEUE.put((shard_id, attempt, os.getpid()))
        except Exception:
            pass  # a torn notification must never fail the shard
    events_on = _events.enabled()
    if events_on:
        _events.set_current_shard(shard_id)
    started_at = time.time()
    start = time.perf_counter()
    # An active capture keeps route_shard from opening its own.
    with (nullcontext() if trace_room is None
          else _tracing.capture_traces(limit=trace_room)) as capture:
        result = route_shard(algebra, scheme, oracle, shard, max_k=max_k,
                             shard_id=shard_id, attempt=attempt)
    if capture is not None:
        result.traces = tuple(capture.traces)
        result.traces_dropped = capture.dropped
    result.shard_id = shard_id
    result.pid = os.getpid()
    result.started_at = started_at
    result.duration_s = time.perf_counter() - start
    result.attempt = attempt
    if _telemetry_enabled():
        # Hand each shard's telemetry over exactly once: detach the live
        # registry (kept intact for pickling) and start the next shard empty.
        result.registry = _swap_registry()
        result.spans = _tracing.spans()
        _tracing.clear_spans()
    if events_on:
        _events.emit("shard_completed", shard=shard_id, pairs=len(shard),
                     routed=result.routed, delivered=result.delivered,
                     duration_s=result.duration_s, attempt=attempt)
        result.events = _events.swap_log().events
        _events.set_current_shard(None)
    return result


# ---------------------------------------------------------------------------
# parent side: fault-tolerant shard execution
# ---------------------------------------------------------------------------


class _RetriesExhausted(Exception):
    """A shard kept dying past its retry budget; serial fallback required."""

    def __init__(self, shard_id: int, attempts: int, cause: str):
        super().__init__(
            f"shard {shard_id} lost {attempts} time(s); last cause: {cause}")
        self.shard_id = shard_id
        self.attempts = attempts
        self.cause = cause


class _PoolUnavailable(Exception):
    """The pool keeps breaking before any shard can run; retrying is futile."""


def _drain_started(started_queue, started: Dict[int, Tuple]) -> None:
    """Fold shard-start notifications into *started* (id -> time, pid).

    The queue outlives its writers: a killed worker's notification is
    already in the pipe, so draining after a pool breakage still tells
    the parent which shards had started, and in which worker.
    """
    try:
        while not started_queue.empty():
            shard_id, _attempt, pid = started_queue.get()
            started.setdefault(shard_id, (time.monotonic(), pid))
    except Exception:
        pass  # a torn notification must not fail the round


def _kill_pool(executor) -> None:
    """Hard-stop a pool with a stuck worker.

    ``shutdown(cancel_futures=True)`` alone cannot reclaim a worker stuck
    inside a shard — it never returns to read the next work item — so the
    workers are killed outright; the pool then marks itself broken, which
    the caller handles like any other worker loss.
    """
    for process in list((getattr(executor, "_processes", None) or {}).values()):
        try:
            process.kill()
        except Exception:
            pass


#: ``(queues, worker processes)`` of finished rounds; see
#: :func:`_hold_queues`.
_HELD_QUEUES: List[Tuple[Tuple, List]] = []


def _hold_queues(executor, queues: Tuple) -> None:
    """Keep *queues* referenced until *executor*'s workers have exited.

    A spawn worker that is still starting opens each queue's lock by
    name, and collecting a queue unlinks that name, so a round that
    returns before its workers are up must not drop the queues it handed
    them.  Each call prunes the entries whose workers have all exited
    (by ``exitcode``: ``is_alive()`` raises in a forked child that
    inherited this list).  At interpreter exit the executors join their
    workers before multiprocessing unlinks any name.
    """
    _HELD_QUEUES[:] = [
        (held, processes) for held, processes in _HELD_QUEUES
        if any(process.exitcode is None for process in processes)]
    processes = list((getattr(executor, "_processes", None) or {}).values())
    _HELD_QUEUES.append((queues, processes))


def _run_pool_round(shards: List[List[Tuple]], todo: List[int],
                    attempts: List[int], workers: int, context, initargs,
                    timeout: Optional[float]
                    ) -> Tuple[Dict[int, ShardResult], List[int], List[int], str]:
    """Submit *todo* shards to one fresh pool and classify what came back.

    Returns ``(results, lost, displaced, cause)``: *results* maps shard
    id -> :class:`ShardResult` for every shard that completed — these are
    the salvaged results a pool failure can no longer discard; *lost*
    holds the shards whose worker died or that exceeded *timeout* — they
    consume retry budget; *displaced* holds every other unfinished shard
    (queued, unsubmitted, or torn down with the pool), re-issued for
    free.  *cause* describes the triggering failure.
    """
    started_queue = context.SimpleQueue()
    results: Dict[int, ShardResult] = {}
    unfinished: List[int] = []
    displaced: List[int] = []
    cause = ""
    started: Dict[int, Tuple] = {}
    overdue: set = set()
    processes: Dict = {}

    executor = ProcessPoolExecutor(max_workers=workers, mp_context=context,
                                   initializer=_init_worker,
                                   initargs=initargs + (started_queue,))
    try:
        futures = {}
        for position, shard_id in enumerate(todo):
            try:
                future = executor.submit(
                    _run_shard,
                    (shard_id, attempts[shard_id], shards[shard_id]))
            except BrokenProcessPool as exc:
                # A worker died before every shard was submitted: this
                # round broke at submit time.  The unsubmitted shards
                # never reached a worker; the submitted ones are
                # harvested and classified below like any breakage.
                cause = repr(exc)
                displaced.extend(todo[position:])
                break
            futures[future] = shard_id
        pending = set(futures)
        while pending:
            processes.update(getattr(executor, "_processes", None) or {})
            done, pending = _cf_wait(
                pending, timeout=_POLL_INTERVAL_S if timeout else None)
            _drain_started(started_queue, started)
            for future in done:
                shard_id = futures[future]
                try:
                    results[shard_id] = future.result()
                except CancelledError:
                    displaced.append(shard_id)
                except (BrokenProcessPool, OSError) as exc:
                    cause = cause or repr(exc)
                    unfinished.append(shard_id)
            if timeout and pending:
                now = time.monotonic()
                overdue = {futures[f] for f in pending
                           if futures[f] in started
                           and now - started[futures[f]][0] > timeout}
                if overdue:
                    cause = cause or f"shard timeout (>{timeout:g}s)"
                    _kill_pool(executor)
                    # Final harvest: a shard may have completed between
                    # the wait and the kill — salvage it, don't re-run it.
                    done, pending = _cf_wait(pending, timeout=0)
                    for future in done:
                        shard_id = futures[future]
                        try:
                            results[shard_id] = future.result()
                        except Exception:
                            unfinished.append(shard_id)
                    unfinished.extend(futures[f] for f in pending)
                    pending = set()
    finally:
        # The run's live-event queue rides last in *initargs*.
        _hold_queues(executor, (started_queue, initargs[-1]))
        # A broken pool's manager thread reaps its workers: waiting for
        # it settles their exit codes.
        executor.shutdown(wait=bool(unfinished), cancel_futures=True)
    # Charged: the shards the pool was killed for, else those whose worker
    # died — the executor terminates a broken pool's survivors (SIGTERM).
    dead = {pid for pid, process in processes.items()
            if process.exitcode not in (None, -signal.SIGTERM)
            } if unfinished and not overdue else set()
    lost = [shard_id for shard_id in unfinished if shard_id in overdue
            or started.get(shard_id, (0.0, None))[1] in dead]
    displaced.extend(shard_id for shard_id in unfinished
                     if shard_id not in lost)
    return results, sorted(lost), sorted(displaced), cause


def _execute_shards(shards: List[List[Tuple]], workers: int, context,
                    initargs, run_info: ParallelRunInfo) -> List[ShardResult]:
    """Run every shard to completion, salvaging results across pool failures.

    The fault-tolerance core: on a worker death or per-shard timeout the
    already-completed results are kept, the pool is rebuilt, and only the
    lost shards are re-issued with their attempt number bumped (bounded
    by ``REPRO_SHARD_RETRIES``).  Emits ``shard_lost`` / ``pool_rebuilt``
    / ``shard_retried`` events and the ``parallel.shard_retries`` /
    ``parallel.pool_rebuilds`` counters; the aggregate lands on
    ``run_info.recovery``.  Raises :class:`_RetriesExhausted` when a
    shard keeps dying, :class:`_PoolUnavailable` when the pool breaks
    twice in a row before any shard runs — the caller maps both onto the
    full-serial last-resort fallback.
    """
    retries = shard_retry_limit()
    timeout = shard_timeout()
    events_on = _events.enabled()
    telemetry = _telemetry()
    results: Dict[int, ShardResult] = {}
    attempts = [0] * len(shards)
    todo = list(range(len(shards)))
    barren_rounds = 0
    lost_total = 0
    displaced_total = 0
    rebuilds = 0
    while todo:
        round_results, lost, displaced, cause = _run_pool_round(
            shards, todo, attempts, min(workers, len(todo)), context,
            initargs, timeout)
        results.update(round_results)
        todo = sorted(lost + displaced)
        if not todo:
            break
        if not round_results and not lost:
            # Nothing completed and nothing even started: the pool broke
            # before any shard ran (e.g. the initializer keeps dying), so
            # rebuilding cannot converge.
            barren_rounds += 1
            if barren_rounds >= 2:
                raise _PoolUnavailable(
                    cause or "pool broke before any shard ran")
        else:
            barren_rounds = 0
        rebuilds += 1
        lost_total += len(lost)
        displaced_total += len(displaced)
        for shard_id in lost:
            if events_on:
                _events.emit("shard_lost", shard=shard_id, cause=cause,
                             attempt=attempts[shard_id])
            attempts[shard_id] += 1
            if attempts[shard_id] > retries:
                run_info.recovery = _recovery_summary(
                    lost_total, displaced_total, rebuilds, recovered=False)
                raise _RetriesExhausted(shard_id, attempts[shard_id], cause)
        if lost:
            telemetry.counter("parallel.shard_retries").inc(len(lost))
        telemetry.counter("parallel.pool_rebuilds").inc()
        if events_on:
            _events.emit("pool_rebuilt", round=rebuilds, lost=len(lost),
                         displaced=len(displaced), cause=cause)
            for shard_id in lost:
                _events.emit("shard_retried", shard=shard_id,
                             attempt=attempts[shard_id], cause=cause)
    if rebuilds:
        run_info.recovery = _recovery_summary(
            lost_total, displaced_total, rebuilds, recovered=True)
    return [results[shard_id] for shard_id in range(len(shards))]


def _recovery_summary(lost: int, displaced: int, rebuilds: int,
                      recovered: bool) -> Dict:
    return {
        "shards_lost": lost,
        "shards_displaced": displaced,
        "pool_rebuilds": rebuilds,
        "recovered": recovered,
    }


def _match_indices(shard: List[Tuple], index_list: List[int],
                   items: Sequence, key: Callable) -> List[Tuple]:
    """Tag *items* (an in-order subsequence of *shard*) with global indices.

    ``key(item)`` yields the ``(source, target)`` identity to match
    against the shard's pairs; items arrive in shard scan order, so a
    single forward pass pairs each with the original position of the pair
    that produced it (duplicates included).
    """
    tagged = []
    pos = 0
    for item in items:
        ident = key(item)
        while pos < len(shard) and (shard[pos][0], shard[pos][1]) != ident:
            pos += 1
        if pos < len(shard):
            tagged.append((index_list[pos], item))
            pos += 1
        else:  # unmatched (cannot happen for well-formed results): keep last
            tagged.append((float("inf"), item))
    return tagged


def _ordered_failures(shards: List[List[Tuple]], index_lists: List[List[int]],
                      results: List[ShardResult]) -> List[Tuple]:
    """All shard failures, restored to the serial scan order."""
    tagged = []
    for shard, indices, result in zip(shards, index_lists, results):
        tagged.extend(_match_indices(shard, indices, result.failures,
                                     lambda failure: (failure[0], failure[1])))
    tagged.sort(key=lambda entry: entry[0])
    return [item for _, item in tagged]


def _trace_room(pairs: Sequence[Tuple], trace_limit: int) -> Optional[int]:
    """How many traces a worker keeps per shard; None when nothing traces.

    The limit of the capture that will receive the traces, as a serial
    run fills it: a caller's active capture (one without a limit can
    take every pair), else, with telemetry on, ``route_shard``'s own
    capture of *trace_limit*.
    """
    caller = _tracing.active_capture()
    if caller is not None:
        return len(pairs) if caller.limit is None else caller.limit
    return trace_limit if _telemetry_enabled() else None


def _fold_traces(shards: List[List[Tuple]], index_lists: List[List[int]],
                 results: List[ShardResult], trace_limit: int) -> Tuple:
    """Fold worker traces into ``(traces, dropped)`` matching a serial run.

    The serial capture keeps its first attempted traces in pair order, up
    to its limit.  Each worker keeps its shard's first traces up to the
    same limit (:func:`_trace_room`) in the same order (shards are sorted
    by original position), which is a superset of the serially-kept
    traces from that shard — so sorting the union by original position
    and truncating reproduces the serial capture's content *and* order
    exactly.  Everything else, worker-side drops included, is accounted
    as dropped, keeping ``kept + dropped == attempted`` just like one
    serial capture.

    With a caller capture active, traces land there instead (up to its
    own limit) and the report carries none — the serial semantics.
    """
    worker_dropped = sum(result.traces_dropped for result in results)
    tagged = []
    for shard, indices, result in zip(shards, index_lists, results):
        tagged.extend(_match_indices(shard, indices, result.traces,
                                     lambda trace: (trace.source, trace.target)))
    tagged.sort(key=lambda entry: entry[0])
    active = _tracing.active_capture()
    if active is not None:
        for _, trace in tagged:
            if active.limit is not None and len(active.traces) >= active.limit:
                active.dropped += 1
            else:
                active.traces.append(trace)
        active.dropped += worker_dropped
        return (), 0
    kept = tuple(item for _, item in tagged[:trace_limit])
    dropped = len(tagged) - len(kept) + worker_dropped
    return kept, dropped


def _fold_worker_telemetry(results: List[ShardResult]) -> None:
    """Merge worker registries and span logs into this process's.

    :func:`_execute_shards` returns results ordered by shard id (whatever
    pool a shard's final attempt ran in), so the folded span log (and the
    event fold below) is deterministic in **shard order** no matter which
    worker ran which shard when — and each shard's telemetry folds
    exactly once: a killed attempt's partial telemetry died with its
    worker, and only the completing attempt ships a registry.
    """
    live = _live_registry()
    for result in results:
        if result.registry is not None:
            live.merge(result.registry)
            result.registry = None
        if result.spans:
            _tracing.extend_spans(result.spans)
            result.spans = None


def _fold_worker_events(results: List[ShardResult]) -> None:
    """Append each shard's worker event buffer to the parent log, in order."""
    for result in results:
        if result.events:
            _events.extend_events(result.events)
        result.events = None


def _record_shard_timings(shards: List[List[Tuple]],
                          results: List[ShardResult],
                          run_info: ParallelRunInfo) -> None:
    """Build the per-shard timing table and flag stragglers.

    Every shard duration feeds the ``parallel.shard_seconds`` histogram;
    shards exceeding ``factor x median`` (``DEFAULT_STRAGGLER_FACTOR``,
    4) and the ``DEFAULT_STRAGGLER_MIN_S`` floor are flagged in the run
    info and counted on the ``parallel.stragglers`` metric — the signal
    the ROADMAP's multi-host backend will act on by re-issuing slow
    shards.
    """
    durations = [result.duration_s or 0.0 for result in results]
    factor = _events.DEFAULT_STRAGGLER_FACTOR
    min_duration = _events.DEFAULT_STRAGGLER_MIN_S
    median, flagged = _events.detect_stragglers(durations, factor=factor,
                                                min_duration=min_duration)
    flagged_set = set(flagged)
    telemetry = _telemetry()
    for shard, result in zip(shards, results):
        telemetry.histogram("parallel.shard_seconds").observe(
            result.duration_s or 0.0)
        run_info.shards.append({
            "shard": result.shard_id,
            "pid": result.pid,
            "pairs": len(shard),
            "sources": len({s for s, _ in shard}),
            "started_at": result.started_at,
            "duration_s": result.duration_s,
            "routed": result.routed,
            "retries": result.attempt or 0,
            "straggler": result.shard_id in flagged_set,
        })
    if flagged:
        telemetry.counter("parallel.stragglers").inc(len(flagged))
    run_info.stragglers = {
        "factor": factor,
        "min_s": min_duration,
        "median_s": median,
        "shards": sorted(flagged),
    }


def _serial_fallback(algebra, scheme, oracle, pairs, max_k, trace_limit,
                     reason: str, cause: str = "") -> ShardResult:
    _telemetry().counter("parallel.fallback", reason=reason).inc()
    if _LAST_RUN is not None:
        _LAST_RUN.fallback = FallbackInfo(reason=reason, cause=cause)
    if _events.enabled():
        _events.emit("fallback_triggered", reason=reason, cause=cause)
    return route_shard(algebra, scheme, oracle, pairs,
                       max_k=max_k, trace_limit=trace_limit)


def _live_event_pump(context):
    """A (queue, stop_fn) pair pumping worker events to the live consumer.

    Returns ``(None, noop)`` when no live consumer is registered — the
    durable path needs no queue, so workers skip the tee entirely.  The
    drain thread is a daemon and delivery is lossy by design; it exists
    only to animate the progress renderer.
    """
    if not (_events.enabled() and _events.live_consumer() is not None):
        return None, lambda: None
    live_queue = context.Queue()
    stop = threading.Event()

    def _drain():
        while True:
            try:
                event = live_queue.get(timeout=0.05)
            except (_queue_mod.Empty, OSError, EOFError):
                if stop.is_set():
                    return
                continue
            _events.dispatch_live(event)

    thread = threading.Thread(target=_drain, name="repro-event-drain",
                              daemon=True)
    thread.start()

    def _stop():
        stop.set()
        thread.join(timeout=2.0)

    return live_queue, _stop


def evaluate_sharded(graph, algebra, scheme, oracle, pairs: Sequence[Tuple],
                     workers: int, shard_size: Optional[int] = None,
                     max_k: int = 16, trace_limit: int = 16) -> ShardResult:
    """Evaluate *pairs* across *workers* processes; return the merged result.

    The merged :class:`ShardResult` is bit-identical to what
    :func:`repro.core.simulate.route_shard` would return over the whole
    pair list (telemetry timing values aside), so
    ``finalize_report`` produces the same :class:`EvaluationReport` either
    way — even though shards are grouped by source rather than sliced
    contiguously, because the merge restores serial order from each
    shard's origin-index map.  Workers read *graph* from the scheme and
    the oracle, which both hold it.
    """
    global _LAST_RUN
    _LAST_RUN = None
    pairs = list(pairs)
    shards, index_lists = shard_pairs_by_source(pairs, workers,
                                                shard_size=shard_size)
    if len(shards) <= 1:
        return route_shard(algebra, scheme, oracle, pairs,
                           max_k=max_k, trace_limit=trace_limit)

    workers = min(workers, len(shards))
    telemetry = _telemetry_enabled()
    events_on = _events.enabled()
    trace_room = _trace_room(pairs, trace_limit)
    method = _start_method()
    _LAST_RUN = run_info = ParallelRunInfo(start_method=method,
                                           workers=workers)

    # The graph rides inside the scheme and the oracle.  Pickling up front
    # finds an unpicklable state (a caller's lambda oracle, say) before
    # any pool starts; a forked child inherits the tuple as is.
    state = (algebra, scheme, oracle, max_k, trace_room)
    if method != "fork":
        try:
            state = pickle.dumps(state)
        except Exception as exc:
            return _serial_fallback(algebra, scheme, oracle, pairs, max_k,
                                    trace_limit, reason="unpicklable",
                                    cause=repr(exc))
    context = multiprocessing.get_context(method)
    live_queue, stop_pump = _live_event_pump(context)
    initargs = (state, telemetry, events_on, live_queue)

    if events_on:
        for shard_id, shard in enumerate(shards):
            _events.emit("shard_dispatched", shard=shard_id,
                         pairs=len(shard),
                         sources=len({s for s, _ in shard}))

    try:
        with _tracing.span("route_pairs_parallel", scheme=scheme.name,
                           workers=str(workers), shards=str(len(shards))):
            results = _execute_shards(shards, workers, context, initargs,
                                      run_info)
    except _RetriesExhausted as exc:
        return _serial_fallback(algebra, scheme, oracle, pairs, max_k,
                                trace_limit, reason="retry-exhausted",
                                cause=str(exc))
    except _PoolUnavailable as exc:
        return _serial_fallback(algebra, scheme, oracle, pairs, max_k,
                                trace_limit, reason="pool-failure",
                                cause=str(exc))
    except (BrokenProcessPool, pickle.PicklingError, OSError) as exc:
        return _serial_fallback(algebra, scheme, oracle, pairs, max_k,
                                trace_limit, reason="pool-failure",
                                cause=repr(exc))
    finally:
        stop_pump()

    # Restore order-sensitive fields from the origin-index maps *before*
    # the count merge (ShardResult.merge concatenates failures/traces in
    # shard order, which grouping made meaningless).
    failures = _ordered_failures(shards, index_lists, results)
    if telemetry:
        _fold_worker_telemetry(results)
    traces, dropped = (), 0
    if trace_room is not None:
        traces, dropped = _fold_traces(shards, index_lists, results,
                                       trace_limit)
    _record_shard_timings(shards, results, run_info)
    if events_on:
        _fold_worker_events(results)
    merged = results[0]
    for result in results[1:]:
        merged.merge(result)
    merged.failures = failures
    merged.traces = traces
    merged.traces_dropped = dropped
    merged.registry = None
    merged.spans = None
    merged.events = None
    merged.shard_id = None
    merged.pid = None
    merged.started_at = None
    merged.duration_s = None
    merged.attempt = None
    return merged
