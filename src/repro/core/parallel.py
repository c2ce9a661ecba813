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
pool initializer.  The start method is fork where the platform offers
it, else the platform default (:func:`_start_method`), and decides only
how that state travels:

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

One ``ProcessPoolExecutor`` maps the shards in order.  An exception
raised inside a worker propagates, as it would from a serial run.  When
worker state cannot be pickled (under any start method but fork), or
the pool itself fails (a worker killed mid-shard breaks it), the engine
falls back to full serial evaluation, counted on the
``parallel.fallback`` metric, rather than failing the experiment.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import queue as _queue_mod
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.simulate import ShardResult, route_shard
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


@dataclass
class FallbackInfo:
    """Why the parallel engine reverted to serial, with the actual cause.

    ``reason`` is ``unpicklable`` (the spawn payload never shipped) or
    ``pool-failure`` (the pool broke: a worker died, or the pool could
    not start or take a shard).
    """

    reason: str        # "unpicklable" | "pool-failure"
    cause: str         # repr of the triggering exception

    def summary(self) -> str:
        return f"parallel fallback ({self.reason}): {self.cause}"


@dataclass
class ParallelRunInfo:
    """What the last ``evaluate_sharded`` call did, for manifests/reports.

    ``shards`` holds one JSON-ready dict per shard (id, pid, pairs,
    sources, wall-clock start, duration, routed count, a retry count that
    is always 0, straggler flag); ``stragglers`` the detection outcome
    over those durations.  Reset at the start of every parallel run, so
    the CLI reads the state of the run it just performed.
    """

    start_method: Optional[str] = None
    workers: int = 0
    shards: List[Dict] = field(default_factory=list)
    stragglers: Dict = field(default_factory=dict)
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
    """The pool start method: fork where offered, else None (the default)."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else None


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

#: The parent's ``(algebra, scheme, oracle, max_k, trace_room)``,
#: installed in each worker process by :func:`_init_worker`; see
#: :func:`_trace_room`.
_WORKER_STATE = None


def _init_worker(state, telemetry_enabled: bool, events_enabled: bool,
                 live_queue) -> None:
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
    global _WORKER_STATE
    _WORKER_STATE = pickle.loads(state) if isinstance(state, bytes) else state
    if telemetry_enabled:
        _telemetry_enable()
    if events_enabled:
        _events.enable()
    _metrics_reset()
    _tracing.clear_spans()
    _tracing._capture = None
    _events.reset_worker(live_queue=live_queue)


def _run_shard(task: Tuple[int, List[Tuple]]) -> ShardResult:
    """Evaluate one shard in a worker; ship back results + telemetry.

    *task* is ``(shard_id, pairs)``.
    """
    shard_id, shard = task
    algebra, scheme, oracle, max_k, trace_room = _WORKER_STATE
    events_on = _events.enabled()
    if events_on:
        _events.set_current_shard(shard_id)
    started_at = time.time()
    start = time.perf_counter()
    # An active capture keeps route_shard from opening its own.
    with (nullcontext() if trace_room is None
          else _tracing.capture_traces(limit=trace_room)) as capture:
        result = route_shard(algebra, scheme, oracle, shard, max_k=max_k)
    if capture is not None:
        result.traces = tuple(capture.traces)
        result.traces_dropped = capture.dropped
    result.shard_id = shard_id
    result.pid = os.getpid()
    result.started_at = started_at
    result.duration_s = time.perf_counter() - start
    if _telemetry_enabled():
        # Hand each shard's telemetry over exactly once: detach the live
        # registry (kept intact for pickling) and start the next shard empty.
        result.registry = _swap_registry()
        result.spans = _tracing.spans()
        _tracing.clear_spans()
    if events_on:
        _events.emit("shard_completed", shard=shard_id, pairs=len(shard),
                     routed=result.routed, delivered=result.delivered,
                     duration_s=result.duration_s)
        result.events = _events.swap_log().events
        _events.set_current_shard(None)
    return result


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


def _map_shards(shards: List[List[Tuple]], workers: int, context,
                initargs) -> List[ShardResult]:
    """Evaluate *shards* on one pool; return their results in shard order.

    The pool waits for its workers to exit: one left to exit on its own
    races the interpreter's exit hook, which prints an ``OSError``, and a
    spawn worker still starting opens the live event queue's lock (last
    in *initargs*) by name, so the queue must outlive every worker.
    """
    executor = ProcessPoolExecutor(max_workers=workers, mp_context=context,
                                   initializer=_init_worker,
                                   initargs=initargs)
    try:
        return list(executor.map(_run_shard, enumerate(shards)))
    finally:
        executor.shutdown(cancel_futures=True)


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

    :func:`_map_shards` returns results in shard order, so the folded
    span log (and the event fold below) is deterministic in **shard
    order** no matter which worker ran which shard when.
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
            # No shard is retried; perfbench's shard-table reader sums this.
            "retries": 0,
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
            results = _map_shards(shards, workers, context, initargs)
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
    return merged
