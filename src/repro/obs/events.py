"""The run-event subsystem: a typed, append-only stream of run lifecycle events.

Where metrics answer "how much" and spans answer "how long", run events
answer "what happened, in what order": a run started, shards were
dispatched, each worker heartbeat its progress, the oracle built trees,
a phase was entered, the engine fell back to serial (and *why*), the run
finished.  The stream is the observability substrate the ROADMAP's
multi-host backend will stand on — the registry/heartbeat contract here
is exactly what a remote worker will speak over a transport instead of a
``multiprocessing`` queue.

Design mirrors :mod:`repro.obs.metrics`:

* **dark by default** — :func:`emit` returns immediately while events are
  disabled, so instrumented hot paths pay one module-global bool read;
  enable with :func:`enable` or ``REPRO_EVENTS=1`` in the environment;
* **two delivery paths** with different guarantees:

  - the **durable** path: events append to the process-local
    :class:`EventLog`.  Parallel workers buffer their events per shard
    (:func:`swap_log`), ship them back on the
    :class:`~repro.core.simulate.ShardResult`, and the parent folds them
    in **shard order** — so the durable log is deterministic and
    replayable regardless of worker scheduling;
  - the **live** path: events are additionally teed, best-effort and
    lossy, to a ``multiprocessing`` queue (workers, set by the pool
    initializer via :func:`set_live_queue`) or to an in-process consumer
    callback (the parent, :func:`set_live_consumer`) — this is what
    drives the progress renderer and is *not* replayed or recorded;

* **typed codec** — :func:`event_to_dict` / :func:`event_from_dict` ride
  the lossless value codec of :mod:`repro.obs.export`, and
  :func:`write_run` / :func:`read_run` persist a run as a durable
  ``manifest.json`` + ``events.jsonl`` pair that ``repro report``
  renders post hoc.

Straggler detection (:func:`detect_stragglers`) lives here too: it is a
pure function of per-shard durations, shared by the parallel engine (the
``parallel.stragglers`` metric) and the post-hoc report.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.env import env_flag

#: Environment variable that enables the event stream at import time.
ENV_VAR = "REPRO_EVENTS"

#: A shard is a straggler when its duration exceeds factor x median.
DEFAULT_STRAGGLER_FACTOR = 4.0

#: Shards faster than this are never stragglers: on a sub-millisecond
#: smoke run the median is ~0, so ``factor x median`` would flag every
#: shard with any nonzero duration at all.
DEFAULT_STRAGGLER_MIN_S = 0.05

#: The closed set of event kinds; :func:`emit` rejects anything else so a
#: typo'd kind fails loudly in tests instead of silently fragmenting logs.
EVENT_KINDS = frozenset({
    "run_started",
    "shard_dispatched",
    "shard_heartbeat",
    "shard_completed",
    "oracle_trees_built",
    "phase_entered",
    "phase_exited",
    "fallback_triggered",
    "service_query",
    "service_update",
    "run_finished",
})

#: File names of a durable run record inside its run directory.
MANIFEST_FILE = "manifest.json"
EVENTS_FILE = "events.jsonl"


def env_enabled(environ: Optional[Dict[str, str]] = None) -> bool:
    """Whether *environ* (default ``os.environ``) asks for run events."""
    return env_flag(ENV_VAR, environ)


@dataclass(frozen=True)
class RunEvent:
    """One immutable entry of the run-event stream.

    ``ts`` is absolute wall-clock time (``time.time()``) so events from
    different processes order on a shared axis; ``shard`` is the shard a
    worker-side event belongs to (None for run-level events); ``data``
    carries kind-specific scalars (counts, durations, reasons).
    """

    kind: str
    ts: float
    pid: int
    shard: Optional[int] = None
    data: Dict[str, object] = field(default_factory=dict)


class EventLog:
    """An append-only, mergeable buffer of :class:`RunEvent` objects."""

    __slots__ = ("events",)

    def __init__(self):
        self.events: List[RunEvent] = []

    def append(self, event: RunEvent) -> None:
        self.events.append(event)

    def extend(self, events: Iterable[RunEvent]) -> None:
        self.events.extend(events)

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)


_LOG = EventLog()
_ENABLED = False
_LIVE_QUEUE = None                      # mp queue, set in worker processes
_LIVE_CONSUMER: Optional[Callable] = None  # in-process callback (parent)
_CURRENT_SHARD: Optional[int] = None


def enable() -> None:
    """Switch the run-event stream on for the whole process."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Switch events off; recorded events are kept until :func:`clear_events`."""
    global _ENABLED
    _ENABLED = False


def enabled() -> bool:
    return _ENABLED


def event_log() -> EventLog:
    """The live event log regardless of the enabled flag (export/tests)."""
    return _LOG


def events() -> List[RunEvent]:
    """A snapshot list of everything the durable log currently holds."""
    return list(_LOG.events)


def clear_events() -> None:
    _LOG.clear()


def extend_events(records: Iterable[RunEvent]) -> None:
    """Append already-emitted events (e.g. a worker shard's buffer)."""
    _LOG.extend(records)


def swap_log() -> EventLog:
    """Detach and return the live log, installing a fresh empty one.

    The parallel engine's workers call this once per shard so each
    shard's events ship back exactly once and the next shard starts
    empty — the event-stream twin of ``metrics.swap_registry``.
    """
    global _LOG
    detached = _LOG
    _LOG = EventLog()
    return detached


def set_current_shard(shard: Optional[int]) -> None:
    """Tag subsequently emitted events with *shard* (None clears)."""
    global _CURRENT_SHARD
    _CURRENT_SHARD = shard


def current_shard() -> Optional[int]:
    return _CURRENT_SHARD


def set_live_queue(queue) -> None:
    """Tee emitted events onto *queue* (worker side; None disconnects).

    Delivery is best-effort: a full or broken queue drops the event
    rather than ever blocking or failing the evaluation.
    """
    global _LIVE_QUEUE
    _LIVE_QUEUE = queue


def set_live_consumer(consumer: Optional[Callable]) -> None:
    """Deliver emitted/relayed events to *consumer* in-process (parent side)."""
    global _LIVE_CONSUMER
    _LIVE_CONSUMER = consumer


def live_consumer() -> Optional[Callable]:
    return _LIVE_CONSUMER


def dispatch_live(event: RunEvent) -> None:
    """Hand a live event (e.g. drained from a worker queue) to the consumer."""
    consumer = _LIVE_CONSUMER
    if consumer is not None:
        try:
            consumer(event)
        except Exception:
            pass  # a broken renderer must never fail the run


def reset_worker(live_queue=None) -> None:
    """Fresh event state in a new worker process.

    A forked child inherits the parent's log, consumer callback and shard
    tag; none of those belong to the worker — the log would double-fold,
    and the consumer would render to the parent's terminal from the wrong
    process.  The enabled flag is deliberately kept (fork inherits it;
    the parallel worker initializer calls :func:`enable` explicitly).
    """
    global _LIVE_CONSUMER
    _LOG.clear()
    _LIVE_CONSUMER = None
    set_current_shard(None)
    set_live_queue(live_queue)


def emit(kind: str, shard: Optional[int] = None, durable: bool = True,
         **data) -> Optional[RunEvent]:
    """Emit one event; a no-op returning None while events are disabled.

    *shard* defaults to the worker's current shard tag.  ``durable=False``
    sends the event down the live path only (used for extra time-based
    heartbeats that would make the durable log nondeterministic).
    """
    if not _ENABLED:
        return None
    if kind not in EVENT_KINDS:
        raise ValueError(f"unknown run-event kind {kind!r}")
    if shard is None:
        shard = _CURRENT_SHARD
    event = RunEvent(kind=kind, ts=time.time(), pid=os.getpid(),
                     shard=shard, data=data)
    if durable:
        _LOG.events.append(event)
    queue = _LIVE_QUEUE
    if queue is not None:
        try:
            queue.put_nowait(event)
        except Exception:
            pass  # lossy by design
    elif _LIVE_CONSUMER is not None:
        dispatch_live(event)
    return event


# ---------------------------------------------------------------------------
# straggler detection
# ---------------------------------------------------------------------------


def detect_stragglers(durations: Sequence[float],
                      factor: float = DEFAULT_STRAGGLER_FACTOR,
                      min_duration: float = DEFAULT_STRAGGLER_MIN_S
                      ) -> Tuple[float, List[int]]:
    """``(median, straggler_indices)`` for per-shard *durations*.

    A shard straggles when its duration exceeds ``factor x median`` **and**
    the absolute floor *min_duration* (default 50ms) — without the floor
    a sub-millisecond smoke run has a near-zero median and every shard
    gets flagged.  The median is the lower-middle element (deterministic,
    no interpolation).  An empty duration list yields ``(0.0, [])``.
    """
    values = [float(d) for d in durations]
    if not values:
        return 0.0, []
    median = sorted(values)[(len(values) - 1) // 2]
    flagged = [i for i, d in enumerate(values)
               if d > factor * median and d >= min_duration]
    return median, flagged


# ---------------------------------------------------------------------------
# the durable run record: manifest + JSONL event log
# ---------------------------------------------------------------------------


def event_to_dict(event: RunEvent) -> Dict:
    """Typed dict view of an event (data values ride the lossless codec)."""
    from repro.obs.export import encode_value

    return {
        "kind": event.kind,
        "ts": event.ts,
        "pid": event.pid,
        "shard": event.shard,
        "data": {key: encode_value(value, strict=False)
                 for key, value in event.data.items()},
    }


def event_from_dict(record: Dict) -> RunEvent:
    """Invert :func:`event_to_dict`."""
    from repro.obs.export import decode_value

    return RunEvent(
        kind=record["kind"],
        ts=record["ts"],
        pid=record["pid"],
        shard=record.get("shard"),
        data={key: decode_value(value)
              for key, value in record.get("data", {}).items()},
    )


def env_fingerprint() -> Dict:
    """The reproducibility-relevant facts of the executing environment."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "repro_env": {key: value for key, value in sorted(os.environ.items())
                      if key.startswith("REPRO_")},
    }


def build_manifest(*, command: str, config: Dict, engine: Dict,
                   started_at: float, finished_at: float,
                   shards: Optional[List[Dict]] = None,
                   stragglers: Optional[Dict] = None,
                   counters: Optional[Dict] = None,
                   spans: Optional[List[Dict]] = None,
                   report: Optional[Dict] = None) -> Dict:
    """Assemble the durable run manifest (plain JSON-ready dict).

    *config* is the experiment recipe (policy, topology, n, seed, workers
    ...), *engine* the resolved execution strategy (start method, path
    engine), *shards* the per-shard timing/dispatch table the parallel
    engine collected, *counters* the final metric snapshot and *spans*
    the phase-span log — everything ``repro report`` needs to rebuild the
    run without re-running it.
    """
    manifest = {
        "version": 1,
        "command": command,
        "config": dict(config),
        "engine": dict(engine),
        "env": env_fingerprint(),
        "started_at": started_at,
        "finished_at": finished_at,
        "duration_s": max(0.0, finished_at - started_at),
        "shards": list(shards or []),
        "stragglers": dict(stragglers or {}),
    }
    if counters is not None:
        manifest["metrics"] = counters
    if spans is not None:
        manifest["spans"] = list(spans)
    if report is not None:
        manifest["report"] = report
    return manifest


def write_run(run_dir: str, manifest: Dict,
              event_records: Optional[Iterable[RunEvent]] = None
              ) -> Tuple[str, str]:
    """Persist *manifest* + the event stream under *run_dir*.

    Returns ``(manifest_path, events_path)``.  With *event_records* None
    the process's durable log is written.
    """
    from repro.obs import export

    if event_records is None:
        event_records = events()
    manifest_path = os.path.join(run_dir, MANIFEST_FILE)
    events_path = os.path.join(run_dir, EVENTS_FILE)
    export.write_json(manifest_path, manifest)
    export.write_jsonl(events_path,
                       (event_to_dict(event) for event in event_records))
    return manifest_path, events_path


def read_run(run_dir: str) -> Dict:
    """Load a recorded run: ``{"manifest": dict, "events": [RunEvent, ...]}``.

    The event log is optional (a manifest alone still renders); a missing
    manifest raises ``FileNotFoundError`` with the expected path.
    """
    import json

    manifest_path = os.path.join(run_dir, MANIFEST_FILE)
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    loaded: List[RunEvent] = []
    events_path = os.path.join(run_dir, EVENTS_FILE)
    if os.path.exists(events_path):
        with open(events_path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    loaded.append(event_from_dict(json.loads(line)))
    return {"manifest": manifest, "events": loaded}


if env_enabled():  # pragma: no cover - exercised via subprocess in CI
    enable()
