"""Human-facing rendering of the run-event stream.

Two consumers of :mod:`repro.obs.events` live here:

* :class:`ProgressRenderer` — the **live** view: a single status line on
  the controlling terminal (shards done/total, pairs/sec, ETA, per-worker
  activity) redrawn in place as events arrive from the evaluation.  It is
  strictly TTY-bound: :func:`should_show_progress` gates it on the stream
  being a terminal, the ``REPRO_NO_PROGRESS`` environment override, and
  the CLI's ``--progress``/``--quiet``/``--json`` flags, so CI logs and
  piped output never receive control characters.

* :func:`render_run_report` — the **post-hoc** view: given a recorded
  run (manifest + event log, see :func:`repro.obs.events.read_run`), it
  renders the phase-span tree, the per-shard timeline with heartbeat
  counts, the straggler table and the final counters — ``repro report``
  in one function.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, TextIO

from repro.env import env_flag
from repro.obs import events as _events

#: Environment variable that unconditionally suppresses live progress.
NO_PROGRESS_ENV = "REPRO_NO_PROGRESS"

#: Minimum seconds between redraws (the renderer is event-driven but
#: rate-limited, so a hot event stream cannot saturate the terminal).
REDRAW_INTERVAL_S = 0.1


def should_show_progress(progress: bool = False, quiet: bool = False,
                         json_mode: bool = False,
                         stream: Optional[TextIO] = None,
                         environ: Optional[Dict[str, str]] = None) -> bool:
    """Decide whether to render live progress on *stream*.

    Precedence: ``REPRO_NO_PROGRESS`` and ``--quiet`` always win (CI can
    kill control characters even against an explicit ``--progress``);
    ``--json`` implies quiet; an explicit ``--progress`` then forces the
    renderer on; otherwise progress appears only on a real TTY.
    """
    if env_flag(NO_PROGRESS_ENV, environ):
        return False
    if quiet or json_mode:
        return False
    if progress:
        return True
    if stream is None:
        return False
    isatty = getattr(stream, "isatty", None)
    return bool(isatty and isatty())


class ProgressRenderer:
    """Single-line live progress view over the run-event stream.

    Feed it events through :meth:`handle` (it is registered as the live
    consumer by the CLI, so both parent-side emissions and drained worker
    queue events arrive here).  Thread-safe: the parallel engine's queue
    drain thread and the main thread may both call :meth:`handle`.
    """

    def __init__(self, stream: TextIO, total_pairs: Optional[int] = None,
                 label: str = ""):
        self.stream = stream
        self.label = label
        self.total_pairs = total_pairs
        self.shards_total: Optional[int] = None
        self.shards_done = 0
        self._pairs_done: Dict[Optional[int], int] = {}
        self._workers: Dict[int, Optional[int]] = {}  # pid -> active shard
        self._started = time.monotonic()
        self._last_draw = 0.0
        self._lock = threading.Lock()
        self._dirty = False
        self._closed = False

    # -- event intake -----------------------------------------------------

    def handle(self, event: _events.RunEvent) -> None:
        with self._lock:
            kind = event.kind
            if kind == "run_started":
                total = event.data.get("pairs_total")
                if isinstance(total, int):
                    self.total_pairs = total
            elif kind == "shard_dispatched":
                self.shards_total = (self.shards_total or 0) + 1
            elif kind == "shard_heartbeat":
                done = event.data.get("pairs_done", 0)
                if isinstance(done, int):
                    self._pairs_done[event.shard] = done
                self._workers[event.pid] = event.shard
            elif kind == "shard_completed":
                self.shards_done += 1
                pairs = event.data.get("pairs")
                if isinstance(pairs, int):
                    self._pairs_done[event.shard] = pairs
                self._workers[event.pid] = None
            else:
                return
            self._dirty = True
            self._maybe_draw()

    # -- drawing ----------------------------------------------------------

    def _status_line(self) -> str:
        done = sum(self._pairs_done.values())
        elapsed = max(time.monotonic() - self._started, 1e-9)
        rate = done / elapsed
        parts = []
        if self.label:
            parts.append(self.label)
        if self.shards_total:
            parts.append(f"shards {self.shards_done}/{self.shards_total}")
        if self.total_pairs:
            parts.append(f"pairs {done}/{self.total_pairs}")
        else:
            parts.append(f"pairs {done}")
        parts.append(f"{rate:,.0f}/s")
        if self.total_pairs and rate > 0 and done <= self.total_pairs:
            eta = (self.total_pairs - done) / rate
            parts.append(f"ETA {eta:.0f}s")
        active = sum(1 for shard in self._workers.values() if shard is not None)
        if self._workers:
            parts.append(f"active {active}/{len(self._workers)}")
        return " · ".join(parts)

    def _maybe_draw(self, force: bool = False) -> None:
        now = time.monotonic()
        if self._closed or (not force and now - self._last_draw < REDRAW_INTERVAL_S):
            return
        self._last_draw = now
        self._dirty = False
        try:
            self.stream.write("\r\x1b[2K" + self._status_line())
            self.stream.flush()
        except Exception:
            self._closed = True  # a dead stream must not fail the run

    def close(self, final_line: Optional[str] = None) -> None:
        """Draw the final state, then clear the status line."""
        with self._lock:
            if self._closed:
                return
            if self._dirty:
                self._maybe_draw(force=True)
            try:
                self.stream.write("\r\x1b[2K")
                if final_line:
                    self.stream.write(final_line + "\n")
                self.stream.flush()
            except Exception:
                pass
            self._closed = True


# ---------------------------------------------------------------------------
# the post-hoc run report (``repro report``)
# ---------------------------------------------------------------------------

_BAR_WIDTH = 24


def _format_span_tree(spans: List[Dict]) -> List[str]:
    """Aggregate span records by dotted path into an indented tree.

    Worker processes replay the same phases (one ``route_pairs`` span per
    shard), so identical paths aggregate: the tree shows call count and
    total seconds per path, children indented under parents in first-seen
    order.
    """
    order: List[str] = []
    totals: Dict[str, List[float]] = {}
    for record in spans:
        path = record.get("path", record.get("name", ""))
        if path not in totals:
            totals[path] = [0, 0.0]
            order.append(path)
        totals[path][0] += 1
        totals[path][1] += float(record.get("duration_s", 0.0))
    # Parents complete after their children, so re-order parents first.
    order.sort(key=lambda path: path.split("."))
    lines = []
    for path in order:
        count, seconds = totals[path]
        depth = path.count(".")
        name = path.rsplit(".", 1)[-1]
        suffix = f" x{count}" if count > 1 else ""
        lines.append(f"  {'  ' * depth}{name:<{max(1, 32 - 2 * depth)}s} "
                     f"{seconds:8.3f}s{suffix}")
    return lines


def _shard_bar(duration: float, max_duration: float) -> str:
    if max_duration <= 0:
        return ""
    filled = max(1, round(_BAR_WIDTH * duration / max_duration))
    return "#" * filled


def render_run_report(manifest: Dict,
                      events: Optional[List[_events.RunEvent]] = None) -> str:
    """Render a recorded run (see :func:`repro.obs.events.read_run`) as text."""
    events = events or []
    lines: List[str] = []
    config = manifest.get("config", {})
    engine = manifest.get("engine", {})
    env = manifest.get("env", {})

    recipe = " ".join(f"{key}={value}" for key, value in config.items())
    lines.append(f"run: {manifest.get('command', '?')} {recipe}".rstrip())
    if engine:
        lines.append("engine: " + " ".join(
            f"{key}={value}" for key, value in engine.items()))
    if env:
        lines.append(
            f"env: python {env.get('python', '?')} on {env.get('platform', '?')}"
            f"/{env.get('machine', '?')} · {env.get('cpu_count', '?')} cpus")
    lines.append(f"duration: {manifest.get('duration_s', 0.0):.3f}s")

    report = manifest.get("report")
    if report:
        stretch = report.get("stretch", {})
        lines.append(
            f"result: {report.get('scheme', '?')} — "
            f"delivered {report.get('delivered')}/{report.get('pairs')}, "
            f"optimal {report.get('optimal')}/{report.get('pairs')}, "
            f"max stretch {stretch.get('max_stretch')}")

    spans = manifest.get("spans") or []
    if spans:
        lines.append("")
        lines.append("phases:")
        lines.extend(_format_span_tree(spans))

    shards = manifest.get("shards") or []
    lines.append("")
    lines.append("shards:")
    if shards:
        heartbeats: Dict[Optional[int], int] = {}
        for event in events:
            if event.kind == "shard_heartbeat":
                heartbeats[event.shard] = heartbeats.get(event.shard, 0) + 1
        # default= guards: a manifest can carry an empty or all-null shard
        # table (serial fallback, --record-run on a single-shard run) and
        # the report must render it, not die on min()/max().
        start0 = min(((s.get("started_at") or 0.0) for s in shards),
                     default=0.0)
        max_duration = max(((s.get("duration_s") or 0.0) for s in shards),
                           default=0.0)
        lines.append(f"  {'id':>4s} {'pid':>7s} {'pairs':>6s} {'srcs':>5s} "
                     f"{'hb':>4s} {'start':>8s} {'dur':>8s}")
        for info in shards:
            shard_id = info.get("shard")
            duration = info.get("duration_s") or 0.0
            offset = (info.get("started_at") or start0) - start0
            flag = " STRAGGLER" if info.get("straggler") else ""
            lines.append(
                f"  {shard_id!s:>4s} {info.get('pid')!s:>7s} "
                f"{info.get('pairs')!s:>6s} {info.get('sources')!s:>5s} "
                f"{heartbeats.get(shard_id, 0):>4d} {offset:>+7.3f}s "
                f"{duration:>7.3f}s  {_shard_bar(duration, max_duration)}{flag}")

        stragglers = manifest.get("stragglers") or {}
        flagged = stragglers.get("shards", [])
        lines.append(
            f"stragglers: {len(flagged)}/{len(shards)} shard(s) over "
            f"{stragglers.get('factor', _events.DEFAULT_STRAGGLER_FACTOR)}x "
            f"median ({stragglers.get('median_s', 0.0):.3f}s)"
            + (f" — shards {flagged}" if flagged else ""))
    else:
        lines.append("  none (serial run)")

    fallbacks = [event for event in events if event.kind == "fallback_triggered"]
    for event in fallbacks:
        lines.append(f"fallback: {event.data.get('reason', '?')} — "
                     f"{event.data.get('cause', '')}")

    metrics = manifest.get("metrics") or {}
    counters = metrics.get("counters") or {}
    if counters:
        lines.append("")
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:<48s} {counters[name]}")

    if events:
        lines.append("")
        by_kind: Dict[str, int] = {}
        for event in events:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        summary = ", ".join(f"{kind} x{count}"
                            for kind, count in sorted(by_kind.items()))
        lines.append(f"events: {len(events)} ({summary})")
    return "\n".join(lines)
