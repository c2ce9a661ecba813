"""In-memory span recorder and the patches that place spans at layer boundaries.

Spans are recorded from the benchmark's own code only: each public entry
point of a layer is replaced, where its caller looks the name up, by a
wrapper that opens a span around the original.  Nothing under ``src/``
changes, and ``repro.obs`` stays off (turning it on sends every pair to
the per-pair reference loop, which is a different program).

Per-pair calls (the oracle's ``__call__``, ``scheme.route``) are never
wrapped: hundreds of thousands of wrapped calls would measure the wrapper.

A span's self time is its duration minus the time its direct children
cover.  Aggregates (calls, total and self seconds, counters) are kept per
span name.  Forked pool workers inherit the patches; their aggregates go
to a shared anonymous mapping, one slot per worker, so the parent can add
them up after the pool is gone.  Each slot has one writer: the parent
assigns it just before the fork.
"""

from __future__ import annotations

import importlib
import mmap
import os
import struct
import time
from typing import Dict, List, Optional

#: Every span name and counter the benchmark records, in a fixed order
#: (the order indexes the shared worker slots).
SPANS = (
    "core.compiler.build_scheme",
    "paths.preferred_path_tree",
    "paths.compile_graph",
    "routing.tree_routing",
    "core.simulate.evaluate_scheme",
    "core.simulate.route_shard",
    "core.simulate.oracle_trees",
    "routing.compiled_query.evaluate_shard",
    "routing.compiled_query.compile_query",
    "routing.stretch.measure_stretch",
    "routing.memory.memory_report",
    "core.parallel.evaluate_sharded",
    "service.init",
    "service.wire",
    "service.route",
    "service.update",
)
COUNTERS = (
    "oracle_trees_built",
    "scheme_trees",
    "batch_pairs",
    "query_fallbacks",
)
_FIELDS = len(SPANS) * 3 + len(COUNTERS)
_SLOT_BYTES = 8 * _FIELDS
_WORKER_SLOTS = 16


class Tracer:
    """Spans and counts of one benchmark process, kept in memory.

    ``spans`` holds ``[name, start, end, parent, request]`` records of the
    parent process (``parent`` indexes ``spans``; ``request`` is the serve
    request id or None).  ``totals`` maps a span name to ``[calls,
    total_s, self_s]``; ``counts`` maps a counter name to its value.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.enabled = False
        self.request: Optional[int] = None
        self.spans: List[list] = []
        self._stack: List[list] = []
        self.totals: Dict[str, List[float]] = {name: [0, 0.0, 0.0]
                                               for name in SPANS}
        self.counts: Dict[str, int] = {name: 0 for name in COUNTERS}
        self._shared = mmap.mmap(-1, _SLOT_BYTES * _WORKER_SLOTS)
        self._next_slot = 0
        self._slot = -1
        os.register_at_fork(before=self._before_fork)

    # -- recording ---------------------------------------------------------

    def _before_fork(self) -> None:
        # Runs in the parent; the child inherits the slot it is given here.
        self._slot = self._next_slot % _WORKER_SLOTS
        self._next_slot += 1

    def open(self, name: str) -> Optional[list]:
        if not self.enabled:
            return None
        frame = [name, time.perf_counter(), 0.0, len(self.spans)]
        if os.getpid() == self.pid:
            parent = self._stack[-1][3] if self._stack else None
            self.spans.append([name, frame[1], None, parent, self.request])
        self._stack.append(frame)
        return frame

    def close(self, frame: Optional[list]) -> None:
        if frame is None:
            return
        end = time.perf_counter()
        self._stack.pop()
        name, start, child_s, index = frame
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        if os.getpid() == self.pid:
            self.spans[index][2] = end
            entry = self.totals[name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_s
        else:
            base = SPANS.index(name) * 3
            self._add_shared(base, (1.0, duration, duration - child_s))

    def count(self, name: str, value: int) -> None:
        if not self.enabled:
            return
        if os.getpid() == self.pid:
            self.counts[name] += value
        else:
            self._add_shared(len(SPANS) * 3 + COUNTERS.index(name), (value,))

    def _add_shared(self, field: int, values) -> None:
        offset = self._slot * _SLOT_BYTES + 8 * field
        for i, value in enumerate(values):
            at = offset + 8 * i
            (old,) = struct.unpack_from("d", self._shared, at)
            struct.pack_into("d", self._shared, at, old + value)

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            frame = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(frame)
        return traced

    # -- reading -----------------------------------------------------------

    def reset_workers(self) -> None:
        """Zero the worker slots (call before a run that forks workers)."""
        self._shared[:] = bytes(len(self._shared))
        self._next_slot = 0

    def worker_totals(self):
        """Worker-side ``(totals, counts)`` summed over every slot."""
        values = [0.0] * _FIELDS
        for slot in range(_WORKER_SLOTS):
            row = struct.unpack_from(f"{_FIELDS}d", self._shared,
                                     slot * _SLOT_BYTES)
            values = [a + b for a, b in zip(values, row)]
        totals = {name: values[3 * i:3 * i + 3]
                  for i, name in enumerate(SPANS)}
        base = 3 * len(SPANS)
        counts = {name: int(round(values[base + i]))
                  for i, name in enumerate(COUNTERS)}
        return totals, counts

    def snapshot(self):
        """A deep copy of the parent-side aggregates."""
        return ({name: list(entry) for name, entry in self.totals.items()},
                dict(self.counts))


def _oracle_ensure(tracer: Tracer, original):
    def ensure_sources(oracle, sources):
        frame = tracer.open("core.simulate.oracle_trees")
        before = oracle.trees_built
        try:
            return original(oracle, sources)
        finally:
            tracer.count("oracle_trees_built", oracle.trees_built - before)
            tracer.close(frame)
    return ensure_sources


def _query_evaluate(tracer: Tracer, original):
    def evaluate_shard(algebra, scheme, oracle, pairs):
        frame = tracer.open("routing.compiled_query.evaluate_shard")
        try:
            result = original(algebra, scheme, oracle, pairs)
        finally:
            tracer.close(frame)
        if result is None:
            tracer.count("query_fallbacks", 1)
        else:
            tracer.count("batch_pairs", len(pairs))
        return result
    return evaluate_shard


def _scheme_tree(tracer: Tracer, original):
    # The scheme modules' preferred_path_tree: the same span as the oracle's
    # trees, plus a counter, so trees per source can tell the two apart.
    traced = tracer.wrap(original, "paths.preferred_path_tree")

    def preferred_path_tree(*args, **kwargs):
        tracer.count("scheme_trees", 1)
        return traced(*args, **kwargs)
    return preferred_path_tree


#: ``(module, attribute, span name or wrapper factory)``: each public entry
#: point, patched where its caller looks it up.
PATCHES = (
    ("repro.core.compiler", "build_scheme", "core.compiler.build_scheme"),
    ("repro.routing.cowen", "preferred_path_tree", _scheme_tree),
    ("repro.routing.destination_table", "preferred_path_tree", _scheme_tree),
    ("repro.paths.dijkstra", "preferred_path_tree", "paths.preferred_path_tree"),
    ("repro.paths.dijkstra", "compile_graph", "paths.compile_graph"),
    ("repro.paths.kernel", "compile_graph", "paths.compile_graph"),
    ("repro.routing.cowen", "TreeRoutingScheme", "routing.tree_routing"),
    ("repro.core.simulate", "route_shard", "core.simulate.route_shard"),
    ("repro.core.parallel", "route_shard", "core.simulate.route_shard"),
    ("repro.core.simulate", "measure_stretch", "routing.stretch.measure_stretch"),
    ("repro.core.simulate", "memory_report", "routing.memory.memory_report"),
    ("repro.routing.compiled_query", "evaluate_shard", _query_evaluate),
    ("repro.routing.compiled_query", "compile_query",
     "routing.compiled_query.compile_query"),
    ("repro.core.parallel", "evaluate_sharded", "core.parallel.evaluate_sharded"),
    ("repro.core.simulate:PreferredWeightOracle", "ensure_sources", _oracle_ensure),
    ("repro.service.service:RoutingService", "route", "service.route"),
    ("repro.service.service:RoutingService", "update_weight", "service.update"),
    ("repro.service.service:RoutingService", "fail_link", "service.update"),
    ("repro.service.service:RoutingService", "restore_link", "service.update"),
)


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Patched:
    """Context manager: the layer entry points wrapped for *tracer*."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def __enter__(self):
        for path, attribute, how in PATCHES:
            owner = _owner(path)
            original = getattr(owner, attribute)
            if isinstance(how, str):
                replacement = self.tracer.wrap(original, how)
            else:
                replacement = how(self.tracer, original)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, replacement)
        self.tracer.enabled = True
        return self.tracer

    def __exit__(self, *exc):
        self.tracer.enabled = False
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved = []
        return False
