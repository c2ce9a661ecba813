"""Vectorized multi-source batch engine over the compiled CSR arrays.

PR 5's :mod:`repro.paths.kernel` flattened every ``(graph, attr)`` into
CSR arrays, but the sweep itself remained one Python loop per source.
This module removes that loop for **integer-keyed algebras with a key
combine** (the
:meth:`~repro.algebra.base.RoutingAlgebra.integer_key_combine`
capability — shortest-path, min-hop, usable-path, widest-path, and
lexicographic products of them such as widest-shortest and
shortest-widest path): *batches* of sources run through one
numpy-vectorized Dial/Bellman-Ford sweep, with distances as integer
matrices (one lane per source), frontiers as masks, and per-lane
parent/weight matrices decoded back to weight objects only at the end.

Bit-identity with the PR 5 kernel
---------------------------------

The kernel settles nodes in non-decreasing key order, FIFO within a key
(its buckets, or its heap's insertion-counter tie-break), and labels
each node with strict-improvement tie-breaks.  The batch sweep
reproduces both exactly, per lane:

* **windows** — the sweep settles key *windows* ``[L, L + step)`` in
  increasing order, where ``step`` is the smallest raise any compiled
  edge can give a key (:meth:`~repro.algebra.base.KeyCombine.step`).
  No relaxation from inside a window can land inside it, so a window's
  nodes settle at once, in (key, push rank) order within each lane —
  the kernel's pop order.  Shortest path has step 1 (one key per
  window); widest-shortest path has the smallest shortest-path edge
  weight times widest path's key base;
* **waves** — a step of 0 (widest path, usable path: an edge may leave a
  key unchanged) settles one key per window in *waves* ordered by push
  rank.  Wave ``j``'s relaxations generate wave ``j+1`` exactly like the
  entries appended to the kernel's in-scan bucket, so wave order *is*
  the kernel's FIFO order;
* **events** — each wave expands its nodes' CSR rows into one flat
  event array whose index order equals the kernel's scan order (settle
  order major, CSR edge order minor), and forms the candidate keys with
  the algebra's key combine.  Per relaxed target the sweep keeps the
  event minimizing ``(candidate key, event rank)`` — exactly the label
  the kernel's sequential strict-improvement scan leaves behind;
* **decode** — final labels are integer keys; the algebra's
  :meth:`~repro.algebra.base.RoutingAlgebra.integer_key_weight_fn`
  decodes them back to the weight objects the kernel would have
  produced (the capability promises ``decode(ik(w)) == w``; the plan
  additionally validates the promise on every compiled edge weight),
  once per distinct key, into the kernel's weight and parent rows.

Eligibility falls back **per algebra**: when the algebra declares no key
combine (:func:`~repro.algebra.base.key_codec`), is not monotone, its
keys could overflow int64, or numpy is absent, the tree store — the only
caller outside tests and benchmarks — runs the per-source kernel instead
(counted on ``path_engine.batch_fallbacks``).  Results are bit-identical
either way, which the batch-vs-reference Hypothesis suite enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

try:  # numpy is an optional extra (`pip install repro[fast]`)
    import numpy as _np
except Exception:  # pragma: no cover - exercised via monkeypatch in tests
    _np = None

from repro.algebra.base import PHI, KeyCombine, RoutingAlgebra, key_codec
from repro.obs.metrics import enabled as _telemetry_enabled
from repro.obs.metrics import metrics as _telemetry
from repro.paths.kernel import CompiledGraph

#: Lanes per vectorized sweep chunk; source lists longer than this are
#: processed in chunks (the last one ragged), bounding the dense
#: per-chunk matrices at ``batch_size x n`` entries.  128 keeps a
#: chunk's per-wave working set inside typical L2/L3 budgets — wider
#: chunks amortize no better and measurably thrash.
DEFAULT_BATCH_SIZE = 128

#: The int64 maximum: the unreachable sentinel of int64 label state,
#: above every key a plan admits (key bounds stop at 2^62).
_INF = (1 << 63) - 1

#: ``compiled.scratch`` key of the algebra-independent CSR int arrays.
_CSR_KEY = "batch-csr"

#: ``compiled.scratch`` key prefix of per-algebra batch plans.
_PLAN_KEY = "batch-plan"


def numpy_available() -> bool:
    """Whether the optional numpy dependency imported successfully."""
    return _np is not None


@dataclass(frozen=True)
class BatchPlan:
    """A validated vectorized-sweep plan for one (compiled graph, algebra).

    ``indptr``/``indices`` are the CSR arrays as ``int64`` numpy arrays
    (shared across algebras via ``compiled.scratch``), ``edge_keys`` the
    per-arc integer keys for this algebra, ``bound`` the exclusive key
    bound for paths of ``max_hops`` edges, ``combine`` the key combine,
    ``step`` the smallest raise any arc gives a key (the window width),
    ``max_lanes`` the widest chunk whose packed ``(key, event rank)``
    pairs fit int64, and ``decode`` the key -> weight reconstruction.
    """

    bound: int
    step: int
    max_lanes: int
    max_hops: int
    indptr: "object"
    indices: "object"
    edge_keys: "object"
    combine: KeyCombine
    decode: Callable[[int], object]


@dataclass(frozen=True)
class BatchStats:
    """Counters from one multi-source batch sweep.

    ``relaxations`` counts candidate keys formed (edges scanned toward
    unsettled nodes — the same quantity the kernel counts),
    ``improvements`` counts label updates that survived the per-target
    reduction (the kernel additionally counts improvements later
    overwritten within one bucket, so its ``frontier_pushes`` is an
    upper bound of this), ``levels`` counts settled key windows summed
    over chunks (one per distinct key when the step is 0 or 1).
    """

    sources: int
    chunks: int
    levels: int
    relaxations: int
    improvements: int


def batch_plan(compiled: CompiledGraph, algebra: RoutingAlgebra
               ) -> Optional[BatchPlan]:
    """The vectorized-sweep plan for *algebra*, or None when ineligible.

    Eligibility: numpy importable, the algebra is left-associative and
    declares monotonicity (keys never fall along a path, so windows
    settle in order), :func:`~repro.algebra.base.key_codec` accepts it
    (key bound, key combine and decode, keys within int64), every
    compiled edge weight round-trips through its key, and one lane's
    packed ``(key, event rank)`` pairs fit int64.  Decisions are
    memoized per algebra object in ``compiled.scratch``, which
    :meth:`~repro.paths.kernel.CompiledGraph.patch_weight` invalidates
    together with the kernel's own bucket plans.
    """
    if _np is None:
        return None
    cached = compiled.scratch.get((_PLAN_KEY, algebra))
    if cached is not None:
        return cached or None
    plan = _make_batch_plan(compiled, algebra)
    compiled.scratch[(_PLAN_KEY, algebra)] = plan if plan is not None else False
    return plan


def _make_batch_plan(compiled, algebra):
    if (algebra.is_right_associative
            or algebra.declared_properties().monotone is not True):
        return None
    max_hops = max(1, len(compiled.nodes) - 1)
    codec = key_codec(algebra, max_hops)
    if codec is None:
        return None
    keys = codec.encode(compiled.weights)
    if keys is None:
        return None
    csr = compiled.scratch.get(_CSR_KEY)
    if csr is None:
        csr = (_np.asarray(compiled.indptr, dtype=_np.int64),
               _np.asarray(compiled.indices, dtype=_np.int64))
        compiled.scratch[_CSR_KEY] = csr
    edge_keys = _np.asarray(keys, dtype=_np.int64)
    # A chunk's event ranks stay below ``lanes * (arcs + 1)`` and its keys
    # below the bound, so packing a (key, rank) pair into one int64 is
    # exact for up to ``max_lanes`` lanes; a plan that cannot run even one
    # lane is refused (the kernel computes on Python ints instead).
    max_lanes = ((1 << 63) - 1) // (codec.bound * (int(edge_keys.size) + 1))
    if max_lanes < 1:
        return None
    step = int(codec.combine.step(edge_keys).min()) if edge_keys.size else 0
    return BatchPlan(bound=codec.bound, step=step, max_lanes=max_lanes,
                     max_hops=max_hops, indptr=csr[0], indices=csr[1],
                     edge_keys=edge_keys, combine=codec.combine,
                     decode=codec.decode)


def count_fallback() -> None:
    """Record one multi-source build that fell back from the batch engine
    to the per-source kernel."""
    if _telemetry_enabled():
        _telemetry().counter("path_engine.batch_fallbacks").inc()


def batch_trees(compiled: CompiledGraph, algebra: RoutingAlgebra,
                roots: Sequence, plan: Optional[BatchPlan] = None,
                batch_size: int = DEFAULT_BATCH_SIZE
                ) -> Tuple[List[tuple], List[tuple]]:
    """Vectorized sweeps from every root; kernel-identical rows per root.

    Roots are processed in chunks of *batch_size* lanes (the tail chunk
    ragged; no wider than the plan's ``max_lanes``); each chunk shares
    one window/wave loop, so the per-window numpy work amortizes across
    its lanes.  Returns ``(weight rows, parent rows)``, one of each per
    root in *roots* order, equal to :func:`~repro.paths.kernel.kernel_tree`'s
    for the same root.

    Raises ``ValueError`` when the instance has no batch plan — callers
    decide the fallback (see :func:`batch_plan`).
    """
    if plan is None:
        plan = batch_plan(compiled, algebra)
    if plan is None:
        raise ValueError(
            f"no batch plan for {algebra.name!r} on this instance; "
            f"check batch_plan() before calling batch_trees()"
        )
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    root_indices = [compiled.node_index[root] for root in roots]
    width = min(batch_size, plan.max_lanes)
    n = len(compiled.nodes)
    ints = _np.arange(n + 1).astype(object)
    ints[n] = -1  # what index -1 (no parent) gathers
    decoded = {}
    weight_rows: List[tuple] = []
    parent_rows: List[tuple] = []
    chunks = 0
    levels = 0
    relaxations = 0
    improvements = 0
    for start in range(0, len(root_indices), width):
        chunk = root_indices[start:start + width]
        dist, parent, chunk_stats = _sweep_chunk(compiled, plan, chunk)
        chunks += 1
        levels += chunk_stats[0]
        relaxations += chunk_stats[1]
        improvements += chunk_stats[2]
        weight_rows += _weight_rows(plan, dist, parent, n, decoded)
        parent_rows += map(tuple, ints.take(parent).reshape(-1, n).tolist())
    _emit_batch_stats(BatchStats(sources=len(root_indices), chunks=chunks,
                                 levels=levels, relaxations=relaxations,
                                 improvements=improvements))
    return weight_rows, parent_rows


def _sweep_chunk(compiled, plan, roots) -> Tuple:
    """One dense multi-lane window sweep; returns (dist, parent, stats).

    ``dist[lane, v]`` is the integer key of lane ``lane``'s current label
    at node ``v`` (``key_inf`` = unreached), ``parent`` the predecessor
    index (-1 = none: the root and unreached nodes), and stats a
    ``(windows, relaxations, improvements)`` triple.

    All label state lives in flat ``lanes * n`` arrays indexed by
    ``lane * n + v`` so every gather/scatter is a 1-D ``take``/fancy
    assignment; ``frontier`` mirrors ``dist`` on unsettled nodes and
    ``key_inf`` on settled ones, maintained incrementally so window and
    wave selection never rebuild a masked copy of the distance matrix.
    """
    np = _np
    indptr, indices, edge_keys = plan.indptr, plan.indices, plan.edge_keys
    combine = plan.combine.combine
    n = len(compiled.nodes)
    lanes_count = len(roots)
    size = lanes_count * n
    # Event ranks are bounded by every lane scanning every arc once, so
    # most chunks can keep push ranks in int32 — halving both the radix
    # passes of the per-wave FIFO sort and the scatter/gather traffic.
    # Same idea for the target sort keys, bounded by lanes x nodes.
    rank_bound = lanes_count * (int(edge_keys.size) + 1)
    rank_dtype = np.int32 if rank_bound < (1 << 31) - 1 else np.int64
    group_dtype = np.int32 if size < (1 << 31) else np.int64
    # Label keys stay below the plan's bound; when that is far below
    # 2^31 the distance state narrows to int32 as well — with its own
    # unreached sentinel above every reachable key.  Candidates are
    # formed in int64 (the edge keys' width) before they are stored.
    key_inf = (1 << 31) - 1 if plan.bound < (1 << 30) else _INF
    key_dtype = np.int32 if key_inf < _INF else np.int64
    if edge_keys.size >= (1 << 31):  # pragma: no cover - 2^31+ arcs
        group_dtype = np.int64
    dist = np.full(size, key_inf, dtype=key_dtype)
    parent = np.full(size, -1, dtype=group_dtype)
    push_rank = np.zeros(size, dtype=rank_dtype)
    settled = np.zeros(size, dtype=bool)
    frontier = np.full(size, key_inf, dtype=key_dtype)
    root_arr = np.asarray(roots, dtype=np.int64)
    lane_base0 = np.arange(lanes_count, dtype=group_dtype) * n
    # Event arrays are built straight in the narrow index width: CSR
    # positions are bounded by the arc count, flat targets by the chunk
    # size, both covered by ``group_dtype``'s guard above.
    indices_idx = indices.astype(group_dtype)
    # Maps each CSR arc position back to its source node, so winner
    # parents are two tiny gathers instead of a per-event search.
    edge_src = np.repeat(np.arange(n, dtype=group_dtype), np.diff(indptr))
    # The root's "key" seeds candidates at 0, the identity of every key
    # combine: a one-edge path's key is the edge key.  The root stays
    # settled and never gets a parent, so its row entries stay PHI and -1 —
    # kernel semantics.
    root_flat = lane_base0 + root_arr
    dist[root_flat] = 0
    settled[root_flat] = True
    # Every arc raises a key by at least ``step``, so no relaxation from
    # a window [low, low + step) lands inside it: the whole window
    # settles in one wave.  A step of 0 (an edge may leave a key as it
    # is) settles one key per window, in waves.
    width = max(plan.step, 1)
    cascade = plan.step == 0
    counters = {"time": 0, "relaxations": 0, "improvements": 0}

    def relax(us, lane_base, base_keys):
        """Scan the CSR rows of the wave's nodes — in settle order, with
        label keys *base_keys* (one int when they all share it) — and
        fold the generated events into dist/parent/push_rank."""
        starts = indptr[us]
        degs = indptr[us + 1] - starts
        ends = np.cumsum(degs)
        total = int(ends[-1]) if ends.size else 0
        if total == 0:
            return
        # Event index == kernel scan order (settle-order major, CSR edge
        # order minor).
        pos = (np.repeat((starts - (ends - degs)).astype(group_dtype), degs)
               + np.arange(total, dtype=group_dtype))
        targets = np.repeat(lane_base, degs) + indices_idx.take(pos)
        # The kernel counts every edge scanned toward an unsettled node.
        counters["relaxations"] += total - int(
            np.count_nonzero(settled.take(targets)))
        if not isinstance(base_keys, int):
            base_keys = np.repeat(base_keys, degs)
        cand = combine(base_keys, edge_keys.take(pos), np.minimum)
        # Keep only candidates that beat the target's current label.
        # This is winner-preserving: the per-target winner minimizes
        # (candidate key, rank), so whenever any event improves, the
        # overall winner is itself improving; targets with no improving
        # event need no label (unreached targets hold the unreached
        # sentinel, so every live candidate beats them).  Settled
        # targets drop out for free: their final key is <= the window,
        # hence <= every candidate.
        rank = np.flatnonzero(cand < dist.take(targets))
        if rank.size == 0:
            counters["time"] += total
            return
        # Radix-stable sort by target; within a target's group events
        # stay in rank order.
        g = targets.take(rank)
        cand = cand.take(rank)
        order = np.argsort(g, kind="stable")
        gs = g.take(order)
        first = np.empty(gs.size, dtype=bool)
        first[0] = True
        np.not_equal(gs[1:], gs[:-1], out=first[1:])
        bounds = np.flatnonzero(first)
        # The label the kernel's sequential scan leaves on each target
        # is the event minimizing (candidate key, rank): later equal-key
        # candidates are not strict improvements, and intermediate worse
        # labels are overwritten.  Packing the pair into one int64 (the
        # plan's ``max_lanes`` keeps it exact) turns that into a single
        # segmented min over the sorted groups.
        packed = (cand * total + rank).take(order)
        group_min = np.minimum.reduceat(packed, bounds)
        # Every group holds at least one improving event, so its winner
        # improves: no post-hoc label comparison is needed.
        win_cand = group_min // total
        improved = gs.take(bounds)
        counters["improvements"] += improved.size
        dist[improved] = win_cand
        frontier[improved] = win_cand
        win_index = group_min % total
        parent[improved] = edge_src.take(pos.take(win_index))
        push_rank[improved] = counters["time"] + win_index
        counters["time"] += total

    relax(root_arr, lane_base0, 0)
    window_count = 0
    while True:
        low = int(frontier.min())
        if low >= key_inf:
            break
        window_count += 1
        while True:
            wave = np.flatnonzero(frontier < low + width)
            if wave.size == 0:
                break
            # Settle the window in the kernel's pop order, (key, push
            # rank): push ranks are globally monotone, so within one key
            # they are FIFO order.  The cross-lane interleave is
            # irrelevant to any per-lane result because lanes never
            # share events.
            if width == 1:
                # One key per window: push rank alone orders it.
                order = np.argsort(push_rank.take(wave), kind="stable")
                base_keys = low
            else:
                keys = frontier.take(wave)
                order = np.argsort((keys - low).astype(np.int64) * rank_bound
                                   + push_rank.take(wave), kind="stable")
                base_keys = keys.take(order)
            wave = wave.take(order).astype(group_dtype)
            settled[wave] = True
            frontier[wave] = key_inf
            lane_base = wave // n * n
            relax(wave - lane_base, lane_base, base_keys)
            if not cascade:
                break
            # A zero raise may have labeled new nodes at this same key:
            # they form the next wave, exactly like entries appended to
            # the kernel's in-scan bucket.
    return dist, parent, (window_count, counters["relaxations"],
                          counters["improvements"])


def _weight_rows(plan, dist, parent, n, decoded) -> List[tuple]:
    """One chunk's weight rows: ``PHI`` where ``parent`` is -1 (the root,
    unreached nodes), else the weight behind the label key.

    Keys decode once into *decoded*, which the chunks of one sweep share,
    so equal labels share one weight object, gathered into every row at
    C speed.
    """
    np = _np
    reached = parent >= 0
    keys, codes = np.unique(dist[reached], return_inverse=True)
    weights = []
    for key in keys.tolist():
        weight = decoded.get(key)
        if weight is None:
            weight = decoded[key] = plan.decode(key)
        weights.append(weight)
    weights.append(PHI)
    table = np.fromiter(weights, dtype=object, count=len(weights))
    slots = np.full(dist.size, len(weights) - 1, dtype=np.int64)
    slots[reached] = codes.ravel()
    return list(map(tuple, table.take(slots).reshape(-1, n).tolist()))


def _emit_batch_stats(stats: BatchStats) -> None:
    """Record one sweep's counters on the telemetry registry (when enabled).

    Counter names: ``path_engine.batch_sweeps``,
    ``path_engine.batch_sources``, ``path_engine.batch_levels``,
    ``path_engine.batch_relaxations``, ``path_engine.batch_improvements``
    — plus ``path_engine.runs{engine=batch}`` so per-source run totals
    stay comparable across engines.  See ``docs/PERFORMANCE.md``.
    """
    if not _telemetry_enabled():
        return
    registry = _telemetry()
    registry.counter("path_engine.runs", engine="batch").inc(stats.sources)
    registry.counter("path_engine.batch_sweeps").inc()
    registry.counter("path_engine.batch_sources").inc(stats.sources)
    registry.counter("path_engine.batch_levels").inc(stats.levels)
    registry.counter("path_engine.batch_relaxations").inc(stats.relaxations)
    registry.counter("path_engine.batch_improvements").inc(stats.improvements)
