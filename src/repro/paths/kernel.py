"""Compiled path-engine kernel: CSR graphs and a Dial-style bucket frontier.

Every workload in the repo bottoms out in per-source preferred-path sweeps
(generalized Dijkstra, the shortest-widest solver), and the seed engines
paid networkx dict-of-dict edge lookups plus one ``heappush`` per
relaxation on every run.  This module factors the per-instance work out of
the per-source loop:

* :class:`CompiledGraph` flattens a networkx graph **once** per
  ``(graph, attr)`` into CSR-style index arrays — a node-index map,
  neighbor offsets (``indptr``), neighbor indices and edge-weight arrays —
  shared across all per-source runs.  It is pickle-safe (derived caches
  are dropped and rebuilt lazily), so the tree store
  (:class:`~repro.paths.store.PreferredWeightOracle`) ships it to
  spawn workers instead of recompiling per worker.
* :func:`kernel_tree` runs generalized Dijkstra over the compiled arrays,
  with a **bucketed (Dial-style) frontier** fast path for algebras whose
  comparison keys are small non-negative integers — hop count, integer
  shortest path, integer widest path, and lexicographic products of such
  components — declared via the
  :meth:`~repro.algebra.base.RoutingAlgebra.integer_key_bound` capability.
  Algebras without the capability (or instances whose key range is too
  wide to bucket profitably) fall back to the reference ``_HeapEntry``
  heap, still over the compiled arrays.

Results are **bit-identical** to the seed engine,
:func:`repro.paths.dijkstra._reference_tree`: within a bucket all weights
are algebra-equal (integer keys are an order embedding), so FIFO pop
order reproduces the heap's insertion-counter tie-break exactly.  A run
returns the tree as its weight and parent-index rows over the compiled
node index (:class:`KernelRun`), the tree store's one format.  The
kernel-vs-reference Hypothesis suite enforces equal weights and parents.

The kernel builds every single-root tree
(:func:`~repro.paths.dijkstra.preferred_path_tree`) and every tree the
store builds alone; the store's multi-source builds run the vectorized
sweeps of :mod:`repro.paths.batch` where the algebra admits a plan.
:func:`resolve_engine` reports which of the two those builds run.  See
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.algebra.base import PHI, RoutingAlgebra, is_phi
from repro.graphs.weighting import WEIGHT_ATTR
from repro.obs.metrics import enabled as _telemetry_enabled
from repro.obs.metrics import metrics as _telemetry

#: Bucket arrays never exceed this many buckets, whatever the instance size.
BUCKET_HARD_CAP = 1 << 22

#: Floor of the per-instance bucket limit (small graphs still bucket).
BUCKET_MIN_LIMIT = 4096

#: Per-instance limit scale: buckets may cost O(length) to scan, so the
#: length must stay within a constant factor of the sweep's O(n + m) work.
BUCKET_EDGE_FACTOR = 32


def resolve_engine() -> str:
    """The engine multi-source tree builds run: ``"batch"`` or ``"kernel"``.

    The tree store builds two or more missing trees with the vectorized
    sweeps of :mod:`repro.paths.batch` whenever numpy imported and the
    algebra has a batch plan, and with this module's kernel otherwise.
    So this reports ``"batch"`` where numpy imported, ``"kernel"`` where
    it did not; a store's ``stats()["path_engine"]`` names the engines
    its own builds ran.
    """
    from repro.paths.batch import numpy_available

    return "batch" if numpy_available() else "kernel"


def node_ranks(nodes) -> Dict[object, int]:
    """A deterministic total rank over *nodes* for heap tie-breaking.

    Uses the nodes' native sort order when the set is mutually comparable
    (preserving the historical ``(key, node)`` heap tie-break exactly) and
    falls back to ``(type name, repr)`` order otherwise, so heterogeneous
    node sets get a deterministic order instead of a ``TypeError``.
    """
    nodes = list(nodes)
    try:
        ordered = sorted(nodes)
    except TypeError:
        ordered = sorted(nodes, key=lambda node: (type(node).__name__, repr(node)))
    return {node: rank for rank, node in enumerate(ordered)}


class _HeapEntry:
    """Adapter giving heapq a strict order over algebra weights.

    The algebra's memoized ``comparison_key`` is applied once per push, so
    every heap sift compares precomputed key objects (one ``cmp`` call, at
    most two ``leq`` evaluations) instead of re-deriving the order from the
    raw weights.  Ties in ⪯ break on the insertion counter, keeping the pop
    order deterministic.
    """

    __slots__ = ("key", "weight", "counter", "node")

    def __init__(self, key, weight, counter, node):
        self.key = key
        self.weight = weight
        self.counter = counter
        self.node = node

    def __lt__(self, other):
        if self.key < other.key:
            return True
        if other.key < self.key:
            return False
        return self.counter < other.counter


@dataclass(frozen=True)
class KernelStats:
    """Counters from one per-source kernel run.

    ``relaxations`` counts candidate path weights formed (edges scanned
    toward unsettled nodes), ``frontier_pushes`` counts frontier
    insertions (heap pushes or bucket appends — one per successful
    relaxation), ``stale_pops`` counts popped entries skipped because the
    node was already settled or the entry was superseded by a better
    push.  ``bucket_engaged`` says whether the Dial-style bucket frontier
    ran; ``buckets`` is the planned bucket-array length (0 on heap runs).
    """

    engine: str
    relaxations: int
    frontier_pushes: int
    stale_pops: int
    bucket_engaged: bool
    buckets: int = 0


@dataclass(frozen=True)
class _BucketPlan:
    """A validated Dial-frontier plan for one (compiled graph, algebra)."""

    length: int
    edge_keys: List[int]
    key_fn: Callable


@dataclass(frozen=True)
class KernelRun:
    """One compiled per-source sweep: ``weight[i]`` is the preferred weight
    to node index ``i`` and ``parent[i]`` its parent's index, ``PHI`` and
    -1 at the root and at unreachable nodes."""

    weight: Tuple
    parent: Tuple[int, ...]
    stats: KernelStats


class CompiledGraph:
    """A CSR-style view of a weighted (di)graph for one weight attribute.

    ``nodes[i]`` is the node object at index ``i`` (in ``graph.nodes()``
    order), ``node_index`` its inverse, and the out-edges of node ``i``
    occupy positions ``indptr[i]:indptr[i+1]`` of the parallel
    ``indices`` (neighbor index) and ``weights`` (edge weight) arrays —
    in the graph's adjacency iteration order, so compiled runs visit
    neighbors exactly as the reference engine does.  ``phi``-weighted
    edges (untraversable by definition) are dropped at compile time.

    Pickle-safe: derived state (bucket plans, node ranks, the ``scratch``
    memo other path engines stash per-instance arrays in) is dropped on
    pickling and rebuilt lazily, so shipping a compiled graph to a spawn
    worker costs only the index arrays.

    The compiled view is a snapshot — mutating the source graph after
    compilation is not reflected.  The tree store, which caches one,
    patches it or drops it when an edge changes.
    """

    __slots__ = ("attr", "directed", "nodes", "node_index", "indptr",
                 "indices", "weights", "scratch", "_plans", "_ranks")

    def __init__(self, attr, directed, nodes, node_index, indptr, indices,
                 weights):
        self.attr = attr
        self.directed = directed
        self.nodes = nodes
        self.node_index = node_index
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.scratch: Dict = {}
        self._plans: Dict = {}
        self._ranks: Optional[List[int]] = None

    def __getstate__(self):
        return (self.attr, self.directed, self.nodes, self.node_index,
                self.indptr, self.indices, self.weights)

    def __setstate__(self, state):
        (self.attr, self.directed, self.nodes, self.node_index,
         self.indptr, self.indices, self.weights) = state
        self.scratch = {}
        self._plans = {}
        self._ranks = None

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        """Stored directed arcs (an undirected edge contributes two)."""
        return len(self.indices)

    def ranks(self) -> List[int]:
        """Per-index deterministic node rank (see :func:`node_ranks`)."""
        if self._ranks is None:
            by_node = node_ranks(self.nodes)
            self._ranks = [by_node[node] for node in self.nodes]
        return self._ranks

    def patch_weight(self, u, v, weight) -> bool:
        """Patch the stored weight of edge ``(u, v)`` in place.

        Returns ``True`` when the CSR arrays now reflect the new weight
        (derived caches — bucket plans, engine scratch — are invalidated,
        since both were computed from the old weight array).  Returns
        ``False`` when an in-place patch cannot represent the change and
        the holder must recompile: the arc is absent from the arrays
        (``phi``-weighted at compile time, or no such edge) or the new
        weight is ``phi`` (dropping an arc changes the array shape).
        Undirected graphs patch both stored arcs or neither.
        """
        if is_phi(weight):
            return False
        arcs = [(u, v)] if self.directed or u == v else [(u, v), (v, u)]
        positions = []
        for tail, head in arcs:
            tail_index = self.node_index.get(tail)
            head_index = self.node_index.get(head)
            if tail_index is None or head_index is None:
                return False
            for pos in range(self.indptr[tail_index],
                             self.indptr[tail_index + 1]):
                if self.indices[pos] == head_index:
                    positions.append(pos)
                    break
            else:
                return False
        for pos in positions:
            self.weights[pos] = weight
        self.scratch.clear()
        self._plans.clear()
        return True

    def bucket_limit(self) -> int:
        """Largest bucket-array length worth allocating for this instance."""
        scaled = BUCKET_EDGE_FACTOR * (len(self.nodes) + len(self.indices))
        return min(BUCKET_HARD_CAP, max(BUCKET_MIN_LIMIT, scaled))

    def bucket_plan(self, algebra: RoutingAlgebra) -> Optional[_BucketPlan]:
        """The Dial-frontier plan for *algebra*, or None when ineligible.

        Eligibility: the algebra declares monotonicity (pops must come in
        non-decreasing key order for the advancing cursor to be exact),
        declares an integer key bound for paths of up to ``n - 1`` edges,
        every compiled edge weight maps into ``[0, bound)``, and the
        bucket range — tightened to ``(n - 1) * max_edge_key + 1`` using
        the capability's subadditivity contract — fits the instance's
        :meth:`bucket_limit`.  Decisions are memoized per algebra object.
        """
        cached = self._plans.get(algebra)
        if cached is None:
            cached = self._make_bucket_plan(algebra) or False
            self._plans[algebra] = cached
        return cached or None

    def _make_bucket_plan(self, algebra: RoutingAlgebra) -> Optional[_BucketPlan]:
        if algebra.declared_properties().monotone is not True:
            return None
        max_hops = max(1, len(self.nodes) - 1)
        bound = algebra.integer_key_bound(max_hops)
        if bound is None or bound < 1:
            return None
        key_fn = algebra.integer_key_fn(max_hops)
        edge_keys: List[int] = []
        max_edge_key = 0
        for weight in self.weights:
            key = key_fn(weight)
            if (not isinstance(key, int) or isinstance(key, bool)
                    or key < 0 or key >= bound):
                return None
            if key > max_edge_key:
                max_edge_key = key
            edge_keys.append(key)
        length = min(bound, max_hops * max_edge_key + 1)
        if length > self.bucket_limit():
            return None
        return _BucketPlan(length=length, edge_keys=edge_keys, key_fn=key_fn)


def compile_graph(graph, attr: str = WEIGHT_ATTR) -> CompiledGraph:
    """Flatten *graph* into a :class:`CompiledGraph` for weight *attr*.

    One O(n + m) pass; digraphs compile their out-edges.  The adjacency
    iteration order of the source graph is preserved, which is what keeps
    compiled runs' insertion-counter tie-breaks identical to the
    reference engine's.
    """
    nodes = list(graph.nodes())
    node_index = {node: index for index, node in enumerate(nodes)}
    directed = graph.is_directed()
    neighbors = graph.successors if directed else graph.neighbors
    indptr = [0]
    indices: List[int] = []
    weights: List[object] = []
    for node in nodes:
        adjacency = graph[node]
        for neighbor in neighbors(node):
            weight = adjacency[neighbor][attr]
            if is_phi(weight):
                continue
            indices.append(node_index[neighbor])
            weights.append(weight)
        indptr.append(len(indices))
    return CompiledGraph(attr, directed, nodes, node_index, indptr, indices,
                         weights)


def kernel_tree(compiled: CompiledGraph, algebra: RoutingAlgebra,
                root) -> KernelRun:
    """Generalized Dijkstra from *root* over the compiled arrays.

    Picks the bucketed frontier when :meth:`CompiledGraph.bucket_plan`
    accepts the algebra; otherwise runs the reference-heap algorithm over
    the compiled arrays.  Both paths reproduce the reference engine's
    weights and parents exactly, as read-only rows (:class:`KernelRun`).
    """
    root_index = compiled.node_index[root]
    plan = compiled.bucket_plan(algebra)
    if plan is not None:
        weight, parent, stats = _bucket_tree(compiled, algebra, root_index,
                                             plan)
    else:
        weight, parent, stats = _heap_tree(compiled, algebra, root_index)
    return KernelRun(weight=tuple(weight), parent=tuple(parent), stats=stats)


def _bucket_tree(compiled, algebra, root, plan):
    """The Dial-style frontier: integer buckets instead of a heap.

    Entries land in ``buckets[integer_key(weight)]`` and are popped by an
    advancing cursor, FIFO within a bucket.  Within a bucket all weights
    are algebra-equal (integer keys are an order embedding), so FIFO
    reproduces the heap's insertion-counter tie-break; monotonicity
    guarantees no push ever lands behind the cursor.  A popped entry is
    stale iff its weight object is no longer the node's current label —
    replacements require a strict improvement, so object identity is an
    exact staleness test.
    """
    indptr, indices, weights = compiled.indptr, compiled.indices, compiled.weights
    n = len(compiled.nodes)
    combine = algebra.combine_finite
    lt = algebra.lt
    key_of = plan.key_fn
    edge_keys = plan.edge_keys
    weight: List = [PHI] * n
    parent = [-1] * n
    settled = bytearray(n)
    buckets: List[Optional[list]] = [None] * plan.length
    relaxations = 0
    pushes = 0
    stale = 0

    settled[root] = 1
    for edge in range(indptr[root], indptr[root + 1]):
        v = indices[edge]
        if v == root:
            continue  # a loop at the root: the root keeps no label
        w = weights[edge]
        relaxations += 1
        current = weight[v]
        if current is PHI or lt(w, current):
            weight[v] = w
            parent[v] = root
            key = edge_keys[edge]
            bucket = buckets[key]
            if bucket is None:
                buckets[key] = bucket = []
            bucket.append((v, w))
            pushes += 1

    cursor = 0
    while cursor < len(buckets):
        bucket = buckets[cursor]
        if not bucket:
            cursor += 1
            continue
        position = 0
        while position < len(bucket):
            u, w = bucket[position]
            position += 1
            if settled[u] or weight[u] is not w:
                stale += 1
                continue
            settled[u] = 1
            for edge in range(indptr[u], indptr[u + 1]):
                v = indices[edge]
                if settled[v]:
                    continue
                relaxations += 1
                candidate = combine(w, weights[edge])
                if is_phi(candidate):
                    continue
                current = weight[v]
                if current is PHI or lt(candidate, current):
                    weight[v] = candidate
                    parent[v] = u
                    key = key_of(candidate)
                    if key >= len(buckets):
                        buckets.extend([None] * (key + 1 - len(buckets)))
                    target = buckets[key]
                    if target is None:
                        buckets[key] = target = []
                    target.append((v, candidate))
                    pushes += 1
        buckets[cursor] = None
        cursor += 1

    stats = KernelStats(engine="bucket", relaxations=relaxations,
                        frontier_pushes=pushes, stale_pops=stale,
                        bucket_engaged=True, buckets=plan.length)
    return weight, parent, stats


def _heap_tree(compiled, algebra, root):
    """The reference-heap algorithm over the compiled arrays."""
    indptr, indices, weights = compiled.indptr, compiled.indices, compiled.weights
    n = len(compiled.nodes)
    combine = algebra.combine_finite
    lt = algebra.lt
    keyfn = algebra.comparison_key()
    weight: List = [PHI] * n
    parent = [-1] * n
    settled = bytearray(n)
    counter = itertools.count()
    heap: List[_HeapEntry] = []
    relaxations = 0
    pushes = 0
    stale = 0

    settled[root] = 1
    for edge in range(indptr[root], indptr[root + 1]):
        v = indices[edge]
        if v == root:
            continue  # a loop at the root: the root keeps no label
        w = weights[edge]
        relaxations += 1
        current = weight[v]
        if current is PHI or lt(w, current):
            weight[v] = w
            parent[v] = root
            heapq.heappush(heap, _HeapEntry(keyfn(w), w, next(counter), v))
            pushes += 1

    while heap:
        entry = heapq.heappop(heap)
        u = entry.node
        if settled[u] or weight[u] is not entry.weight:
            stale += 1
            continue
        settled[u] = 1
        w = entry.weight
        for edge in range(indptr[u], indptr[u + 1]):
            v = indices[edge]
            if settled[v]:
                continue
            relaxations += 1
            candidate = combine(w, weights[edge])
            if is_phi(candidate):
                continue
            current = weight[v]
            if current is PHI or lt(candidate, current):
                weight[v] = candidate
                parent[v] = u
                heapq.heappush(
                    heap, _HeapEntry(keyfn(candidate), candidate,
                                     next(counter), v))
                pushes += 1

    stats = KernelStats(engine="heap", relaxations=relaxations,
                        frontier_pushes=pushes, stale_pops=stale,
                        bucket_engaged=False)
    return weight, parent, stats


def emit_stats(stats: KernelStats) -> None:
    """Record one run's counters on the telemetry registry (when enabled).

    Counter names (all tagged ``engine=bucket|heap|reference``):
    ``path_engine.runs``, ``path_engine.relaxations``,
    ``path_engine.heap_pushes``, ``path_engine.stale_pops``; plus the
    untagged ``path_engine.bucket_engaged`` counting bucket-frontier
    runs.  See ``docs/PERFORMANCE.md`` for semantics.
    """
    if not _telemetry_enabled():
        return
    registry = _telemetry()
    engine = stats.engine
    registry.counter("path_engine.runs", engine=engine).inc()
    registry.counter("path_engine.relaxations", engine=engine).inc(
        stats.relaxations)
    registry.counter("path_engine.heap_pushes", engine=engine).inc(
        stats.frontier_pushes)
    registry.counter("path_engine.stale_pops", engine=engine).inc(
        stats.stale_pops)
    if stats.bucket_engaged:
        registry.counter("path_engine.bucket_engaged").inc()
