"""Compiled query tables: evaluate a shard of pairs without the per-pair loop.

The per-pair referee calls :meth:`RoutingScheme.route` once per
(source, target) pair; every hop is a Python ``local_decision`` with dict
lookups and header objects.  This module compiles a **built** scheme once
into flat numpy int arrays and then walks an entire shard of pairs, one
vectorized step per packet decision.

Compilation (:func:`compile_query`) keys the graph's arcs into an
``(n, n + 1)`` arc-key matrix, and produces what the one walk
(:func:`_walk`) reads:

* **tree-routing**, **cowen** and **destination-table**: dense ``t*n +
  u`` next-hop and edge-key arrays (``dt_next`` / ``dt_key``), one
  gather per decision.  Their headers are the target's label, written
  at the source and never rewritten, so each decision depends on (node,
  target) alone and is made once, at compile time:

  - a destination table (:class:`DestinationTableScheme`) is the tree
    store's parent rows it holds, laid end to end: row ``t`` is the tree
    rooted at ``t``, so its entry ``u`` is u's next hop toward t;
  - tree routing (:class:`TreeRoutingScheme`) sends a packet along the
    tree path to its target, so its row ``t`` is filled from the tree's
    parent indexes, which the scheme keeps
    (:func:`_table_from_parents`); the heavy-path decision itself
    belongs to the router,
    :meth:`~repro.routing.tree_routing.HeavyPathTree.next_port`;
  - Cowen (:class:`CowenScheme`) fills row ``t`` the same way from the
    tree store's parent row of t's landmark, then writes the direct
    cluster entries over their cells, read from the targets' own rows.

  A tree or Cowen cell the walk cannot follow (an endpoint off the tree)
  holds :data:`_REPLAY`, never :data:`_MISSING`.  The price is n² cells
  per compile, even when a sampled run walks a few pairs, and 16 bytes
  per cell (4.2 MB at n = 512, 151 MB at n = 3,072);
* **pair-table** (:class:`PairTableScheme`): every node's entries as
  sorted ``(u*n + s)*n + t`` codes, one ``searchsorted`` per decision.

A built scheme's forwarding state is read-only
(:class:`~repro.frozen.FrozenTable`), so compiled tables memoized per
scheme instance cannot go stale: a changed table is a new scheme.  The
compiled arrays are read-only too: nothing writes them after
:func:`compile_query` returns, so threads and forked workers share them.

Realized weights ride the integer-key capability
(:func:`repro.algebra.base.key_codec`): the key of a walk is its edge
keys folded with the algebra's key combine (a sum for shortest path, a
maximum for widest path, one component at a time for a lexicographic
product), so the walk accumulates one int64 per pair.  Keys use the
route loop's hop budget (``4n + 8``), not the tree builders' ``n - 1``,
because a misrouted walk may take up to that many edges and the
order-embedding contract must hold for every realized weight; an algebra
whose keys at that budget could overflow int64 is not compiled.

The preferred side stays in key space too.  A shard is evaluated in
blocks of :data:`BLOCK_PAIRS` pairs, so the walk's pair-sized
temporaries live for one block, not for the whole shard.  Per block, the
tree store serves each source's run of pairs in one call, and each
distinct preferred weight is keyed once; the block then decides
optimality and stretch (Definition 3) with int64 array operations, and
decodes a weight object only for the few pairs it cannot settle there.

Bit-identity contract
---------------------

:func:`evaluate_shard` reproduces the referee,
:func:`repro.core.simulate._reference_shard`, exactly: the same
routed/delivered/optimal counts, the same failure tuples in the same
order (including exception message strings), and, folded with
``max_k`` by :func:`repro.core.simulate.route_shard`, the same
:class:`~repro.routing.stretch.StretchReport`.  Four mechanisms make
that safe:

* optimality compares integer keys (``key(realized) == key(preferred)``),
  exact because the key map is an order embedding;
* stretch is the first k with ``key(realized) <= key(preferred^k)``,
  where the power's key is the key combine folded k times — exact for
  k <= :data:`KEY_STRETCH`, because the k-th power of a simple
  preferred path weighs as a walk of k(n - 1) <= 4n + 8 edges.  Pairs
  still unresolved there come back as ``(preferred, realized)`` weights
  for :func:`~repro.routing.stretch.measure_stretch`;
* failure strings the vectorized walk can prove (``"hop limit
  exceeded"``, also for forwarding loops, and the table schemes'
  missing-entry messages) are emitted natively with the reference's
  exact f-strings;
* any pair the walk cannot replicate bit-for-bit — a condition the
  reference would raise on (an entry off every edge, a port that does
  not exist, an endpoint off a tree: a cell holding :data:`_REPLAY`),
  an endpoint outside the compiled tables, a caller's
  preferred weight off the key range — goes
  through the referee's per-pair verifier
  (:func:`repro.core.simulate._verify_pair`), reproducing even exotic
  exception behavior.

``tests/core/test_query_engine.py`` holds the walk to the referee pair
by pair: every pair the walk delivers has the referee's realized weight.

Observed runs take the same walk.  The step at which a pair finishes is
its hop count, so the ``evaluate.hops`` histogram is a ``bincount`` away
when telemetry is on; packet traces replay the first routed pairs a
trace capture has room for through ``scheme.route``, exactly the pairs
the referee would have traced, and count the rest as dropped.

Service reads take the walk too (:func:`walk_read`).  For that caller
only, the walk keeps each packet's node at every step, a steps × pairs
trail a read's few dozen pairs can afford, so a route answer's path and
hop count come from the walk, its realized weight from the walk's key
(decoded once per distinct key), and its optimality and stretch from
the same key-space rule.  The routing service's per-pair hop loop
replays the pairs the walk cannot take, as the referee's verifier does
here.  Evaluation blocks keep no trail.
"""

from __future__ import annotations

import weakref
from itertools import chain, groupby, repeat
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

try:  # numpy is the repro[fast] optional extra
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on minimal installs
    _np = None

from repro.algebra.base import PHI, KeyCodec, is_phi, key_codec
from repro.exceptions import ReproError, RoutingError
from repro.obs import tracing as _obs_tracing
from repro.obs.metrics import enabled as _telemetry_enabled
from repro.obs.metrics import metrics as _telemetry
from repro.paths.store import PreferredWeightOracle, _algebra_key
from repro.routing.cowen import CowenScheme
from repro.routing.destination_table import DestinationTableScheme
from repro.routing.pair_table import PairTableScheme
from repro.routing.query_engine import count_query_fallback, note_batch_shard
from repro.routing.stretch import minimal_stretch
from repro.routing.tree_routing import TreeRoutingScheme

__all__ = [
    "CompiledQuery",
    "compile_query",
    "evaluate_shard",
    "numpy_available",
    "walk_read",
]


def numpy_available() -> bool:
    """Whether the vectorized query engine can run at all."""
    return _np is not None


#: Per-pair walk outcome codes.
_PENDING = 0
_DELIVERED = 1
_HOP_LIMIT = 2
_ANOMALY = 3     # replay through scheme.route for exact reference behavior
_NO_ROUTE = 4    # table miss with a natively reproducible failure string

#: Order-key codes of a preferred weight without a key.
_UNREACHABLE = -1   # PHI: the pair is not routed
_UNKEYED = -2       # off the codec's key range: replay the pair

#: Step codes in place of a next node.
_MISSING = -1    # no table entry: the packet strands where it is
_REPLAY = -2     # an entry the walk cannot follow: replay the pair

#: Pairs evaluated per block of a shard: bounds the ~30 block-sized
#: temporaries and the per-pair lists, whatever the shard size.
BLOCK_PAIRS = 16384

#: Stretches decided in key space.  A preferred path is simple, so its
#: k-th power weighs as a walk of k(n - 1) <= 4n + 8 edges for k <= 4:
#: within the codec's hop budget, where keys embed the order and combine
#: exactly.
KEY_STRETCH = 4

#: compile results memoized per scheme instance.  A module-level weak map
#: (not a scheme attribute) so numpy arrays and key closures never ride a
#: scheme pickle to spawn workers.  ``False`` caches "not compilable".
_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class CompiledQuery:
    """Flat, read-only int arrays plus the key codec for one built scheme."""

    __slots__ = ("kind", "n", "nodes", "node_index", "codec", "arrays")

    def __init__(self, kind: str, nodes: List, node_index: Dict,
                 codec: KeyCodec, arrays: Dict):
        self.kind = kind
        self.n = len(nodes)
        self.nodes = nodes
        self.node_index = node_index
        self.codec = codec
        self.arrays = arrays


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


def compile_query(scheme) -> Optional["CompiledQuery"]:
    """Compile *scheme* for vectorized evaluation; ``None`` if ineligible.

    Eligibility: numpy present, an undirected graph, an algebra whose
    key codec (:func:`~repro.algebra.base.key_codec`) exists at the route
    loop's hop budget — a key bound, a key combine and a decode, with
    keys inside int64 — and round-trips every edge weight, and one of
    the four supported
    scheme families (exact type match — a subclass may override the
    routing function, and bit-identity trumps coverage).  Results are
    memoized per scheme instance; a built scheme's tables are read-only,
    so a memoized result never goes stale.
    """
    if _np is None:
        return None
    cached = _CACHE.get(scheme)
    if cached is not None:
        return cached or None
    try:
        compiled = _compile(scheme)
    except Exception:
        # Any structural surprise (exotic node types or table keys, key
        # functions raising) means "fall back", never "crash".
        compiled = None
    try:
        _CACHE[scheme] = compiled if compiled is not None else False
    except TypeError:  # pragma: no cover - unweakrefable scheme
        pass
    return compiled


def _compile(scheme) -> Optional["CompiledQuery"]:
    compile_kind = _COMPILERS.get(type(scheme))
    graph = scheme.graph
    if compile_kind is None or graph.is_directed():
        return None
    n = graph.number_of_nodes()
    if n == 0:
        return None
    codec = key_codec(scheme.algebra, 4 * n + 8)
    if codec is None:
        return None

    nodes = list(graph.nodes())
    node_index = {node: i for i, node in enumerate(nodes)}
    adj = dict(graph.adjacency())   # node -> {neighbour: edge data}
    attr = scheme.attr
    degrees: List[int] = []
    heads: List[int] = []
    weights = []
    for u in nodes:
        nbrs = adj[u]
        degrees.append(len(nbrs))
        heads += map(node_index.__getitem__, nbrs)
        weights += [data[attr] for data in nbrs.values()]
    # Each distinct weight is keyed (and round-tripped) once.  Equal
    # weights of different types (1, 1.0, True) would share a key they
    # need not have, so a graph mixing weight types is not compiled.
    if len(set(map(type, weights))) > 1:
        return None
    distinct = list(set(weights))
    keys = codec.encode(distinct)
    if keys is None:
        return None
    # ``arc_key[u, v]`` is the edge key of arc (u, v), -1 off every edge.
    # Column n is -1 throughout, so a v of -1 (no node, or one off the
    # graph) reads "no arc" too.
    arc_key = _np.full((n, n + 1), -1, dtype=_np.int64)
    arc_key[_np.repeat(_np.arange(n), degrees), heads] = _np.fromiter(
        map(dict(zip(distinct, keys)).__getitem__, weights),
        dtype=_np.int64, count=len(weights))

    compiled = compile_kind(scheme, nodes, node_index, arc_key)
    if compiled is None:
        return None
    kind, arrays = compiled
    for array in arrays.values():
        array.flags.writeable = False
    return CompiledQuery(kind=kind, nodes=nodes, node_index=node_index,
                         codec=codec, arrays=arrays)


def _cell_keys(hops, arc_key):
    """The edge key of every cell of an ``(n, n)`` next-hop array: row t
    holds ``arc_key[u, hops[t, u]]`` for every u, -1 for no hop (-1) or
    one off every edge."""
    return arc_key[_np.arange(hops.shape[0]), hops]


def _table_from_parents(trees, tree_of, arc_key, cells=(), cell_hops=()):
    """The dense ``t*n + u`` next-hop and edge-key arrays of routing in
    trees given as parent rows.

    Row ``k`` of *trees* is a tree as parent indexes (-1 at its root and
    off the tree), and target t is routed in tree ``tree_of[t]``, -1 for
    none.  A packet follows the tree path to its target, whatever node
    the tree is rooted at, so u's next hop toward t is its parent, unless
    u is an ancestor of t: then it is u's child on the path to t.  Row t
    starts as t's tree, and one walk from every target up to its root
    writes those children, a level per round.  The *cells* (flat ``t*n +
    u`` indexes) then take *cell_hops*.  A cell without a next hop (the
    root's own cell, and those of nodes and targets off their tree) or
    with one off every edge holds :data:`_REPLAY`.
    """
    n = tree_of.size
    hops = trees[tree_of]
    hops[tree_of < 0] = -1
    rows = child = _np.flatnonzero(tree_of >= 0)
    tree = tree_of[rows]
    for _ in range(n):
        up = trees[tree, child]
        climbing = up >= 0
        if not climbing.any():
            break
        rows, tree, child, up = (rows[climbing], tree[climbing],
                                 child[climbing], up[climbing])
        hops[rows, up] = child
        child = up
    hops.ravel()[_np.asarray(cells, dtype=_np.int64)] = cell_hops
    keys = _cell_keys(hops, arc_key)
    hops[keys < 0] = _REPLAY
    return {"dt_next": hops.ravel(),
            "dt_key": _np.maximum(keys, 0, out=keys).ravel()}


def _compile_tree(scheme: TreeRoutingScheme, nodes, node_index, arc_key):
    """The scheme's one tree, its parent indexes; a target off it is
    routed in none."""
    if scheme._heavy_paths.index != node_index:
        return None
    parents = _np.asarray(scheme._parents, dtype=_np.int64)
    tree_of = _np.where(parents >= 0, 0, -1)   # the root has no parent
    tree_of[node_index[scheme.root]] = 0
    return "tree", _table_from_parents(parents[None], tree_of, arc_key)


def _compile_cowen(scheme: CowenScheme, nodes, node_index, arc_key):
    """Every target's landmark leg, with its direct cluster entries over
    their cells.

    A landmark's tree is the tree store's parent row of the landmark,
    which the scheme holds.  A direct entry is u's parent in the tree
    rooted at the target: for a landmark target, that already is the
    cell of its tree; for a cluster target, it is read from the target's
    row at that cell alone.
    """
    if scheme._index != node_index:
        return None
    rows = scheme._parent_rows
    n = len(nodes)
    landmarks = sorted(scheme.landmarks)
    slot = {landmark: k for k, landmark in enumerate(landmarks)}
    trees = _np.fromiter(
        chain.from_iterable(rows[node_index[landmark]]
                            for landmark in landmarks),
        dtype=_np.int64, count=len(landmarks) * n).reshape(-1, n)
    tree_of = _np.fromiter(
        (slot[scheme.landmark_of[t]] for t in nodes), dtype=_np.int64,
        count=n)
    cells: List[int] = []
    cell_hops: List[int] = []
    for u, node in enumerate(nodes):
        for t in map(node_index.__getitem__, scheme.clusters[node]):
            if t != u:
                cells.append(t * n + u)
                cell_hops.append(rows[t][u])
    return "cowen", _table_from_parents(trees, tree_of, arc_key, cells,
                                        cell_hops)


def _compile_destination(scheme: DestinationTableScheme, nodes, node_index,
                         arc_key):
    """The scheme's parent rows laid end to end, read in one pass: a cell
    without a next hop (-1) is :data:`_MISSING`, and one whose hop is off
    every edge is replayed."""
    if scheme._index != node_index:
        return None
    rows = scheme._parent_rows
    n = len(rows)
    hops = _np.fromiter(chain.from_iterable(rows), dtype=_np.int64,
                        count=n * n).reshape(n, n)
    keys = _cell_keys(hops, arc_key)
    return "destination", {
        "dt_next": _np.where((keys < 0) & (hops >= 0), _REPLAY, hops).ravel(),
        "dt_key": _np.maximum(keys, 0).ravel()}


def _compile_pair(scheme: PairTableScheme, nodes, node_index, arc_key):
    """Every node's entries, sorted by ``(u*n + s)*n + t`` code.

    Each entry's port resolves through the scheme's own
    :class:`~repro.routing.model.PortMap`, as the route loop resolves
    it; a port the map does not know is replayed.  A final sentinel code
    ``n**3``, above every real one, keeps each lookup in range.
    """
    n = len(nodes)
    ports = scheme.ports
    entries = []
    for ui, u in enumerate(nodes):
        for (s, t), port in scheme._entries[u].items():
            code = (ui * n + node_index[s]) * n + node_index[t]
            try:
                hop = ports.neighbor(u, port)
            except RoutingError:
                entries.append((code, _REPLAY, 0))
                continue
            vi = node_index[hop]
            entries.append((code, vi, int(arc_key[ui, vi])))
    entries.append((n ** 3, _MISSING, 0))
    entries.sort()
    code, nxt, key = (_np.asarray(column, dtype=_np.int64)
                      for column in zip(*entries))
    return "pair", {"pt_code": code, "pt_next": nxt, "pt_key": key}


#: Per supported scheme type (exact match), its compiler.
_COMPILERS = {CowenScheme: _compile_cowen, TreeRoutingScheme: _compile_tree,
              DestinationTableScheme: _compile_destination,
              PairTableScheme: _compile_pair}


# ---------------------------------------------------------------------------
# vectorized evaluation
# ---------------------------------------------------------------------------


def evaluate_shard(algebra, scheme, oracle, pairs):
    """The compiled walk over *pairs*; ``None`` means "use the referee".

    Returns ``(routed, delivered, optimal, failures, stretch_counts,
    samples)``.  The counts and the failure tuples, in pair order, are
    the referee's.  The stretch (Definition 3) of the delivered pairs
    comes in two parts: ``stretch_counts[k - 1]`` pairs have a minimal
    stretch of exactly k, for k = 1 .. :data:`KEY_STRETCH`, decided in
    key space; ``samples`` holds ``(preferred, realized)`` weights for
    the rest, the pairs unresolved at :data:`KEY_STRETCH` and the walk's
    anomaly replays, for :func:`~repro.routing.stretch.measure_stretch`.

    A tree-store oracle serves each source's run of pairs in one
    :meth:`~repro.paths.store.PreferredWeightOracle.weights_from` call,
    which advances its lazy-oracle accounting by the pairs served; any
    other oracle is called once per pair, in pair order.  Pairs the walk
    cannot replicate bit-for-bit go through the referee's per-pair
    verifier.  The pairs are walked in blocks of :data:`BLOCK_PAIRS`;
    each block fills ``evaluate.hops`` when telemetry is on, and an
    active trace capture with its replayed sample.
    """
    tables = _tables(algebra, scheme, len(pairs))
    if tables is None:
        return None
    capture = _obs_tracing.active_capture()
    hops = (_telemetry().histogram("evaluate.hops", scheme=scheme.name)
            if _telemetry_enabled() else None)
    totals = _np.zeros(3 + KEY_STRETCH, dtype=_np.int64)
    failures: List[Tuple] = []
    samples: List[Tuple] = []
    for start in range(0, len(pairs), BLOCK_PAIRS):
        totals += _evaluate_block(
            algebra, scheme, tables, oracle, pairs[start:start + BLOCK_PAIRS],
            failures, samples, hops, capture)
    routed, delivered, optimal, *counts = totals.tolist()
    return routed, delivered, optimal, failures, tuple(counts), samples


def walk_read(scheme, oracle, pairs, max_k, replay) -> List[Optional[Tuple]]:
    """The compiled walk over one service read, each packet's path kept.

    *pairs* are ``(source, target)`` pairs of distinct nodes of the
    scheme's graph.  Returns one route per pair, as the per-pair hop loop
    gives it: ``(delivered, path, hops, preferred, realized, optimal,
    stretch, reason)``, or None where the preferred weight, read from the
    tree store's rows as :func:`evaluate_shard` reads it, is ``PHI``.

    The walk keeps each packet's node at every step, so the path and its
    hop count come from the walk, and the realized weight is the walk's
    key, decoded once per distinct key.  Optimality and a stretch up to
    :data:`KEY_STRETCH` come from the key-space rule the evaluation
    applies; :func:`~repro.routing.stretch.minimal_stretch` settles a
    larger one, up to *max_k*.  Every other routable pair is handed to
    ``replay(source, target, preferred)``, which returns its route: each
    anomaly, and all of them where the walk cannot run (no numpy, a
    scheme that does not compile).  Those are counted as
    :func:`evaluate_shard` counts them.  An active trace capture gets the
    routable pairs replayed through ``scheme.route``, in pair order.
    """
    sources = list(map(itemgetter(0), pairs))
    targets = list(map(itemgetter(1), pairs))
    preferred = _preferred_weights(oracle, sources, targets)
    routes: List = [None] * len(pairs)
    tables = _tables(scheme.algebra, scheme, len(pairs)) if pairs else None
    if tables is None:
        replays = [i for i, weight in enumerate(preferred) if not is_phi(weight)]
    else:
        replays = _read_routes(scheme, tables, preferred, sources, targets,
                               max_k, routes)
    capture = _obs_tracing.active_capture()
    if replays:
        # A zero-limit capture keeps the replays out of the sample, which
        # is traced below in pair order.
        with _obs_tracing.capture_traces(limit=0):
            for i in replays:
                routes[i] = replay(sources[i], targets[i], preferred[i])
    if capture is not None:
        _replay_traces(scheme, [pair for pair, weight in zip(pairs, preferred)
                                if not is_phi(weight)], capture)
    return routes


def _tables(algebra, scheme, pairs: int) -> Optional[CompiledQuery]:
    """The compiled tables the walk reads for *pairs* pairs of *scheme*,
    or None where it cannot run; either way counted."""
    if _np is None:
        count_query_fallback("numpy-missing", pairs=pairs)
        return None
    # The scheme's tables encode its own algebra's keys: an equal algebra
    # (the identity the oracle cache keys on) reads them the same way.
    if _algebra_key(algebra) != _algebra_key(scheme.algebra):
        count_query_fallback("algebra-mismatch", pairs=pairs)
        return None
    # Looked up per call: perfbench/spans.py wraps compile_query to time
    # the compiles.
    tables = compile_query(scheme)
    if tables is None:
        count_query_fallback("uncompilable", pairs=pairs)
        return None
    note_batch_shard(pairs)
    return tables


def _preferred_weights(oracle, sources, targets) -> List:
    """The preferred weight of every pair, in pair order."""
    if not isinstance(oracle, PreferredWeightOracle):
        return list(map(oracle, sources, targets))
    weights: List = []
    start = 0
    for source, run in groupby(sources):
        stop = start + len(tuple(run))
        weights += oracle.weights_from(source, targets[start:stop])
        start = stop
    return weights


def _order_keys(codec: KeyCodec, weights) -> "object":
    """The int64 order keys of *weights*, one lookup per distinct weight.

    A PHI weight keys as :data:`_UNREACHABLE`, and one outside the
    codec's key range (no int in ``[0, bound)``) as :data:`_UNKEYED`.
    """
    keys = {PHI: _UNREACHABLE}
    for weight in set(weights):
        if not is_phi(weight):
            key = codec.key(weight)
            keys[weight] = (key if type(key) is int and 0 <= key < codec.bound
                            else _UNKEYED)
    return _np.fromiter(map(keys.__getitem__, weights), dtype=_np.int64,
                        count=len(weights))


def _node_indexes(tables, nodes) -> "object":
    """The compiled index of every node in *nodes*, ``-1`` off the tables."""
    return _np.fromiter(map(tables.node_index.get, nodes, repeat(-1)),
                        dtype=_np.int64, count=len(nodes))


def _walk_pairs(tables, s_arr, t_arr, trail=None):
    """Walk the index pairs ``(s_arr, t_arr)``, ``-1`` marking an endpoint
    off the compiled tables.

    Returns per-pair ``(status, realized key, stranding node, hops)``
    arrays; the hop count is ``-1`` where the route would raise.  A
    *trail* list receives the packets' nodes, one array per step.
    """
    routed = s_arr.size
    status = _np.zeros(routed, dtype=_np.int8)
    rkey = _np.zeros(routed, dtype=_np.int64)
    steps = _np.full(routed, -1, dtype=_np.int64)
    fail = _np.full(routed, -1, dtype=_np.int64)
    # route() short-circuits source == target before any table lookup, so
    # the pair delivers with the empty walk even off-graph.
    same = s_arr == t_arr
    status[same] = _DELIVERED
    steps[same] = 0
    status[(~same) & ((s_arr < 0) | (t_arr < 0))] = _ANOMALY
    _walk(tables, s_arr, t_arr, status, rkey, fail, steps, trail)
    return status, rkey, fail, steps


def _key_stretch(combine, pref, realized):
    """Definition 3 in key space, for pairs with preferred keys *pref*.

    Returns each pair's minimal stretch k for k = 1 .. :data:`KEY_STRETCH`,
    0 where it is unresolved there: the first k with ``realized <=
    pref^k``, where ``pref^1 = pref`` and ``pref^k = combine(pref^(k-1),
    pref)``.
    """
    stretch = _np.zeros(pref.size, dtype=_np.int64)
    power = pref
    for k in range(1, KEY_STRETCH + 1):
        if k > 1:
            power = combine.combine(power, pref, _np.minimum)
        stretch[(stretch == 0) & (realized <= power)] = k
        if _np.count_nonzero(stretch) == stretch.size:
            break
    return stretch


def _no_route(kind, s, t, stuck) -> str:
    """The reference's message for a packet at *stuck* without a table
    entry (:data:`_NO_ROUTE`)."""
    if kind == "destination":
        return f"no route from {stuck!r} to {t!r}"
    return f"no pair entry for {(s, t)!r} at node {stuck!r}"


def _replay_traces(scheme, pairs, capture) -> None:
    """Trace the first *pairs* *capture* has room for; drop the rest."""
    for done, (s, t) in enumerate(pairs):
        if capture.limit is not None and len(capture.traces) >= capture.limit:
            capture.dropped += len(pairs) - done
            return
        try:
            scheme.route(s, t)
        except ReproError:
            pass  # the partial trace stays, as the referee's does


def _read_routes(scheme, tables, preferred, sources, targets, max_k,
                 routes) -> List[int]:
    """:func:`walk_read`'s walk: the route of every pair it takes, onto
    *routes*; returns the indexes of the routable pairs to replay."""
    pref_all = _order_keys(tables.codec, preferred)
    walked = _np.flatnonzero(pref_all >= 0)
    replays = _np.flatnonzero(pref_all == _UNKEYED).tolist()
    trail: List = []
    status, rkey, fail, steps = _walk_pairs(
        tables, _node_indexes(tables, sources)[walked],
        _node_indexes(tables, targets)[walked], trail)
    pref = pref_all[walked]
    optimal = (rkey == pref).tolist()
    stretch = _key_stretch(tables.codec.combine, pref, rkey).tolist()
    trail = _np.stack(trail, axis=1).tolist()
    nodes = tables.nodes
    decode = tables.codec.decode
    realized = {key: decode(key)
                for key in rkey[status == _DELIVERED].tolist()}
    for j, (i, state, key, hops) in enumerate(zip(
            walked.tolist(), status.tolist(), rkey.tolist(), steps.tolist())):
        if state == _DELIVERED:
            weight = realized[key]
            k = stretch[j]
            if not k:
                k = minimal_stretch(scheme.algebra, preferred[i], weight,
                                    max_k=max_k)
            elif k > max_k:
                k = None
            routes[i] = (True, tuple(map(nodes.__getitem__,
                                         trail[j][:hops + 1])),
                         hops, preferred[i], weight, optimal[j], k, "")
        elif state == _HOP_LIMIT:
            routes[i] = (False, tuple(map(nodes.__getitem__,
                                          trail[j][:hops + 1])),
                         hops, preferred[i], None, None, None,
                         "hop limit exceeded")
        elif state == _NO_ROUTE:
            routes[i] = (False, (), 0, preferred[i], None, None, None,
                         _no_route(tables.kind, sources[i], targets[i],
                                   nodes[fail[j]]))
        else:   # _ANOMALY
            count_query_fallback("pair-replay", pairs=1)
            replays.append(i)
    return sorted(replays)


def _evaluate_block(algebra, scheme, tables, oracle, pairs, failures,
                    samples, hops, capture):
    """:func:`evaluate_shard` over one block, onto *failures*/*samples*.

    Returns ``[routed, delivered, optimal]`` followed by the per-k stretch
    counts.  The hop counts go to the *hops* histogram and the replayed
    sample to *capture*, when given.
    """
    from repro.core.simulate import _verify_pair

    sources = list(map(itemgetter(0), pairs))
    targets = list(map(itemgetter(1), pairs))
    preferred = _preferred_weights(oracle, sources, targets)
    pref_all = _order_keys(tables.codec, preferred)
    routed_idx = _np.flatnonzero(pref_all != _UNREACHABLE)
    if routed_idx.size == 0:
        return [0] * (3 + KEY_STRETCH)
    pref = pref_all[routed_idx]
    status, rkey, fail, steps = _walk_pairs(
        tables, _node_indexes(tables, sources)[routed_idx],
        _node_indexes(tables, targets)[routed_idx])
    unkeyed = pref == _UNKEYED
    if unkeyed.any():   # a caller's oracle off the key range
        status[unkeyed] = _ANOMALY
        steps[unkeyed] = -1

    delivered = status == _DELIVERED
    realized = rkey[delivered]
    optimal = int(_np.count_nonzero(realized == pref[delivered]))
    stretch = _key_stretch(tables.codec.combine, pref[delivered], realized)
    counts = _np.bincount(stretch, minlength=KEY_STRETCH + 1)[1:].tolist()
    decode = tables.codec.decode
    for i, key in zip(routed_idx[delivered][stretch == 0].tolist(),
                      realized[stretch == 0].tolist()):
        samples.append((preferred[i], decode(key)))

    # Failures and replays, in pair order.  A zero-limit capture keeps
    # replayed anomalies out of the sample.
    nodes = tables.nodes
    sampled = len(samples)
    with _obs_tracing.capture_traces(limit=0):
        for j in _np.flatnonzero(~delivered).tolist():
            i = int(routed_idx[j])
            s, t = pairs[i]
            state = status[j]
            if state == _HOP_LIMIT:
                failures.append((s, t, "hop limit exceeded"))
            elif state == _NO_ROUTE:
                failures.append((s, t, _no_route(tables.kind, s, t,
                                                 nodes[fail[j]])))
            else:  # _ANOMALY: the referee's verifier, one pair
                count_query_fallback("pair-replay", pairs=1)
                pair_hops, pair_optimal = _verify_pair(
                    algebra, scheme, s, t, preferred[i], failures, samples)
                optimal += pair_optimal
                if pair_hops is not None:
                    steps[j] = pair_hops
    replayed = len(samples) - sampled   # the replays that delivered

    if hops is not None:
        counts_by_hop = _np.bincount(steps[steps >= 0])
        for value in _np.flatnonzero(counts_by_hop).tolist():
            hops.observe(value, int(counts_by_hop[value]))
    if capture is not None:
        _replay_traces(scheme, [pairs[i] for i in routed_idx.tolist()],
                       capture)
    return [routed_idx.size, realized.size + replayed, optimal] + counts


def _walk(tables, s_arr, t_arr, status, rkey, fail, steps, trail=None):
    """Walk every pending pair, one vectorized step per packet decision.

    Replicates ``RoutingScheme.route`` exactly: ``4n + 8`` decisions per
    pair, a delivery consuming one decision, pairs still in flight after
    the budget (forwarding loops too) marked ``hop limit exceeded``.  The
    step — one gather from the dense tables, or the pair table's search —
    gives each packet its next node and edge key; a :data:`_MISSING` next
    node strands the packet where it is (recorded in *fail*), a
    :data:`_REPLAY` one replays the pair.  The step at which a pair
    finishes is its hop count (*steps*).  A *trail* list gets every
    packet's node before the first step and after each, so a packet's
    path is its column of the first ``hops + 1`` arrays.
    """
    n = tables.n
    with_source = tables.kind == "pair"
    step = (_pair_step if with_source else _destination_step)(tables)
    combine = tables.codec.combine.combine

    alive = (status == _PENDING).nonzero()[0]
    # The packets in flight, packed: pair index, node, target, the part of
    # their table code that never changes (the step's ``base``) and the
    # key walked so far.
    here = s_arr[alive]
    tgt = t_arr[alive]
    base = here * n + tgt if with_source else tgt * n
    walked = _np.zeros(alive.size, dtype=_np.int64)
    if trail is not None:
        cur = s_arr.copy()
        trail.append(s_arr)
    budget = 4 * n + 8
    for hop in range(budget):
        done = here == tgt
        finished = alive[done]
        if finished.size:
            status[finished] = _DELIVERED
            steps[finished] = hop
            rkey[finished] = walked[done]
            keep = ~done
            alive, here, tgt, base, walked = (
                alive[keep], here[keep], tgt[keep], base[keep], walked[keep])
        if not alive.size:
            return
        nxt, key = step(here, base)
        stop = nxt < 0
        stuck = alive[stop]
        if stuck.size:
            missing = nxt[stop] == _MISSING
            status[stuck] = _ANOMALY
            status[stuck[missing]] = _NO_ROUTE
            fail[stuck[missing]] = here[stop][missing]
            keep = ~stop
            alive, nxt, key, tgt, base, walked = (
                alive[keep], nxt[keep], key[keep], tgt[keep], base[keep],
                walked[keep])
        here = nxt
        walked = combine(walked, key, _np.minimum)
        if trail is not None:
            cur[alive] = here
            trail.append(cur.copy())
    status[alive] = _HOP_LIMIT
    steps[alive] = budget
    rkey[alive] = walked


def _destination_step(tables):
    """One gather from the dense ``t*n + u`` next-hop and edge-key arrays:
    the step of tree, Cowen and destination tables.  A packet's ``base``
    is its target's row, ``t*n``."""
    dt_next = tables.arrays["dt_next"]
    dt_key = tables.arrays["dt_key"]

    def step(here, base):
        flat = base + here
        return dt_next[flat], dt_key[flat]

    return step


def _pair_step(tables):
    """One ``searchsorted`` over the sorted ``(u*n + s)*n + t`` codes.  A
    packet's ``base`` is its ``s*n + t``."""
    stride = tables.n ** 2
    pt_code = tables.arrays["pt_code"]
    pt_next = tables.arrays["pt_next"]
    pt_key = tables.arrays["pt_key"]

    def step(here, base):
        want = here * stride + base
        pos = _np.searchsorted(pt_code, want)
        nxt = _np.where(pt_code[pos] == want, pt_next[pos], _MISSING)
        return nxt, pt_key[pos]

    return step
