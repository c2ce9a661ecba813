"""Compiled query tables: evaluate a shard of pairs without the per-pair loop.

The per-pair referee calls :meth:`RoutingScheme.route` once per
(source, target) pair; every hop is a Python ``local_decision`` with dict
lookups and header objects.  This module compiles a **built** scheme once
into flat numpy int arrays and then walks an entire shard of pairs, one
vectorized step per packet decision.

Compilation (:func:`compile_query`) resolves ports through a
sorted-adjacency CSR over the scheme's graph (``adj_indptr`` /
``adj_next`` / ``adj_key``) — ports are 1-based ranks into each node's
sorted neighbor list (exactly :class:`repro.routing.model.PortMap`), so
``adj_next[adj_indptr[u] + port - 1]`` resolves any forwarded port — and
edge keys through an ``(n, n + 1)`` arc-key matrix.  It produces what
the one walk (:func:`_walk`) reads:

* **tree-routing**, **cowen** and **destination-table**: dense ``t*n +
  u`` next-hop and edge-key arrays (``dt_next`` / ``dt_key``), one
  gather per decision.  Their headers are the target's label, written
  at the source and never rewritten, so each decision depends on (node,
  target) alone and is made once, at compile time:

  - a destination table (:class:`DestinationTableScheme`) is the tree
    store's parent rows it holds, laid end to end: row ``t`` is the tree
    rooted at ``t``, so its entry ``u`` is u's next hop toward t;
  - tree routing (:class:`TreeRoutingScheme`) runs the heavy-path
    decision (DFS intervals, parent/heavy hops, the target's light-port
    label) over all n² cells, in blocks of :data:`BLOCK_PAIRS`;
  - Cowen (:class:`CowenScheme`) runs it over every landmark tree,
    each target's cell in its landmark's tree, then writes the direct
    cluster/landmark entries over their cells, their next hops gathered
    from the parent rows the scheme holds, as a destination table's are.

  Tree and Cowen tables also keep each target's label DFS number
  (``hdr_dfs``, -1 for a target without a label).  The price is n²
  decisions per compile, even when a sampled run walks a few pairs,
  and 16 bytes per cell (4.2 MB at n = 512, 151 MB at n = 3,072);
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
  not exist, a premature tree delivery: a cell holding
  :data:`_REPLAY`), an endpoint outside the compiled tables, a caller's
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
from repro.routing.tree_routing import TreeRoutingScheme

__all__ = [
    "CompiledQuery",
    "compile_query",
    "evaluate_shard",
    "numpy_available",
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

#: Pairs evaluated per block of a shard, and (node, target) cells decided
#: per block of a tree or Cowen compile: bounds the ~30 block-sized
#: temporaries and the per-pair lists, whatever the shard or graph size.
BLOCK_PAIRS = 16384

#: Stretches decided in key space.  A preferred path is simple, so its
#: k-th power weighs as a walk of k(n - 1) <= 4n + 8 edges for k <= 4:
#: within the codec's hop budget, where keys embed the order and combine
#: exactly.
KEY_STRETCH = 4

#: "No heavy child" sentinel: larger than any DFS number, so the heavy
#: interval test ``hdfs <= target_dfs <= hend`` can never pass.
_NO_DFS = 1 << 40

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

    # Sorted-adjacency CSR == the PortMap's port numbering: position
    # ``adj_indptr[u] + port - 1`` is the neighbor behind ``port`` at u.
    adj_indptr = [0]
    adj_next: List[int] = []
    weights = []
    attr = scheme.attr
    for u in nodes:
        for v in sorted(graph.neighbors(u)):
            adj_next.append(node_index[v])
            weights.append(graph[u][v][attr])
        adj_indptr.append(len(adj_next))
    adj_keys = codec.encode(weights)
    if adj_keys is None:
        return None
    adjacency = {
        "adj_indptr": _np.asarray(adj_indptr, dtype=_np.int64),
        "adj_next": _np.asarray(adj_next, dtype=_np.int64),
        "adj_key": _np.asarray(adj_keys, dtype=_np.int64),
    }

    compiled = compile_kind(scheme, nodes, node_index, adjacency)
    if compiled is None:
        return None
    kind, arrays = compiled
    for array in arrays.values():
        array.flags.writeable = False
    return CompiledQuery(kind=kind, nodes=nodes, node_index=node_index,
                         codec=codec, arrays=arrays)


def _arc_keys(adjacency):
    """The ``(n, n + 1)`` arc-key matrix: ``[u, v]`` holds the edge key of
    arc ``(u, v)``, -1 off every edge.  Column ``n`` is -1 throughout, so
    a ``v`` of -1 (no node, or one off the graph) reads "no arc" too."""
    indptr = adjacency["adj_indptr"]
    n = indptr.size - 1
    arc_key = _np.full((n, n + 1), -1, dtype=_np.int64)
    arc_key[_np.repeat(_np.arange(n), _np.diff(indptr)),
            adjacency["adj_next"]] = adjacency["adj_key"]
    return arc_key


def _parent_hops(scheme, adjacency, cells):
    """The next hop and edge key of each ``t*n + u`` cell of *cells*, for
    a scheme that forwards on the tree store's parent rows.

    u's next hop toward t is its parent in the tree rooted at t, -1 for
    none, gathered from the rows; its key comes from the arc-key matrix,
    -1 for no hop or one off every edge.
    """
    parents = _np.asarray(scheme._parent_rows, dtype=_np.int64)
    hops = parents.ravel()[cells]
    return hops, _arc_keys(adjacency)[cells % parents.shape[1], hops]


def _port_hops(ports, base, adjacency):
    """The (next node, edge key) behind each port; port 0 is none
    (-1, 0).  *base* holds each port's node's ``adj_indptr`` entry."""
    adj_next = adjacency["adj_next"]
    has = ports > 0
    if not adj_next.size:
        return _np.full(ports.size, -1, dtype=_np.int64), _np.zeros_like(ports)
    pos = _np.where(has, base + ports - 1, 0)
    return (_np.where(has, adj_next[pos], -1),
            _np.where(has, adjacency["adj_key"][pos], 0))


def _tree_columns(trees, adjacency) -> Dict[str, "object"]:
    """The decision's columns of heavy-path trees, stacked: entry ``k*n +
    i`` is node ``i`` in ``trees[k]`` (a
    :class:`~repro.routing.tree_routing.HeavyPathTree`), its parent and
    heavy hops resolved through the sorted adjacency."""
    def column(name):
        return _np.array([getattr(tree, name) for tree in trees],
                         dtype=_np.int64).ravel()

    dfs = column("dfs")
    heavy_port = column("heavy_port")
    base = _np.tile(adjacency["adj_indptr"][:-1], len(trees))
    pnext, pkey = _port_hops(column("parent_port"), base, adjacency)
    hnext, hkey = _port_hops(heavy_port, base, adjacency)
    ldepth = _np.fromiter(
        map(len, chain.from_iterable(tree.labels for tree in trees)),
        dtype=_np.int64, count=dfs.size)
    return {"t_dfs": dfs, "t_iend": column("end"),
            "t_hdfs": _np.where(heavy_port > 0, dfs + 1, _NO_DFS),
            "t_hend": column("heavy_end"), "t_pnext": pnext, "t_pkey": pkey,
            "t_hnext": hnext, "t_hkey": hkey, "t_ldepth": ldepth}


def _label_csr(seqs):
    """Per-target light-port sequences as a CSR ``(indptr, ports)``."""
    indptr = _np.zeros(len(seqs) + 1, dtype=_np.int64)
    _np.cumsum(list(map(len, seqs)), out=indptr[1:])
    flat = _np.fromiter(chain.from_iterable(seqs), dtype=_np.int64,
                        count=int(indptr[-1]))
    return indptr, flat


def _tree_table(columns, adjacency, hdr_base, hdr_dfs, labels):
    """Tree routing's decision at every ``t*n + u`` cell, as dense arrays.

    *columns* are :func:`_tree_columns`' stacked trees.  Target ``t`` is
    routed in the tree whose columns start at ``hdr_base[t]``, toward its
    label there: DFS number ``hdr_dfs[t]`` and light ports ``labels[t]``.
    A cell the reference would raise on — a delivery, a root asked for a
    foreign DFS number, a malformed label or port — holds
    :data:`_REPLAY`.  The cells are decided in blocks of
    :data:`BLOCK_PAIRS`.  Returns the ``dt_next``/``dt_key`` arrays and
    *hdr_dfs*.
    """
    adj_indptr = adjacency["adj_indptr"]
    adj_next = adjacency["adj_next"]
    adj_key = adjacency["adj_key"]
    t_dfs = columns["t_dfs"]
    t_iend = columns["t_iend"]
    t_hdfs = columns["t_hdfs"]
    t_hend = columns["t_hend"]
    t_pnext = columns["t_pnext"]
    t_pkey = columns["t_pkey"]
    t_hnext = columns["t_hnext"]
    t_hkey = columns["t_hkey"]
    t_ldepth = columns["t_ldepth"]
    lp_indptr, lp_port = _label_csr(labels)
    n = hdr_base.size
    cells = n * n
    dt_next = _np.empty(cells, dtype=_np.int64)
    dt_key = _np.empty(cells, dtype=_np.int64)
    for start in range(0, cells, BLOCK_PAIRS):
        stop = min(start + BLOCK_PAIRS, cells)
        tgt, here = _np.divmod(_np.arange(start, stop, dtype=_np.int64), n)
        flat = hdr_base[tgt] + here
        own_dfs = t_dfs[flat]
        target_dfs = hdr_dfs[tgt]
        inner_deliver = target_dfs == own_dfs
        in_interval = (own_dfs <= target_dfs) & (target_dfs <= t_iend[flat])
        up = ~in_interval
        heavy = (in_interval & ~inner_deliver
                 & (t_hdfs[flat] <= target_dfs) & (target_dfs <= t_hend[flat]))
        light = in_interval & ~inner_deliver & ~heavy

        depth = t_ldepth[flat]
        seq_start = lp_indptr[tgt]
        seq_len = lp_indptr[tgt + 1] - seq_start
        bad_label = light & (depth >= seq_len)
        light_ok = light & ~bad_label
        if lp_port.size:
            lpos = seq_start + _np.minimum(depth,
                                           _np.maximum(seq_len - 1, 0))
            port = lp_port[_np.minimum(lpos, lp_port.size - 1)]
        else:
            port = _np.zeros(here.size, dtype=_np.int64)
        apos = adj_indptr[here] + port - 1
        bad_port = light_ok & ((port < 1) | (apos >= adj_indptr[here + 1]))
        if adj_next.size:
            apos = _np.clip(apos, 0, adj_next.size - 1)
            light_next = adj_next[apos]
            light_key = adj_key[apos]
        else:
            bad_port = bad_port | light_ok
            light_next = _np.full(here.size, -1, dtype=_np.int64)
            light_key = _np.zeros(here.size, dtype=_np.int64)

        tree_next = _np.where(up, t_pnext[flat],
                              _np.where(heavy, t_hnext[flat], light_next))
        anomaly = (inner_deliver | (up & (t_pnext[flat] < 0))
                   | bad_label | bad_port)
        dt_next[start:stop] = _np.where(anomaly, _REPLAY, tree_next)
        dt_key[start:stop] = _np.where(up, t_pkey[flat],
                                       _np.where(heavy, t_hkey[flat],
                                                 light_key))
    return {"dt_next": dt_next, "dt_key": dt_key, "hdr_dfs": hdr_dfs}


def _compile_tree(scheme: TreeRoutingScheme, nodes, node_index, adjacency):
    tree = scheme._heavy_paths
    if tree.index != node_index:
        return None
    columns = _tree_columns([tree], adjacency)
    # A node's label is its DFS number in the one tree: -1 off the tree.
    return "tree", _tree_table(columns, adjacency,
                               _np.zeros(len(nodes), dtype=_np.int64),
                               columns["t_dfs"], tree.labels)


def _compile_cowen(scheme: CowenScheme, nodes, node_index, adjacency):
    n = len(nodes)
    landmarks = sorted(scheme.landmarks)
    trees = [scheme._landmark_trees[landmark] for landmark in landmarks]
    if trees[0].index != node_index:   # one index, shared by every tree
        return None

    # Direct entries: one per (node, cluster-or-landmark target) cell.
    direct = [scheme.clusters[u] | scheme.landmarks for u in nodes]
    sizes = list(map(len, direct))
    targets = _np.fromiter(map(node_index.__getitem__, chain.from_iterable(direct)),
                           dtype=_np.int64, count=sum(sizes))
    sources = _np.repeat(_np.arange(n, dtype=_np.int64), sizes)
    cells = (targets * n + sources)[sources != targets]
    hops, keys = _parent_hops(scheme, adjacency, cells)
    if (keys < 0).any():   # a hop off every edge, or none (-1)
        return None

    # Every other cell takes the landmark leg: tree routing in the
    # target's landmark tree (a flat-array base offset), toward its label
    # there.  A direct entry masks that decision, replays included.
    slot = {landmark: k for k, landmark in enumerate(landmarks)}
    slots = [slot[scheme.landmark_of[t]] for t in nodes]
    columns = _tree_columns(trees, adjacency)
    hdr_base = _np.asarray(slots, dtype=_np.int64) * n
    table = _tree_table(columns, adjacency, hdr_base,
                        columns["t_dfs"][hdr_base + _np.arange(n)],
                        [trees[k].labels[i] for i, k in enumerate(slots)])
    table["dt_next"][cells] = hops
    table["dt_key"][cells] = keys
    return "cowen", table


def _compile_destination(scheme: DestinationTableScheme, nodes, node_index,
                         adjacency):
    """Every cell's :func:`_parent_hops`: a cell without a next hop is
    :data:`_MISSING`, and one whose hop is off every edge is replayed."""
    if scheme._index != node_index:
        return None
    hops, keys = _parent_hops(scheme, adjacency,
                              _np.arange(len(nodes) ** 2, dtype=_np.int64))
    dt_next = _np.where(keys >= 0, hops, _np.where(hops < 0, _MISSING, _REPLAY))
    return "destination", {"dt_next": dt_next, "dt_key": _np.maximum(keys, 0)}


def _compile_pair(scheme: PairTableScheme, nodes, node_index, adjacency):
    """Every node's entries, sorted by ``(u*n + s)*n + t`` code.

    Each entry's port resolves through the scheme's own
    :class:`~repro.routing.model.PortMap`, as the route loop resolves
    it; a port the map does not know is replayed.  A final sentinel code
    ``n**3``, above every real one, keeps each lookup in range.
    """
    n = len(nodes)
    ports = scheme.ports
    arc_key = _arc_keys(adjacency)
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
    if _np is None:
        count_query_fallback("numpy-missing", pairs=len(pairs))
        return None
    # The scheme's tables encode its own algebra's keys: an equal algebra
    # (the identity the oracle cache keys on) reads them the same way.
    if _algebra_key(algebra) != _algebra_key(scheme.algebra):
        count_query_fallback("algebra-mismatch", pairs=len(pairs))
        return None
    tables = compile_query(scheme)
    if tables is None:
        count_query_fallback("uncompilable", pairs=len(pairs))
        return None

    note_batch_shard(len(pairs))
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


def _walk_pairs(tables, s_arr, t_arr):
    """Walk the index pairs ``(s_arr, t_arr)``, ``-1`` marking an endpoint
    off the compiled tables.

    Returns per-pair ``(status, realized key, stranding node, hops)``
    arrays; the hop count is ``-1`` where the route would raise.
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
    _walk(tables, s_arr, t_arr, status, rkey, fail, steps)
    return status, rkey, fail, steps


def _key_stretch(combine, pref, realized):
    """Definition 3 in key space, for pairs with preferred keys *pref*.

    Returns the per-k counts of pairs whose minimal stretch is exactly k,
    k = 1 .. :data:`KEY_STRETCH`, and the mask of pairs unresolved there:
    the first k with ``realized <= pref^k``, where ``pref^1 = pref`` and
    ``pref^k = combine(pref^(k-1), pref)``.
    """
    pending = _np.ones(pref.size, dtype=bool)
    power = pref
    counts = []
    for k in range(1, KEY_STRETCH + 1):
        if k > 1:
            power = combine.combine(power, pref, _np.minimum)
        within = pending & (realized <= power)
        counts.append(int(_np.count_nonzero(within)))
        pending &= ~within
    return counts, pending


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
    counts, unresolved = _key_stretch(tables.codec.combine, pref[delivered],
                                      realized)
    decode = tables.codec.decode
    for i, key in zip(routed_idx[delivered][unresolved].tolist(),
                      realized[unresolved].tolist()):
        samples.append((preferred[i], decode(key)))

    # Failures and replays, in pair order.  A zero-limit capture keeps
    # replayed anomalies out of the sample.
    nodes = tables.nodes
    kind = tables.kind
    sampled = len(samples)
    with _obs_tracing.capture_traces(limit=0):
        for j in _np.flatnonzero(~delivered).tolist():
            i = int(routed_idx[j])
            s, t = pairs[i]
            state = status[j]
            if state == _HOP_LIMIT:
                failures.append((s, t, "hop limit exceeded"))
            elif state == _NO_ROUTE:
                stuck = nodes[fail[j]]
                if kind == "destination":
                    failures.append((s, t, f"no route from {stuck!r} to {t!r}"))
                else:
                    failures.append(
                        (s, t,
                         f"no pair entry for {(s, t)!r} at node {stuck!r}"))
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


def _walk(tables, s_arr, t_arr, status, rkey, fail, steps):
    """Walk every pending pair, one vectorized step per packet decision.

    Replicates ``RoutingScheme.route`` exactly: ``4n + 8`` decisions per
    pair, a delivery consuming one decision, pairs still in flight after
    the budget (forwarding loops too) marked ``hop limit exceeded``.  The
    step — one gather from the dense tables, or the pair table's search —
    gives each packet its next node and edge key; a :data:`_MISSING` next
    node strands the packet where it is (recorded in *fail*), a
    :data:`_REPLAY` one replays the pair.  The step at which a pair
    finishes is its hop count (*steps*).
    """
    n = tables.n
    with_source = tables.kind == "pair"
    step = (_pair_step if with_source else _destination_step)(tables)
    combine = tables.codec.combine.combine
    hdr_dfs = tables.arrays.get("hdr_dfs")

    alive = _np.nonzero(status == _PENDING)[0]
    if hdr_dfs is not None:
        # An unlabeled target would crash the reference at initial_header —
        # replay those pairs rather than guessing.
        bad_header = hdr_dfs[t_arr[alive]] < 0
        status[alive[bad_header]] = _ANOMALY
        alive = alive[~bad_header]

    cur = s_arr.copy()
    budget = 4 * n + 8
    for hop in range(budget):
        if alive.size == 0:
            return
        here = cur[alive]
        tgt = t_arr[alive]
        done = here == tgt
        if done.any():
            finished = alive[done]
            status[finished] = _DELIVERED
            steps[finished] = hop
            keep = ~done
            alive = alive[keep]
            here = here[keep]
            tgt = tgt[keep]
            if alive.size == 0:
                return
        src = s_arr[alive] if with_source else None
        nxt, key = step(here, tgt, src)
        stop = nxt < 0
        if stop.any():
            stuck = alive[stop]
            missing = nxt[stop] == _MISSING
            status[stuck] = _ANOMALY
            status[stuck[missing]] = _NO_ROUTE
            fail[stuck[missing]] = here[stop][missing]
            keep = ~stop
            alive = alive[keep]
            nxt = nxt[keep]
            key = key[keep]
        cur[alive] = nxt
        rkey[alive] = combine(rkey[alive], key, _np.minimum)
    status[alive] = _HOP_LIMIT
    steps[alive] = budget


def _destination_step(tables):
    """One gather from the dense ``t*n + u`` next-hop and edge-key arrays:
    the step of tree, Cowen and destination tables."""
    n = tables.n
    dt_next = tables.arrays["dt_next"]
    dt_key = tables.arrays["dt_key"]

    def step(here, tgt, src):
        flat = tgt * n + here
        return dt_next[flat], dt_key[flat]

    return step


def _pair_step(tables):
    """One ``searchsorted`` over the sorted ``(u*n + s)*n + t`` codes."""
    n = tables.n
    pt_code = tables.arrays["pt_code"]
    pt_next = tables.arrays["pt_next"]
    pt_key = tables.arrays["pt_key"]

    def step(here, tgt, src):
        want = (here * n + src) * n + tgt
        pos = _np.searchsorted(pt_code, want)
        nxt = _np.where(pt_code[pos] == want, pt_next[pos], _MISSING)
        return nxt, pt_key[pos]

    return step

