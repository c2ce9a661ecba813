"""Compiled query tables: evaluate a shard of pairs without the per-pair loop.

The reference evaluation loop calls :meth:`RoutingScheme.route` once per
(source, target) pair; every hop is a Python ``local_decision`` with dict
lookups and header objects.  This module compiles a **built** scheme once
into flat numpy int arrays and then walks an entire shard of pairs, one
vectorized step per packet decision.

Compilation (:func:`compile_query`) produces a sorted-adjacency CSR over
the scheme's graph (``adj_indptr`` / ``adj_next`` / ``adj_key``) — ports
are 1-based ranks into each node's sorted neighbor list (exactly
:class:`repro.routing.model.PortMap`), so ``adj_next[adj_indptr[u] +
port - 1]`` resolves any forwarded port — plus what each family's
per-decision step of the one walk (:func:`_walk`) reads:

* **tree-routing** (:class:`TreeRoutingScheme`): the per-node DFS
  interval labels, parent/heavy hops pre-resolved to (next node, edge
  key), light depths, and each target's label (DFS number + light-port
  sequence) as a CSR;
* **cowen** (:class:`CowenScheme`): the direct cluster/landmark entries
  as one sorted ``u*n + t`` key array with pre-resolved next hops, plus
  the tree-routing columns of every landmark tree stacked into flat
  ``(|L|, n)`` arrays and each target's header (landmark slot, tree DFS,
  light ports);
* **destination-table** (:class:`DestinationTableScheme`): dense
  ``t*n + u`` next-hop and edge-key arrays, one gather per decision;
* **pair-table** (:class:`PairTableScheme`): every node's entries as
  sorted ``(u*n + s)*n + t`` codes, one ``searchsorted`` per decision.

A built scheme's forwarding state is read-only
(:class:`~repro.frozen.FrozenTable`), so compiled tables memoized per
scheme instance cannot go stale: a changed table is a new scheme.

Realized weights ride the integer-key capability
(:func:`repro.algebra.base.key_codec`): the key of a walk is its edge
keys folded with the algebra's key combine (a sum for shortest path, a
maximum for widest path, one component at a time for a lexicographic
product), so the walk accumulates one int64 per pair and decodes to a
weight object only at emit.  Keys use the route loop's hop budget
(``4n + 8``), not the tree builders' ``n - 1``, because a misrouted walk
may take up to that many edges and the order-embedding contract must
hold for every realized weight; an algebra whose keys at that budget
could overflow int64 is not compiled.

A shard is evaluated in blocks of :data:`BLOCK_PAIRS` pairs, so the
walk's pair-sized temporaries live for one block, not for the whole
shard.

Bit-identity contract
---------------------

:func:`evaluate_shard` reproduces the reference loop exactly: the same
routed/delivered/optimal counts, the same failure tuples in the same
order (including exception message strings), and the same stretch samples
in pair order.  Three mechanisms make that safe:

* optimality compares integer keys (``key(realized) == key(preferred)``),
  exact because the key map is an order embedding;
* failure strings the vectorized walk can prove (``"hop limit
  exceeded"``, also for forwarding loops, and the table schemes'
  missing-entry messages) are emitted natively with the reference's
  exact f-strings;
* any pair the walk cannot replicate bit-for-bit — a condition the
  reference would raise on (an entry off every edge, a port that does
  not exist), an endpoint outside the compiled tables, a premature tree
  delivery — is replayed through ``scheme.route`` one pair at a time,
  reproducing even exotic exception behavior.

The engine only runs when telemetry is off and no packet-trace capture is
active (:mod:`repro.routing.query_engine` gates this): traces and
per-pair histograms need hop-level fidelity only the reference loop has.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

try:  # numpy is the repro[fast] optional extra
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on minimal installs
    _np = None

from repro.algebra.base import KeyCodec, is_phi, key_codec
from repro.exceptions import ReproError, RoutingError
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

#: Step codes in place of a next node.
_MISSING = -1    # no table entry: the packet strands where it is
_REPLAY = -2     # an entry the walk cannot follow: replay the pair

#: Pairs evaluated per block of a shard: bounds the walk's ~30 pair-sized
#: temporaries and the per-pair lists, whatever the shard size.
BLOCK_PAIRS = 16384

#: "No heavy child" sentinel: larger than any DFS number, so the heavy
#: interval test ``hdfs <= target_dfs <= hend`` can never pass.
_NO_DFS = 1 << 40

#: compile results memoized per scheme instance.  A module-level weak map
#: (not a scheme attribute) so numpy arrays and key closures never ride a
#: scheme pickle to spawn workers.  ``False`` caches "not compilable".
_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class CompiledQuery:
    """Flat int arrays plus the key codec for one built scheme."""

    __slots__ = ("kind", "n", "nodes", "node_index", "identity_decode",
                 "codec", "arrays")

    def __init__(self, kind: str, nodes: List, node_index: Dict,
                 identity_decode: bool, codec: KeyCodec, arrays: Dict):
        self.kind = kind
        self.n = len(nodes)
        self.nodes = nodes
        self.node_index = node_index
        self.identity_decode = identity_decode
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
    arcs: List[Tuple[int, int]] = []
    weights = []
    attr = scheme.attr
    for ui, u in enumerate(nodes):
        for v in sorted(graph.neighbors(u)):
            vi = node_index[v]
            arcs.append((ui, vi))
            adj_next.append(vi)
            weights.append(graph[u][v][attr])
        adj_indptr.append(len(adj_next))
    adj_keys = codec.encode(weights)
    if adj_keys is None:
        return None
    identity = all(type(weight) is int and weight == key
                   for weight, key in zip(weights, adj_keys))
    edge_key: Dict[Tuple[int, int], int] = dict(zip(arcs, adj_keys))

    arrays = {
        "adj_indptr": _np.asarray(adj_indptr, dtype=_np.int64),
        "adj_next": _np.asarray(adj_next, dtype=_np.int64),
        "adj_key": _np.asarray(adj_keys, dtype=_np.int64),
    }

    kind, kind_arrays = compile_kind(scheme, nodes, node_index, edge_key)
    arrays.update(kind_arrays)
    return CompiledQuery(kind=kind, nodes=nodes, node_index=node_index,
                         identity_decode=identity, codec=codec,
                         arrays=arrays)


def _tree_columns(tree_scheme: TreeRoutingScheme, nodes, node_index,
                  edge_key) -> Dict[str, "object"]:
    """Per-node walk columns of one tree scheme, parent/heavy pre-resolved."""
    n = len(nodes)
    dfs = _np.full(n, -1, dtype=_np.int64)
    iend = _np.full(n, -2, dtype=_np.int64)       # (dfs<=x<=iend) never holds
    hdfs = _np.full(n, _NO_DFS, dtype=_np.int64)
    hend = _np.full(n, -1, dtype=_np.int64)
    pnext = _np.full(n, -1, dtype=_np.int64)
    pkey = _np.zeros(n, dtype=_np.int64)
    hnext = _np.full(n, -1, dtype=_np.int64)
    hkey = _np.zeros(n, dtype=_np.int64)
    ldepth = _np.zeros(n, dtype=_np.int64)
    ports = tree_scheme.ports
    for node, info in tree_scheme._info.items():
        i = node_index[node]
        dfs[i] = info.dfs
        iend[i] = info.interval_end
        ldepth[i] = info.light_depth
        if info.parent_port is not None:
            j = node_index[ports.neighbor(node, info.parent_port)]
            pnext[i] = j
            pkey[i] = edge_key[(i, j)]
        if info.heavy_port is not None:
            j = node_index[ports.neighbor(node, info.heavy_port)]
            hnext[i] = j
            hkey[i] = edge_key[(i, j)]
            hdfs[i] = info.heavy_dfs
            hend[i] = info.heavy_end
    return {"dfs": dfs, "iend": iend, "hdfs": hdfs, "hend": hend,
            "pnext": pnext, "pkey": pkey, "hnext": hnext, "hkey": hkey,
            "ldepth": ldepth}


def _label_csr(labels: Dict, node_index, n):
    """Target labels as (dfs array, light-port CSR); dfs -1 = unlabeled."""
    hdr_dfs = _np.full(n, -1, dtype=_np.int64)
    seqs: List[Tuple[int, ...]] = [()] * n
    for node, (dfs_number, light_ports) in labels.items():
        i = node_index[node]
        hdr_dfs[i] = dfs_number
        seqs[i] = light_ports
    indptr = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum([len(seq) for seq in seqs], out=indptr[1:])
    flat = _np.asarray([port for seq in seqs for port in seq],
                       dtype=_np.int64)
    return hdr_dfs, indptr, flat


def _entry_columns(prefix: str, entries) -> Dict[str, "object"]:
    """Sorted ``(code, next node, edge key)`` entries as int64 columns."""
    entries.sort()
    return {f"{prefix}_{column}": _np.asarray([entry[i] for entry in entries],
                                              dtype=_np.int64)
            for i, column in enumerate(("code", "next", "key"))}


_TREE_COLS = ("dfs", "iend", "hdfs", "hend", "pnext", "pkey", "hnext",
              "hkey", "ldepth")


def _compile_tree(scheme: TreeRoutingScheme, nodes, node_index, edge_key):
    n = len(nodes)
    cols = _tree_columns(scheme, nodes, node_index, edge_key)
    hdr_dfs, lp_indptr, lp_port = _label_csr(scheme._labels, node_index, n)
    arrays = {f"t_{name}": cols[name] for name in _TREE_COLS}
    arrays.update(_entry_columns("direct", []))
    arrays.update({
        "hdr_base": _np.zeros(n, dtype=_np.int64),
        "hdr_dfs": hdr_dfs,
        "hdr_lp_indptr": lp_indptr,
        "hdr_lp_port": lp_port,
    })
    return "tree", arrays


def _compile_cowen(scheme: CowenScheme, nodes, node_index, edge_key):
    n = len(nodes)
    landmarks = sorted(scheme.landmarks)
    slot = {landmark: k for k, landmark in enumerate(landmarks)}

    per_tree = [_tree_columns(scheme._tree_schemes[landmark], nodes,
                              node_index, edge_key)
                for landmark in landmarks]
    arrays = {
        f"t_{name}": _np.concatenate([cols[name] for cols in per_tree])
        for name in _TREE_COLS
    }

    # Direct entries: one sorted u*n+t key per (node, cluster-or-landmark
    # target), the next hop pre-resolved along the target-rooted tree.
    entries = []
    for ui, u in enumerate(nodes):
        for t in scheme.clusters[u] | scheme.landmarks:
            if t != u:
                vi = node_index[scheme._trees[t].parent[u]]
                entries.append((ui * n + node_index[t], vi,
                                edge_key[(ui, vi)]))
    arrays.update(_entry_columns("direct", entries))

    # Per-target header: which landmark tree to walk (as a flat-array
    # base offset) and the target's label in it.
    hdr_base = _np.zeros(n, dtype=_np.int64)
    labels = {}
    for t in nodes:
        landmark = scheme.landmark_of[t]
        hdr_base[node_index[t]] = slot[landmark] * n
        labels[t] = scheme._tree_schemes[landmark]._labels[t]
    hdr_dfs, lp_indptr, lp_port = _label_csr(labels, node_index, n)
    arrays.update({"hdr_base": hdr_base, "hdr_dfs": hdr_dfs,
                   "hdr_lp_indptr": lp_indptr, "hdr_lp_port": lp_port})
    return "cowen", arrays


def _compile_destination(scheme: DestinationTableScheme, nodes, node_index,
                         edge_key):
    """``_next_hop`` as dense ``t*n + u`` next-hop and edge-key arrays."""
    n = len(nodes)
    index = node_index.get
    nxt = [_MISSING] * (n * n)
    key = [0] * (n * n)
    for ui, u in enumerate(nodes):
        for t, hop in scheme._next_hop[u].items():
            ti = index(t)
            if ti is None:
                continue   # an off-graph target is never asked for
            vi = index(hop)
            step = edge_key.get((ui, vi))
            if step is None:
                nxt[ti * n + ui] = _REPLAY   # not a graph edge
            else:
                nxt[ti * n + ui] = vi
                key[ti * n + ui] = step
    return "destination", {"dt_next": _np.asarray(nxt, dtype=_np.int64),
                           "dt_key": _np.asarray(key, dtype=_np.int64)}


def _compile_pair(scheme: PairTableScheme, nodes, node_index, edge_key):
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
            entries.append((code, vi, edge_key[(ui, vi)]))
    entries.append((n ** 3, _MISSING, 0))
    return "pair", _entry_columns("pt", entries)


#: Per supported scheme type (exact match), its compiler.
_COMPILERS = {CowenScheme: _compile_cowen, TreeRoutingScheme: _compile_tree,
              DestinationTableScheme: _compile_destination,
              PairTableScheme: _compile_pair}


# ---------------------------------------------------------------------------
# vectorized evaluation
# ---------------------------------------------------------------------------


def evaluate_shard(algebra, scheme, oracle, pairs):
    """Vectorized evaluation of *pairs*; ``None`` means "use the reference".

    Returns ``(routed, delivered, optimal, failures, samples)`` with
    failures and stretch samples in pair order, exactly as the reference
    loop in :func:`repro.core.simulate.route_shard` would produce them.
    The oracle is consulted once per pair in pair order (so lazy-oracle
    accounting matches the reference); pairs the vectorized walk cannot
    replicate bit-for-bit are replayed through ``scheme.route``.  The
    pairs are walked in blocks of :data:`BLOCK_PAIRS`.
    """
    if _np is None:
        count_query_fallback("numpy-missing", pairs=len(pairs))
        return None
    if algebra is not getattr(scheme, "algebra", None):
        count_query_fallback("algebra-mismatch", pairs=len(pairs))
        return None
    tables = compile_query(scheme)
    if tables is None:
        count_query_fallback("uncompilable", pairs=len(pairs))
        return None

    note_batch_shard(len(pairs))
    routed = delivered = optimal = 0
    failures: List[Tuple] = []
    samples: List[Tuple] = []
    for start in range(0, len(pairs), BLOCK_PAIRS):
        block = _evaluate_block(algebra, scheme, tables, oracle,
                                pairs[start:start + BLOCK_PAIRS])
        routed += block[0]
        delivered += block[1]
        optimal += block[2]
        failures.extend(block[3])
        samples.extend(block[4])
    return routed, delivered, optimal, failures, samples


def _evaluate_block(algebra, scheme, tables, oracle, pairs):
    """:func:`evaluate_shard` over one block of pairs."""
    index_of = tables.node_index.get
    routed_pairs: List[Tuple] = []
    preferred: List = []
    src: List[int] = []
    dst: List[int] = []
    for s, t in pairs:
        weight = oracle(s, t)
        if is_phi(weight):
            continue
        routed_pairs.append((s, t))
        preferred.append(weight)
        src.append(index_of(s, -1))
        dst.append(index_of(t, -1))

    routed = len(routed_pairs)
    if routed == 0:
        return 0, 0, 0, [], []

    s_arr = _np.asarray(src, dtype=_np.int64)
    t_arr = _np.asarray(dst, dtype=_np.int64)
    status = _np.zeros(routed, dtype=_np.int8)
    rkey = _np.zeros(routed, dtype=_np.int64)

    # route() short-circuits source == target before any table lookup, so
    # the pair delivers with the empty walk even off-graph.
    same = s_arr == t_arr
    status[same] = _DELIVERED
    unknown = (~same) & ((s_arr < 0) | (t_arr < 0))
    status[unknown] = _ANOMALY

    fail = _np.full(routed, -1, dtype=_np.int64)
    _walk(tables, s_arr, t_arr, status, rkey, fail)

    return _assemble(algebra, scheme, tables, routed_pairs, preferred,
                     status, rkey, fail)


def _walk(tables, s_arr, t_arr, status, rkey, fail):
    """Walk every pending pair, one vectorized step per packet decision.

    Replicates ``RoutingScheme.route`` exactly: ``4n + 8`` decisions per
    pair, a delivery consuming one decision, pairs still in flight after
    the budget (forwarding loops too) marked ``hop limit exceeded``.  The
    family's step (:data:`_STEPS`) gives each packet its next node and
    edge key; a :data:`_MISSING` next node strands the packet where it is
    (recorded in *fail*), a :data:`_REPLAY` one replays the pair.
    """
    n = tables.n
    step = _STEPS[tables.kind](tables)
    combine = tables.codec.combine.combine
    hdr_dfs = tables.arrays.get("hdr_dfs")
    with_source = tables.kind == "pair"

    alive = _np.nonzero(status == _PENDING)[0]
    if hdr_dfs is not None:
        # An unlabeled target would crash the reference at initial_header —
        # replay those pairs rather than guessing.
        bad_header = hdr_dfs[t_arr[alive]] < 0
        status[alive[bad_header]] = _ANOMALY
        alive = alive[~bad_header]

    cur = s_arr.copy()
    for _ in range(4 * n + 8):
        if alive.size == 0:
            return
        here = cur[alive]
        tgt = t_arr[alive]
        done = here == tgt
        if done.any():
            status[alive[done]] = _DELIVERED
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


def _tree_step(tables):
    """The tree/Cowen decision, as ``step(here, tgt, src) -> (next, key)``.

    The Cowen direct table is consulted first (one ``searchsorted`` over
    the sorted ``u*n + t`` keys), then the landmark/tree interval logic;
    any branch the reference would raise on is replayed.
    """
    arrays = tables.arrays
    n = tables.n
    adj_indptr = arrays["adj_indptr"]
    adj_next = arrays["adj_next"]
    adj_key = arrays["adj_key"]
    t_dfs = arrays["t_dfs"]
    t_iend = arrays["t_iend"]
    t_hdfs = arrays["t_hdfs"]
    t_hend = arrays["t_hend"]
    t_pnext = arrays["t_pnext"]
    t_pkey = arrays["t_pkey"]
    t_hnext = arrays["t_hnext"]
    t_hkey = arrays["t_hkey"]
    t_ldepth = arrays["t_ldepth"]
    direct_code = arrays["direct_code"]
    direct_next = arrays["direct_next"]
    direct_key = arrays["direct_key"]
    hdr_base = arrays["hdr_base"]
    hdr_dfs_all = arrays["hdr_dfs"]
    lp_indptr = arrays["hdr_lp_indptr"]
    lp_port = arrays["hdr_lp_port"]

    def step(here, tgt, src):
        if direct_code.size:
            want = here * n + tgt
            pos = _np.minimum(_np.searchsorted(direct_code, want),
                              direct_code.size - 1)
            hit = direct_code[pos] == want
        else:
            pos = _np.zeros(here.size, dtype=_np.int64)
            hit = _np.zeros(here.size, dtype=bool)

        flat = hdr_base[tgt] + here
        own_dfs = t_dfs[flat]
        hdr_dfs = hdr_dfs_all[tgt]
        inner_deliver = hdr_dfs == own_dfs
        in_interval = (own_dfs <= hdr_dfs) & (hdr_dfs <= t_iend[flat])
        up = ~in_interval
        heavy = (in_interval & ~inner_deliver
                 & (t_hdfs[flat] <= hdr_dfs) & (hdr_dfs <= t_hend[flat]))
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
        tree_key = _np.where(up, t_pkey[flat],
                             _np.where(heavy, t_hkey[flat], light_key))
        anomaly = ~hit & (inner_deliver | (up & (t_pnext[flat] < 0))
                          | bad_label | bad_port)

        if direct_code.size:
            nxt = _np.where(hit, direct_next[pos], tree_next)
            key = _np.where(hit, direct_key[pos], tree_key)
        else:
            nxt = tree_next
            key = tree_key
        if anomaly.any():
            nxt = _np.where(anomaly, _REPLAY, nxt)
        return nxt, key

    return step


def _destination_step(tables):
    """One gather from the dense ``t*n + u`` next-hop and edge-key arrays."""
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


#: Per compiled kind, the factory of its per-decision step.
_STEPS = {"tree": _tree_step, "cowen": _tree_step,
          "destination": _destination_step, "pair": _pair_step}


def _assemble(algebra, scheme, tables, routed_pairs, preferred, status,
              rkey, fail):
    """Fold per-pair outcomes into reference-ordered counts and samples.

    Each distinct realized key decodes once per block; the samples share
    the (immutable) weight objects.
    """
    identity = tables.identity_decode
    decode = tables.codec.decode
    key_fn = tables.codec.key
    kind = tables.kind
    nodes = tables.nodes
    delivered = 0
    optimal = 0
    failures: List[Tuple] = []
    samples: List[Tuple] = []
    decoded: Dict[int, object] = {}
    status_list = status.tolist()
    rkey_list = rkey.tolist()
    fail_list = fail.tolist()
    for i, (s, t) in enumerate(routed_pairs):
        state = status_list[i]
        if state == _DELIVERED:
            realized_key = rkey_list[i]
            pref = preferred[i]
            delivered += 1
            if identity:
                samples.append((pref, realized_key))
                if pref == realized_key:
                    optimal += 1
            else:
                realized = decoded.get(realized_key)
                if realized is None:
                    realized = decoded[realized_key] = decode(realized_key)
                samples.append((pref, realized))
                if key_fn(pref) == realized_key:
                    optimal += 1
        elif state == _HOP_LIMIT:
            failures.append((s, t, "hop limit exceeded"))
        elif state == _NO_ROUTE:
            stuck = nodes[fail_list[i]]
            if kind == "destination":
                failures.append((s, t, f"no route from {stuck!r} to {t!r}"))
            else:
                failures.append(
                    (s, t,
                     f"no pair entry for {(s, t)!r} at node {stuck!r}"))
        else:  # _ANOMALY: replay the one pair for exact reference behavior
            count_query_fallback("pair-replay", pairs=1)
            try:
                result = scheme.route(s, t)
            except ReproError as exc:
                failures.append((s, t, str(exc)))
                continue
            if not result.delivered:
                failures.append((s, t, result.reason))
                continue
            delivered += 1
            realized = scheme.realized_weight(result)
            samples.append((preferred[i], realized))
            if algebra.eq(realized, preferred[i]):
                optimal += 1
    return len(routed_pairs), delivered, optimal, failures, samples
