"""The tree store: lazy exact preferred-path state, one structure per source.

:class:`PreferredWeightOracle` is the only code that decides how
preferred paths are computed.  It builds a source's structure (a
generalized-Dijkstra tree, a valley-free run, a shortest-widest sweep)
on the first query from that source, and keeps a tree as a weight row
and a parent-index row over the graph's node order.  The Cowen and
destination-table schemes hold those rows and forward on the parent
rows, pair tables install the store's paths, and evaluation checks them
against the same store.  :data:`oracle_cache` keeps stores process-wide,
keyed on :func:`graph_signature`, the algebra and the weight attribute.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.algebra.base import PHI, RoutingAlgebra, is_phi, key_codec
from repro.algebra.bgp import BGPAlgebra
from repro.algebra.catalog import ShortestPath, WidestPath
from repro.algebra.lexicographic import LexicographicProduct
from repro.exceptions import AlgebraError
from repro.graphs.weighting import WEIGHT_ATTR
from repro.obs import tracing as _obs_tracing
from repro.obs.metrics import enabled as _telemetry_enabled
from repro.obs.metrics import metrics as _telemetry


@dataclass(frozen=True)
class OracleInvalidation:
    """The outcome of one incremental invalidation on a lazy oracle.

    ``kept``/``dropped`` count memoized per-source structures (memoized
    pairs, for the enumeration fallback).  ``patched`` says the compiled
    CSR view absorbed the change in place; when False after a change the
    compiled view was dropped for lazy recompilation on the next build.
    """

    change: str
    kept: int
    dropped: int
    patched: bool


class PreferredWeightOracle:
    """Lazy exact oracle: one preferred-path structure per *source*.

    The per-source structure is the unit of routing state (one
    generalized-Dijkstra tree, one valley-free automaton run, one
    shortest-widest sweep — picked by the same per-algebra dispatch the
    eager oracle used), and it is built on the first query from that
    source, never up front.  Workloads that sample ``pair_count ≪ n²``
    pairs, or shards that route from a handful of sources, therefore pay
    for exactly the trees they touch instead of all ``n``.

    * every structure is kept as read-only rows over the graph's node
      order, as the batch sweep and the kernel compute them: a weight
      row (``PHI`` at the source and where unreachable), and for trees
      a parent-index row (-1 at the same places);
    * :meth:`ensure_sources` bulk-builds the structures for a known
      source set (the parallel engine calls it per shard, so a shard's
      startup cost is ``O(sources_per_shard)`` builds);
    * :meth:`rows` hands out the trees' rows themselves (the Cowen and
      destination-table schemes hold them) and :meth:`key_rows` their
      order keys; :meth:`trees` makes :class:`~repro.paths.dijkstra.PathTree`
      maps of them, and :meth:`paths` the paths pair tables install;
    * it picks the path engine: two or more missing trees build in the
      vectorized sweeps of :mod:`repro.paths.batch` when the algebra has
      a batch plan, every other tree on the per-source kernel;
      ``stats()["path_engine"]`` names the engines its builds ran;
    * ``trees_requested`` / ``trees_built`` count lookups and actual
      builds (also emitted as the ``oracle.trees_requested`` /
      ``oracle.trees_built`` telemetry counters), so cache behavior is
      assertable in tests and visible in profiles;
    * built structures are memoized for the life of the object — and the
      object itself lives in :data:`oracle_cache`, so trees accumulate
      across evaluations of the same instance;
    * shortest-widest routes keep their paths, as trees keep their
      parent rows, and invalidation drops both together;
    * algebras with no per-source engine (non-regular, non-tabular) fall
      back to per-pair enumeration, memoized per ordered pair with its
      path; ``trees_built`` stays 0 for them.

    Thread-safe: builds take the object's lock with a double-check, so
    two threads querying the same cached oracle build each structure
    once.  Instances are picklable (the lock is dropped and recreated),
    built trees and compiled graph included, so parallel workers start
    with every tree the parent has built, whatever the start method.
    """

    def __init__(self, graph, algebra: RoutingAlgebra, attr: str = WEIGHT_ATTR):
        self.graph = graph
        self.algebra = algebra
        self.attr = attr
        self.trees_requested = 0
        self.trees_built = 0
        self._tables: Dict = {}
        self._parents: Dict = {}
        self._paths: Dict = {}
        self._index: Optional[Dict] = None
        self._enum_memo: Optional[Dict] = None
        self._compiled = None
        self._path_engines: set = set()
        self._lock = threading.Lock()
        self.engine = self._select_engine()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def _select_engine(self) -> str:
        """The per-algebra engine name: the one place that picks a solver."""
        if isinstance(self.algebra, BGPAlgebra):
            return "bgp"
        if (
            isinstance(self.algebra, LexicographicProduct)
            and isinstance(self.algebra.first, WidestPath)
            and isinstance(self.algebra.second, ShortestPath)
        ):
            return "shortest-widest"
        declared = self.algebra.declared_properties()
        if declared.monotone is not False and declared.isotone is not False:
            return "dijkstra"
        self._enum_memo = {}
        return "enumeration"

    def _ensure_compiled(self):
        """The shared :class:`~repro.paths.kernel.CompiledGraph`.

        Compiled once per oracle (under the build lock the callers hold)
        and reused by every per-source sweep; engines that don't flatten
        (bgp, enumeration) never ask for it.
        """
        if self._compiled is None:
            # Looked up per call: perfbench/spans.py and the tests patch
            # repro.paths.kernel.compile_graph to count compiles.
            from repro.paths.kernel import compile_graph

            self._compiled = compile_graph(self.graph, self.attr)
        return self._compiled

    def _row_index(self) -> Dict:
        """``node -> row position``, in the graph's node order, which its
        compiled graph shares."""
        if self._index is None or len(self._index) != len(self.graph):
            self._index = {node: i for i, node in enumerate(self.graph)}
        return self._index

    def _build_table(self, source) -> tuple:
        """The weight row of *source*, from one per-source engine run."""
        if self.engine == "bgp":
            from repro.paths.valley_free import bgp_routes

            routes = bgp_routes(self.graph, self.algebra, source, attr=self.attr)
            return tuple(routes[t].label if t in routes else PHI
                         for t in self._row_index())
        if self.engine == "shortest-widest":
            from repro.paths.shortest_widest import shortest_widest_routes

            routes = shortest_widest_routes(self.graph, source, attr=self.attr,
                                            compiled=self._ensure_compiled())
            self._paths[source] = {t: route.path for t, route in routes.items()}
            return tuple(routes[t].weight if t in routes else PHI
                         for t in self._row_index())
        from repro.paths.dijkstra import preferred_path_rows

        run = preferred_path_rows(self._ensure_compiled(), self.algebra, source)
        self._path_engines.add("kernel")
        # The parent row is the raw material of surgical invalidation
        # (tree-edge tests in invalidate_edge); it costs nothing extra —
        # the engine already built it.
        self._parents[source] = run.parent
        return run.weight

    def _table_for(self, source) -> tuple:
        table = self._tables.get(source)
        if table is not None:
            return table
        with self._lock:
            table = self._tables.get(source)
            if table is None:
                table = self._build_table(source)
                self._tables[source] = table
                self.trees_built += 1
                if _telemetry_enabled():
                    _telemetry().counter("oracle.trees_built").inc()
        return table

    def ensure_sources(self, sources: Iterable) -> None:
        """Bulk-build the per-source structures for *sources* (idempotent).

        A no-op for the enumeration fallback, where no per-source
        structure exists and eager enumeration over all targets would
        cost more than the queries it serves.  Two or more missing trees
        of an algebra with a batch plan build in vectorized multi-source
        sweeps (:mod:`repro.paths.batch`) instead of one kernel run each;
        the per-source loop below then only counts requests and serves
        cache hits.
        """
        if self.engine == "enumeration":
            return
        ordered = list(dict.fromkeys(sources))
        if len(ordered) > 1 and self.engine == "dijkstra":
            self._batch_ensure(ordered)
        for source in ordered:
            self.trees_requested += 1
            if _telemetry_enabled():
                _telemetry().counter("oracle.trees_requested").inc()
            self._table_for(source)

    def rows(self, sources: Sequence) -> Tuple[List[tuple], List[tuple]]:
        """The stored weight rows and parent rows of *sources*, built and
        requested through :meth:`ensure_sources`.

        ``weights[k][i]`` is the preferred weight from ``sources[k]`` to
        the graph's ``i``-th node and ``parents[k][i]`` the position of
        that node's parent.  Only the generalized-Dijkstra engine keeps
        trees; the others raise :class:`~repro.exceptions.AlgebraError`.
        """
        if self.engine != "dijkstra":
            raise AlgebraError(
                f"{self.algebra.name}: the {self.engine} oracle engine "
                f"keeps no path trees")
        self.ensure_sources(sources)
        with self._lock:
            return ([self._tables[source] for source in sources],
                    [self._parents[source] for source in sources])

    def key_rows(self, weight_rows: Sequence[Sequence]) -> List[list]:
        """The order keys of *weight_rows* (from :meth:`rows`), entry by
        entry.

        A lower key is a strictly preferred weight, and equally preferred
        weights key equal.  The keys are the algebra's integer keys
        (:func:`~repro.algebra.base.key_codec` at ``n - 1`` hops) where
        every weight has one, else ``comparison_key()`` objects.  ``PHI``
        keys above every weight.
        """
        distinct = list(set().union(*weight_rows) - {PHI})
        codec = key_codec(self.algebra, max(1, len(self.graph) - 1))
        keys = codec.encode(distinct) if codec is not None else None
        if keys is not None:
            key_of = dict(zip(distinct, keys))
            key_of[PHI] = codec.bound
        else:
            key = self.algebra.comparison_key()
            key_of = {weight: key(weight) for weight in distinct + [PHI]}
        get = key_of.__getitem__
        return [list(map(get, row)) for row in weight_rows]

    def trees(self, sources: Iterable) -> Dict:
        """``source -> PathTree`` for *sources*: node-keyed maps made from
        :meth:`rows` on every call, in node-index order."""
        from repro.paths.dijkstra import PathTree

        ordered = list(dict.fromkeys(sources))
        nodes = list(self._row_index())
        return {source: PathTree.from_rows(source, nodes, weight, parent)
                for source, weight, parent in zip(ordered, *self.rows(ordered))}

    def paths(self, source) -> Dict:
        """``target -> preferred path`` (a node tuple) from *source*.

        The pair table's read side.  Trees yield their paths by walking
        parent rows; shortest-widest routes and
        enumeration results hand back the paths they were found with.
        The valley-free engine keeps no paths and raises
        :class:`~repro.exceptions.AlgebraError`.
        """
        if self.engine == "bgp":
            raise AlgebraError(
                f"{self.algebra.name}: the bgp oracle engine keeps no paths")
        if self.engine == "enumeration":
            found = {target: self._enumerate(source, target)
                     for target in self.graph.nodes() if target != source}
            return {target: route.path for target, route in found.items()
                    if route is not None}
        if self.engine == "shortest-widest":
            self.ensure_sources([source])
            with self._lock:
                return self._paths[source]
        tree = self.trees([source])[source]
        return {target: tuple(tree.path_to(target)) for target in tree.weight}

    def _enumerate(self, s, t):
        """The memoized enumeration result for one ordered pair, or None."""
        key = (s, t)
        if key not in self._enum_memo:
            from repro.paths.enumerate import preferred_by_enumeration

            self._enum_memo[key] = preferred_by_enumeration(
                self.graph, self.algebra, s, t, attr=self.attr)
        return self._enum_memo[key]

    def _batch_ensure(self, sources) -> None:
        """Fill two or more missing per-source tables with batched sweeps.

        When the algebra/instance admit no batch plan (or numpy is
        absent) this counts one ``path_engine.batch_fallbacks`` and does
        nothing else: per-source kernel builds then fill the tables, bit
        for bit the same.  Sources absent from the graph are left for
        :meth:`_build_table` to raise on, preserving error behavior.
        """
        from repro.paths import batch as _batch

        with self._lock:
            missing = [s for s in sources if s not in self._tables]
            if len(missing) < 2:
                return
            compiled = self._ensure_compiled()
            missing = [s for s in missing if s in compiled.node_index]
            if len(missing) < 2:
                return
            plan = _batch.batch_plan(compiled, self.algebra)
            if plan is None:
                _batch.count_fallback()
                return
            self._path_engines.add("batch")
            weights, parents = _batch.batch_trees(compiled, self.algebra,
                                                  missing, plan=plan)
            self._tables.update(zip(missing, weights))
            self._parents.update(zip(missing, parents))
            self.trees_built += len(missing)
            if _telemetry_enabled():
                _telemetry().counter("oracle.trees_built").inc(len(missing))

    def __call__(self, s, t):
        self.trees_requested += 1
        if _telemetry_enabled():
            _telemetry().counter("oracle.trees_requested").inc()
        if self.engine == "enumeration":
            found = self._enumerate(s, t)
            return found.weight if found is not None else PHI
        row = self._table_for(s)
        i = self._row_index().get(t)
        return PHI if i is None else row[i]

    def weights_from(self, source, targets: Sequence) -> List:
        """The preferred weights from *source* to *targets*, in order.

        ``PHI`` marks an unreachable target, as a single-pair call
        returns it.  One call serves a run of pairs: ``trees_requested``
        and the ``oracle.trees_requested`` counter advance by
        ``len(targets)`` in one step, as that many single-pair calls
        would advance them.
        """
        self.trees_requested += len(targets)
        if _telemetry_enabled():
            _telemetry().counter("oracle.trees_requested").inc(len(targets))
        if self.engine == "enumeration":
            found = [self._enumerate(source, t) for t in targets]
            return [PHI if route is None else route.weight for route in found]
        row = self._table_for(source)
        return [PHI if i is None else row[i]
                for i in map(self._row_index().get, targets)]

    # -- incremental invalidation (the service layer's churn path) --------

    def invalidate_all(self) -> OracleInvalidation:
        """Drop every memoized structure and the compiled view."""
        with self._lock:
            dropped = len(self._tables)
            self._tables = {}
            self._parents = {}
            self._paths = {}
            self._index = None
            if self._enum_memo is not None:
                dropped += len(self._enum_memo)
                self._enum_memo = {}
            self._compiled = None
        return OracleInvalidation(change="all", kept=0, dropped=dropped,
                                  patched=False)

    def invalidate_edge(self, u, v, new_weight=PHI,
                        change: str = "weight") -> OracleInvalidation:
        """Drop exactly the memoized structures an edge change may affect.

        Call **after** mutating the graph.  *change* is one of
        ``"weight"`` (edge kept, weight replaced by *new_weight*),
        ``"remove"`` (edge deleted) or ``"add"`` (edge inserted with
        *new_weight*).  A built source survives only when the change
        provably cannot alter any preferred weight it serves:

        * every engine keeps sources that reach no usable tail of the
          changed arc (an arc is only traversable from a source that
          already reaches its tail, so the change is invisible there);
        * the generalized-Dijkstra engine (algebra declared monotone and
          isotone) additionally keeps a source when the edge is not one
          of its tree edges **and** the new candidate through the edge is
          strictly worse than the settled label at the head in every
          usable direction — then the memoized labels remain both
          achievable and optimal, so a cold rebuild reproduces them.

        Kept tables stay bit-identical to a cold rebuild provided the
        algebra's weights are canonical (algebra-equal weights encode
        identically — true of every built-in algebra, whose weights are
        ints, Fractions and tuples thereof).  Everything else is dropped
        and lazily rebuilt on the next query.  The compiled CSR view is
        weight-patched in place when possible, else dropped.  A new node
        (appended to the node order) grows every kept row by one entry.
        """
        if change not in ("weight", "remove", "add"):
            raise ValueError(f"unknown change kind {change!r}")
        with self._lock:
            patched = False
            if self._compiled is not None:
                if (change == "weight"
                        and self._compiled.patch_weight(u, v, new_weight)):
                    patched = True
                else:
                    self._compiled = None
            if self._enum_memo is not None:
                dropped = len(self._enum_memo)
                self._enum_memo = {}
                return OracleInvalidation(change=change, kept=0,
                                          dropped=dropped, patched=patched)
            first = next(iter(self._tables.values()), None)
            grow = 0 if first is None else len(self.graph) - len(first)
            if grow:
                self._tables = {source: row + (PHI,) * grow
                                for source, row in self._tables.items()}
                self._parents = {source: row + (-1,) * grow
                                 for source, row in self._parents.items()}
            keep = self._keep_rule(u, v, new_weight, change)
            kept_tables = {source: table
                           for source, table in self._tables.items()
                           if keep(source, table)}
            dropped = len(self._tables) - len(kept_tables)
            self._tables = kept_tables
            self._parents = {source: parent
                             for source, parent in self._parents.items()
                             if source in kept_tables}
            self._paths = {source: paths
                           for source, paths in self._paths.items()
                           if source in kept_tables}
        return OracleInvalidation(change=change, kept=len(kept_tables),
                                  dropped=dropped, patched=patched)

    def _keep_rule(self, u, v, new_weight, change):
        """``(source, weight row) -> bool``: may the memoized row survive?"""
        directed = self.graph.is_directed()
        algebra = self.algebra
        declared = algebra.declared_properties()
        surgical = (self.engine == "dijkstra"
                    and declared.monotone is True
                    and declared.isotone is True)
        index = self._row_index()
        ui, vi = index[u], index[v]

        def reaches(s, row, node):
            return node == s or not is_phi(row[node])

        if not surgical:
            # Endpoint-reachability rule, valid for every engine: a path
            # from *source* through the arc needs a valid prefix ending
            # at the tail, and prefixes use only unchanged arcs.
            def keep(source, row):
                s = index[source]
                if not reaches(s, row, ui):
                    return directed or not reaches(s, row, vi)
                return False

            return keep

        parents = self._parents

        def is_tree_edge(parent):
            if parent[vi] == ui:
                return True
            return not directed and parent[ui] == vi

        def direction_safe(s, row, tail, head):
            # May a path source -> tail -> (changed arc) -> head enter
            # the optimum class at *head*?  Safe when it provably cannot.
            if is_phi(new_weight) or head == s:
                return True
            if tail == s:
                candidate = new_weight
            else:
                d_tail = row[tail]
                if is_phi(d_tail):
                    return True
                candidate = algebra.combine(d_tail, new_weight)
            if is_phi(candidate):
                return True
            d_head = row[head]
            if is_phi(d_head):
                return False  # the arc makes *head* reachable
            return algebra.lt(d_head, candidate)

        def keep(source, row):
            parent = parents.get(source)
            if parent is None:
                return False  # no recorded tree: assume affected
            if change in ("weight", "remove") and is_tree_edge(parent):
                # The memoized labels were realized through this edge.
                return False
            if change == "remove":
                # Non-tree edge: the memoized tree avoids it, removal
                # cannot improve anything -> labels stand.
                return True
            s = index[source]
            if not direction_safe(s, row, ui, vi):
                return False
            return directed or direction_safe(s, row, vi, ui)

        return keep

    def stats(self) -> dict:
        return {
            "engine": self.engine,
            "path_engine": _engine_names(self._path_engines),
            "sources_cached": len(self._tables),
            "trees_requested": self.trees_requested,
            "trees_built": self.trees_built,
        }


def _engine_names(engines) -> Optional[str]:
    """Path engine names, ``+``-joined (``batch``, ``kernel`` or
    ``batch+kernel``); None while no generalized-Dijkstra tree was built."""
    return "+".join(sorted(engines)) or None


# ---------------------------------------------------------------------------
# oracle cache
# ---------------------------------------------------------------------------


def graph_signature(graph, attr: str = WEIGHT_ATTR) -> Tuple:
    """A signature of the graph as the path engines walk it, for cache keying.

    The nodes, and each node's weighted adjacency, in iteration order,
    as reprs.  Order is part of the key because the engines break ties
    between equal-weight paths in adjacency order: two graphs with equal
    content but different orders can have different preferred-path trees,
    and schemes are built from the cached trees.  O(n + m), negligible
    next to any exact oracle build.  Mutating the graph (adding/removing
    edges, changing weights) changes the signature, so stale entries are
    never returned — they simply age out of the LRU.
    """
    adjacency = tuple(
        (repr(node), tuple((repr(neighbor), repr(data.get(attr)))
                           for neighbor, data in graph.adj[node].items()))
        for node in graph.nodes()
    )
    return (graph.is_directed(), attr, adjacency)


def _algebra_key(algebra: RoutingAlgebra) -> Tuple:
    return (type(algebra).__module__, type(algebra).__qualname__, algebra.name)


class OracleCache:
    """Process-wide LRU of lazy exact preferred-weight oracles.

    Keyed on ``(graph_signature, algebra identity, attr)`` — the weight
    attribute is a key component in its own right, so two attributes on
    one graph can never alias even if a future ``graph_signature`` stops
    folding the attribute in.  Bounded so cached oracles (and the graphs
    they hold) cannot grow without limit across a long benchmark session.

    Entries are :class:`PreferredWeightOracle` objects, so the per-source
    trees an evaluation builds stay memoized for the next evaluation of
    the same instance — the cache accumulates exactly the trees the
    workloads have touched, never more.  Building a Cowen or
    destination-table scheme touches every source: ``build_scheme``
    takes the scheme's trees from this cache, so such an entry holds all
    ``n`` trees from the build on, and the evaluation that follows finds
    them already built.

    Thread-safe: lookups, ``stats()`` and ``clear()`` share one lock, and
    a miss takes a per-key build lock with a double check, so concurrent
    callers missing the same key perform one build (no thundering herd)
    while builds for different keys proceed independently.
    """

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, PreferredWeightOracle]" = OrderedDict()
        self._build_locks: Dict[Tuple, threading.Lock] = {}

    def _lookup(self, key) -> Optional[PreferredWeightOracle]:
        """The cached oracle for *key* with hit bookkeeping, else None."""
        with self._lock:
            oracle = self._entries.get(key)
            if oracle is None:
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        _telemetry().counter("oracle_cache.hits").inc()
        return oracle

    def get(self, graph, algebra: RoutingAlgebra, attr: str = WEIGHT_ATTR,
            scheme_name: str = "") -> PreferredWeightOracle:
        """The cached oracle for this instance, building on miss.

        Every lookup opens an ``oracle`` span tagged with the *current*
        scheme and ``cache_hit="true"``/``"false"``, so per-scheme
        profiles attribute oracle cost truthfully: a scheme that rode the
        cache shows a zero-cost hit span, not the first scheme's build.
        """
        key = (graph_signature(graph, attr), _algebra_key(algebra), attr)
        oracle = self._lookup(key)
        if oracle is not None:
            with _obs_tracing.span("oracle", scheme=scheme_name,
                                   cache_hit="true"):
                pass
            return oracle
        with self._lock:
            build_lock = self._build_locks.setdefault(key, threading.Lock())
        with build_lock:
            # Double check: a concurrent caller may have built while this
            # one waited on the build lock; that is a hit, not a rebuild.
            oracle = self._lookup(key)
            if oracle is not None:
                with _obs_tracing.span("oracle", scheme=scheme_name,
                                       cache_hit="true"):
                    pass
                return oracle
            with self._lock:
                self.misses += 1
            _telemetry().counter("oracle_cache.misses").inc()
            with _obs_tracing.span("oracle", scheme=scheme_name,
                                   cache_hit="false"):
                oracle = PreferredWeightOracle(graph, algebra, attr=attr)
            with self._lock:
                self._entries[key] = oracle
                self._entries.move_to_end(key)
                while len(self._entries) > self.capacity:
                    evicted, _ = self._entries.popitem(last=False)
                    self._build_locks.pop(evicted, None)
        return oracle

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._build_locks.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict:
        """Hit/miss/entry counts plus the cached oracles' tree totals
        and the path engines their builds ran."""
        with self._lock:
            out = {"hits": self.hits, "misses": self.misses,
                   "entries": len(self._entries), "capacity": self.capacity}
            oracles = list(self._entries.values())
        out["trees_requested"] = sum(
            o.trees_requested for o in oracles
            if isinstance(o, PreferredWeightOracle))
        out["trees_built"] = sum(
            o.trees_built for o in oracles
            if isinstance(o, PreferredWeightOracle))
        out["sources_cached"] = sum(
            len(o._tables) for o in oracles
            if isinstance(o, PreferredWeightOracle))
        out["path_engine"] = _engine_names(set().union(
            *(o._path_engines for o in oracles
              if isinstance(o, PreferredWeightOracle))))
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The process-wide oracle cache every evaluation path goes through.
oracle_cache = OracleCache()
