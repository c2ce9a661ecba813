"""End-to-end scheme evaluation: delivery, optimality, stretch and memory.

``evaluate_scheme`` is the verification harness every experiment rests on:
it pushes packets between node pairs through the hop-by-hop model, compares
each realized path weight to the true preferred weight (from an appropriate
exact engine), and aggregates delivery, stretch and memory into one report.

Every evaluation knob travels in one :class:`EvaluationOptions`::

    options = EvaluationOptions(pair_count=2000, workers=4, rng=7)
    report = evaluate_scheme(graph, algebra, scheme, options=options)

or through the one-call facade :func:`run_experiment`, which builds the
prescribed scheme and evaluates it under a single seed.

Exact oracles are **lazy** (PR 4): :class:`PreferredWeightOracle` builds
one per-source preferred-path structure on first query, so a sampled
workload pays only for the sources it routes from.  Oracles are cached
process-wide in :data:`oracle_cache`, keyed on the graph's content
signature, the algebra and the weight attribute, so repeated evaluations
of the same instance (benchmarks, profiles, scale sweeps) accumulate
trees instead of rebuilding them.  The oracle is also the one **tree
store**, and the only code that decides how preferred paths are
computed: :func:`repro.core.compiler.build_scheme` builds the Cowen,
destination-table and pair-table schemes from the cached oracle's trees
and paths, so the paths a scheme is built from and the weights
evaluation checks it against are computed once, together.  With
``workers > 1`` the pair set is split into source-grouped shards and
evaluated in parallel by :mod:`repro.core.parallel`; shard merging is
exact, so the report is bit-identical to a serial run.
"""

from __future__ import annotations

import itertools
import os
import random
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs import events as _events
from repro.obs import tracing as _obs_tracing
from repro.obs.metrics import enabled as _telemetry_enabled
from repro.obs.metrics import metrics as _telemetry

from repro.algebra.base import PHI, RoutingAlgebra, is_phi
from repro.algebra.bgp import BGPAlgebra
from repro.algebra.lexicographic import LexicographicProduct
from repro.algebra.catalog import ShortestPath, WidestPath
from repro.exceptions import AlgebraError, ReproError
from repro.graphs.weighting import WEIGHT_ATTR
from repro.routing.memory import MemoryReport, memory_report
from repro.routing.model import RoutingScheme
from repro.routing import query_engine as _query_engine
from repro.routing.stretch import StretchReport, measure_stretch

#: Oracle signature: (source, target) -> preferred weight (PHI if unreachable).
WeightOracle = Callable[[object, object], object]

#: Failures kept on a report (the rest are counted but not enumerated).
MAX_REPORTED_FAILURES = 16

#: Durable heartbeats per shard: one at the start plus one every
#: ``len(pairs) // HEARTBEATS_PER_SHARD`` routed pairs.  Pair-count
#: strides (never wall-clock) keep the durable event stream
#: deterministic; extra time-based heartbeats go down the live-only path.
HEARTBEATS_PER_SHARD = 4

#: Seconds between live-only heartbeats on long quiet stretches.
LIVE_HEARTBEAT_INTERVAL_S = 0.5

#: Environment variable holding the deterministic fault-injection spec.
FAULT_SPEC_ENV = "REPRO_FAULT_SPEC"

#: Default sleep of a ``hang`` fault clause without an explicit duration —
#: long enough that any configured shard timeout fires first.
DEFAULT_HANG_SECONDS = 60.0


# ---------------------------------------------------------------------------
# deterministic fault injection (the parallel engine's test hook)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultClause:
    """One parsed clause of ``REPRO_FAULT_SPEC``.

    ``action`` is ``kill`` (SIGKILL the worker process — indistinguishable
    from an OOM kill), ``hang`` (sleep, for exercising the per-shard
    timeout) or ``raise`` (raise :class:`InjectedFault`, which propagates
    like any worker bug).  ``once`` restricts the clause to a shard's
    first attempt, so a retried shard completes — that is what makes
    recovery testable without external coordination: attempt numbers are
    threaded from the parent, so "fire once" needs no cross-process state.
    """

    action: str
    shard: int
    once: bool = False
    seconds: float = DEFAULT_HANG_SECONDS


class InjectedFault(RuntimeError):
    """The exception a ``raise`` fault clause throws inside a worker."""


_FAULT_ACTIONS = ("kill", "hang", "raise")
_FAULT_SPEC_CACHE: Dict[str, Tuple[FaultClause, ...]] = {}


def parse_fault_spec(spec: str) -> Tuple[FaultClause, ...]:
    """Parse a fault spec: ``;``-separated ``action:shard=N[:once]`` clauses.

    ``action`` is ``kill``, ``raise``, ``hang`` or ``hang=SECONDS``.
    Examples: ``kill:shard=3:once``, ``hang=2.5:shard=0:once``,
    ``kill:shard=1:once;raise:shard=4``.  Malformed specs raise
    ``ValueError`` — a typo'd fault must fail loudly, never silently
    inject nothing.
    """
    clauses = []
    for raw in spec.split(";"):
        raw = raw.strip()
        if not raw:
            continue
        fields = [f.strip() for f in raw.split(":")]
        action, _, arg = fields[0].partition("=")
        if action not in _FAULT_ACTIONS:
            raise ValueError(f"unknown fault action {fields[0]!r} in {spec!r}")
        seconds = DEFAULT_HANG_SECONDS
        if arg:
            if action != "hang":
                raise ValueError(f"only 'hang' takes a duration: {raw!r}")
            seconds = float(arg)
        shard = None
        once = False
        for field_ in fields[1:]:
            if field_ == "once":
                once = True
            elif field_.startswith("shard="):
                shard = int(field_[len("shard="):])
            else:
                raise ValueError(f"unknown fault field {field_!r} in {spec!r}")
        if shard is None:
            raise ValueError(f"fault clause {raw!r} needs shard=N")
        clauses.append(FaultClause(action=action, shard=shard, once=once,
                                   seconds=seconds))
    return tuple(clauses)


def maybe_inject_fault(shard_id: Optional[int], attempt: int = 0) -> None:
    """Fire any ``REPRO_FAULT_SPEC`` clause matching this shard attempt.

    A no-op unless the environment carries a spec **and** *shard_id* is
    set — serial evaluation (and the serial fallback) never injects, so a
    stray spec cannot kill the parent process.  Workers read the spec
    from their own environment, which both fork and spawn children
    inherit, so the hook behaves identically under either start method.
    """
    if shard_id is None:
        return
    spec = os.environ.get(FAULT_SPEC_ENV, "").strip()
    if not spec:
        return
    clauses = _FAULT_SPEC_CACHE.get(spec)
    if clauses is None:
        clauses = parse_fault_spec(spec)
        _FAULT_SPEC_CACHE[spec] = clauses
    for clause in clauses:
        if clause.shard != shard_id:
            continue
        if clause.once and attempt != 0:
            continue
        if clause.action == "kill":
            import signal

            os.kill(os.getpid(), signal.SIGKILL)
        elif clause.action == "hang":
            time.sleep(clause.seconds)
        else:
            raise InjectedFault(
                f"injected fault on shard {shard_id} attempt {attempt}")


def as_rng(rng: Union[int, random.Random, None]) -> Optional[random.Random]:
    """Normalize a seed to a ``random.Random`` (``None`` passes through)."""
    if rng is None or isinstance(rng, random.Random):
        return rng
    if isinstance(rng, bool) or not isinstance(rng, int):
        raise TypeError(f"rng must be an int seed or random.Random, got {rng!r}")
    return random.Random(rng)


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
    generalized-Dijkstra :class:`~repro.paths.dijkstra.PathTree`, one
    valley-free automaton run, one shortest-widest sweep — picked by the
    same per-algebra dispatch the eager oracle used), and it is built on
    the first query from that source, never up front.  Workloads that
    sample ``pair_count ≪ n²`` pairs, or shards that route from a handful
    of sources, therefore pay for exactly the trees they touch instead of
    all ``n``.

    * :meth:`ensure_sources` bulk-builds the structures for a known
      source set (the parallel engine calls it per shard, so a shard's
      startup cost is ``O(sources_per_shard)`` builds);
    * :meth:`trees` hands out the generalized-Dijkstra engine's trees as
      :class:`~repro.paths.dijkstra.PathTree` views — the tree store the
      Cowen and destination-table schemes are built from — and
      :meth:`paths` one source's preferred paths, which pair tables
      install;
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
      parent maps, and invalidation drops both together;
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
            from repro.paths.kernel import compile_graph

            self._compiled = compile_graph(self.graph, self.attr)
        return self._compiled

    def _build_table(self, source) -> Dict:
        """target -> preferred weight, from one per-source engine run."""
        if self.engine == "bgp":
            from repro.paths.valley_free import bgp_routes

            routes = bgp_routes(self.graph, self.algebra, source, attr=self.attr)
            return {t: route.label for t, route in routes.items()}
        if self.engine == "shortest-widest":
            from repro.paths.shortest_widest import shortest_widest_routes

            routes = shortest_widest_routes(self.graph, source, attr=self.attr,
                                            compiled=self._ensure_compiled())
            self._paths[source] = {t: route.path for t, route in routes.items()}
            return {t: route.weight for t, route in routes.items()}
        from repro.paths.dijkstra import preferred_path_tree

        tree = preferred_path_tree(self.graph, self.algebra, source,
                                   attr=self.attr,
                                   compiled=self._ensure_compiled())
        self._path_engines.add("kernel")
        # The parent map is the raw material of surgical invalidation
        # (tree-edge tests in invalidate_edge); it costs nothing extra —
        # the engine already built it.
        self._parents[source] = tree.parent
        return tree.weight

    def _table_for(self, source) -> Dict:
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

    def trees(self, sources: Iterable) -> Dict:
        """``source -> PathTree`` for *sources*, building the missing trees.

        The tree store's read side: missing trees are built through
        :meth:`ensure_sources` (batched sweeps over the one compiled
        graph where the engine allows), and each returned
        :class:`~repro.paths.dijkstra.PathTree` wraps the memoized weight
        and parent maps themselves, not copies — a scheme built from
        them and this oracle's optimality checks read the same trees.
        Only the generalized-Dijkstra engine keeps trees; the others
        raise :class:`~repro.exceptions.AlgebraError`.
        """
        if self.engine != "dijkstra":
            raise AlgebraError(
                f"{self.algebra.name}: the {self.engine} oracle engine "
                f"keeps no path trees")
        from repro.paths.dijkstra import PathTree

        ordered = list(dict.fromkeys(sources))
        self.ensure_sources(ordered)
        with self._lock:
            return {source: PathTree(source, self._tables[source],
                                     self._parents[source])
                    for source in ordered}

    def paths(self, source) -> Dict:
        """``target -> preferred path`` (a node tuple) from *source*.

        The pair table's read side.  Trees yield their paths by walking
        parent maps; shortest-widest routes and
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
        self.ensure_sources([source])
        with self._lock:
            if self.engine == "shortest-widest":
                return self._paths[source]
            from repro.paths.dijkstra import PathTree

            tree = PathTree(source, self._tables[source], self._parents[source])
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
            runs = _batch.batch_trees(compiled, self.algebra, missing,
                                      plan=plan)
            for source, run in zip(missing, runs):
                self._tables[source] = run.weight
                self._parents[source] = run.parent
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
        return self._table_for(s).get(t, PHI)

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
        return list(map(self._table_for(source).get, targets,
                        itertools.repeat(PHI)))

    # -- incremental invalidation (the service layer's churn path) --------

    def invalidate_all(self) -> OracleInvalidation:
        """Drop every memoized structure and the compiled view."""
        with self._lock:
            dropped = len(self._tables)
            self._tables = {}
            self._parents = {}
            self._paths = {}
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
        weight-patched in place when possible, else dropped.
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
        """``(source, table) -> bool``: may the memoized table survive?"""
        directed = self.graph.is_directed()
        algebra = self.algebra
        declared = algebra.declared_properties()
        surgical = (self.engine == "dijkstra"
                    and declared.monotone is True
                    and declared.isotone is True)

        def reaches(source, table, node):
            return node == source or node in table

        if not surgical:
            # Endpoint-reachability rule, valid for every engine: a path
            # from *source* through the arc needs a valid prefix ending
            # at the tail, and prefixes use only unchanged arcs.
            def keep(source, table):
                if not reaches(source, table, u):
                    return directed or not reaches(source, table, v)
                return False

            return keep

        parents = self._parents

        def is_tree_edge(parent):
            if parent.get(v) == u:
                return True
            return not directed and parent.get(u) == v

        def direction_safe(source, table, tail, head):
            # May a path source -> tail -> (changed arc) -> head enter
            # the optimum class at *head*?  Safe when it provably cannot.
            if is_phi(new_weight) or head == source:
                return True
            if tail == source:
                candidate = new_weight
            else:
                d_tail = table.get(tail, PHI)
                if is_phi(d_tail):
                    return True
                candidate = algebra.combine(d_tail, new_weight)
            if is_phi(candidate):
                return True
            d_head = table.get(head, PHI)
            if is_phi(d_head):
                return False  # the arc makes *head* reachable
            return algebra.lt(d_head, candidate)

        def keep(source, table):
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
            if not direction_safe(source, table, u, v):
                return False
            return directed or direction_safe(source, table, v, u)

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


def preferred_weight_oracle(graph, algebra: RoutingAlgebra, attr: str = WEIGHT_ATTR
                            ) -> "PreferredWeightOracle":
    """The lazy exact oracle for *algebra* (engine picked per algebra).

    Since PR 4 this returns a :class:`PreferredWeightOracle` — still a
    plain ``(s, t) -> weight`` callable, but building per-source
    structures on first query instead of all ``n`` up front.
    """
    return PreferredWeightOracle(graph, algebra, attr=attr)


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
        self._entries: "OrderedDict[Tuple, WeightOracle]" = OrderedDict()
        self._build_locks: Dict[Tuple, threading.Lock] = {}

    def _lookup(self, key) -> Optional[WeightOracle]:
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
            scheme_name: str = "") -> WeightOracle:
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
                oracle = preferred_weight_oracle(graph, algebra, attr=attr)
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


# ---------------------------------------------------------------------------
# options and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvaluationOptions:
    """Keyword-only knobs of :func:`evaluate_scheme` / :func:`run_experiment`.

    * ``pairs`` — explicit ordered pairs to route (default: all, or a
      sample of ``pair_count`` of them);
    * ``pair_count`` — sample size when ``pairs`` is not given;
    * ``oracle`` — preferred-weight oracle override (default: the cached
      exact oracle for the instance); parallel workers read it as given,
      so under a start method other than fork it must pickle, or the run
      falls back to serial;
    * ``max_k`` — largest stretch exponent probed per pair;
    * ``trace_limit`` — packet traces captured when telemetry is on;
    * ``workers`` — process count for sharded parallel evaluation
      (``None``/``0``/``1`` = serial);
    * ``shard_size`` — pairs per shard (default: balanced at about four
      shards per worker);
    * ``rng`` — int seed or ``random.Random``; one seed reproduces the
      whole experiment (landmark selection and pair sampling included).
    """

    pairs: Optional[Sequence[Tuple]] = None
    pair_count: Optional[int] = None
    oracle: Optional[WeightOracle] = None
    max_k: int = 16
    trace_limit: int = 16
    workers: Optional[int] = None
    shard_size: Optional[int] = None
    rng: Union[int, random.Random, None] = None

    def __post_init__(self):
        # Deep immutability for the one mutable-typed field: a caller's
        # list is snapshotted into a tuple, so one options object can be
        # shared between a RoutingService and run_experiment (or across
        # threads) without aliasing the caller's data.
        if self.pairs is not None and not isinstance(self.pairs, tuple):
            object.__setattr__(self, "pairs", tuple(self.pairs))
        if self.max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {self.max_k}")
        if self.trace_limit < 0:
            raise ValueError(f"trace_limit must be >= 0, got {self.trace_limit}")
        if self.workers is not None and self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.shard_size is not None and self.shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {self.shard_size}")
        if self.pair_count is not None and self.pair_count < 0:
            raise ValueError(f"pair_count must be >= 0, got {self.pair_count}")


@dataclass(frozen=True)
class EvaluationReport:
    """The outcome of routing a set of pairs through a scheme."""

    scheme_name: str
    pairs: int
    delivered: int
    optimal: int
    stretch: StretchReport
    memory: MemoryReport
    failures: Tuple
    #: Hop-level packet traces, populated only when telemetry is enabled.
    traces: Tuple = field(default=(), compare=False)
    #: Routed pairs whose traces the capture dropped at its limit.
    traces_dropped: int = field(default=0, compare=False)

    @property
    def all_delivered(self) -> bool:
        return self.delivered == self.pairs

    @property
    def all_optimal(self) -> bool:
        return self.optimal == self.pairs

    def summary(self) -> str:
        if self.pairs == 0:
            return (
                f"{self.scheme_name}: no routable pairs evaluated "
                f"(empty pair set or fully disconnected instance); "
                f"memory max {self.memory.max_bits}b "
                f"(avg {self.memory.avg_bits:.1f}b)"
            )
        return (
            f"{self.scheme_name}: delivered {self.delivered}/{self.pairs}, "
            f"optimal {self.optimal}/{self.pairs}, max stretch "
            f"{self.stretch.max_stretch}, memory max {self.memory.max_bits}b "
            f"(avg {self.memory.avg_bits:.1f}b)"
        )


def sample_pairs(graph, count: Optional[int] = None,
                 rng: Union[int, random.Random, None] = None) -> list:
    """All ordered pairs, or a random sample of *count* of them.

    *rng* may be an int seed or a ``random.Random``; sampling is
    deterministic given either (the default is seed 0), so a recorded seed
    replays the identical workload.
    """
    nodes = sorted(graph.nodes())
    pairs = [(s, t) for s, t in itertools.permutations(nodes, 2)]
    if count is None or count >= len(pairs):
        return pairs
    rng = as_rng(rng) or random.Random(0)
    return rng.sample(pairs, count)


# ---------------------------------------------------------------------------
# the routing loop (one shard)
# ---------------------------------------------------------------------------


@dataclass
class ShardResult:
    """The mergeable outcome of routing one contiguous slice of pairs.

    Serial evaluation is the one-shard special case; the parallel engine
    folds many of these (in shard order) into the same aggregate a single
    pass would produce.  ``registry``/``spans`` carry a worker process's
    telemetry back to the parent and stay ``None`` on in-process shards.
    """

    routed: int
    delivered: int
    optimal: int
    stretch: StretchReport
    failures: List[Tuple]
    traces: Tuple = ()
    traces_dropped: int = 0
    registry: Optional[object] = None
    spans: Optional[List] = None
    #: Worker-side run events for this shard (folded in shard order by the
    #: parent, see ``repro.core.parallel``); None on in-process shards.
    events: Optional[List] = None
    #: Shard identity/timing stamped by the parallel engine's workers —
    #: the raw material of the run manifest's per-shard timeline.
    shard_id: Optional[int] = None
    pid: Optional[int] = None
    started_at: Optional[float] = None
    duration_s: Optional[float] = None
    #: Which attempt produced this result (0 = first issue); >0 means the
    #: shard was re-issued after a worker loss or timeout.
    attempt: Optional[int] = None

    def merge(self, other: "ShardResult") -> None:
        self.routed += other.routed
        self.delivered += other.delivered
        self.optimal += other.optimal
        self.stretch = self.stretch.merge(other.stretch)
        self.failures.extend(other.failures)
        self.traces = self.traces + other.traces
        self.traces_dropped += other.traces_dropped


def route_shard(algebra: RoutingAlgebra, scheme: RoutingScheme,
                oracle: WeightOracle, pairs: Iterable[Tuple],
                max_k: int = 16, trace_limit: int = 16,
                shard_id: Optional[int] = None,
                attempt: int = 0) -> ShardResult:
    """Route *pairs* through *scheme*, verifying each against *oracle*.

    Unreachable pairs (preferred weight ``PHI``) are skipped — the model
    only promises routes where a traversable path exists.  A compilable
    scheme is evaluated on the compiled walk
    (:func:`repro.routing.compiled_query.evaluate_shard`) whether or not
    anything is observing; every other shard, and every shard under
    ``REPRO_QUERY_ENGINE=reference``, takes :func:`_reference_shard`.
    Both fill the ``evaluate.hops`` histogram when telemetry is on.  The
    stretch report folds the walk's per-k counts with *max_k*
    (:meth:`StretchReport.from_counts`) and measures its weight samples,
    or the referee's, with :func:`measure_stretch`: the same report
    either way.
    Traces are captured when telemetry is on and no caller capture is
    already active, so an explicit ``with obs.capture_traces():`` keeps
    collecting into the caller's buffer.

    A lazy *oracle* has its per-source structures bulk-built up front for
    exactly this shard's sources (the ``oracle_trees`` span), so the
    evaluation itself stays pure lookup and a shard touching ``k``
    sources costs ``k`` tree builds, not ``n``.

    *shard_id*/*attempt* identify this invocation to the deterministic
    fault-injection hook (:func:`maybe_inject_fault`); both are None/0 on
    serial runs, which therefore never inject.
    """
    maybe_inject_fault(shard_id, attempt)
    events_on = _events.enabled()
    pairs = list(pairs)
    # The shard's distinct sources in first-appearance order — the same
    # order ``ensure_sources`` would dedup to, materialized once for both
    # the bulk build and the event payload.
    shard_sources = list(dict.fromkeys(s for s, _ in pairs))
    if hasattr(oracle, "ensure_sources"):
        built_before = getattr(oracle, "trees_built", 0)
        with _obs_tracing.span("oracle_trees", scheme=scheme.name):
            oracle.ensure_sources(shard_sources)
        if events_on:
            _events.emit("oracle_trees_built",
                         sources=len(shard_sources),
                         built=getattr(oracle, "trees_built", 0) - built_before)
    if events_on:
        # At least one durable heartbeat per shard, then one every
        # pair-count stride; wall-clock extras ride the live-only path so
        # the durable stream stays deterministic under any scheduling.
        _events.emit("shard_heartbeat", pairs_done=0, pairs_total=len(pairs))
    own_capture = (_telemetry_enabled()
                   and _obs_tracing.active_capture() is None)
    with _obs_tracing.span("route_pairs", scheme=scheme.name), \
            (_obs_tracing.capture_traces(limit=trace_limit) if own_capture else
             nullcontext()) as capture:
        walked = None
        if _query_engine.resolve_query_engine() == "batch":
            from repro.routing import compiled_query as _compiled_query

            walked = _compiled_query.evaluate_shard(algebra, scheme, oracle,
                                                    pairs)
        if walked is None:
            routed, delivered, optimal, failures, samples = _reference_shard(
                algebra, scheme, oracle, pairs)
            counts = ()
        else:
            routed, delivered, optimal, failures, counts, samples = walked
            if events_on:
                # The referee's durable heartbeat cadence, so the shard's
                # event stream is engine-proof.
                stride = max(1, len(pairs) // HEARTBEATS_PER_SHARD)
                for done in range(stride, len(pairs) + 1, stride):
                    _events.emit("shard_heartbeat", pairs_done=done,
                                 pairs_total=len(pairs))
    stretch = StretchReport.from_counts(scheme.name, counts, max_k).merge(
        measure_stretch(algebra, samples, scheme_name=scheme.name,
                        max_k=max_k))
    return ShardResult(
        routed=routed, delivered=delivered, optimal=optimal,
        stretch=stretch, failures=failures,
        traces=tuple(capture.traces) if capture else (),
        traces_dropped=capture.dropped if capture else 0,
    )


def _reference_shard(algebra: RoutingAlgebra, scheme: RoutingScheme,
                     oracle: WeightOracle, pairs: Sequence[Tuple]) -> Tuple:
    """The referee: route *pairs* one at a time through ``scheme.route``.

    Returns ``(routed, delivered, optimal, failures, samples)``, with
    failures and one ``(preferred, realized)`` weight sample per
    delivered pair in pair order, for every shard the walk cannot take
    (no numpy, an algebra mismatch, an uncompilable scheme) and for the
    tests that hold the walk to it.  Every route is traced into the
    active capture.
    """
    events_on = _events.enabled()
    registry = _telemetry()
    registry.counter("query_engine.reference_pairs").inc(len(pairs))
    hops = registry.histogram("evaluate.hops", scheme=scheme.name)
    stride = max(1, len(pairs) // HEARTBEATS_PER_SHARD)
    last_live_heartbeat = time.monotonic()
    routed = optimal = 0
    failures: List[Tuple] = []
    samples: List[Tuple] = []
    for done, (s, t) in enumerate(pairs, 1):
        if events_on:
            if done % stride == 0:
                _events.emit("shard_heartbeat", pairs_done=done,
                             pairs_total=len(pairs))
                last_live_heartbeat = time.monotonic()
            elif (time.monotonic() - last_live_heartbeat
                  >= LIVE_HEARTBEAT_INTERVAL_S):
                _events.emit("shard_heartbeat", durable=False,
                             pairs_done=done, pairs_total=len(pairs))
                last_live_heartbeat = time.monotonic()
        preferred = oracle(s, t)
        if is_phi(preferred):
            continue
        routed += 1
        pair_hops, pair_optimal = _verify_pair(algebra, scheme, s, t,
                                               preferred, failures, samples)
        optimal += pair_optimal
        if pair_hops is not None:
            hops.observe(pair_hops)
    return routed, len(samples), optimal, failures, samples


def _verify_pair(algebra: RoutingAlgebra, scheme: RoutingScheme, s, t,
                 preferred, failures: List[Tuple], samples: List[Tuple]
                 ) -> Tuple[Optional[int], bool]:
    """Route one pair hop by hop onto *failures* or *samples*.

    Returns ``(hops, optimal)``: the hop count (None when routing
    raised) and whether the realized weight equals *preferred*.  The
    referee calls it for every pair, the walk for each pair it cannot
    replicate.
    """
    try:
        result = scheme.route(s, t)
    except ReproError as exc:
        failures.append((s, t, str(exc)))
        return None, False
    if not result.delivered:
        failures.append((s, t, result.reason))
        return result.hops, False
    realized = scheme.realized_weight(result)
    samples.append((preferred, realized))
    return result.hops, algebra.eq(realized, preferred)


def finalize_report(scheme: RoutingScheme, merged: ShardResult) -> EvaluationReport:
    """Turn the (merged) shard outcome into the public report."""
    if _telemetry_enabled():
        registry = _telemetry()
        registry.counter("evaluate.pairs", scheme=scheme.name).inc(merged.routed)
        registry.counter("evaluate.delivered", scheme=scheme.name).inc(merged.delivered)
        registry.counter("evaluate.optimal", scheme=scheme.name).inc(merged.optimal)
    return EvaluationReport(
        scheme_name=scheme.name,
        pairs=merged.routed,
        delivered=merged.delivered,
        optimal=merged.optimal,
        stretch=merged.stretch,
        memory=memory_report(scheme),
        failures=tuple(merged.failures[:MAX_REPORTED_FAILURES]),
        traces=merged.traces,
        traces_dropped=merged.traces_dropped,
    )


# ---------------------------------------------------------------------------
# the public evaluation entry points
# ---------------------------------------------------------------------------

def evaluate_scheme(graph, algebra: RoutingAlgebra, scheme: RoutingScheme,
                    options: Optional[EvaluationOptions] = None) -> EvaluationReport:
    """Route pairs through *scheme*, verify against the exact oracle, report.

    All knobs travel in ``options`` (an :class:`EvaluationOptions`, passed
    positionally or by keyword); with ``options=None`` the defaults apply
    (all ordered pairs, cached oracle, serial).  Any other value raises
    ``TypeError``.

    With telemetry enabled (:func:`repro.obs.enable`), the evaluation
    runs the same engine and additionally records the ``evaluate.hops``
    histogram and captures up to ``options.trace_limit`` packet traces,
    surfaced on ``EvaluationReport.traces``.  With ``options.workers > 1``
    shards are evaluated across worker processes and merged exactly
    (including the workers' telemetry); the report is identical to a
    serial run.
    """
    if options is None:
        options = EvaluationOptions()
    elif not isinstance(options, EvaluationOptions):
        raise TypeError(f"options must be an EvaluationOptions, "
                        f"not {type(options).__name__}")

    if options.pairs is not None:
        pairs = list(options.pairs)
    else:
        pairs = sample_pairs(graph, count=options.pair_count, rng=options.rng)
    oracle = options.oracle
    if oracle is None:
        oracle = oracle_cache.get(graph, algebra, attr=scheme.attr,
                                  scheme_name=scheme.name)

    workers = options.workers or 0
    if workers > 1 and len(pairs) > 1:
        from repro.core import parallel

        merged = parallel.evaluate_sharded(
            graph, algebra, scheme, oracle, pairs,
            workers=workers, shard_size=options.shard_size,
            max_k=options.max_k, trace_limit=options.trace_limit,
        )
    else:
        merged = route_shard(algebra, scheme, oracle, pairs,
                             max_k=options.max_k, trace_limit=options.trace_limit)
    return finalize_report(scheme, merged)


@dataclass(frozen=True)
class ExperimentResult:
    """What :func:`run_experiment` hands back: the scheme and its report."""

    scheme: RoutingScheme
    report: EvaluationReport

    def summary(self) -> str:
        return self.report.summary()


def run_experiment(graph, algebra: RoutingAlgebra, *, mode: str = "auto",
                   options: Optional[EvaluationOptions] = None) -> ExperimentResult:
    """Build the prescribed scheme for *algebra* and evaluate it — one call.

    The single public entry point the CLI, benchmarks and tests share:
    ``options.rng`` (an int seed or ``random.Random``) is threaded through
    both scheme construction (landmark selection) and pair sampling, so one
    seed reproduces the entire experiment bit for bit.
    """
    from repro.core.compiler import build_scheme

    if options is None:
        options = EvaluationOptions()
    rng = as_rng(options.rng)
    scheme = build_scheme(graph, algebra, mode=mode, rng=rng)
    if rng is not None:
        options = replace(options, rng=rng)
    report = evaluate_scheme(graph, algebra, scheme, options=options)
    return ExperimentResult(scheme=scheme, report=report)
