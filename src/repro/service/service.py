"""The persistent :class:`RoutingService`: warm state, incremental updates.

A service owns one graph + algebra instance and keeps three pieces of
state warm across queries:

* the **scheme** (whatever :func:`repro.core.compiler.build_scheme`
  prescribes), rebuilt lazily — and deterministically, from the service's
  seed — after any mutation dirties it;
* a private lazy :class:`~repro.paths.store.PreferredWeightOracle`
  whose per-source trees accumulate across queries and survive mutations
  that provably cannot affect them (surgical invalidation).  It is also
  the scheme's tree store: the Cowen and destination-table schemes are
  built from its trees, so startup builds all ``n`` of them and a
  rebuild after a mutation builds only the trees it dropped;
* the oracle's :class:`~repro.paths.kernel.CompiledGraph`, weight-patched
  in place when a mutation allows it.

Mutations never rebuild anything eagerly: they invalidate, and the next
query pays exactly for what was dropped.  The correctness contract —
enforced by the equivalence suite in ``tests/service/`` — is that after
any interleaving of updates and queries, answers are bit-identical to a
cold service constructed from the mutated graph with the same options.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.algebra.base import PHI, RoutingAlgebra, is_phi
from repro.exceptions import GraphError, ReproError
from repro.graphs.weighting import WEIGHT_ATTR
from repro.obs import events as _events
from repro.obs import tracing as _obs_tracing
from repro.obs.metrics import enabled as _telemetry_enabled
from repro.obs.metrics import metrics as _telemetry
from repro.paths.store import OracleInvalidation, PreferredWeightOracle
from repro.routing.memory import MemoryReport, memory_report
from repro.routing.model import RoutingScheme
from repro.routing.stretch import minimal_stretch

#: Modes accepted by ServiceOptions (mirrors repro.core.compiler.MODES).
_MODES = ("auto", "exact", "compact")


@dataclass(frozen=True)
class ServiceOptions:
    """Construction-time knobs of a :class:`RoutingService`.

    * ``mode`` — scheme-compiler mode (``auto``/``exact``/``compact``);
    * ``attr`` — edge weight attribute;
    * ``seed`` — int seed for scheme construction (landmark selection).
      Every scheme (re)build derives a fresh ``random.Random(seed)``, so
      a warm service's scheme after any mutation equals a cold service's
      built from the mutated graph with the same seed;
    * ``max_k`` — largest stretch exponent probed per queried pair.

    Frozen, like :class:`~repro.core.simulate.EvaluationOptions`, so one
    options object can be shared between services and threads.
    """

    mode: str = "auto"
    attr: str = WEIGHT_ATTR
    seed: int = 0
    max_k: int = 16

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; pick one of {', '.join(_MODES)}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise TypeError(f"seed must be an int, got {self.seed!r}")
        if self.max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {self.max_k}")


@dataclass(frozen=True)
class RouteAnswer:
    """One routed pair: delivery, realized path, optimality and stretch.

    ``routable`` says a traversable preferred path exists (the preferred
    weight is not ``phi``); unroutable pairs short-circuit without
    touching the scheme.  ``stretch`` is the minimal ``k`` with
    ``realized ⪯ preferred^k`` (None when undelivered, unroutable, or
    beyond ``max_k``); ``optimal`` means realized = preferred exactly.
    """

    source: object
    target: object
    routable: bool
    delivered: bool
    path: Tuple
    hops: int
    preferred: object
    realized: object
    optimal: Optional[bool]
    stretch: Optional[int]
    reason: str = ""


@dataclass(frozen=True)
class UpdateResult:
    """The outcome of one mutation: what survived, what was invalidated.

    ``trees_kept``/``trees_dropped`` count the oracle's memoized
    per-source structures — all ``n`` sources for the schemes built from
    the oracle's trees; ``compiled_patched`` says the CSR arrays
    absorbed the change in place (weight updates on compiled edges).
    The scheme is always rebuilt lazily on the next query
    (``scheme_rebuild == "deferred"``) — landmark/cluster structure has
    no incremental story, but the rebuild is seeded so it matches a cold
    construction bit for bit, and it rebuilds only the dropped trees.
    """

    op: str
    u: object
    v: object
    weight: object
    trees_kept: int
    trees_dropped: int
    compiled_patched: bool
    scheme_rebuild: str = "deferred"


class RoutingService:
    """A long-lived routing server over one (graph, algebra) instance.

    Thread-safe: queries and updates serialize on one lock (the oracle
    additionally has its own build lock, so sharing its compiled graph
    with spawn shards stays safe).  The graph passed in is **owned** by
    the service — mutate it only through ``update_weight`` /
    ``fail_link`` / ``restore_link``, never directly, or the memoized
    state goes stale.
    """

    def __init__(self, graph, algebra: RoutingAlgebra,
                 options: Optional[ServiceOptions] = None):
        self.options = options or ServiceOptions()
        self.graph = graph
        self.algebra = algebra
        self.attr = self.options.attr
        self._oracle = PreferredWeightOracle(graph, algebra, attr=self.attr)
        self._scheme: Optional[RoutingScheme] = None
        #: (u, v) as failed -> stashed edge data, for restore_link.
        self._failed: Dict[Tuple, Dict] = {}
        self._lock = threading.RLock()
        self.queries = 0
        self.updates = 0
        self.scheme_builds = 0
        self.trees_kept = 0
        self.trees_dropped = 0
        # Build the scheme eagerly: serve startup is the natural place to
        # pay the one-off cost, and the first query stays cheap.
        with self._lock:
            self._ensure_scheme()

    # -- lifecycle ---------------------------------------------------------

    def _ensure_scheme(self) -> RoutingScheme:
        if self._scheme is None:
            from repro.core.compiler import build_scheme

            with _obs_tracing.span("service.build_scheme",
                                   algebra=self.algebra.name):
                self._scheme = build_scheme(
                    self.graph, self.algebra, mode=self.options.mode,
                    attr=self.attr, rng=random.Random(self.options.seed),
                    oracle=self._oracle)
            self.scheme_builds += 1
            if _telemetry_enabled():
                _telemetry().counter("service.scheme_builds").inc()
        return self._scheme

    @property
    def scheme(self) -> RoutingScheme:
        """The current scheme (rebuilding it first when dirtied)."""
        with self._lock:
            return self._ensure_scheme()

    # -- queries -----------------------------------------------------------

    def route(self, pairs: Iterable[Tuple]) -> List[RouteAnswer]:
        """Route a batch of ``(source, target)`` pairs through the scheme.

        Per-source oracle trees are bulk-ensured up front, so a batch
        touching ``k`` sources pays at most ``k`` tree builds (zero when
        warm); the loop itself is pure lookup plus hop-by-hop forwarding.
        """
        pairs = list(pairs)
        with self._lock:
            scheme = self._ensure_scheme()
            oracle = self._oracle
            with _obs_tracing.span("service.query", scheme=scheme.name,
                                   pairs=str(len(pairs))):
                oracle.ensure_sources(
                    s for s, t in pairs if s != t and s in self.graph)
                answers = [self._route_one(scheme, oracle, s, t)
                           for s, t in pairs]
            self.queries += len(pairs)
            if _telemetry_enabled():
                _telemetry().counter("service.queries").inc(len(pairs))
            if _events.enabled():
                _events.emit("service_query", pairs=len(pairs),
                             scheme=scheme.name,
                             delivered=sum(a.delivered for a in answers))
        return answers

    def _route_one(self, scheme, oracle, s, t) -> RouteAnswer:
        if s not in self.graph or t not in self.graph:
            return RouteAnswer(source=s, target=t, routable=False,
                               delivered=False, path=(), hops=0,
                               preferred=PHI, realized=None, optimal=None,
                               stretch=None, reason="unknown node")
        if s == t:
            return RouteAnswer(source=s, target=t, routable=True,
                               delivered=True, path=(s,), hops=0,
                               preferred=None, realized=None, optimal=True,
                               stretch=1, reason="")
        preferred = oracle(s, t)
        if is_phi(preferred):
            return RouteAnswer(source=s, target=t, routable=False,
                               delivered=False, path=(), hops=0,
                               preferred=PHI, realized=None, optimal=None,
                               stretch=None, reason="no traversable path")
        try:
            result = scheme.route(s, t)
        except ReproError as exc:
            return RouteAnswer(source=s, target=t, routable=True,
                               delivered=False, path=(), hops=0,
                               preferred=preferred, realized=None,
                               optimal=None, stretch=None, reason=str(exc))
        if not result.delivered:
            return RouteAnswer(source=s, target=t, routable=True,
                               delivered=False, path=tuple(result.path),
                               hops=result.hops, preferred=preferred,
                               realized=None, optimal=None, stretch=None,
                               reason=result.reason)
        realized = scheme.realized_weight(result)
        return RouteAnswer(
            source=s, target=t, routable=True, delivered=True,
            path=tuple(result.path), hops=result.hops, preferred=preferred,
            realized=realized, optimal=self.algebra.eq(realized, preferred),
            stretch=minimal_stretch(self.algebra, preferred, realized,
                                    max_k=self.options.max_k),
            reason="")

    def stretch(self, pairs: Iterable[Tuple]) -> List[Optional[int]]:
        """Per-pair minimal stretch exponents (None = undelivered/unbounded)."""
        return [answer.stretch for answer in self.route(pairs)]

    def memory(self) -> MemoryReport:
        """The current scheme's bit-level memory report."""
        with self._lock:
            return memory_report(self._ensure_scheme())

    def stats(self) -> dict:
        """Service + oracle counters (queries, updates, cache state)."""
        with self._lock:
            out = {
                "scheme": self._scheme.name if self._scheme else None,
                "nodes": self.graph.number_of_nodes(),
                "edges": self.graph.number_of_edges(),
                "queries": self.queries,
                "updates": self.updates,
                "scheme_builds": self.scheme_builds,
                "trees_kept": self.trees_kept,
                "trees_dropped": self.trees_dropped,
                "failed_links": len(self._failed),
                "oracle": self._oracle.stats(),
            }
        return out

    # -- mutations ---------------------------------------------------------

    def update_weight(self, u, v, weight) -> UpdateResult:
        """Replace the weight of existing edge ``(u, v)``."""
        with self._lock:
            if not self.graph.has_edge(u, v):
                raise GraphError(f"no edge {u!r} -> {v!r} to update")
            self.graph[u][v][self.attr] = weight
            invalidation = self._oracle.invalidate_edge(
                u, v, new_weight=weight, change="weight")
            return self._finish_update("update_weight", u, v, weight,
                                       invalidation)

    def fail_link(self, u, v) -> UpdateResult:
        """Remove edge ``(u, v)``, stashing its data for restore_link."""
        with self._lock:
            if not self.graph.has_edge(u, v):
                raise GraphError(f"no edge {u!r} -> {v!r} to fail")
            self._failed[(u, v)] = dict(self.graph[u][v])
            self.graph.remove_edge(u, v)
            invalidation = self._oracle.invalidate_edge(u, v, change="remove")
            return self._finish_update("fail_link", u, v, None, invalidation)

    def restore_link(self, u, v, weight=None) -> UpdateResult:
        """Re-insert a previously failed edge (or a brand-new one).

        With *weight* omitted the stashed attributes of the failed edge
        come back verbatim; a new edge requires an explicit weight.
        """
        with self._lock:
            if self.graph.has_edge(u, v):
                raise GraphError(f"edge {u!r} -> {v!r} already present")
            data = self._pop_failed(u, v)
            if data is None:
                if weight is None:
                    raise GraphError(
                        f"edge {u!r} -> {v!r} was never failed; "
                        f"pass an explicit weight to create it")
                data = {}
            if weight is not None:
                data[self.attr] = weight
            if self.attr not in data:
                raise GraphError(
                    f"stashed edge {u!r} -> {v!r} has no {self.attr!r}")
            self.graph.add_edge(u, v, **data)
            new_weight = data[self.attr]
            invalidation = self._oracle.invalidate_edge(
                u, v, new_weight=new_weight, change="add")
            return self._finish_update("restore_link", u, v, new_weight,
                                       invalidation)

    def _pop_failed(self, u, v) -> Optional[Dict]:
        data = self._failed.pop((u, v), None)
        if data is None and not self.graph.is_directed():
            data = self._failed.pop((v, u), None)
        return data

    def _finish_update(self, op, u, v, weight,
                       invalidation: OracleInvalidation) -> UpdateResult:
        # Landmark/cluster structure has no incremental repair: any edge
        # change may move ball radii or landmark sets, so the scheme is
        # dirtied wholesale and rebuilt (seeded) on the next query.
        self._scheme = None
        self.updates += 1
        self.trees_kept += invalidation.kept
        self.trees_dropped += invalidation.dropped
        if _telemetry_enabled():
            registry = _telemetry()
            registry.counter("service.updates", op=op).inc()
            registry.counter("service.invalidation.kept").inc(
                invalidation.kept)
            registry.counter("service.invalidation.dropped").inc(
                invalidation.dropped)
        if _events.enabled():
            _events.emit("service_update", op=op,
                         kept=invalidation.kept,
                         dropped=invalidation.dropped,
                         patched=invalidation.patched)
        return UpdateResult(op=op, u=u, v=v, weight=weight,
                            trees_kept=invalidation.kept,
                            trees_dropped=invalidation.dropped,
                            compiled_patched=invalidation.patched)
