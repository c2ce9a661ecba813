"""The policy routing-function model of Section 2.3.

A *policy routing function* maps ``(node, header) -> (new header, port)``,
together with node labels and local edge (port) labels.  Repeatedly
applying the local function forwards a packet hop by hop; the model is
oblivious — the route depends only on the packet header and static local
state — yet expressive enough for destination-based forwarding, label
swapping and source-destination forwarding alike.

Every concrete scheme implements :class:`RoutingScheme`; the shared
:meth:`RoutingScheme.route` driver performs the actual hop-by-hop
simulation and enforces the model's constraints (decisions may consult
only the current node's local state and the header).
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.exceptions import DeliveryError, RoutingError
from repro.graphs.weighting import WEIGHT_ATTR
from repro.obs import tracing as _obs_tracing
from repro.obs.metrics import enabled as _telemetry_enabled
from repro.obs.metrics import metrics as _telemetry


class Action(enum.Enum):
    """What a local routing function tells the node to do with a packet."""

    DELIVER = "deliver"
    FORWARD = "forward"


@dataclass(frozen=True)
class Decision:
    """The outcome of one local routing-function evaluation."""

    action: Action
    port: Optional[int] = None
    header: Optional[object] = None

    @staticmethod
    def deliver() -> "Decision":
        return Decision(Action.DELIVER)

    @staticmethod
    def forward(port: int, header) -> "Decision":
        return Decision(Action.FORWARD, port=port, header=header)


@dataclass(frozen=True)
class RouteResult:
    """A completed (or failed) hop-by-hop forwarding simulation."""

    source: object
    target: object
    path: Tuple
    delivered: bool
    reason: str = ""

    @property
    def hops(self) -> int:
        return len(self.path) - 1


class PortMap:
    """Local edge labelling: ports ``1..deg(v)`` per node (Section 2.3).

    Ports are assigned to neighbors in increasing node-id order, so the
    labelling carries no routing information beyond identification —
    exactly the model's requirement.  For digraphs, out-neighbors are
    numbered.
    """

    def __init__(self, graph):
        self.graph = graph
        neighbor_iter = graph.successors if graph.is_directed() else graph.neighbors
        self._ports: Dict[object, Dict[object, int]] = {}
        self._neighbors: Dict[object, Dict[int, object]] = {}
        for node in graph.nodes():
            ordered = sorted(neighbor_iter(node))
            self._ports[node] = {nbr: i + 1 for i, nbr in enumerate(ordered)}
            self._neighbors[node] = {i + 1: nbr for i, nbr in enumerate(ordered)}

    def degree(self, node) -> int:
        return len(self._ports[node])

    def max_degree(self) -> int:
        """The largest degree of the graph (1 when it has no nodes)."""
        return max(map(len, self._ports.values()), default=1)

    def index_rows(self, index: Dict) -> List[Dict[int, int]]:
        """The ports by node index, *index* numbering the nodes 0..n-1 in
        its own order: row ``index[u]`` maps ``index[v]`` to
        :meth:`port` ``(u, v)``."""
        return [{index[nbr]: port for nbr, port in self._ports[node].items()}
                for node in index]

    def port(self, node, neighbor) -> int:
        """The local port at *node* leading to *neighbor*."""
        try:
            return self._ports[node][neighbor]
        except KeyError:
            raise RoutingError(f"{neighbor!r} is not a neighbor of {node!r}") from None

    def neighbor(self, node, port: int):
        """The node at the far end of *port* at *node*."""
        try:
            return self._neighbors[node][port]
        except KeyError:
            raise RoutingError(f"node {node!r} has no port {port!r}") from None

    def first_hop_port(self, path) -> int:
        """Port at ``path[0]`` toward ``path[1]``."""
        if len(path) < 2:
            raise RoutingError("need at least one hop to compute a port")
        return self.port(path[0], path[1])


class RoutingScheme(abc.ABC):
    """A built routing function for one (graph, algebra) instance.

    Subclasses precompute their tables in ``__init__`` and expose:

    * :meth:`initial_header` — the header the source stamps on a packet;
    * :meth:`local_decision` — the local routing function ``R_u(h)``;
    * :meth:`table_bits` / :meth:`label_bits` — memory accounting.
    """

    #: Scheme name for reports.
    name = "abstract-scheme"

    def __init__(self, graph, algebra, attr: str = WEIGHT_ATTR):
        self.graph = graph
        self.algebra = algebra
        self.attr = attr
        self.ports = PortMap(graph)

    # -- to implement -------------------------------------------------

    @abc.abstractmethod
    def initial_header(self, source, target):
        """Header for a fresh packet from *source* to *target*."""

    @abc.abstractmethod
    def local_decision(self, node, header) -> Decision:
        """Evaluate the local routing function ``R_node(header)``."""

    @abc.abstractmethod
    def table_bits(self, node) -> int:
        """Bits encoding the local routing function at *node*."""

    @abc.abstractmethod
    def label_bits(self, node) -> int:
        """Bits encoding the label (address) of *node*."""

    # -- optional telemetry hooks ------------------------------------

    def header_bits(self, header) -> Optional[int]:
        """Bits of an in-flight packet header, when the scheme accounts them.

        Returns ``None`` for schemes without a bit-level header encoding;
        concrete schemes override this so traced routes can report the
        per-hop header size consistently with :mod:`repro.routing.memory`.
        """
        return None

    # -- shared driver ------------------------------------------------

    def route(self, source, target, max_hops: Optional[int] = None) -> RouteResult:
        """Forward a packet hop by hop; never raises on delivery failure.

        *max_hops* defaults to ``4n``, generous enough for any stretch-3
        scheme while still catching forwarding loops.

        When a trace capture is active (:func:`repro.obs.capture_traces`)
        one :class:`repro.obs.HopEvent` is emitted per local routing-
        function evaluation; with telemetry enabled, packet/hop metrics are
        recorded.  Both paths are skipped entirely by default.
        """
        if max_hops is None:
            max_hops = 4 * self.graph.number_of_nodes() + 8
        capture = _obs_tracing.active_capture()
        trace = capture.begin(self.name, source, target) if capture is not None else None
        if source == target:
            if trace is not None:
                trace.add(source, Action.DELIVER.value, None, None, None, None)
                trace.finish(True)
            return RouteResult(source, target, (source,), True)
        header = self.initial_header(source, target)
        current = source
        path = [source]
        result = None
        for _ in range(max_hops):
            decision = self.local_decision(current, header)
            if trace is not None:
                if decision.action is Action.DELIVER:
                    trace.add(current, Action.DELIVER.value, None, None,
                              header, self.header_bits(header))
                else:
                    trace.add(current, Action.FORWARD.value, decision.port,
                              self.ports.neighbor(current, decision.port),
                              header, self.header_bits(header))
            if decision.action is Action.DELIVER:
                if current != target:
                    result = RouteResult(
                        source, target, tuple(path), False,
                        reason=f"delivered at wrong node {current!r}",
                    )
                else:
                    result = RouteResult(source, target, tuple(path), True)
                break
            header = decision.header
            current = self.ports.neighbor(current, decision.port)
            path.append(current)
        if result is None:
            result = RouteResult(source, target, tuple(path), False,
                                 reason="hop limit exceeded")
        if trace is not None:
            trace.finish(result.delivered, result.reason)
        if _telemetry_enabled():
            registry = _telemetry()
            registry.counter("route.packets", scheme=self.name).inc()
            if result.delivered:
                registry.histogram("route.hops", scheme=self.name).observe(result.hops)
            else:
                registry.counter("route.failures", scheme=self.name).inc()
        return result

    def route_or_raise(self, source, target, max_hops: Optional[int] = None) -> RouteResult:
        """Like :meth:`route` but raises :class:`DeliveryError` on failure."""
        result = self.route(source, target, max_hops=max_hops)
        if not result.delivered:
            raise DeliveryError(source, target, result.reason, result.path)
        return result

    def realized_weight(self, result: RouteResult):
        """The algebra weight of the realized path (for stretch analysis)."""
        return self.algebra.path_weight(self.graph, list(result.path), attr=self.attr)
