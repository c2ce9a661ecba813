"""Source-destination pair tables: the trivial scheme for non-isotone algebras.

When isotonicity fails (e.g. shortest-widest path, Table 1), preferred
paths from a node no longer form a tree, so destination-based forwarding is
impossible (Proposition 2).  The only trivial routing function stores a
separate entry for each source-destination pair whose preferred path
crosses the node — ``O(n^2 log d)`` bits per router, the upper bound the
paper quotes for SW while noting the gap to the ``Omega(n)`` lower bound
remains open.

The scheme is oracle-driven: any per-pair preferred-path solver (the exact
SW engine, exhaustive enumeration, ...) supplies the paths to install.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Tuple

from repro.algebra.base import RoutingAlgebra
from repro.exceptions import RoutingError
from repro.frozen import FrozenTable
from repro.graphs.weighting import WEIGHT_ATTR
from repro.obs.tracing import span
from repro.routing.memory import label_bits_for_nodes, port_bits, table_bits
from repro.routing.model import Decision, RoutingScheme

#: An oracle mapping a source node to {target: path (node sequence)}.
PathOracle = Callable[[object], Dict[object, Iterable]]


def shortest_widest_oracle(graph, attr: str = WEIGHT_ATTR) -> PathOracle:
    """Oracle built on the exact SW solver of :mod:`repro.paths.shortest_widest`.

    The graph is flattened once here and shared by every per-source solver
    run the oracle serves (all n of them when a pair table is built).
    """
    from repro.paths.kernel import compile_graph, resolve_engine
    from repro.paths.shortest_widest import shortest_widest_routes

    compiled = None
    if resolve_engine() != "reference":
        compiled = compile_graph(graph, attr)

    def oracle(source):
        return {
            target: route.path
            for target, route in shortest_widest_routes(
                graph, source, attr=attr, compiled=compiled).items()
        }

    return oracle


def enumeration_oracle(graph, algebra: RoutingAlgebra, attr: str = WEIGHT_ATTR,
                       cutoff=None) -> PathOracle:
    """Exhaustive oracle for small instances of arbitrary algebras."""
    from repro.paths.enumerate import preferred_by_enumeration

    def oracle(source):
        routes = {}
        for target in graph.nodes():
            if target == source:
                continue
            found = preferred_by_enumeration(graph, algebra, source, target,
                                             attr=attr, cutoff=cutoff)
            if found is not None:
                routes[target] = found.path
        return routes

    return oracle


class PairTableScheme(RoutingScheme):
    """Per-(source, target) forwarding state; the header carries both ids.

    ``_entries[u][(s, t)]`` is the port toward the next hop of the
    preferred ``s -> t`` path at ``u``.  Both levels are read-only
    (:class:`~repro.frozen.FrozenTable`): a different table is a
    different scheme.
    """

    name = "pair-table"

    def __init__(self, graph, algebra: RoutingAlgebra, oracle: PathOracle = None,
                 attr: str = WEIGHT_ATTR):
        super().__init__(graph, algebra, attr)
        if oracle is None:
            oracle = enumeration_oracle(graph, algebra, attr=attr)
        entries: Dict[object, Dict[Tuple, int]] = {
            node: {} for node in graph.nodes()
        }
        self._paths: Dict[Tuple, Tuple] = {}
        with span("table_encoding", scheme=self.name):
            for source in graph.nodes():
                for target, path in oracle(source).items():
                    path = tuple(path)
                    self._paths[(source, target)] = path
                    for u, v in zip(path, path[1:]):
                        entries[u][(source, target)] = self.ports.port(u, v)
        self._entries = FrozenTable(
            (node, FrozenTable(row)) for node, row in entries.items())

    def installed_path(self, source, target):
        """The preferred path the oracle installed for (source, target)."""
        return self._paths.get((source, target))

    def initial_header(self, source, target):
        return (source, target)

    def local_decision(self, node, header) -> Decision:
        source, target = header
        if node == target:
            return Decision.deliver()
        port = self._entries[node].get((source, target))
        if port is None:
            raise RoutingError(f"no pair entry for {header!r} at node {node!r}")
        return Decision.forward(port, header)

    def table_bits(self, node) -> int:
        entries = len(self._entries[node])
        key = 2 * label_bits_for_nodes(self.graph.number_of_nodes())
        value = port_bits(self.ports.degree(node))
        return table_bits(entries, key, value)

    def label_bits(self, node) -> int:
        return label_bits_for_nodes(self.graph.number_of_nodes())

    def header_bits(self, header) -> int:
        """The header carries both endpoint identifiers."""
        return 2 * label_bits_for_nodes(self.graph.number_of_nodes())
