"""Source-destination pair tables: the trivial scheme for non-isotone algebras.

When isotonicity fails (e.g. shortest-widest path, Table 1), preferred
paths from a node no longer form a tree, so destination-based forwarding is
impossible (Proposition 2).  The only trivial routing function stores a
separate entry for each source-destination pair whose preferred path
crosses the node — ``O(n^2 log d)`` bits per router, the upper bound the
paper quotes for SW while noting the gap to the ``Omega(n)`` lower bound
remains open.

The paths to install come from the tree store
(:class:`~repro.paths.store.PreferredWeightOracle`), which picks the
exact solver per algebra: the shortest-widest solver of
:mod:`repro.paths.shortest_widest`, exhaustive enumeration for other
non-isotone algebras, and generalized-Dijkstra trees for regular ones.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.algebra.base import RoutingAlgebra
from repro.exceptions import RoutingError
from repro.frozen import FrozenTable
from repro.graphs.weighting import WEIGHT_ATTR
from repro.obs.tracing import span
from repro.paths.store import PreferredWeightOracle
from repro.routing.memory import label_bits_for_nodes, port_bits, table_bits
from repro.routing.model import Decision, RoutingScheme


class PairTableScheme(RoutingScheme):
    """Per-(source, target) forwarding state; the header carries both ids.

    ``_entries[u][(s, t)]`` is the port toward the next hop of the
    preferred ``s -> t`` path at ``u``.  The paths come from a tree
    store: *oracle* (``build_scheme`` passes the one evaluation reads)
    or, without one, a private store.  Both levels are read-only
    (:class:`~repro.frozen.FrozenTable`): a different table is a
    different scheme.
    """

    name = "pair-table"

    def __init__(self, graph, algebra: RoutingAlgebra, attr: str = WEIGHT_ATTR,
                 oracle=None):
        super().__init__(graph, algebra, attr)
        if oracle is None:
            oracle = PreferredWeightOracle(graph, algebra, attr=attr)
        entries: Dict[object, Dict[Tuple, int]] = {
            node: {} for node in graph.nodes()
        }
        self._paths: Dict[Tuple, Tuple] = {}
        with span("table_encoding", scheme=self.name):
            for source in graph.nodes():
                for target, path in oracle.paths(source).items():
                    self._paths[(source, target)] = path
                    for u, v in zip(path, path[1:]):
                        entries[u][(source, target)] = self.ports.port(u, v)
        self._entries = FrozenTable(
            (node, FrozenTable(row)) for node, row in entries.items())

    def installed_path(self, source, target):
        """The preferred path installed for (source, target)."""
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
