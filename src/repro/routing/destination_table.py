"""Destination-based routing tables (Proposition 2 / Observation 1).

For a *regular* algebra the preferred paths emanating from a node form a
tree, so storing one ``(destination, port)`` entry per destination
implements the policy exactly — ``O(n log d)`` bits of local memory
(Observation 1).  Proposition 2 states this is possible *iff* the algebra
is regular, and Proposition 3 / Theorem 2 show that for strictly monotone
delimited algebras no scheme does asymptotically better: the table is
optimal up to a logarithmic factor.

Construction: one generalized-Dijkstra tree rooted at every destination
``t`` yields, via commutativity of ``⊕`` on the undirected graph, the
first hop of the preferred ``u -> t`` path for every ``u`` (the preferred
``t -> u`` tree read backwards).  The trees come from a tree store
(:class:`~repro.core.simulate.PreferredWeightOracle`): the one
``build_scheme`` passes, else a private one.  Only ``unsafe=True``, which
forces algebras the store refuses, runs ``preferred_path_tree`` once per
destination.
"""

from __future__ import annotations

from typing import Dict

from repro.algebra.base import RoutingAlgebra
from repro.exceptions import NotApplicableError
from repro.frozen import FrozenTable
from repro.graphs.weighting import WEIGHT_ATTR
from repro.obs.tracing import span
from repro.paths.dijkstra import preferred_path_tree
from repro.routing.memory import label_bits_for_nodes, port_bits, table_bits
from repro.routing.model import Decision, RoutingScheme


class DestinationTableScheme(RoutingScheme):
    """Per-destination routing tables; the header is the target's identifier.

    ``_next_hop[u][t]`` is the first hop of the preferred ``u -> t`` path.
    Both levels are read-only (:class:`~repro.frozen.FrozenTable`): a
    different table is a different scheme.
    """

    name = "destination-table"

    def __init__(self, graph, algebra: RoutingAlgebra, attr: str = WEIGHT_ATTR,
                 unsafe: bool = False, oracle=None):
        super().__init__(graph, algebra, attr)
        if graph.is_directed():
            raise NotApplicableError(
                "destination tables are built via reversed Dijkstra trees and "
                "require an undirected graph"
            )
        declared = algebra.declared_properties()
        if not unsafe and (declared.monotone is False or declared.isotone is False):
            raise NotApplicableError(
                f"Proposition 2: destination-based routing requires a regular "
                f"algebra; {algebra.name} declares monotone={declared.monotone}, "
                f"isotone={declared.isotone}"
            )
        next_hop: Dict[object, Dict[object, object]] = {
            node: {} for node in graph.nodes()
        }
        self._weight_to: Dict[object, Dict[object, object]] = {}
        with span("preferred_trees", scheme=self.name):
            if unsafe:
                trees = (preferred_path_tree(graph, algebra, target,
                                             attr=attr, unsafe=True)
                         for target in graph.nodes())
            else:
                if oracle is None:
                    from repro.core.simulate import PreferredWeightOracle

                    oracle = PreferredWeightOracle(graph, algebra, attr=attr)
                trees = oracle.trees(graph.nodes()).values()
            for tree in trees:
                target = tree.root
                self._weight_to[target] = tree.weight
                for node in tree.reachable():
                    # parent pointers walk toward the root (= destination), so
                    # the parent of u in the tree rooted at t IS u's next hop.
                    next_hop[node][target] = tree.parent[node]
        self._next_hop = FrozenTable(
            (node, FrozenTable(row)) for node, row in next_hop.items())

    def initial_header(self, source, target):
        return target

    def local_decision(self, node, header) -> Decision:
        target = header
        if node == target:
            return Decision.deliver()
        next_hop = self._next_hop[node].get(target)
        if next_hop is None:
            # No traversable preferred path: the model only promises routes
            # for pairs with a traversable path, so surface a stuck packet.
            from repro.exceptions import RoutingError

            raise RoutingError(f"no route from {node!r} to {target!r}")
        return Decision.forward(self.ports.port(node, next_hop), header)

    def preferred_weight(self, source, target):
        """The preferred source→target weight this scheme realizes."""
        from repro.algebra.base import PHI

        return self._weight_to.get(target, {}).get(source, PHI)

    def table_bits(self, node) -> int:
        entries = len(self._next_hop[node])
        key = label_bits_for_nodes(self.graph.number_of_nodes())
        value = port_bits(self.ports.degree(node))
        return table_bits(entries, key, value)

    def label_bits(self, node) -> int:
        return label_bits_for_nodes(self.graph.number_of_nodes())

    def header_bits(self, header) -> int:
        """The header is a bare destination identifier."""
        return label_bits_for_nodes(self.graph.number_of_nodes())
