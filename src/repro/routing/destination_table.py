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
``t -> u`` tree read backwards): ``u``'s parent in that tree.  The trees
come from a tree store (:class:`~repro.paths.store.PreferredWeightOracle`):
the one ``build_scheme`` passes, else a private one.  The scheme holds the
store's parent rows themselves, as the Cowen scheme does for its direct
entries, so node ``u``'s table is column ``u`` of those rows.
"""

from __future__ import annotations

from repro.algebra.base import PHI, RoutingAlgebra
from repro.exceptions import NotApplicableError, RoutingError
from repro.frozen import FrozenTable
from repro.graphs.weighting import WEIGHT_ATTR
from repro.obs.tracing import span
# Not called here (the trees come as rows), but kept importable:
# perfbench/spans.py wraps this name to count scheme-side tree builds.
from repro.paths.dijkstra import preferred_path_tree  # noqa: F401
from repro.paths.store import PreferredWeightOracle
from repro.routing.memory import label_bits_for_nodes, port_bits, table_bits
from repro.routing.model import Decision, RoutingScheme


class DestinationTableScheme(RoutingScheme):
    """Per-destination routing tables; the header is the target's identifier.

    ``_weight_rows`` and ``_parent_rows`` are the tree store's rows of
    every destination, in node order (``_nodes``, indexed by ``_index``):
    ``_parent_rows[t][u]`` is the index of the first hop of the preferred
    ``u -> t`` path, -1 where there is none.  The rows are tuples and the
    index a :class:`~repro.frozen.FrozenTable`: a different table is a
    different scheme.
    """

    name = "destination-table"

    def __init__(self, graph, algebra: RoutingAlgebra, attr: str = WEIGHT_ATTR,
                 oracle=None):
        super().__init__(graph, algebra, attr)
        if graph.is_directed():
            raise NotApplicableError(
                "destination tables are built via reversed Dijkstra trees and "
                "require an undirected graph"
            )
        declared = algebra.declared_properties()
        if declared.monotone is False or declared.isotone is False:
            raise NotApplicableError(
                f"Proposition 2: destination-based routing requires a regular "
                f"algebra; {algebra.name} declares monotone={declared.monotone}, "
                f"isotone={declared.isotone}"
            )
        nodes = list(graph.nodes())
        with span("preferred_trees", scheme=self.name):
            if oracle is None:
                oracle = PreferredWeightOracle(graph, algebra, attr=attr)
            weights, parents = oracle.rows(nodes)
        self._weight_rows = tuple(weights)
        self._parent_rows = tuple(parents)
        self._nodes = tuple(nodes)
        self._index = FrozenTable((node, i) for i, node in enumerate(nodes))

    def initial_header(self, source, target):
        return target

    def local_decision(self, node, header) -> Decision:
        target = header
        if node == target:
            return Decision.deliver()
        # u's parent in the tree rooted at t IS its next hop toward t.
        u, t = self._index[node], self._index.get(target)
        hop = -1 if t is None else self._parent_rows[t][u]
        if hop < 0:
            # No traversable preferred path: the model only promises routes
            # for pairs with a traversable path, so surface a stuck packet.
            raise RoutingError(f"no route from {node!r} to {target!r}")
        return Decision.forward(self.ports.port(node, self._nodes[hop]), header)

    def preferred_weight(self, source, target):
        """The preferred source→target weight this scheme realizes."""
        t, s = self._index.get(target), self._index.get(source)
        return PHI if t is None or s is None else self._weight_rows[t][s]

    def table_bits(self, node) -> int:
        # Reachability is symmetric (an undirected graph, a commutative ⊕):
        # the targets whose trees reach node, one entry each, are the
        # nodes its own tree reaches.
        entries = len(self._nodes) - self._parent_rows[self._index[node]].count(-1)
        key = label_bits_for_nodes(self.graph.number_of_nodes())
        value = port_bits(self.ports.degree(node))
        return table_bits(entries, key, value)

    def label_bits(self, node) -> int:
        return label_bits_for_nodes(self.graph.number_of_nodes())

    def header_bits(self, header) -> int:
        """The header is a bare destination identifier."""
        return label_bits_for_nodes(self.graph.number_of_nodes())
