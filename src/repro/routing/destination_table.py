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
forces algebras the store refuses, runs the kernel once per destination
(:func:`~repro.paths.dijkstra.preferred_path_rows`).  The next-hop table
is the trees' parent rows read column by column.
"""

from __future__ import annotations

from itertools import compress

from repro.algebra.base import PHI, RoutingAlgebra
from repro.exceptions import NotApplicableError, RoutingError
from repro.frozen import FrozenTable
from repro.graphs.weighting import WEIGHT_ATTR
from repro.obs.tracing import span
# Not called here (the trees come as rows), but kept importable:
# perfbench/spans.py wraps this name to count scheme-side tree builds.
from repro.paths.dijkstra import preferred_path_tree  # noqa: F401
from repro.paths.dijkstra import compile_graph, preferred_path_rows
from repro.routing.memory import label_bits_for_nodes, port_bits, table_bits
from repro.routing.model import Decision, RoutingScheme


class DestinationTableScheme(RoutingScheme):
    """Per-destination routing tables; the header is the target's identifier.

    ``_next_hop[u][t]`` is the first hop of the preferred ``u -> t`` path.
    Both levels are read-only (:class:`~repro.frozen.FrozenTable`): a
    different table is a different scheme.  ``_weight_rows`` holds the
    tree store's weight row of every destination (in node order).
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
        nodes = list(graph.nodes())
        with span("preferred_trees", scheme=self.name):
            if unsafe:
                compiled = compile_graph(graph, attr)
                runs = [preferred_path_rows(compiled, algebra, target,
                                            unsafe=True) for target in nodes]
                weights = [run.weight for run in runs]
                parents = [run.parent for run in runs]
            else:
                if oracle is None:
                    from repro.core.simulate import PreferredWeightOracle

                    oracle = PreferredWeightOracle(graph, algebra, attr=attr)
                weights, parents = oracle.rows(nodes)
        self._weight_rows = tuple(weights)
        self._index = FrozenTable((node, i) for i, node in enumerate(nodes))
        # u's parent in the tree rooted at t IS its next hop toward t:
        # u's row is column u of the parent rows.
        node_at = nodes.__getitem__
        self._next_hop = FrozenTable(
            (u, FrozenTable(compress(zip(nodes, map(node_at, column)),
                                     map((0).__le__, column))))
            for u, column in zip(nodes, zip(*parents)))

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
            raise RoutingError(f"no route from {node!r} to {target!r}")
        return Decision.forward(self.ports.port(node, next_hop), header)

    def preferred_weight(self, source, target):
        """The preferred source→target weight this scheme realizes."""
        t, s = self._index.get(target), self._index.get(source)
        return PHI if t is None or s is None else self._weight_rows[t][s]

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
