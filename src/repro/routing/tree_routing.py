"""Compact routing on trees, and via Lemma 1 on selective+monotone algebras.

Theorem 1: a selective, monotone algebra maps to a preferred spanning tree
(Lemma 1), and routing over a tree is possible with logarithmic local
memory — the paper cites Fraigniaud-Gavoille [11] (5 log n-bit addresses,
3 log n bits of local memory) and Thorup-Zwick [5] (log^2 n-bit labels).

We implement the Thorup-Zwick-style heavy-path scheme:

* decompose the tree into heavy paths (each node's *heavy* child roots its
  largest subtree; edges to other children are *light*);
* label each node ``t`` with its DFS number plus the sequence of ports of
  the light edges on the root→t path — at most ``floor(log2 n)`` entries,
  since each light edge at least halves the subtree size;
* each node ``u`` stores O(log n) bits: its DFS interval, its heavy
  child's interval, the parent and heavy ports, and the number of light
  edges above it.

Routing at ``u`` toward label ``(dfs_t, L_t)``: deliver if ``dfs_t`` is
``u``'s own number; go to the parent if ``dfs_t`` falls outside ``u``'s
interval; descend into the heavy child if it falls inside the heavy
interval; otherwise the next edge on the root→t path is a light edge
departing from ``u`` itself, whose port is ``L_t[ell_u]``.

The resulting routes follow tree paths exactly, which by Lemma 1 are
preferred paths — i.e. **stretch 1**.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import networkx as nx

from repro.algebra.base import RoutingAlgebra
from repro.exceptions import NotApplicableError, RoutingError
from repro.frozen import FrozenTable
from repro.graphs.weighting import WEIGHT_ATTR
from repro.obs.tracing import span
from repro.paths.spanning_tree import preferred_spanning_tree
from repro.routing.memory import bits_for_count, label_bits_for_nodes, port_bits
from repro.routing.model import Decision, RoutingScheme


@dataclass(frozen=True)
class _NodeInfo:
    """The O(log n)-bit local state of one node."""

    dfs: int
    interval_end: int          # max DFS number in the subtree
    parent_port: Optional[int]
    heavy_port: Optional[int]
    heavy_dfs: Optional[int]
    heavy_end: Optional[int]
    light_depth: int           # number of light edges on the root->node path


class TreeRoutingScheme(RoutingScheme):
    """Thorup-Zwick heavy-path routing over a given tree.

    *tree* must span the nodes of *graph* (it defaults to the Lemma 1
    preferred spanning tree of *graph* under *algebra*).  Forwarding only
    ever uses tree edges.  The per-node state ``_info`` and the labels
    ``_labels`` are read-only (:class:`~repro.frozen.FrozenTable`).
    """

    name = "tree-routing"

    def __init__(self, graph, algebra: RoutingAlgebra, attr: str = WEIGHT_ATTR,
                 tree: Optional[nx.Graph] = None, check_properties: bool = True):
        super().__init__(graph, algebra, attr)
        if tree is None:
            with span("preferred_tree", scheme=self.name):
                tree = preferred_spanning_tree(graph, algebra, attr=attr,
                                               check_properties=check_properties)
        if not set(tree.nodes()) <= set(graph.nodes()):
            raise NotApplicableError("the routing tree has nodes outside the graph")
        if tree.number_of_nodes() == 0 or tree.number_of_edges() != tree.number_of_nodes() - 1:
            raise NotApplicableError("the routing tree must be a non-empty tree")
        # The tree may span only a subgraph (e.g. one SVFC cone in the
        # Theorem 7 scheme); routing is then defined between tree nodes.
        self.tree = tree
        self.root = min(tree.nodes())
        with span("table_encoding", scheme=self.name):
            self._build()

    # -- construction --------------------------------------------------

    def _build(self):
        children: Dict[object, list] = {}
        parent: Dict[object, Optional[object]] = {self.root: None}
        order = [self.root]
        for node in order:
            kids = sorted(k for k in self.tree.neighbors(node) if k != parent.get(node, object()))
            kids = [k for k in kids if k not in parent]
            for kid in kids:
                parent[kid] = node
            children[node] = kids
            order.extend(kids)

        size = {node: 1 for node in order}
        for node in reversed(order):
            if parent[node] is not None:
                size[parent[node]] += size[node]

        heavy: Dict[object, Optional[object]] = {}
        for node in order:
            kids = children[node]
            heavy[node] = max(kids, key=lambda k: (size[k], -k)) if kids else None

        # Iterative DFS assigning preorder numbers, heavy child first so a
        # heavy path gets consecutive numbers (not required for correctness,
        # but keeps intervals tight and deterministic).
        dfs: Dict[object, int] = {}
        interval_end: Dict[object, int] = {}
        counter = 0
        stack = [(self.root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                interval_end[node] = counter - 1
                continue
            dfs[node] = counter
            counter += 1
            stack.append((node, True))
            ordered_kids = children[node][:]
            if heavy[node] is not None:
                ordered_kids.remove(heavy[node])
                ordered_kids = [heavy[node]] + ordered_kids
            for kid in reversed(ordered_kids):
                stack.append((kid, False))

        light_depth = {self.root: 0}
        light_ports: Dict[object, Tuple[int, ...]] = {self.root: ()}
        for node in order:
            for kid in children[node]:
                if kid == heavy[node]:
                    light_depth[kid] = light_depth[node]
                    light_ports[kid] = light_ports[node]
                else:
                    light_depth[kid] = light_depth[node] + 1
                    light_ports[kid] = light_ports[node] + (self.ports.port(node, kid),)

        info: Dict[object, _NodeInfo] = {}
        for node in order:
            h = heavy[node]
            info[node] = _NodeInfo(
                dfs=dfs[node],
                interval_end=interval_end[node],
                parent_port=(
                    self.ports.port(node, parent[node]) if parent[node] is not None else None
                ),
                heavy_port=self.ports.port(node, h) if h is not None else None,
                heavy_dfs=dfs[h] if h is not None else None,
                heavy_end=interval_end[h] if h is not None else None,
                light_depth=light_depth[node],
            )
        self._info = FrozenTable(info)
        self._labels = FrozenTable(
            (node, (dfs[node], light_ports[node])) for node in order)

    # -- the routing function -------------------------------------------

    def label(self, node) -> Tuple[int, Tuple[int, ...]]:
        """The (dfs number, light-port sequence) address of *node*."""
        return self._labels[node]

    def initial_header(self, source, target):
        return self._labels[target]

    def local_decision(self, node, header) -> Decision:
        target_dfs, light_ports = header
        info = self._info[node]
        if target_dfs == info.dfs:
            return Decision.deliver()
        if not (info.dfs <= target_dfs <= info.interval_end):
            if info.parent_port is None:
                raise RoutingError(f"root {node!r} asked to route to foreign dfs {target_dfs}")
            return Decision.forward(info.parent_port, header)
        if info.heavy_dfs is not None and info.heavy_dfs <= target_dfs <= info.heavy_end:
            return Decision.forward(info.heavy_port, header)
        # The target sits below a light child of this very node: the next
        # light port on the root->target path is ours.
        if info.light_depth >= len(light_ports):
            raise RoutingError(f"malformed label {header!r} at node {node!r}")
        return Decision.forward(light_ports[info.light_depth], header)

    # -- memory accounting ------------------------------------------------

    def table_bits(self, node) -> int:
        n = self.graph.number_of_nodes()
        node_bits = label_bits_for_nodes(n)
        p_bits = port_bits(self.ports.degree(node))
        bits = 2 * node_bits  # own DFS interval
        bits += 2 * node_bits  # heavy child's interval (or absent-markers)
        bits += 2 * p_bits  # parent + heavy ports
        bits += bits_for_count(max(2, n.bit_length()))  # light depth <= log2 n
        return bits

    def label_bits(self, node) -> int:
        n = self.graph.number_of_nodes()
        dfs_bits = label_bits_for_nodes(n)
        _, light_ports = self._labels[node]
        d = max((self.ports.degree(v) for v in self.graph.nodes()), default=1)
        return dfs_bits + len(light_ports) * port_bits(d)

    def header_bits(self, header) -> int:
        """Headers are node labels, charged exactly like :meth:`label_bits`."""
        _, light_ports = header
        n = self.graph.number_of_nodes()
        d = max((self.ports.degree(v) for v in self.graph.nodes()), default=1)
        return label_bits_for_nodes(n) + len(light_ports) * port_bits(d)
