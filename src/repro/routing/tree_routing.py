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

One labeller, :func:`heavy_path_tree`, labels a tree given as parent
indexes, breaking every tie by node rank (the nodes' own order).
:class:`TreeRoutingScheme` converts its tree to parent indexes once and
keeps them; the Cowen scheme labels the tree store's parent rows
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.algebra.base import RoutingAlgebra
from repro.exceptions import NotApplicableError, RoutingError
from repro.frozen import FrozenTable
from repro.graphs.weighting import WEIGHT_ATTR
from repro.obs.tracing import span
from repro.paths.spanning_tree import preferred_spanning_tree
from repro.routing.memory import bits_for_count, label_bits_for_nodes, port_bits
from repro.routing.model import Decision, RoutingScheme


def node_state_bits(n: int, degree: int) -> int:
    """Bits of one node's tree-routing state in an n-node network."""
    node_bits = label_bits_for_nodes(n)
    bits = 2 * node_bits  # own DFS interval
    bits += 2 * node_bits  # heavy child's interval (or absent-markers)
    bits += 2 * port_bits(degree)  # parent + heavy ports
    bits += bits_for_count(max(2, n.bit_length()))  # light depth <= log2 n
    return bits


def tree_label_bits(n: int, label, light_port_bits: int) -> int:
    """Bits of a tree label ``(dfs, light ports)``: a DFS number plus one
    port of *light_port_bits* (those of the graph's largest degree) per
    light edge."""
    return label_bits_for_nodes(n) + len(label[1]) * light_port_bits


@dataclass(frozen=True)
class HeavyPathTree:
    """The heavy-path state of one rooted tree, as read-only columns.

    ``index`` maps a node to its position in every column (one
    :class:`~repro.frozen.FrozenTable` all trees of a scheme share).  Per
    node: ``dfs``, its preorder number (-1 off the tree); ``end``, the
    last DFS number of its subtree (-2 off the tree); ``parent_port`` and
    ``heavy_port`` (0 for none); ``heavy_end``, the last DFS number of the
    heavy child's subtree, whose first is ``dfs + 1``; and ``labels``, its
    light-port sequence, whose length is its light depth.
    """

    index: Dict
    dfs: Tuple[int, ...]
    end: Tuple[int, ...]
    parent_port: Tuple[int, ...]
    heavy_port: Tuple[int, ...]
    heavy_end: Tuple[int, ...]
    labels: Tuple[Tuple[int, ...], ...]

    def _slot(self, node) -> int:
        i = self.index[node]
        if self.dfs[i] < 0:
            raise KeyError(node)
        return i

    def label(self, node) -> Tuple[int, Tuple[int, ...]]:
        """The (dfs number, light-port sequence) address of *node*."""
        i = self._slot(node)
        return (self.dfs[i], self.labels[i])

    def next_port(self, node, header) -> Optional[int]:
        """The port at *node* toward *header*'s node, None to deliver."""
        target_dfs, light_ports = header
        i = self._slot(node)
        dfs = self.dfs[i]
        if target_dfs == dfs:
            return None
        if not (dfs <= target_dfs <= self.end[i]):
            if not self.parent_port[i]:
                raise RoutingError(f"root {node!r} asked to route to foreign dfs {target_dfs}")
            return self.parent_port[i]
        if self.heavy_port[i] and dfs + 1 <= target_dfs <= self.heavy_end[i]:
            return self.heavy_port[i]
        # The target sits below a light child of this very node: the next
        # light port on the root->target path is ours.
        depth = len(self.labels[i])
        if depth >= len(light_ports):
            raise RoutingError(f"malformed label {header!r} at node {node!r}")
        return light_ports[depth]


def heavy_path_tree(parent: List[int], root: int, by_rank: Sequence[int],
                    port_rows: Sequence[Dict[int, int]],
                    index: Dict) -> HeavyPathTree:
    """Label the tree *parent* describes, rooted at index *root*.

    ``parent[i]`` is the index of ``i``'s parent, -1 at the tree's root
    and off the tree; the tree is re-rooted at *root* in place.
    *by_rank* lists every index in node-rank order, and ``port_rows[i]``
    maps a neighbour's index to its port at ``i``
    (:meth:`~repro.routing.model.PortMap.index_rows`).
    """
    previous, node = -1, root  # reverse the parent pointers above root
    while node != -1:
        up = parent[node]
        parent[node] = previous
        previous, node = node, up
    n = len(parent)
    # Children in node-rank order: max() below keeps the first of equal
    # subtrees, so the heavy child's ties go to the lowest-ranked child.
    children: List[List[int]] = [[] for _ in range(n)]
    for i in by_rank:
        if parent[i] >= 0:
            children[parent[i]].append(i)
    order = [root]
    for node in order:
        order += children[node]
    size = [0] * n
    for node in reversed(order):
        size[node] += 1
        if parent[node] >= 0:
            size[parent[node]] += size[node]

    dfs = [-1] * n
    parent_port = [0] * n
    heavy_port = [0] * n
    heavy_end = [-1] * n
    labels: List[Tuple[int, ...]] = [()] * n
    dfs[root] = 0
    # Preorder DFS numbers, heavy child first: each child's subtree takes
    # the next size[kid] numbers after those of the children before it.
    for node in order:
        kids = children[node]
        if not kids:
            continue
        ports = port_rows[node]
        heavy = max(kids, key=size.__getitem__)
        start = dfs[node] + 1
        heavy_port[node] = ports[heavy]
        heavy_end[node] = start + size[heavy] - 1
        dfs[heavy] = start
        labels[heavy] = light = labels[node]
        start += size[heavy]
        for kid in kids:
            parent_port[kid] = port_rows[kid][node]
            if kid != heavy:
                dfs[kid] = start
                start += size[kid]
                labels[kid] = light + (ports[kid],)
    return HeavyPathTree(
        index=index, dfs=tuple(dfs),
        end=tuple([d + s - 1 for d, s in zip(dfs, size)]),
        parent_port=tuple(parent_port), heavy_port=tuple(heavy_port),
        heavy_end=tuple(heavy_end), labels=tuple(labels))


class TreeRoutingScheme(RoutingScheme):
    """Thorup-Zwick heavy-path routing over a given tree.

    *tree* is a tree on nodes of *graph* (by default the Lemma 1 preferred
    spanning tree of *graph* under *algebra*), rooted at its least node.
    Forwarding only ever uses tree edges; a packet with an endpoint off
    the tree raises :class:`~repro.exceptions.RoutingError`.  The state
    is one read-only :class:`HeavyPathTree`, ``_heavy_paths``, and the
    tree's parent indexes, ``_parents`` (a tuple, -1 at the root and off
    the tree).
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
            nodes = list(graph.nodes())
            index = FrozenTable((node, i) for i, node in enumerate(nodes))
            # The labeller re-roots its argument in place; these parents
            # are rooted at the tree's root already, so they stay as is.
            parents = self._parent_indexes(index)
            self._heavy_paths = heavy_path_tree(
                parents, index[self.root],
                sorted(range(len(nodes)), key=nodes.__getitem__),
                self.ports.index_rows(index), index)
            self._parents = tuple(parents)
        self._light_port_bits = port_bits(self.ports.max_degree())

    def _parent_indexes(self, index: Dict) -> List[int]:
        """The tree as parent indexes from the root (-1 off the tree).
        A tree edge off the graph raises, as ``PortMap.port`` does."""
        parent = [-1] * len(index)
        for kid, node in nx.bfs_predecessors(self.tree, self.root):
            self.ports.port(node, kid)
            self.ports.port(kid, node)
            parent[index[kid]] = index[node]
        return parent

    # -- the routing function -------------------------------------------

    def label(self, node) -> Tuple[int, Tuple[int, ...]]:
        """The (dfs number, light-port sequence) address of *node*."""
        return self._heavy_paths.label(node)

    def initial_header(self, source, target):
        for node in (source, target):
            if node not in self.tree:
                raise RoutingError(f"{node!r} is not on the routing tree")
        return self._heavy_paths.label(target)

    def local_decision(self, node, header) -> Decision:
        port = self._heavy_paths.next_port(node, header)
        if port is None:
            return Decision.deliver()
        return Decision.forward(port, header)

    # -- memory accounting ------------------------------------------------

    def table_bits(self, node) -> int:
        """A node's tree-routing state; one off the tree holds none."""
        if node not in self.tree:
            return 0
        return node_state_bits(self.graph.number_of_nodes(),
                               self.ports.degree(node))

    def label_bits(self, node) -> int:
        """A node's label, charged as a header; one off the tree has none."""
        return self.header_bits(self.label(node)) if node in self.tree else 0

    def header_bits(self, header) -> int:
        """Headers are node labels, charged exactly like :meth:`label_bits`."""
        return tree_label_bits(self.graph.number_of_nodes(), header,
                               self._light_port_bits)
