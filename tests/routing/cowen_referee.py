"""A referee for Theorem 3's construction: dicts, networkx trees, algebra.lt.

The Cowen scheme builds its landmarks, balls, clusters and landmark-tree
labels from the tree store's index rows.  This module builds the same
objects the plain way, one dict lookup and one algebra comparison at a
time, so the tests can hold the index-row construction to it:

* landmark selection (the ``random``, ``degree`` and ``cowen``
  strategies) and landmark assignment with the ``(key, node)``
  tie-break, over the store's weight maps;
* balls by ``algebra.lt`` against the landmark's weight, and clusters as
  their transpose;
* each landmark's preferred-path tree as an undirected ``nx.Graph``,
  labelled by :func:`tree_state`: a breadth-first pass from the least
  node, children in node order, the largest subtree heavy (ties to the
  least child), preorder DFS numbers with the heavy child first, and the
  graph's :class:`~repro.routing.model.PortMap`;
* the memory bits of every node, summed tree by tree.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Dict

import networkx as nx

from repro.algebra.base import PHI
from repro.routing.memory import (
    MemoryReport,
    bits_for_count,
    label_bits_for_nodes,
    port_bits,
    table_bits,
)
from repro.routing.model import PortMap

#: One node's tree-routing state (``None`` where the node has no parent
#: or no heavy child).
NodeInfo = namedtuple("NodeInfo", "dfs interval_end parent_port heavy_port "
                                  "heavy_dfs heavy_end light_depth")


def _weight(trees, u, v):
    return None if u == v else trees[u].weight.get(v, PHI)


def clusters(graph, algebra, trees, landmarks):
    """``(landmark_of, clusters)`` for a landmark set, as plain dicts."""
    key = algebra.comparison_key()
    landmark_of = {}
    for u in graph.nodes():
        if u in landmarks:
            landmark_of[u] = u
            continue
        landmark_of[u] = min(
            landmarks, key=lambda l: (key(_weight(trees, u, l)), l))
    members = {u: set() for u in graph.nodes()}
    for v in graph.nodes():
        if v in landmarks:
            continue  # B(v) is empty for landmarks
        radius = _weight(trees, v, landmark_of[v])
        for u in graph.nodes():
            if u != v and algebra.lt(_weight(trees, v, u), radius):
                members[u].add(v)  # u ∈ B(v)  =>  v ∈ C(u)
    return landmark_of, members


def select_landmarks(graph, algebra, trees, strategy, rng,
                     cluster_threshold=None):
    """The landmark set *strategy* picks, consuming *rng* as the scheme does."""
    n = graph.number_of_nodes()
    if strategy == "random":
        size = min(n, max(1, math.ceil(math.sqrt(n * max(1.0, math.log(n))))))
        return set(rng.sample(sorted(graph.nodes()), size))
    if strategy == "degree":
        size = min(n, max(1, math.ceil(math.sqrt(n))))
        return set(sorted(graph.nodes(),
                          key=lambda v: (-graph.degree(v), v))[:size])
    threshold = cluster_threshold or max(4, int(round(n ** (2.0 / 3.0))))
    landmarks = {min(graph.nodes(), key=lambda v: (-graph.degree(v), v))}
    for _ in range(64):
        _, members = clusters(graph, algebra, trees, landmarks)
        overfull = sorted(
            (u for u in members
             if len(members[u]) > threshold and u not in landmarks),
            key=lambda u: (-len(members[u]), u))
        if not overfull:
            break
        landmarks.update(overfull[:8])
    return landmarks


def landmark_tree(graph, tree, attr) -> nx.Graph:
    """A store tree (a ``PathTree``) as an undirected spanning tree."""
    out = nx.Graph()
    out.add_nodes_from(graph.nodes())
    for node, parent in tree.parent.items():
        out.add_edge(node, parent, **{attr: graph[node][parent][attr]})
    return out


def tree_state(ports: PortMap, tree: nx.Graph):
    """``(info, labels)`` of heavy-path routing on *tree*, node by node."""
    root = min(tree.nodes())
    children: Dict = {}
    parent: Dict = {root: None}
    order = [root]
    for node in order:
        kids = [k for k in sorted(tree.neighbors(node)) if k not in parent]
        for kid in kids:
            parent[kid] = node
        children[node] = kids
        order.extend(kids)

    size = {node: 1 for node in order}
    for node in reversed(order):
        if parent[node] is not None:
            size[parent[node]] += size[node]
    heavy = {node: (min(kids, key=lambda k: (-size[k], k)) if kids else None)
             for node, kids in children.items()}

    dfs: Dict = {}
    interval_end: Dict = {}
    counter = 0
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            interval_end[node] = counter - 1
            continue
        dfs[node] = counter
        counter += 1
        stack.append((node, True))
        kids = children[node][:]
        if heavy[node] is not None:
            kids.remove(heavy[node])
            kids = [heavy[node]] + kids
        for kid in reversed(kids):
            stack.append((kid, False))

    light_ports = {root: ()}
    for node in order:
        for kid in children[node]:
            light_ports[kid] = light_ports[node] + (
                () if kid == heavy[node] else (ports.port(node, kid),))

    info = {}
    for node in order:
        h = heavy[node]
        info[node] = NodeInfo(
            dfs=dfs[node], interval_end=interval_end[node],
            parent_port=(None if parent[node] is None
                         else ports.port(node, parent[node])),
            heavy_port=None if h is None else ports.port(node, h),
            heavy_dfs=None if h is None else dfs[h],
            heavy_end=None if h is None else interval_end[h],
            light_depth=len(light_ports[node]))
    labels = {node: (dfs[node], light_ports[node]) for node in order}
    return info, labels


def _tree_table_bits(n, degree):
    node_bits = label_bits_for_nodes(n)
    return (4 * node_bits + 2 * port_bits(degree)
            + bits_for_count(max(2, n.bit_length())))


def _tree_label_bits(graph, ports, label):
    d = max((ports.degree(v) for v in graph.nodes()), default=1)
    return label_bits_for_nodes(graph.number_of_nodes()) + \
        len(label[1]) * port_bits(d)


def cowen_memory(graph, landmarks, landmark_of, members, tree_labels,
                 name="cowen-stretch3") -> MemoryReport:
    """The Cowen scheme's memory report, every landmark tree charged."""
    ports = PortMap(graph)
    n = graph.number_of_nodes()
    node_bits = label_bits_for_nodes(n)
    per_node = {}
    for node in graph.nodes():
        degree = ports.degree(node)
        bits = table_bits(len(members[node]) + len(landmarks), node_bits,
                          port_bits(degree))
        for _ in landmarks:
            bits += _tree_table_bits(n, degree)
        per_node[node] = bits
    label_bits = [2 * node_bits + _tree_label_bits(
        graph, ports, tree_labels[landmark_of[node]][node])
        for node in graph.nodes()]
    return MemoryReport(scheme_name=name, n=n, per_node_bits=per_node,
                        max_label_bits=max(label_bits, default=0))


def tree_memory(graph, labels, name="tree-routing") -> MemoryReport:
    """A tree-routing scheme's memory report (every node on the tree)."""
    ports = PortMap(graph)
    n = graph.number_of_nodes()
    return MemoryReport(
        scheme_name=name, n=n,
        per_node_bits={node: _tree_table_bits(n, ports.degree(node))
                       for node in graph.nodes()},
        max_label_bits=max((_tree_label_bits(graph, ports, labels[node])
                            for node in graph.nodes()), default=0))
