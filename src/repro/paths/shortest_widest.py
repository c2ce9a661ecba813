"""Exact preferred paths for the shortest-widest policy ``SW = W x S``.

Shortest-widest path routing is the paper's flagship *non-isotone* algebra
(Table 1): generalized Dijkstra is not correct for it, and no per-
destination routing table implements it (Proposition 2).  Preferred paths
are still computable exactly per pair:

1. the widest bottleneck ``b*(s,t)`` is a max-min Dijkstra;
2. every s-t path using only edges of capacity >= ``b*(s,t)`` has
   bottleneck exactly ``b*`` (it cannot exceed the optimum), so the
   shortest path by cost in that subgraph is a preferred SW path.

Edge weights are pairs ``(capacity, cost)`` — the weight domain of
``shortest_widest_path()`` from :mod:`repro.algebra.lexicographic`.

Both sweeps run over a :class:`~repro.paths.kernel.CompiledGraph` (pass
one explicitly to amortize flattening across sources, as
:func:`all_pairs_shortest_widest` and the tree store do).  The seed
adjacency-dict sweeps, :func:`_reference_widest` and
:func:`_reference_restricted`, stay as the referees tests call by name.
Heap ties break on a deterministic node rank plus an insertion counter,
so pop order never falls back to comparing raw node objects
(heterogeneous node sets used to raise ``TypeError``); for mutually
comparable node sets the rank equals the nodes' sort order, preserving
the historical pop order bit-for-bit.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.graphs.weighting import WEIGHT_ATTR
from repro.paths.kernel import CompiledGraph, compile_graph, node_ranks


@dataclass(frozen=True)
class SWRoute:
    """A preferred shortest-widest route: widest bottleneck, then least cost."""

    source: object
    target: object
    bottleneck: int
    cost: int
    path: Tuple

    @property
    def weight(self) -> Tuple[int, int]:
        """The route's weight in the SW algebra: ``(bottleneck, cost)``."""
        return (self.bottleneck, self.cost)


def _sw_layout(compiled: CompiledGraph):
    """Per-instance capacity/cost edge arrays, memoized on the compiled graph."""
    layout = compiled.scratch.get("shortest-widest")
    if layout is None:
        capacities = [w[0] for w in compiled.weights]
        costs = [w[1] for w in compiled.weights]
        layout = (capacities, costs, compiled.ranks())
        compiled.scratch["shortest-widest"] = layout
    return layout


def widest_bottlenecks(graph, source, attr: str = WEIGHT_ATTR, *,
                       compiled: Optional[CompiledGraph] = None) -> Dict[object, int]:
    """Max-min Dijkstra: the widest achievable bottleneck to every node."""
    if compiled is None:
        compiled = compile_graph(graph, attr)
    return _compiled_widest(compiled, source)


def _reference_widest(graph, source, attr: str = WEIGHT_ATTR) -> Dict[object, int]:
    """The seed max-min sweep over the adjacency dicts (the referee)."""
    ranks = node_ranks(graph.nodes())
    best: Dict[object, int] = {}
    counter = itertools.count(1)
    heap = [(-(2**62), ranks[source], 0, source)]
    seen = set()
    while heap:
        negwidth, _, _, node = heapq.heappop(heap)
        if node in seen:
            continue
        seen.add(node)
        width = -negwidth
        if node != source:
            best[node] = width
        for nxt in graph.neighbors(node):
            if nxt in seen:
                continue
            capacity = graph[node][nxt][attr][0]
            heapq.heappush(
                heap, (-min(width, capacity), ranks[nxt], next(counter), nxt))
    return best


def _compiled_widest(compiled: CompiledGraph, source) -> Dict[object, int]:
    capacities, _, ranks = _sw_layout(compiled)
    indptr, indices, nodes = compiled.indptr, compiled.indices, compiled.nodes
    root = compiled.node_index[source]
    best: Dict[object, int] = {}
    counter = itertools.count(1)
    heap = [(-(2**62), ranks[root], 0, root)]
    seen = bytearray(len(nodes))
    while heap:
        negwidth, _, _, u = heapq.heappop(heap)
        if seen[u]:
            continue
        seen[u] = 1
        width = -negwidth
        if u != root:
            best[nodes[u]] = width
        for edge in range(indptr[u], indptr[u + 1]):
            v = indices[edge]
            if seen[v]:
                continue
            heapq.heappush(
                heap,
                (-min(width, capacities[edge]), ranks[v], next(counter), v))
    return best


def _reference_restricted(graph, source, min_capacity,
                          attr: str = WEIGHT_ATTR) -> Tuple[Dict, Dict]:
    """The seed cost sweep over edges of capacity >= *min_capacity* (the referee)."""
    ranks = node_ranks(graph.nodes())
    dist: Dict[object, int] = {source: 0}
    parent: Dict[object, Optional[object]] = {source: None}
    counter = itertools.count(1)
    heap = [(0, ranks[source], 0, source)]
    settled = set()
    while heap:
        cost, _, _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for nxt in graph.neighbors(node):
            capacity, edge_cost = graph[node][nxt][attr]
            if capacity < min_capacity:
                continue
            candidate = cost + edge_cost
            if nxt not in dist or candidate < dist[nxt]:
                dist[nxt] = candidate
                parent[nxt] = node
                heapq.heappush(
                    heap, (candidate, ranks[nxt], next(counter), nxt))
    return dist, parent


def _compiled_restricted(compiled: CompiledGraph, source,
                         min_capacity) -> Tuple[Dict, Dict]:
    """Cost Dijkstra from *source* over edges with capacity >= *min_capacity*."""
    capacities, costs, ranks = _sw_layout(compiled)
    indptr, indices, nodes = compiled.indptr, compiled.indices, compiled.nodes
    root = compiled.node_index[source]
    dist: Dict[object, int] = {source: 0}
    parent: Dict[object, Optional[object]] = {source: None}
    counter = itertools.count(1)
    heap = [(0, ranks[root], 0, root)]
    settled = bytearray(len(nodes))
    while heap:
        cost, _, _, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = 1
        u_node = nodes[u]
        for edge in range(indptr[u], indptr[u + 1]):
            if capacities[edge] < min_capacity:
                continue
            v = indices[edge]
            v_node = nodes[v]
            candidate = cost + costs[edge]
            if v_node not in dist or candidate < dist[v_node]:
                dist[v_node] = candidate
                parent[v_node] = u_node
                heapq.heappush(
                    heap, (candidate, ranks[v], next(counter), v))
    return dist, parent


def shortest_widest_routes(graph, source, attr: str = WEIGHT_ATTR, *,
                           compiled: Optional[CompiledGraph] = None
                           ) -> Dict[object, SWRoute]:
    """Preferred SW routes from *source* to every other node.

    Runs one restricted cost-Dijkstra per distinct bottleneck value among
    the destinations, so the total work is
    O(#distinct bottlenecks * m log n).  Pass a pre-built *compiled*
    graph to share the flattening across sources.
    """
    if compiled is None:
        compiled = compile_graph(graph, attr)
    bottleneck = _compiled_widest(compiled, source)
    routes: Dict[object, SWRoute] = {}
    by_value: Dict[int, list] = {}
    for node, value in bottleneck.items():
        by_value.setdefault(value, []).append(node)
    for value, nodes in by_value.items():
        dist, parent = _compiled_restricted(compiled, source, value)
        for node in nodes:
            if node not in dist:
                continue
            path = [node]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            path.reverse()
            routes[node] = SWRoute(source, node, value, dist[node], tuple(path))
    return routes


def all_pairs_shortest_widest(graph, attr: str = WEIGHT_ATTR
                              ) -> Dict[object, Dict[object, SWRoute]]:
    """Preferred SW routes between every ordered pair (one shared compile)."""
    compiled = compile_graph(graph, attr)
    return {
        source: shortest_widest_routes(graph, source, attr=attr, compiled=compiled)
        for source in graph.nodes()
    }
