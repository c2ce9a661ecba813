"""The generalized Cowen stretch-3 compact routing scheme (Theorem 3).

Theorem 3: every delimited regular algebra admits a stretch-3 compact
routing scheme.  The construction generalizes Cowen's shortest-path scheme:

* choose a landmark set ``L``; each node ``u`` adopts the ⪯-closest
  landmark ``l_u``;
* the *ball* ``B(u) = {v : w(p*_uv) ≺ w(p*_u,lu)}`` and the *cluster*
  ``C(u) = {v : u ∈ B(v)}``;
* node ``u`` keeps a direct entry for every ``v ∈ C(u)``; packets to other
  destinations detour via the destination's landmark.

Lemma 4 bounds the detour: ``w(p*_u,lv) ⊕ w(p*_lv,v) ⪯ (w(p*_uv))^3``
using monotonicity, isotonicity and the algebraic triangle inequality —
stretch 3 in the sense of Definition 3.

One engineering refinement (borrowed from Thorup-Zwick, whom the paper
cites for the ``~O(sqrt n)`` memory variant): the landmark leg is routed
with the heavy-path *tree-routing* scheme over the landmark's preferred-
path tree, rather than by per-node landmark entries alone.  Cowen's
plain table construction needs every node past ``l_v`` on the
``l_v -> v`` path to hold an entry for ``v``, which holds for strictly
monotone weights but fails for selective algebras (subpath weights can
*equal* the full path weight, leaving the strict ball empty); tree routing
on the landmark tree restores correctness for every regular algebra while
keeping the per-node landmark state at O(|L| log n) bits.  The realized
detour only improves: the in-tree u→v path short-cuts at the meeting
point instead of climbing all the way to ``l_v``, and its weight is
⪯ ``w(p*_u,lv) ⊕ w(p*_lv,v)`` by monotonicity + isotonicity, so the
Lemma 4 stretch-3 bound still applies.

Landmark-selection strategies (the E17 ablation):

* ``"random"`` — a uniform sample of ``ceil(sqrt(n ln n))`` nodes
  (Thorup-Zwick flavored, ~O(sqrt n) expected tables);
* ``"cowen"`` — iterative greedy: promote nodes whose cluster exceeds
  ``n^(2/3)`` to landmarks (Cowen's O(n^(2/3)) flavor);
* ``"degree"`` — the ``ceil(sqrt n)`` highest-degree nodes (a natural
  heuristic baseline on scale-free graphs).
"""

from __future__ import annotations

import math
import random
from itertools import compress, repeat
from operator import lt
from typing import List, Optional, Sequence, Set, Tuple

from repro.algebra.base import PHI, RoutingAlgebra
from repro.exceptions import NotApplicableError, RoutingError
from repro.frozen import FrozenTable
from repro.graphs.weighting import WEIGHT_ATTR
from repro.obs.tracing import span
# Not called here (the trees come from a tree store), but kept importable:
# perfbench/spans.py wraps this name to count scheme-side tree builds.
from repro.paths.dijkstra import preferred_path_tree  # noqa: F401
from repro.paths.store import PreferredWeightOracle
from repro.routing.memory import label_bits_for_nodes, port_bits, table_bits
from repro.routing.model import Decision, RoutingScheme
# TreeRoutingScheme is not called here either (landmark trees are labelled
# straight from the store's parent rows), but perfbench/spans.py wraps it.
from repro.routing.tree_routing import (  # noqa: F401
    TreeRoutingScheme,
    heavy_path_tree,
    node_state_bits,
    tree_label_bits,
)

STRATEGIES = ("random", "cowen", "degree")


def _balls(keys: Sequence[Sequence], landmarks: Sequence[int]
           ) -> Tuple[List[int], List[List[int]]]:
    """Every node's landmark and ball, from the tree store's key rows.

    Nodes are indexes, and *landmarks* come in node-rank order.  ``l_v``
    is the first minimum of ``keys[v]`` over the landmarks, so ties go to
    the least landmark; the ball ``B(v)`` lists the nodes ``u`` with
    ``keys[v][u] < keys[v][l_v]``, and is empty for a landmark, its own
    ``l_v``.
    """
    chosen = set(landmarks)
    everyone = range(len(keys))
    landmark_of: List[int] = []
    balls: List[List[int]] = []
    for v, row in enumerate(keys):
        if v in chosen:
            landmark_of.append(v)
            balls.append([])
            continue
        l = min(landmarks, key=row.__getitem__)
        landmark_of.append(l)
        balls.append(list(compress(everyone, map(lt, row, repeat(row[l])))))
    return landmark_of, balls


class CowenScheme(RoutingScheme):
    """Landmark + cluster compact routing for delimited regular algebras.

    The construction reads a preferred-path tree from every node, out of
    a tree store: *oracle* (a
    :class:`~repro.paths.store.PreferredWeightOracle`; ``build_scheme``
    passes the one evaluation reads) or, without one, a private store.
    Either way the trees are built in batched sweeps over one compiled
    graph and the scheme holds the store's own weight and parent rows
    (:meth:`~repro.paths.store.PreferredWeightOracle.rows`).  Landmarks,
    balls and clusters are comparisons within their order-key rows
    (:meth:`~repro.paths.store.PreferredWeightOracle.key_rows`), and
    every landmark's tree is labelled from a copy of its parent row with
    the scheme's one port map.

    The built state is read-only: ``landmarks`` is a ``frozenset``,
    ``clusters`` (of frozensets), ``landmark_of`` and the landmark trees
    (of :class:`~repro.routing.tree_routing.HeavyPathTree` states) are
    :class:`~repro.frozen.FrozenTable` maps, and the store's rows (direct
    entries forward by the parent rows) are tuples.
    """

    name = "cowen-stretch3"

    def __init__(self, graph, algebra: RoutingAlgebra, attr: str = WEIGHT_ATTR,
                 strategy: str = "random", rng: Optional[random.Random] = None,
                 landmarks: Optional[Set] = None, cluster_threshold: Optional[int] = None,
                 oracle=None):
        super().__init__(graph, algebra, attr)
        declared = algebra.declared_properties()
        if declared.monotone is False or declared.isotone is False:
            raise NotApplicableError(
                f"Theorem 3 requires a regular algebra; {algebra.name} declares "
                f"monotone={declared.monotone}, isotone={declared.isotone}"
            )
        if declared.delimited is False:
            raise NotApplicableError(
                f"Theorem 3 requires a delimited algebra; {algebra.name} is not "
                f"(landmarks may be unreachable and stretched weights may hit phi)"
            )
        if graph.is_directed():
            raise NotApplicableError("the Cowen scheme is defined on undirected graphs")
        if strategy not in STRATEGIES:
            raise NotApplicableError(f"unknown landmark strategy {strategy!r}")
        self.rng = rng or random.Random(0)
        self.strategy = strategy

        nodes = list(graph.nodes())
        n = len(nodes)
        with span("preferred_trees", scheme=self.name):
            if oracle is None:
                oracle = PreferredWeightOracle(graph, algebra, attr=attr)
            weights, parents = oracle.rows(nodes)
            for node, parent in zip(nodes, parents):
                if parent.count(-1) != 1:
                    raise NotApplicableError(
                        f"node {node!r} cannot reach every other node; the Cowen "
                        f"construction needs a connected traversable graph"
                    )
            keys = oracle.key_rows(weights)
        self._weight_rows = tuple(weights)
        self._parent_rows = tuple(parents)
        self._nodes = tuple(nodes)
        self._index = index = FrozenTable((node, i) for i, node in enumerate(nodes))

        with span("landmark_selection", scheme=self.name, strategy=strategy):
            if landmarks is None:
                landmarks = self._select_landmarks(cluster_threshold, keys, index)
            self.landmarks = frozenset(landmarks)
        if not self.landmarks:
            raise NotApplicableError("the landmark set must be non-empty")
        ranked = sorted(self.landmarks)

        with span("cluster_assignment", scheme=self.name):
            landmark_of, balls = _balls(keys, [index[l] for l in ranked])
            clusters: List[List] = [[] for _ in nodes]
            for v, ball in enumerate(balls):
                for u in ball:
                    clusters[u].append(nodes[v])  # u ∈ B(v)  =>  v ∈ C(u)
            self.landmark_of = FrozenTable(
                zip(nodes, map(nodes.__getitem__, landmark_of)))
            self.clusters = FrozenTable(zip(nodes, map(frozenset, clusters)))
        with span("table_encoding", scheme=self.name):
            # Every landmark tree is rooted at the least node and read
            # through the scheme's one port map.  The labeller re-roots
            # its argument in place, so it gets a copy of the store's row.
            by_rank = sorted(range(n), key=nodes.__getitem__)
            port_rows = self.ports.index_rows(index)
            self._landmark_trees = FrozenTable(
                (l, heavy_path_tree(list(parents[index[l]]), by_rank[0],
                                    by_rank, port_rows, index))
                for l in ranked)
        self._light_port_bits = port_bits(self.ports.max_degree())

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _select_landmarks(self, cluster_threshold: Optional[int], keys,
                          index) -> Set:
        n = self.graph.number_of_nodes()
        if self.strategy == "random":
            size = min(n, max(1, math.ceil(math.sqrt(n * max(1.0, math.log(n))))))
            return set(self.rng.sample(sorted(self.graph.nodes()), size))
        if self.strategy == "degree":
            size = min(n, max(1, math.ceil(math.sqrt(n))))
            by_degree = sorted(self.graph.nodes(),
                               key=lambda v: (-self.graph.degree(v), v))
            return set(by_degree[:size])
        # "cowen": iterative greedy promotion of overfull-cluster nodes.
        threshold = cluster_threshold or max(4, int(round(n ** (2.0 / 3.0))))
        landmarks = {min(self.graph.nodes(), key=lambda v: (-self.graph.degree(v), v))}
        for _ in range(64):
            _, balls = _balls(keys, [index[l] for l in sorted(landmarks)])
            size = [0] * n
            for ball in balls:
                for u in ball:
                    size[u] += 1
            overfull = sorted(
                (u for u in index if size[index[u]] > threshold and u not in landmarks),
                key=lambda u: (-size[index[u]], u),
            )
            if not overfull:
                break
            landmarks.update(overfull[:8])
        return landmarks

    # ------------------------------------------------------------------
    # the routing function
    # ------------------------------------------------------------------

    def landmark_label(self, landmark, node):
        """The tree-routing label of *node* in *landmark*'s tree."""
        return self._landmark_trees[landmark].label(node)

    def label(self, node):
        """``(id, landmark id, tree-routing label of node in its landmark's tree)``."""
        l = self.landmark_of[node]
        return (node, l, self.landmark_label(l, node))

    def initial_header(self, source, target):
        return self.label(target)

    def local_decision(self, node, header) -> Decision:
        target, landmark, tree_label = header
        if node == target:
            return Decision.deliver()
        if target in self.clusters[node] or target in self.landmarks:
            # Direct entry: the next hop toward target along the preferred
            # tree rooted at the target (every node on the leg walks up the
            # same tree, so the leg is loop-free and the realized path is a
            # preferred one by commutativity of ⊕).
            index = self._index
            next_hop = self._nodes[self._parent_rows[index[target]][index[node]]]
            return Decision.forward(self.ports.port(node, next_hop), header)
        # Landmark leg: heavy-path tree routing over the landmark's tree.
        port = self._landmark_trees[landmark].next_port(node, tree_label)
        if port is None:
            raise RoutingError(f"tree routing delivered {header!r} prematurely at {node!r}")
        return Decision.forward(port, header)

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------

    def table_bits(self, node) -> int:
        n = self.graph.number_of_nodes()
        degree = self.ports.degree(node)
        direct_entries = len(self.clusters[node]) + len(self.landmarks)
        bits = table_bits(direct_entries, label_bits_for_nodes(n), port_bits(degree))
        # Per-landmark heavy-path tree state (O(log n) bits each).
        return bits + len(self.landmarks) * node_state_bits(n, degree)

    def label_bits(self, node) -> int:
        return self.header_bits(self.label(node))

    def header_bits(self, header) -> int:
        """Headers are target labels: target id + landmark id + tree label."""
        n = self.graph.number_of_nodes()
        return 2 * label_bits_for_nodes(n) + \
            tree_label_bits(n, header[2], self._light_port_bits)

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------

    def preferred_weight(self, source, target):
        """The true preferred weight (for stretch measurement)."""
        if source == target:
            return None
        i = self._index.get(target)
        return PHI if i is None else self._weight_rows[self._index[source]][i]

    def max_cluster_size(self) -> int:
        return max((len(c) for c in self.clusters.values()), default=0)
