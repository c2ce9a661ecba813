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
from typing import Dict, Optional, Set

import networkx as nx

from repro.algebra.base import PHI, RoutingAlgebra
from repro.exceptions import NotApplicableError, RoutingError
from repro.frozen import FrozenTable
from repro.graphs.weighting import WEIGHT_ATTR
from repro.obs.tracing import span
# Not called here (the trees come from a tree store), but kept importable:
# perfbench/spans.py wraps this name to count scheme-side tree builds.
from repro.paths.dijkstra import preferred_path_tree  # noqa: F401
from repro.routing.memory import label_bits_for_nodes, port_bits, table_bits
from repro.routing.model import Action, Decision, RoutingScheme
from repro.routing.tree_routing import TreeRoutingScheme

STRATEGIES = ("random", "cowen", "degree")


class CowenScheme(RoutingScheme):
    """Landmark + cluster compact routing for delimited regular algebras.

    The construction reads a preferred-path tree from every node, out of
    a tree store: *oracle* (a
    :class:`~repro.core.simulate.PreferredWeightOracle`; ``build_scheme``
    passes the one evaluation reads) or, without one, a private store.
    Either way the trees are built in batched sweeps over one compiled
    graph and the scheme holds the store's own maps.

    The built state is read-only: ``landmarks`` is a ``frozenset``, and
    ``clusters`` (of frozensets), ``landmark_of``, the landmark tree
    schemes and the store trees (direct entries forward by their parent
    maps) are :class:`~repro.frozen.FrozenTable` maps.
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

        with span("preferred_trees", scheme=self.name):
            if oracle is None:
                from repro.core.simulate import PreferredWeightOracle

                oracle = PreferredWeightOracle(graph, algebra, attr=attr)
            self._trees = FrozenTable(oracle.trees(graph.nodes()))
        n = graph.number_of_nodes()
        for node, tree in self._trees.items():
            if len(tree.reachable()) != n - 1:
                raise NotApplicableError(
                    f"node {node!r} cannot reach every other node; the Cowen "
                    f"construction needs a connected traversable graph"
                )

        with span("landmark_selection", scheme=self.name, strategy=strategy):
            if landmarks is None:
                landmarks = self._select_landmarks(cluster_threshold)
            self.landmarks = frozenset(landmarks)
        if not self.landmarks:
            raise NotApplicableError("the landmark set must be non-empty")

        with span("cluster_assignment", scheme=self.name):
            self._assign_clusters(self.landmarks)
        with span("table_encoding", scheme=self.name):
            self._tree_schemes: Dict[object, TreeRoutingScheme] = FrozenTable(
                (l, TreeRoutingScheme(
                    self.graph, self.algebra, attr=self.attr,
                    tree=self._landmark_tree(l), check_properties=False,
                ))
                for l in self.landmarks
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _preferred_weight(self, u, v):
        if u == v:
            return None
        return self._trees[u].weight.get(v, PHI)

    def _compute_clusters(self, landmarks: Set):
        """Landmark assignment, balls and clusters for a landmark set."""
        key = self.algebra.comparison_key()
        landmark_of = {}
        for u in self.graph.nodes():
            if u in landmarks:
                landmark_of[u] = u
                continue
            landmark_of[u] = min(
                landmarks, key=lambda l: (key(self._preferred_weight(u, l)), l)
            )
        clusters = {u: set() for u in self.graph.nodes()}
        for v in self.graph.nodes():
            if v in landmarks:
                continue  # B(v) is empty for landmarks
            radius = self._preferred_weight(v, landmark_of[v])
            for u in self.graph.nodes():
                if u == v:
                    continue
                if self.algebra.lt(self._preferred_weight(v, u), radius):
                    clusters[u].add(v)  # u ∈ B(v)  =>  v ∈ C(u)
        return landmark_of, clusters

    def _assign_clusters(self, landmarks: Set):
        landmark_of, clusters = self._compute_clusters(landmarks)
        self.landmark_of = FrozenTable(landmark_of)
        self.clusters = FrozenTable(
            (u, frozenset(cluster)) for u, cluster in clusters.items())

    def _select_landmarks(self, cluster_threshold: Optional[int]) -> Set:
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
            _, clusters = self._compute_clusters(landmarks)
            overfull = sorted(
                (u for u in clusters if len(clusters[u]) > threshold and u not in landmarks),
                key=lambda u: (-len(clusters[u]), u),
            )
            if not overfull:
                break
            landmarks.update(overfull[:8])
        return landmarks

    def _landmark_tree(self, landmark) -> nx.Graph:
        """The preferred-path tree of a landmark, as an undirected tree."""
        tree = nx.Graph()
        tree.add_nodes_from(self.graph.nodes())
        ptree = self._trees[landmark]
        for node, parent in ptree.parent.items():
            tree.add_edge(node, parent,
                          **{self.attr: self.graph[node][parent][self.attr]})
        return tree

    # ------------------------------------------------------------------
    # the routing function
    # ------------------------------------------------------------------

    def label(self, node):
        """``(id, landmark id, tree-routing label of node in its landmark's tree)``."""
        l = self.landmark_of[node]
        return (node, l, self._tree_schemes[l].label(node))

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
            next_hop = self._trees[target].parent[node]
            return Decision.forward(self.ports.port(node, next_hop), header)
        # Landmark leg: heavy-path tree routing over the landmark's tree.
        inner = self._tree_schemes[landmark].local_decision(node, tree_label)
        if inner.action is Action.DELIVER:
            raise RoutingError(f"tree routing delivered {header!r} prematurely at {node!r}")
        return Decision.forward(inner.port, header)

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------

    def table_bits(self, node) -> int:
        n = self.graph.number_of_nodes()
        node_bits = label_bits_for_nodes(n)
        p_bits = port_bits(self.ports.degree(node))
        direct_entries = len(self.clusters[node]) + len(self.landmarks)
        bits = table_bits(direct_entries, node_bits, p_bits)
        # Per-landmark heavy-path tree state (O(log n) bits each).
        for scheme in self._tree_schemes.values():
            bits += scheme.table_bits(node)
        return bits

    def label_bits(self, node) -> int:
        n = self.graph.number_of_nodes()
        l = self.landmark_of[node]
        return 2 * label_bits_for_nodes(n) + self._tree_schemes[l].label_bits(node)

    def header_bits(self, header) -> int:
        """Headers are target labels: target id + landmark id + tree label."""
        _, landmark, tree_label = header
        n = self.graph.number_of_nodes()
        return 2 * label_bits_for_nodes(n) + \
            self._tree_schemes[landmark].header_bits(tree_label)

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------

    def preferred_weight(self, source, target):
        """The true preferred weight (for stretch measurement)."""
        return self._preferred_weight(source, target)

    def max_cluster_size(self) -> int:
        return max((len(c) for c in self.clusters.values()), default=0)
