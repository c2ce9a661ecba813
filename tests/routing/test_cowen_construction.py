"""The index-row construction against the dict/networkx referee.

The Cowen scheme picks landmarks, balls and clusters by comparing order
keys within the tree store's rows, and labels every landmark's tree from
its parent-index row; tree routing labels its tree with the same
labeller.  Hypothesis draws connected graphs with tie-heavy weights (at
most 2 or 3 distinct edge weights), shortest, widest-shortest and
most-reliable path (the last has no integer key), integer or string
node labels, and every landmark strategy, and holds the scheme to
:mod:`cowen_referee`: the same landmarks, landmark of every node and
clusters, every landmark tree's labels and per-node state (DFS interval,
ports, heavy interval, light depth), and the same memory bits.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import cowen_referee as referee
from repro.algebra.catalog import MostReliablePath, ShortestPath, UsablePath, WidestPath
from repro.algebra.lexicographic import widest_shortest_path
from repro.graphs.weighting import WEIGHT_ATTR, assign_random_weights
from repro.paths.store import PreferredWeightOracle
from repro.routing.cowen import STRATEGIES, CowenScheme
from repro.routing.memory import memory_report
from repro.routing.tree_routing import TreeRoutingScheme

#: Tie-heavy algebras: 2 or 3 distinct edge weights each.
ALGEBRAS = {
    "sp2": lambda: ShortestPath(max_weight=2),
    "sp3": lambda: ShortestPath(max_weight=3),
    "wsp": lambda: widest_shortest_path(max_weight=2, max_capacity=2),
    "mrp": lambda: MostReliablePath(denominator=3),
}


def _graph(n, extra, seed, algebra, labels):
    """A connected graph: a random spanning tree plus *extra* edges."""
    rng = random.Random(seed)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for v in range(1, n):
        graph.add_edge(v, rng.randrange(v))
    for _ in range(extra if n > 1 else 0):
        u, v = rng.sample(range(n), 2)
        graph.add_edge(u, v)
    assign_random_weights(graph, algebra, rng=rng)
    if labels == "str":   # node order differs from insertion order
        graph = nx.relabel_nodes(graph, {v: f"n{v}" for v in graph})
    return graph


def _state(tree, node):
    """One node's state in a heavy-path tree, as the referee records it."""
    i = tree.index[node]
    heavy = tree.heavy_port[i]
    return referee.NodeInfo(
        dfs=tree.dfs[i], interval_end=tree.end[i],
        parent_port=tree.parent_port[i] or None, heavy_port=heavy or None,
        heavy_dfs=tree.dfs[i] + 1 if heavy else None,
        heavy_end=tree.heavy_end[i] if heavy else None,
        light_depth=len(tree.labels[i]))


def _assert_tree_matches(scheme_tree, ports, nx_tree):
    info, labels = referee.tree_state(ports, nx_tree)
    for node in nx_tree.nodes():
        assert scheme_tree.label(node) == labels[node]
        assert _state(scheme_tree, node) == info[node]
    return labels


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=2, max_value=14),
       extra=st.integers(min_value=0, max_value=20),
       seed=st.integers(min_value=0, max_value=10 ** 6),
       algebra_name=st.sampled_from(sorted(ALGEBRAS)),
       strategy=st.sampled_from(STRATEGIES),
       threshold=st.sampled_from([None, 1, 2, 4]),
       labels=st.sampled_from(["int", "str"]))
def test_cowen_construction_matches_referee(n, extra, seed, algebra_name,
                                            strategy, threshold, labels):
    algebra = ALGEBRAS[algebra_name]()
    graph = _graph(n, extra, seed, algebra, labels)
    oracle = PreferredWeightOracle(graph, algebra)
    scheme = CowenScheme(graph, algebra, strategy=strategy,
                         rng=random.Random(seed), cluster_threshold=threshold,
                         oracle=oracle)
    trees = oracle.trees(graph.nodes())

    landmarks = referee.select_landmarks(graph, algebra, trees, strategy,
                                         random.Random(seed), threshold)
    assert scheme.landmarks == landmarks
    landmark_of, members = referee.clusters(graph, algebra, trees, landmarks)
    assert dict(scheme.landmark_of) == landmark_of
    assert {u: set(c) for u, c in scheme.clusters.items()} == members

    tree_labels = {
        landmark: _assert_tree_matches(
            scheme._landmark_trees[landmark], scheme.ports,
            referee.landmark_tree(graph, trees[landmark], WEIGHT_ATTR))
        for landmark in landmarks}
    for node in graph.nodes():
        assert scheme.label(node) == (node, landmark_of[node],
                                      tree_labels[landmark_of[node]][node])
    assert memory_report(scheme) == referee.cowen_memory(
        graph, landmarks, landmark_of, members, tree_labels)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=16),
       extra=st.integers(min_value=0, max_value=20),
       seed=st.integers(min_value=0, max_value=10 ** 6),
       labels=st.sampled_from(["int", "str"]))
def test_tree_routing_matches_referee(n, extra, seed, labels):
    """Lemma 1 tree routing (widest path) over the same labeller."""
    algebra = WidestPath(max_capacity=3)
    graph = _graph(n, extra, seed, algebra, labels)
    scheme = TreeRoutingScheme(graph, algebra)
    labels_of = _assert_tree_matches(scheme._heavy_paths, scheme.ports,
                                     scheme.tree)
    assert memory_report(scheme) == referee.tree_memory(graph, labels_of)
    for node in graph.nodes():
        assert scheme.header_bits(scheme.label(node)) == \
            scheme.label_bits(node)


def test_subtree_state_matches_referee():
    """A tree spanning part of the graph: nodes off it have no state."""
    graph = _graph(12, 6, 5, UsablePath(), "int")
    sub = nx.bfs_tree(graph, 3, depth_limit=2).to_undirected()
    scheme = TreeRoutingScheme(graph, UsablePath(), tree=sub,
                               check_properties=False)
    _assert_tree_matches(scheme._heavy_paths, scheme.ports, sub)
    outside = next(v for v in graph.nodes() if v not in sub)
    with pytest.raises(KeyError):
        scheme.label(outside)
