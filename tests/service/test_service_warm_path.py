"""Warm-path guarantees: repeat queries touch no build machinery at all.

Once a :class:`~repro.service.RoutingService` has answered a batch, asking
again must be pure lookup — no graph recompilation, no compiled-graph
re-adoption, no new oracle trees, no scheme rebuild.  The tests enforce
this by making the build entry points explode and querying anyway.
"""

import copy
import random

import networkx as nx
import pytest

import repro.paths.kernel as kernel
from repro.algebra.catalog import ShortestPath
from repro.graphs.generators import erdos_renyi
from repro.graphs.weighting import assign_random_weights
from repro.paths.dijkstra import _reference_tree
from repro.paths.store import PreferredWeightOracle
from repro.service import RoutingService, ServiceOptions


def make_service(n=24, seed=9, mode="auto"):
    algebra = ShortestPath()
    graph = erdos_renyi(n, rng=random.Random(seed))
    assign_random_weights(graph, algebra, rng=random.Random(seed + 1))
    return RoutingService(graph, algebra, ServiceOptions(mode=mode, seed=seed))


def all_pairs(graph):
    nodes = sorted(graph.nodes())
    return [(s, t) for s in nodes for t in nodes if s != t]


def _boom(*_args, **_kwargs):
    raise AssertionError("warm query touched a build entry point")


def test_warm_queries_touch_no_build_machinery(monkeypatch):
    service = make_service()
    pairs = all_pairs(service.graph)
    first = service.route(pairs)

    scheme = service.scheme
    compiled = service._oracle._compiled
    built = service.stats()["oracle"]["trees_built"]

    # From here on, any attempt to compile or build must blow up.
    monkeypatch.setattr(kernel, "compile_graph", _boom)
    monkeypatch.setattr(PreferredWeightOracle, "_build_table", _boom)

    again = service.route(pairs)
    service.stretch(pairs[: len(pairs) // 4])
    service.memory()

    assert again == first
    assert service.scheme is scheme
    assert service._oracle._compiled is compiled
    assert service.stats()["oracle"]["trees_built"] == built
    assert service.scheme_builds == 1


def test_update_then_query_rebuilds_only_dropped_trees():
    service = make_service()
    pairs = all_pairs(service.graph)
    service.route(pairs)
    u, v = next(iter(service.graph.edges()))
    result = service.update_weight(u, v, 1)
    assert result.trees_kept + result.trees_dropped == len(service.graph)

    # Counted on trees_built: batched sweeps bypass _build_table.
    built = service.stats()["oracle"]["trees_built"]
    service.route(pairs)
    # The scheme rebuild and the query build only the invalidated trees —
    # kept trees stay warm.
    assert (service.stats()["oracle"]["trees_built"] - built
            == result.trees_dropped)


def test_mutated_service_fails_loudly_if_rebuild_is_blocked(monkeypatch):
    # The converse guard: after a mutation the service MUST rebuild, so a
    # blocked build path must surface, not silently serve stale answers.
    service = make_service()
    pairs = all_pairs(service.graph)
    service.route(pairs)
    u, v = next(iter(service.graph.edges()))
    service.fail_link(u, v)
    import repro.core.compiler as compiler

    monkeypatch.setattr(compiler, "build_scheme", _boom)
    with pytest.raises(AssertionError, match="build entry point"):
        service.route(pairs[:1])


def _tree_edge_of_source_zero(service):
    """A non-bridge edge on node 0's preferred tree: changing it drops
    some trees (0's among them) and keeps others."""
    bridges = {frozenset(edge) for edge in nx.bridges(service.graph)}
    tree = service._oracle.trees([0])[0]
    return next((parent, child) for child, parent in tree.parent.items()
                if frozenset((parent, child)) not in bridges)


@pytest.mark.parametrize("mode", ["auto", "compact"])
@pytest.mark.parametrize("op", ["update_weight", "fail_link", "restore_link"])
def test_scheme_rebuild_reuses_every_kept_tree(mode, op):
    service = make_service(mode=mode)
    n = len(service.graph)
    assert service.stats()["oracle"]["trees_built"] == n
    pairs = all_pairs(service.graph)
    service.route(pairs)
    u, v = _tree_edge_of_source_zero(service)
    if op == "update_weight":
        result = service.update_weight(u, v, service.graph[u][v]["weight"] + 50)
    elif op == "fail_link":
        result = service.fail_link(u, v)
    else:
        # Restoring re-appends the edge to both endpoints' adjacency, so
        # kept trees must match a cold build on the new order too.
        service.fail_link(u, v)
        service.route(pairs)
        result = service.restore_link(u, v)
    assert result.trees_kept > 0 and result.trees_dropped > 0
    assert result.trees_kept + result.trees_dropped == n

    built = service.stats()["oracle"]["trees_built"]
    builds = service.scheme_builds
    warm = service.route(pairs)
    assert service.scheme_builds == builds + 1
    assert (service.stats()["oracle"]["trees_built"] - built
            == result.trees_dropped)
    # deepcopy keeps every node's adjacency order (Graph.copy() need not),
    # and ties between equal-weight paths break in that order.
    cold = RoutingService(copy.deepcopy(service.graph), service.algebra,
                          service.options)
    assert warm == cold.route(pairs)
    # Kept and rebuilt trees alike equal the reference engine's on the
    # changed graph, parent pointers included.
    for source, tree in service._oracle.trees(service.graph.nodes()).items():
        reference = _reference_tree(service.graph, service.algebra, source)
        assert tree.weight == reference.weight
        assert tree.parent == reference.parent
