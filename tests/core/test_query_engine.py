"""The compiled walk vs the per-pair referee: exact equality.

The walk's contract is *bit-identical* shard outcomes — the same
routed/delivered/optimal counts, the same failure tuples in the same
order (message strings included), and the same stretch report, the
walk's per-k counts folded with its weight samples; pair by pair, every
pair the walk delivers has the referee's realized weight.
Hypothesis drives seeded graphs (random ones, and rings and paths, whose
trees are deep) through every compiled scheme family, sabotaged copies
of the table schemes and tree routing over part of the graph included,
and holds :func:`repro.routing.compiled_query.evaluate_shard` to the
referee, :func:`repro.core.simulate._reference_shard`, called by name;
observed runs (telemetry on, a trace capture active) must match the
referee's hop histogram and packet traces too.  The dense tables that
tree, Cowen and destination schemes compile to are held cell by cell to
the schemes' own routing function.  Further tests pin the read-only
tables that keep compiled queries from going stale, the resolver
semantics (env handling, warn-once, explicit errors), the fallback
ladder (algebras without an integer key, keys past int64), stretches
above 3 and small ``max_k`` on tree routing over weighted cycles,
graphs whose nodes are strings or tuples, and spawn workers that compile
their own tables.
"""

import dataclasses
import os
import pickle
import random
import warnings

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

try:
    import numpy as np
except ImportError:  # pragma: no cover - the walk's tests skip without it
    np = None

import repro
from repro.algebra.base import is_phi
from repro.algebra.catalog import (
    MinHop,
    MostReliablePath,
    ShortestPath,
    UsablePath,
    WidestPath,
)
from repro.algebra.lexicographic import (
    lexicographic_chain,
    shortest_widest_path,
    widest_shortest_path,
)
from repro.core import parallel as parallel_engine
from repro.core.parallel import last_run_info
from repro.core.simulate import (
    MAX_REPORTED_FAILURES,
    EvaluationOptions,
    _reference_shard,
    _verify_pair,
    evaluate_scheme,
    oracle_cache,
    route_shard,
    sample_pairs,
)
from repro.exceptions import RoutingError
from repro.frozen import FrozenTable
from repro.graphs.generators import erdos_renyi, path_graph, ring
from repro.graphs.weighting import WEIGHT_ATTR, assign_random_weights
from repro.obs.metrics import disable as telemetry_disable
from repro.obs.metrics import enable as telemetry_enable
from repro.obs.metrics import registry as telemetry_registry
from repro.obs.metrics import reset as telemetry_reset
from repro.obs.tracing import capture_traces
from repro.routing import compiled_query, query_engine
from repro.routing.cowen import CowenScheme
from repro.routing.destination_table import DestinationTableScheme
from repro.routing.model import Action
from repro.routing.pair_table import PairTableScheme
from repro.routing.stretch import StretchReport, measure_stretch
from repro.routing.tree_routing import HeavyPathTree, TreeRoutingScheme

needs_numpy = pytest.mark.skipif(not compiled_query.numpy_available(),
                                 reason="numpy (repro[fast]) not installed")


@pytest.fixture(autouse=True)
def clean_engine_state(monkeypatch):
    monkeypatch.delenv(query_engine.QUERY_ENGINE_ENV, raising=False)
    oracle_cache.clear()
    telemetry_disable()
    telemetry_reset()
    query_engine.reset_query_stats()
    yield
    oracle_cache.clear()
    telemetry_disable()
    telemetry_reset()
    query_engine.reset_query_stats()


def _shard_key(result):
    return (result.routed, result.delivered, result.optimal,
            result.failures, result.stretch)


def _referee_key(algebra, scheme, oracle, pairs):
    """The referee's outcome over *pairs*, keyed like :func:`_shard_key`."""
    routed, delivered, optimal, failures, samples = _reference_shard(
        algebra, scheme, oracle, list(pairs))
    return (routed, delivered, optimal, failures,
            measure_stretch(algebra, samples, scheme_name=scheme.name))


def _walk_stretch(algebra, scheme, walked, max_k=16):
    """The stretch report of an ``evaluate_shard`` outcome: its per-k
    counts folded with its weight samples."""
    counts, samples = walked[4], walked[5]
    return StretchReport.from_counts(scheme.name, counts, max_k).merge(
        measure_stretch(algebra, samples, scheme_name=scheme.name,
                        max_k=max_k))


def _walk_realized(scheme, oracle, pairs):
    """``((s, t), realized weight)`` of each routed pair the walk delivers
    itself (not through a replay), in pair order."""
    tables = compiled_query.compile_query(scheme)
    routed = [(s, t) for s, t in pairs if not is_phi(oracle(s, t))]
    index = tables.node_index
    status, rkey, _fail, _steps = compiled_query._walk_pairs(
        tables, np.array([index.get(s, -1) for s, _ in routed], dtype=np.int64),
        np.array([index.get(t, -1) for _, t in routed], dtype=np.int64))
    return [(pair, tables.codec.decode(key))
            for pair, state, key in zip(routed, status.tolist(), rkey.tolist())
            if state == compiled_query._DELIVERED]


def _referee_realized(algebra, scheme, oracle, pairs):
    """``((s, t), realized weight)`` of each pair the referee's per-pair
    verifier delivers, in pair order."""
    delivered = []
    for s, t in pairs:
        preferred = oracle(s, t)
        if is_phi(preferred):
            continue
        samples = []
        _verify_pair(algebra, scheme, s, t, preferred, [], samples)
        delivered += [((s, t), realized) for _, realized in samples]
    return delivered


def _report_key(report):
    return (report.pairs, report.delivered, report.optimal,
            list(report.failures), report.stretch)


def _referee_report_key(graph, algebra, scheme, options=None):
    """What :func:`evaluate_scheme` must report: the referee's outcome
    over the same pairs, failures cut at the report's limit."""
    options = options or EvaluationOptions()
    pairs = sample_pairs(graph, count=options.pair_count, rng=options.rng)
    oracle = oracle_cache.get(graph, algebra, scheme.attr)
    routed, delivered, optimal, failures, stretch = _referee_key(
        algebra, scheme, oracle, pairs)
    return (routed, delivered, optimal, failures[:MAX_REPORTED_FAILURES],
            stretch)


FAMILIES = ("cowen", "destination", "tree", "subtree", "pair")

#: Graphs an instance is drawn on: shallow random trees, and a ring and a
#: path, whose trees are about n/2 and n levels deep.
TOPOLOGIES = {
    "erdos-renyi": lambda n, rng: erdos_renyi(n, rng=rng),
    "ring": lambda n, rng: ring(n),
    "path": lambda n, rng: path_graph(n),
}

#: The failure a "subtree" scheme reports for every pair with an endpoint
#: off its tree.
OFF_TREE = "is not on the routing tree"

#: Per family, the algebras an instance draws from: additive keys, plus
#: widest-shortest (add, then max), widest (max) and shortest-widest
#: (max, then add) keys.
ALGEBRAS = {
    "cowen": (MinHop, lambda: ShortestPath(max_weight=9),
              lambda: widest_shortest_path(max_weight=9, max_capacity=9)),
    "destination": (MinHop, lambda: ShortestPath(max_weight=9),
                    lambda: widest_shortest_path(max_weight=9,
                                                 max_capacity=9)),
    "tree": (UsablePath, lambda: WidestPath(max_capacity=9)),
    "subtree": (UsablePath, lambda: WidestPath(max_capacity=9)),
    "pair": (MinHop, lambda: ShortestPath(max_weight=9),
             lambda: shortest_widest_path(max_weight=9, max_capacity=9)),
}


def _bfs_subtree(graph):
    """A tree on about half of *graph*: the first n // 2 edges of a BFS
    from its least node."""
    edges = list(nx.bfs_edges(graph, min(graph)))
    return nx.Graph(edges[:len(graph) // 2])


def _build_instance(family, seed, n, topology="erdos-renyi"):
    rng = random.Random(seed)
    choices = ALGEBRAS[family]
    algebra = choices[seed % len(choices)]()
    if family == "pair":
        n = min(n, 8)   # every node holds up to n^2 pair entries
    graph = TOPOLOGIES[topology](n, rng)
    assign_random_weights(graph, algebra, rng=rng)
    if family == "cowen":
        scheme = CowenScheme(graph, algebra, rng=random.Random(seed + 1))
    elif family == "destination":
        scheme = DestinationTableScheme(graph, algebra)
    elif family == "tree":
        scheme = TreeRoutingScheme(graph, algebra)
    elif family == "subtree":
        scheme = TreeRoutingScheme(graph, algebra, tree=_bfs_subtree(graph))
    else:
        scheme = PairTableScheme(graph, algebra)
    return graph, algebra, scheme


#: Sabotage cases for the table schemes, each built as a new scheme: one
#: node's table emptied; a 2-cycle of next hops toward one target, which
#: ends in the hop limit; an entry the walk cannot follow (a next hop that
#: is not a neighbour, a port that does not exist), which forces a replay.
#: A destination table's next hops are parent-row indexes, so none is off
#: the graph.
#: Per (family, case), a failure message the reference must then report.
SABOTAGES = {
    ("destination", "empty-table"): "no route from",
    ("pair", "empty-table"): "no pair entry",
    ("destination", "two-cycle"): "hop limit exceeded",
    ("pair", "two-cycle"): "hop limit exceeded",
    ("destination", "off-edge"): "is not a neighbor",
    ("pair", "off-edge"): "has no port",
}


def _destination_row(scheme, node):
    """*node*'s ``{target: next hop}`` entries in a destination table:
    column ``node`` of its parent rows."""
    u, nodes = scheme._index[node], scheme._nodes
    return {nodes[t]: nodes[row[u]]
            for t, row in enumerate(scheme._parent_rows) if row[u] >= 0}


def _sabotage(sabotaged, scheme, family, case, rng):
    """A sabotaged copy of a destination- or pair-table *scheme*.

    A packet from ``u`` to ``t`` always meets the sabotage: ``u``'s table
    is emptied, or its entry for ``t`` (the ``(u, t)`` header in a pair
    table) leads to the neighbour ``v`` and back, or off every edge.
    """
    graph = scheme.graph
    nodes = sorted(graph.nodes())
    u = rng.choice(nodes)
    name = "_parent_rows" if family == "destination" else "_entries"
    if case == "empty-table":
        return sabotaged(scheme, name, {u: {}})
    v = rng.choice(sorted(graph.neighbors(u)))
    t = rng.choice([x for x in nodes if x not in (u, v)])
    if family == "destination":
        table = {x: _destination_row(scheme, x) for x in (u, v)}
        if case == "two-cycle":
            rows = {u: {**table[u], t: v}, v: {**table[v], t: u}}
        else:
            # a node not adjacent to u, else u itself
            w = next((x for x in nodes
                      if x != u and not graph.has_edge(u, x)), u)
            rows = {u: {**table[u], t: w}}
    else:
        table = scheme._entries
        ports = scheme.ports
        if case == "two-cycle":
            rows = {u: {**table[u], (u, t): ports.port(u, v)},
                    v: {**table[v], (u, t): ports.port(v, u)}}
        else:
            rows = {u: {**table[u], (u, t): ports.degree(u) + 1}}
    return sabotaged(scheme, name, rows)


def _instance_under_test(sabotaged, family, seed, n, sabotage, topology):
    """``(graph, algebra, scheme, expected failure text or None)``."""
    graph, algebra, scheme = _build_instance(family, seed, n, topology)
    if family == "subtree":
        return graph, algebra, scheme, OFF_TREE
    expected = SABOTAGES.get((family, sabotage))
    if expected is not None:
        # Broken forwarding state: the walk must also agree with the
        # referee on every failure.
        scheme = _sabotage(sabotaged, scheme, family, sabotage,
                           random.Random(seed + 2))
    return graph, algebra, scheme, expected


#: The trace limit observed runs pass to ``route_shard``; caller captures
#: in the observed suite sit below and above it.
TRACE_LIMIT = 8
CALLER_LIMITS = {"own": None, "caller-below": 3, "caller-above": 40}


def _observed(run, limit):
    """Run *run* with telemetry on, from an empty registry.

    Returns ``(result, evaluate.hops histograms, traces, dropped,
    counters)``: the traces and drop count are the result's own when
    *limit* is None, else those of a caller capture of *limit*.
    """
    telemetry_reset()
    telemetry_enable()
    try:
        if limit is None:
            result = run()
            traces, dropped = result.traces, result.traces_dropped
        else:
            with capture_traces(limit=limit) as capture:
                result = run()
            traces, dropped = tuple(capture.traces), capture.dropped
    finally:
        telemetry_disable()
    snapshot = telemetry_registry().snapshot()
    hops = {name: histogram
            for name, histogram in snapshot["histograms"].items()
            if name.startswith("evaluate.hops")}
    return result, hops, traces, dropped, snapshot["counters"]


class TestBatchReferenceEquality:
    """The headline property: the walk and the referee, same outcome."""

    @needs_numpy
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n=st.integers(min_value=4, max_value=12),
        family=st.sampled_from(FAMILIES),
        sabotage=st.sampled_from(("none", "empty-table", "two-cycle",
                                  "off-edge")),
        topology=st.sampled_from(sorted(TOPOLOGIES)),
    )
    @example(seed=1, n=7, family="destination", sabotage="empty-table",
             topology="erdos-renyi")
    @example(seed=1, n=7, family="destination", sabotage="two-cycle",
             topology="erdos-renyi")
    @example(seed=1, n=7, family="destination", sabotage="off-edge",
             topology="erdos-renyi")
    @example(seed=1, n=7, family="pair", sabotage="empty-table",
             topology="erdos-renyi")
    @example(seed=1, n=7, family="pair", sabotage="two-cycle",
             topology="erdos-renyi")
    @example(seed=1, n=7, family="pair", sabotage="off-edge",
             topology="erdos-renyi")
    @example(seed=1, n=12, family="tree", sabotage="none", topology="path")
    @example(seed=2, n=12, family="cowen", sabotage="none", topology="ring")
    @example(seed=1, n=12, family="cowen", sabotage="none", topology="path")
    @example(seed=1, n=9, family="subtree", sabotage="none",
             topology="erdos-renyi")
    @example(seed=1, n=10, family="subtree", sabotage="none", topology="ring")
    def test_reports_are_bit_identical(self, seed, n, family, sabotage,
                                       topology, sabotaged):
        graph, algebra, scheme, expected = _instance_under_test(
            sabotaged, family, seed, n, sabotage, topology)
        # Every ordered pair (n <= 12), so the sabotaged pair is routed.
        options = EvaluationOptions(pair_count=min(4 * n * n, 200), rng=seed)
        pairs = sample_pairs(graph, count=options.pair_count, rng=seed)
        oracle = oracle_cache.get(graph, algebra, WEIGHT_ATTR)
        reference = _reference_shard(algebra, scheme, oracle, list(pairs))
        query_engine.reset_query_stats()
        walked = compiled_query.evaluate_shard(algebra, scheme, oracle,
                                               list(pairs))
        # counts and failure tuples, in pair order, and the stretch report
        assert walked[:4] == reference[:4]
        assert _walk_stretch(algebra, scheme, walked) == measure_stretch(
            algebra, reference[4], scheme_name=scheme.name)
        # pair by pair: each pair the walk delivers, in pair order, has
        # the referee's realized weight
        walk_realized = _walk_realized(scheme, oracle, pairs)
        delivered = {pair for pair, _ in walk_realized}
        assert walk_realized == [
            (pair, realized) for pair, realized
            in _referee_realized(algebra, scheme, oracle, pairs)
            if pair in delivered]
        report = evaluate_scheme(graph, algebra, scheme, options=options)
        assert _report_key(report) == _referee_report_key(
            graph, algebra, scheme, options)
        stats = query_engine.query_stats()
        assert stats["batch_shards"] >= 2
        if expected is not None:
            assert any(expected in reason
                       for _, _, reason in reference[3])
            if sabotage == "off-edge" or family == "subtree":
                # the walk replays the pairs it cannot follow
                assert stats["fallbacks"].get("pair-replay")
        else:   # an intact scheme's walk replays no pair
            assert "pair-replay" not in stats["fallbacks"]

    @needs_numpy
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n=st.integers(min_value=4, max_value=12),
        family=st.sampled_from(FAMILIES),
        sabotage=st.sampled_from(("none", "empty-table", "two-cycle",
                                  "off-edge")),
        capture=st.sampled_from(sorted(CALLER_LIMITS)),
        topology=st.sampled_from(sorted(TOPOLOGIES)),
    )
    @example(seed=1, n=7, family="destination", sabotage="off-edge",
             capture="own", topology="erdos-renyi")
    @example(seed=1, n=7, family="pair", sabotage="two-cycle",
             capture="caller-below", topology="erdos-renyi")
    @example(seed=1, n=7, family="cowen", sabotage="none",
             capture="caller-above", topology="erdos-renyi")
    @example(seed=1, n=12, family="tree", sabotage="none", capture="own",
             topology="ring")
    @example(seed=1, n=12, family="cowen", sabotage="none",
             capture="caller-above", topology="path")
    @example(seed=1, n=9, family="subtree", sabotage="none",
             capture="caller-below", topology="path")
    def test_observed_walk_matches_referee(self, seed, n, family, sabotage,
                                           capture, topology, sabotaged):
        """Telemetry on: every pair takes the walk, and its hop histogram,
        packet traces (every hop event) and drop count are the referee's —
        under route_shard's own capture and under a caller's, whose limit
        sits below or above the trace limit."""
        graph, algebra, scheme, _expected = _instance_under_test(
            sabotaged, family, seed, n, sabotage, topology)
        pairs = sample_pairs(graph, count=min(4 * n * n, 200), rng=seed)
        oracle = oracle_cache.get(graph, algebra, WEIGHT_ATTR)
        limit = CALLER_LIMITS[capture]
        walked, hops, traces, dropped, counters = _observed(
            lambda: route_shard(algebra, scheme, oracle, list(pairs),
                                trace_limit=TRACE_LIMIT), limit)
        reference, ref_hops, ref_traces, ref_dropped, ref_counters = \
            _observed(lambda: _reference_shard(algebra, scheme, oracle,
                                               list(pairs)),
                      TRACE_LIMIT if limit is None else limit)
        routed, delivered, optimal, failures, samples = reference
        assert _shard_key(walked) == (
            routed, delivered, optimal, failures,
            measure_stretch(algebra, samples, scheme_name=scheme.name))
        assert hops == ref_hops
        assert traces == ref_traces
        assert dropped == ref_dropped
        assert len(traces) + dropped == routed
        if limit is not None:   # the caller's capture took the traces
            assert walked.traces == () and walked.traces_dropped == 0
        assert counters.get("query_engine.batch_pairs") == len(pairs)
        assert "query_engine.reference_pairs" not in counters
        assert ref_counters["query_engine.reference_pairs"] == len(pairs)

    @needs_numpy
    @pytest.mark.parametrize("family", ("destination", "cowen", "tree"))
    def test_blocks_keep_pair_order(self, monkeypatch, sabotaged, family):
        """A shard split into many blocks: failures, stretch, hop counts
        and a traced sample spanning blocks, all in order."""
        monkeypatch.setattr(compiled_query, "BLOCK_PAIRS", 7)
        if family == "tree":
            algebra = WidestPath(max_capacity=9)
        else:
            algebra = widest_shortest_path(max_weight=9, max_capacity=9)
        graph = erdos_renyi(14 if family == "destination" else 15,
                            rng=random.Random(16))
        assign_random_weights(graph, algebra, rng=random.Random(17))
        if family == "destination":
            scheme = sabotaged(DestinationTableScheme(graph, algebra),
                               "_parent_rows", {3: {}})
        elif family == "cowen":
            scheme = CowenScheme(graph, algebra, rng=random.Random(18))
        else:
            scheme = TreeRoutingScheme(graph, algebra)
        oracle = oracle_cache.get(graph, algebra, WEIGHT_ATTR)
        nodes = list(graph.nodes())
        pairs = [(s, t) for s in nodes for t in nodes]
        query_engine.reset_query_stats()
        batch, hops, traces, dropped, _counters = _observed(
            lambda: route_shard(algebra, scheme, oracle, list(pairs)), 40)
        stats = query_engine.query_stats()
        _reference, ref_hops, ref_traces, ref_dropped, _counters = _observed(
            lambda: _reference_shard(algebra, scheme, oracle, list(pairs)), 40)
        assert (hops, traces, dropped) == (ref_hops, ref_traces, ref_dropped)
        reference = _referee_key(algebra, scheme, oracle, pairs)
        assert bool(reference[3]) == (family == "destination")
        assert _shard_key(batch) == reference
        assert stats["batch_shards"] == 1
        assert stats["batch_pairs"] == len(pairs)

    @needs_numpy
    def test_route_shard_failure_tuples_and_order(self, sabotaged):
        """Sabotaged tables: native failure strings match the reference."""
        algebra = ShortestPath(max_weight=9)
        graph = erdos_renyi(18, rng=random.Random(3))
        assign_random_weights(graph, algebra, rng=random.Random(4))
        # strands packets routed *through* 5 too
        scheme = sabotaged(DestinationTableScheme(graph, algebra),
                           "_parent_rows", {5: {}})
        oracle = oracle_cache.get(graph, algebra, WEIGHT_ATTR)
        nodes = list(graph.nodes())
        pairs = [(s, t) for s in nodes for t in nodes]
        reference = _referee_key(algebra, scheme, oracle, pairs)
        batch = route_shard(algebra, scheme, oracle, list(pairs))
        assert reference[3]   # the sabotage is visible
        assert _shard_key(batch) == reference


def _decided_cell(scheme, tables, node, target, header):
    """What the compiled ``(node, target)`` cell must hold, from the
    scheme's own routing function: ``(next node index, arc key)`` where it
    forwards, ``(_MISSING, None)`` where the destination table has no
    route, and ``(_REPLAY, None)`` for anything else the route loop would
    not follow (another exception, a delivery away from the target)."""
    try:
        decision = scheme.local_decision(node, header)
        hop = (None if decision.action is Action.DELIVER
               else scheme.ports.neighbor(node, decision.port))
    except RoutingError as error:
        if str(error) == f"no route from {node!r} to {target!r}":
            return compiled_query._MISSING, None
        return compiled_query._REPLAY, None
    except Exception:
        return compiled_query._REPLAY, None
    if hop is None:
        return compiled_query._REPLAY, None
    # The compile rests on this: the header is never rewritten.
    assert decision.header == header
    weight = scheme.graph[node][hop][scheme.attr]
    return tables.node_index[hop], tables.codec.key(weight)


class TestCompiledCells:
    """The dense table is the scheme's forwarding function, cell by cell.

    Outcome equality cannot see a wrong next hop that ties the right one
    in weight and hop count; a cell-by-cell comparison can.
    """

    @needs_numpy
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n=st.integers(min_value=4, max_value=12),
        family=st.sampled_from(("cowen", "destination", "tree", "subtree")),
        sabotage=st.sampled_from(("none", "empty-table", "two-cycle",
                                  "off-edge")),
        topology=st.sampled_from(sorted(TOPOLOGIES)),
    )
    @example(seed=1, n=7, family="destination", sabotage="empty-table",
             topology="erdos-renyi")
    @example(seed=1, n=7, family="destination", sabotage="two-cycle",
             topology="erdos-renyi")
    @example(seed=1, n=7, family="destination", sabotage="off-edge",
             topology="erdos-renyi")
    @example(seed=1, n=7, family="cowen", sabotage="none",
             topology="erdos-renyi")
    @example(seed=1, n=7, family="tree", sabotage="none",
             topology="erdos-renyi")
    @example(seed=1, n=12, family="tree", sabotage="none", topology="ring")
    @example(seed=1, n=12, family="tree", sabotage="none", topology="path")
    @example(seed=2, n=12, family="cowen", sabotage="none", topology="ring")
    @example(seed=1, n=12, family="cowen", sabotage="none", topology="path")
    @example(seed=1, n=9, family="subtree", sabotage="none",
             topology="erdos-renyi")
    @example(seed=1, n=12, family="subtree", sabotage="none",
             topology="path")
    def test_cells_are_the_local_decisions(self, seed, n, family, sabotage,
                                           topology, sabotaged):
        _graph, _algebra, scheme, _expected = _instance_under_test(
            sabotaged, family, seed, n, sabotage, topology)
        tables = compiled_query.compile_query(scheme)
        dt_next, dt_key = tables.arrays["dt_next"], tables.arrays["dt_key"]
        assert not dt_next.flags.writeable and not dt_key.flags.writeable
        if family != "destination":   # _MISSING's message is the table's
            assert not (dt_next == compiled_query._MISSING).any()
        nodes, size = tables.nodes, tables.n
        for ti, target in enumerate(nodes):
            for ui, node in enumerate(nodes):
                if node == target:
                    continue
                cell = ti * size + ui
                try:
                    header = scheme.initial_header(node, target)
                except RoutingError:
                    # An endpoint off the tree: the walk replays the pair.
                    assert family == "subtree"
                    assert dt_next[cell] == compiled_query._REPLAY
                    continue
                hop, key = _decided_cell(scheme, tables, node, target, header)
                assert dt_next[cell] == hop, (node, target)
                if key is not None:
                    assert dt_key[cell] == key, (node, target)


class TestStretchBeyondThree:
    """Tree routing over a weighted cycle routes many pairs the long way
    round: stretches above the walk's key-space range (4), some past 16,
    under every ``max_k`` cut-off."""

    ALGEBRAS = {
        "shortest-path": lambda: ShortestPath(max_weight=9),
        "widest-shortest-path": lambda: widest_shortest_path(
            max_weight=9, max_capacity=9),
    }

    @needs_numpy
    @pytest.mark.parametrize("n", [12, 20, 64])
    @pytest.mark.parametrize("policy", sorted(ALGEBRAS))
    def test_max_k_matches_referee(self, policy, n):
        algebra = self.ALGEBRAS[policy]()
        graph = ring(n)
        assign_random_weights(graph, algebra, rng=random.Random(n))
        scheme = TreeRoutingScheme(graph, algebra, check_properties=False)
        oracle = oracle_cache.get(graph, algebra, WEIGHT_ATTR)
        pairs = sample_pairs(graph)
        routed, delivered, optimal, failures, samples = _reference_shard(
            algebra, scheme, oracle, list(pairs))
        query_engine.reset_query_stats()
        reports = {}
        for max_k in (1, 2, 3, 4, 5, 16):
            walked = route_shard(algebra, scheme, oracle, list(pairs),
                                 max_k=max_k)
            reports[max_k] = measure_stretch(
                algebra, samples, scheme_name=scheme.name, max_k=max_k)
            assert _shard_key(walked) == (routed, delivered, optimal,
                                          failures, reports[max_k])
        assert query_engine.query_stats()["batch_pairs"] == 6 * len(pairs)
        # the cases reach past the key-space range, and past max_k
        assert reports[16].max_stretch > compiled_query.KEY_STRETCH
        assert reports[3].unbounded > 0
        assert (reports[16].unbounded > 0) == (n == 64)


class TestNodeLabels:
    """Graphs whose nodes are strings or tuples build, route and compile.

    Heavy-child ties break by node rank, so no node label is ever
    negated; the walk and the referee agree on every pair.
    """

    LABELS = {"str": lambda v: f"n{v}", "tuple": lambda v: (v % 3, f"n{v}")}
    SCHEMES = {
        "tree-widest-path": lambda graph, algebra: TreeRoutingScheme(
            graph, algebra),
        "cowen-shortest-path": lambda graph, algebra: CowenScheme(
            graph, algebra, rng=random.Random(7)),
        "cowen-widest-shortest-path": lambda graph, algebra: CowenScheme(
            graph, algebra, rng=random.Random(7)),
    }
    ALGEBRAS = {
        "tree-widest-path": lambda: WidestPath(max_capacity=3),
        "cowen-shortest-path": lambda: ShortestPath(max_weight=3),
        "cowen-widest-shortest-path": lambda: widest_shortest_path(
            max_weight=3, max_capacity=3),
    }

    @pytest.mark.parametrize("labels", sorted(LABELS))
    @pytest.mark.parametrize("case", sorted(SCHEMES))
    def test_walk_and_referee_route_every_pair(self, case, labels):
        algebra = self.ALGEBRAS[case]()
        graph = erdos_renyi(24, rng=random.Random(5))
        assign_random_weights(graph, algebra, rng=random.Random(6))
        relabel = self.LABELS[labels]
        graph = nx.relabel_nodes(graph, {v: relabel(v) for v in graph})
        scheme = self.SCHEMES[case](graph, algebra)
        oracle = oracle_cache.get(graph, algebra, WEIGHT_ATTR)
        pairs = sample_pairs(graph)
        reference = _referee_key(algebra, scheme, oracle, pairs)
        assert reference[0] == reference[1] == len(pairs)
        assert not reference[3]
        assert reference[4].stretch3_holds
        if compiled_query.numpy_available():
            assert compiled_query.compile_query(scheme) is not None
            query_engine.reset_query_stats()
            walked = route_shard(algebra, scheme, oracle, list(pairs))
            stats = query_engine.query_stats()
            assert stats["batch_pairs"] == len(pairs)
            assert not stats["fallbacks"]   # no pair replayed
            assert _shard_key(walked) == reference


class TestResolver:
    def test_default_is_batch(self):
        assert query_engine.resolve_query_engine() == "batch"

    def test_env_selects_reference(self, monkeypatch):
        monkeypatch.setenv(query_engine.QUERY_ENGINE_ENV, "reference")
        assert query_engine.resolve_query_engine() == "reference"
        monkeypatch.setenv(query_engine.QUERY_ENGINE_ENV, "loop")
        assert query_engine.resolve_query_engine() == "reference"

    def test_aliases_resolve_to_batch(self, monkeypatch):
        for alias in ("auto", "default", "vectorized", "BATCH"):
            monkeypatch.setenv(query_engine.QUERY_ENGINE_ENV, alias)
            assert query_engine.resolve_query_engine() == "batch"

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(query_engine.QUERY_ENGINE_ENV, "reference")
        assert query_engine.resolve_query_engine("batch") == "batch"

    def test_unknown_explicit_value_raises(self):
        with pytest.raises(ValueError, match="unknown query engine"):
            query_engine.resolve_query_engine("warp")

    def test_unknown_env_value_warns_once_then_defaults(self, monkeypatch):
        from repro import env as env_mod

        monkeypatch.setenv(query_engine.QUERY_ENGINE_ENV, "warp-speed")
        monkeypatch.setattr(env_mod, "_WARNED", set())
        with pytest.warns(RuntimeWarning, match="REPRO_QUERY_ENGINE"):
            assert query_engine.resolve_query_engine() == "batch"
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a second warning would raise
            assert query_engine.resolve_query_engine() == "batch"


class TestFallbackLadder:
    @needs_numpy
    def test_telemetry_keeps_the_walk(self):
        """Observing is no fallback: a telemetry run walks every pair."""
        algebra = ShortestPath(max_weight=9)
        graph = erdos_renyi(12, rng=random.Random(8))
        assign_random_weights(graph, algebra, rng=random.Random(9))
        scheme = DestinationTableScheme(graph, algebra)
        oracle = oracle_cache.get(graph, algebra, WEIGHT_ATTR)
        pairs = [(0, 5), (1, 6), (2, 7)]
        query_engine.reset_query_stats()
        result, _hops, traces, _dropped, counters = _observed(
            lambda: route_shard(algebra, scheme, oracle, list(pairs)), None)
        stats = query_engine.query_stats()
        assert stats["batch_shards"] == 1
        assert stats["fallbacks"] == {}
        assert counters["query_engine.batch_pairs"] == len(pairs)
        assert query_engine.engines_ran(counters) == "batch"
        assert len(traces) == result.routed == len(pairs)
        assert _shard_key(result) == _referee_key(algebra, scheme, oracle,
                                                  pairs)

    @needs_numpy
    def test_equal_algebra_instance_keeps_the_batch_path(self):
        """An equal algebra built apart from the scheme's (the identity the
        oracle cache keys on) reads the compiled tables the same way."""
        graph = erdos_renyi(24, rng=random.Random(21))
        assign_random_weights(graph, ShortestPath(), rng=random.Random(22))
        scheme = CowenScheme(graph, ShortestPath(), rng=random.Random(23))
        algebra = ShortestPath()
        assert algebra is not scheme.algebra
        query_engine.reset_query_stats()
        batch = evaluate_scheme(graph, algebra, scheme)
        stats = query_engine.query_stats()
        assert stats["batch_pairs"] == batch.pairs == 24 * 23
        assert stats["fallbacks"] == {}
        assert _report_key(batch) == _referee_report_key(graph, algebra,
                                                         scheme)

    @needs_numpy
    def test_keyless_algebra_falls_back_per_scheme(self):
        """Fraction weights have no integer key: uncompilable, not wrong."""
        algebra = MostReliablePath(denominator=9)
        graph = erdos_renyi(12, rng=random.Random(5))
        assign_random_weights(graph, algebra, rng=random.Random(6))
        scheme = DestinationTableScheme(graph, algebra)
        assert compiled_query.compile_query(scheme) is None
        oracle = oracle_cache.get(graph, algebra, WEIGHT_ATTR)
        pairs = [(0, 4), (1, 5), (2, 6)]
        query_engine.reset_query_stats()
        batch = route_shard(algebra, scheme, oracle, list(pairs))
        assert _shard_key(batch) == _referee_key(algebra, scheme, oracle,
                                                 pairs)
        assert query_engine.query_stats()["fallbacks"].get("uncompilable") == 1

    @needs_numpy
    def test_keys_past_int64_fall_back_per_scheme(self):
        """A long chain's keys at the 4n + 8 hop budget outgrow int64."""
        algebra = lexicographic_chain(*[ShortestPath(100)] * 6)
        graph = erdos_renyi(10, rng=random.Random(14))
        assign_random_weights(graph, algebra, rng=random.Random(15))
        scheme = DestinationTableScheme(graph, algebra)
        assert compiled_query.compile_query(scheme) is None
        oracle = oracle_cache.get(graph, algebra, WEIGHT_ATTR)
        nodes = list(graph.nodes())
        pairs = [(s, t) for s in nodes[:4] for t in nodes]
        query_engine.reset_query_stats()
        batch = route_shard(algebra, scheme, oracle, list(pairs))
        # every pair but the 4 with s == t (no path weight) delivers
        assert batch.delivered == len(pairs) - 4
        assert _shard_key(batch) == _referee_key(algebra, scheme, oracle,
                                                 pairs)
        assert query_engine.query_stats()["fallbacks"].get("uncompilable") == 1

    @needs_numpy
    def test_sabotaged_copy_compiles_afresh(self, sabotaged):
        """Evaluate, then sabotage: in place it raises, and a sabotaged copy
        is a new scheme with its own compiled tables."""
        algebra = ShortestPath(max_weight=9)
        graph = erdos_renyi(14, rng=random.Random(12))
        assign_random_weights(graph, algebra, rng=random.Random(13))
        scheme = DestinationTableScheme(graph, algebra)
        oracle = oracle_cache.get(graph, algebra, WEIGHT_ATTR)
        nodes = list(graph.nodes())
        pairs = [(s, t) for s in nodes[:6] for t in nodes]
        before = route_shard(algebra, scheme, oracle, list(pairs))
        assert not before.failures
        with pytest.raises(TypeError):
            scheme._parent_rows[0][2] = -1   # nodes[2]'s entry for nodes[0]
        broken = sabotaged(scheme, "_parent_rows", {nodes[2]: {}})
        reference = _referee_key(algebra, broken, oracle, pairs)
        batch = route_shard(algebra, broken, oracle, list(pairs))
        assert reference[3]
        assert _shard_key(batch) == reference
        assert (compiled_query.compile_query(broken)
                is not compiled_query.compile_query(scheme))
        again = route_shard(algebra, scheme, oracle, list(pairs))
        assert _shard_key(again) == _shard_key(before)


#: Per family, the read-only tables of a built scheme, and the store
#: rows the destination table and Cowen's direct entries forward by (the
#: parent rows stay tuples through a pickle).  A tree scheme's state is
#: one heavy-path tree (tuple columns and a node index) and its parent
#: indexes, and a Cowen scheme's landmark trees map each landmark to one.
READ_ONLY_TABLES = {
    "destination-index": ("destination", lambda s: s._index),
    "destination-parent-rows": ("destination", lambda s: s._parent_rows),
    "destination-row": ("destination", lambda s: s._parent_rows[0]),
    "pair-entries": ("pair", lambda s: s._entries),
    "pair-row": ("pair", lambda s: s._entries[0]),
    "tree-info": ("tree", lambda s: s._heavy_paths),
    "tree-labels": ("tree", lambda s: s._heavy_paths.labels),
    "tree-parents": ("tree", lambda s: s._parents),
    "cowen-clusters": ("cowen", lambda s: s.clusters),
    "cowen-landmark-of": ("cowen", lambda s: s.landmark_of),
    "cowen-tree-schemes": ("cowen", lambda s: s._landmark_trees),
    "cowen-trees": ("cowen", lambda s: s._parent_rows),
    "store-tree-weight": ("cowen", lambda s: s._weight_rows[0]),
    "store-tree-parent": ("cowen", lambda s: s._parent_rows[0]),
}


def _assert_read_only(table):
    """Every in-place write to *table* raises, and leaves it as it was."""
    if isinstance(table, HeavyPathTree):
        for field in dataclasses.fields(table):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(table, field.name, None)
            _assert_read_only(getattr(table, field.name))
        return
    size = len(table)
    if type(table) is tuple:
        with pytest.raises(TypeError):
            table[0] = table[-1]
        with pytest.raises(TypeError):
            del table[0]
        assert len(table) == size
        return
    assert type(table) is FrozenTable
    first, last = list(table)[0], list(table)[-1]
    with pytest.raises(TypeError):
        table[first] = table[last]
    with pytest.raises(TypeError):
        table.update({first: table[last]})
    with pytest.raises(TypeError):
        del table[first]
    assert len(table) == size


class TestReadOnlyTables:
    """A built scheme's tables cannot change under its compiled query."""

    @needs_numpy
    def test_same_size_rewrite_raises(self):
        """The stale-table probe: a same-size rewrite of one entry.

        Were the edit allowed, pointing node 0's entry for one target at
        another neighbour after an evaluation would leave the memoized
        compile serving the old tables (870/870 optimal) while the
        reference loop saw the edit (869).
        """
        algebra = ShortestPath(max_weight=9)
        graph = erdos_renyi(30, rng=random.Random(3))
        assign_random_weights(graph, algebra, rng=random.Random(3))
        scheme = DestinationTableScheme(graph, algebra)
        batch = evaluate_scheme(graph, algebra, scheme)
        assert batch.optimal == batch.pairs == 870
        index = scheme._index
        row = scheme._parent_rows[index[1]]   # the tree rooted at node 1
        u = index[0]
        hop = row[u]                          # node 0's next hop toward 1
        other = next(index[v] for v in sorted(graph.neighbors(0))
                     if index[v] != hop)
        with pytest.raises(TypeError):
            row[u] = other
        assert row[u] == hop
        assert _report_key(batch) == _referee_report_key(graph, algebra,
                                                         scheme)

    @pytest.mark.parametrize("name", sorted(READ_ONLY_TABLES))
    def test_table_stays_read_only_through_pickle(self, name):
        family, table_of = READ_ONLY_TABLES[name]
        _, _, scheme = _build_instance(family, seed=11, n=8)
        clone = pickle.loads(pickle.dumps(scheme))
        for built in (scheme, clone):
            _assert_read_only(table_of(built))
        assert table_of(clone) == table_of(scheme)

    def test_cowen_sets_are_frozen(self):
        _, _, scheme = _build_instance("cowen", seed=11, n=8)
        assert type(scheme.landmarks) is frozenset
        assert all(type(cluster) is frozenset
                   for cluster in scheme.clusters.values())


class TestSharedQueryTables:
    @needs_numpy
    def test_spawn_workers_match_serial_reference(self, monkeypatch):
        monkeypatch.setattr(parallel_engine, "_start_method", lambda: "spawn")
        src_dir = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__)))
        existing = os.environ.get("PYTHONPATH")
        monkeypatch.setenv("PYTHONPATH", src_dir + (
            os.pathsep + existing if existing else ""))
        algebra = ShortestPath(max_weight=9)
        graph = erdos_renyi(30, rng=random.Random(31))
        assign_random_weights(graph, algebra, rng=random.Random(32))
        scheme = CowenScheme(graph, algebra, rng=random.Random(33))
        options = EvaluationOptions(pair_count=400, rng=34, workers=2,
                                    shard_size=100)
        serial_options = EvaluationOptions(pair_count=400, rng=34)
        parallel = evaluate_scheme(graph, algebra, scheme, options=options)
        assert _report_key(parallel) == _referee_report_key(
            graph, algebra, scheme, serial_options)

    @needs_numpy
    def test_observed_workers_match_serial_referee(self):
        """workers=2 with telemetry on: the merged report, traces, hop
        histogram and engine counters match one serial referee run."""
        algebra = ShortestPath(max_weight=9)
        graph = erdos_renyi(30, rng=random.Random(41))
        assign_random_weights(graph, algebra, rng=random.Random(42))
        scheme = CowenScheme(graph, algebra, rng=random.Random(43))
        options = EvaluationOptions(workers=2, shard_size=200,
                                    trace_limit=TRACE_LIMIT)
        report, hops, traces, dropped, counters = _observed(
            lambda: evaluate_scheme(graph, algebra, scheme, options=options),
            None)
        run = last_run_info()
        assert run.fallback is None and len(run.shards) > 1
        pairs = sample_pairs(graph)
        oracle = oracle_cache.get(graph, algebra, WEIGHT_ATTR)
        _reference, ref_hops, ref_traces, ref_dropped, _counters = _observed(
            lambda: _reference_shard(algebra, scheme, oracle, pairs),
            TRACE_LIMIT)
        assert _report_key(report) == _referee_report_key(graph, algebra,
                                                          scheme)
        assert hops == ref_hops
        assert traces == ref_traces
        assert dropped == ref_dropped
        assert counters["query_engine.batch_pairs"] == len(pairs)
        assert query_engine.engines_ran(counters) == "batch"
