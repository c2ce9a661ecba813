"""Service reads on the compiled walk answer exactly as the hop loop does.

:meth:`~repro.service.RoutingService.route` answers each pair the
compiled walk can take from the walk itself (path, hops, the realized key
decoded, optimality and stretch in key space) and replays the rest
through its per-pair hop loop.  The referee here is that loop written
out: ``scheme.route`` per pair, the realized weight re-summed with
``path_weight``, the stretch probed with ``minimal_stretch``.  Answers
must match it field by field and as wire bytes, so a decoded key has to
encode exactly like ``path_weight``'s weight.

Covered: destination tables, Cowen (``compact``), tree routing (widest
path), pair tables (shortest-widest path), most-reliable path (no key
codec, so every pair replays), all under churn; sabotaged tables (a
missing entry, an off-edge hop, a forwarding loop); unknown nodes and
self pairs; trace captures and telemetry counters.
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.obs as obs
from repro.algebra.base import PHI, is_phi
from repro.algebra.catalog import (MinHop, MostReliablePath, ShortestPath,
                                   WidestPath)
from repro.algebra.lexicographic import (shortest_widest_path,
                                         widest_shortest_path)
from repro.exceptions import NotApplicableError, ReproError
from repro.graphs.generators import erdos_renyi, ring
from repro.graphs.weighting import assign_random_weights
from repro.obs.tracing import capture_traces
from repro.routing import query_engine
from repro.routing.compiled_query import numpy_available
from repro.routing.stretch import minimal_stretch
from repro.routing.tree_routing import TreeRoutingScheme
from repro.service import RoutingService, ServiceOptions
from repro.service.service import RouteAnswer
from repro.service.wire import answer_to_dict, encode_response

#: Per family: the algebras an instance draws from, the service mode and
#: the scheme it must build.
FAMILIES = {
    "destination": ((MinHop, lambda: ShortestPath(max_weight=9),
                     lambda: widest_shortest_path(max_weight=9,
                                                  max_capacity=9)),
                    "auto", "destination-table"),
    "cowen": ((lambda: ShortestPath(max_weight=9),
               lambda: widest_shortest_path(max_weight=9, max_capacity=9)),
              "compact", "cowen-stretch3"),
    "tree": ((lambda: WidestPath(max_capacity=9),), "auto", "tree-routing"),
    "pair": ((lambda: shortest_widest_path(max_weight=9, max_capacity=9),),
             "auto", "pair-table"),
    "most-reliable": ((MostReliablePath,), "auto", "destination-table"),
}

#: Endpoints outside every graph here.
GHOSTS = ("ghost", ("no", "node"))


def make_service(family, seed, n):
    algebras, mode, _ = FAMILIES[family]
    algebra = algebras[seed % len(algebras)]()
    rng = random.Random(seed)
    graph = erdos_renyi(n, rng=rng)
    assign_random_weights(graph, algebra, rng=rng)
    return RoutingService(graph, algebra, ServiceOptions(mode=mode, seed=seed))


def referee(service, pairs):
    """What the per-pair hop loop answers for *pairs*."""
    graph, algebra = service.graph, service.algebra
    scheme, oracle = service.scheme, service._oracle
    answers = []
    for s, t in pairs:
        if s not in graph or t not in graph:
            answers.append(RouteAnswer(s, t, False, False, (), 0, PHI, None,
                                       None, None, "unknown node"))
            continue
        if s == t:
            answers.append(RouteAnswer(s, t, True, True, (s,), 0, None, None,
                                       True, 1, ""))
            continue
        preferred = oracle(s, t)
        if is_phi(preferred):
            answers.append(RouteAnswer(s, t, False, False, (), 0, PHI, None,
                                       None, None, "no traversable path"))
            continue
        try:
            result = scheme.route(s, t)
        except ReproError as exc:
            answers.append(RouteAnswer(s, t, True, False, (), 0, preferred,
                                       None, None, None, str(exc)))
            continue
        if not result.delivered:
            answers.append(RouteAnswer(s, t, True, False, tuple(result.path),
                                       result.hops, preferred, None, None,
                                       None, result.reason))
            continue
        realized = algebra.path_weight(graph, list(result.path),
                                       attr=scheme.attr)
        answers.append(RouteAnswer(
            s, t, True, True, tuple(result.path), result.hops, preferred,
            realized, algebra.eq(realized, preferred),
            minimal_stretch(algebra, preferred, realized,
                            max_k=service.options.max_k), ""))
    return answers


def wire_bytes(answers):
    """The exact bytes a serve session would emit for these answers."""
    return encode_response({
        "id": 0, "ok": True, "op": "route",
        "result": {"answers": [answer_to_dict(a) for a in answers]},
    }).encode()


def read_pairs(graph, rng):
    """Every ordered pair of distinct nodes, shuffled, with self pairs and
    pairs with an unknown endpoint mixed in."""
    nodes = sorted(graph.nodes())
    pairs = [(s, t) for s in nodes for t in nodes if s != t]
    pairs += [(s, s) for s in rng.sample(nodes, 2)]
    pairs += [(nodes[0], GHOSTS[0]), (GHOSTS[1], nodes[-1]),
              (GHOSTS[0], GHOSTS[0])]
    rng.shuffle(pairs)
    return pairs


def assert_matches_referee(service, pairs):
    answers = service.route(pairs)
    expected = referee(service, pairs)
    assert answers == expected
    assert wire_bytes(answers) == wire_bytes(expected)
    return answers


def walked_pairs(service, pairs):
    """``(answers, pairs the walk took, stats)`` of one read."""
    query_engine.reset_query_stats()
    answers = assert_matches_referee(service, pairs)
    stats = query_engine.query_stats()
    return answers, stats["batch_pairs"], stats


def apply_churn(service, ops, rng):
    """Fail, restore and reweight edges through *service*."""
    edges = sorted(service.graph.edges())
    failed = []
    for kind, index in ops:
        u, v = edges[index % len(edges)]
        if kind == "restore" and failed:
            service.restore_link(*failed.pop())
        elif kind == "fail" and service.graph.has_edge(u, v):
            service.fail_link(u, v)
            failed.append((u, v))
        elif service.graph.has_edge(u, v):
            weight = service.algebra.sample_weights(rng, 1)[0]
            service.update_weight(u, v, weight)


OPS = st.lists(st.tuples(st.sampled_from(["update", "fail", "restore"]),
                         st.integers(min_value=0, max_value=63)),
               max_size=4)


@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)),
       seed=st.integers(min_value=0, max_value=10**6),
       n=st.integers(min_value=2, max_value=13), ops=OPS)
def test_answers_match_the_hop_loop(family, seed, n, ops):
    if family == "pair":
        n = min(n, 8)   # every node holds up to n^2 pair entries
    rng = random.Random(seed)
    try:
        service = make_service(family, seed, n)
        service.route(read_pairs(service.graph, rng))
        apply_churn(service, ops, rng)
        scheme = service.scheme
    except NotApplicableError:
        # Cowen needs a connected graph, before and after churn.
        assume(False)
    assert scheme.name == FAMILIES[family][2]
    pairs = read_pairs(service.graph, rng)
    _, walked, stats = walked_pairs(service, pairs)
    if not numpy_available():
        assert walked == 0
    elif family == "most-reliable":
        # No key codec: the walk does not run, and the hop loop answers.
        assert walked == 0 and stats["fallbacks"] == {"uncompilable": 1}
    else:
        assert walked == sum(s != t and GHOSTS[0] not in (s, t)
                             and GHOSTS[1] not in (s, t) for s, t in pairs)


@pytest.mark.parametrize("max_k", [1, 2, 3, 4, 5, 16])
def test_stretch_past_the_key_space(max_k):
    """Tree routing over a weighted ring sends many pairs the long way
    round: stretches past the key-space range, some past every *max_k*."""
    algebra = ShortestPath(max_weight=9)
    graph = ring(24)
    assign_random_weights(graph, algebra, rng=random.Random(24))
    service = RoutingService(graph, algebra, ServiceOptions(max_k=max_k))
    service._scheme = TreeRoutingScheme(graph, algebra,
                                        check_properties=False)
    answers, _, _ = walked_pairs(service, read_pairs(graph, random.Random(2)))
    stretches = {a.stretch for a in answers if a.delivered}
    if max_k < 16:
        assert None in stretches and max(stretches - {None}) == max_k
    else:
        assert max(stretches - {None}) > 4   # KEY_STRETCH


def destination_row(scheme, node):
    """*node*'s ``{target: next hop}`` entries in a destination table."""
    u, nodes = scheme._index[node], scheme._nodes
    return {nodes[t]: nodes[row[u]]
            for t, row in enumerate(scheme._parent_rows) if row[u] >= 0}


#: Per sabotage: the family it breaks, how, and what the broken pair
#: ``(u, t)`` must answer.
def sabotage(sabotaged, scheme, family, case):
    """A broken copy of *scheme*, and the pair ``(u, t)`` that meets it."""
    graph = scheme.graph
    nodes = sorted(graph.nodes())
    u = nodes[1]
    v = min(graph.neighbors(u))
    t = next(x for x in nodes if x not in (u, v) and not graph.has_edge(u, x))
    if family == "destination":
        table = {x: destination_row(scheme, x) for x in (u, v)}
        name = "_parent_rows"
        rows = {"missing": {u: {}},
                "loop": {u: {**table[u], t: v}, v: {**table[v], t: u}},
                "off-edge": {u: {**table[u], t: t}}}[case]
    else:
        table, ports = scheme._entries, scheme.ports
        name = "_entries"
        rows = {"missing": {u: {}},
                "loop": {u: {**table[u], (u, t): ports.port(u, v)},
                         v: {**table[v], (u, t): ports.port(v, u)}},
                "off-edge": {u: {**table[u],
                                 (u, t): ports.degree(u) + 1}}}[case]
    return sabotaged(scheme, name, rows), u, t


@pytest.mark.parametrize("family", ["destination", "pair"])
@pytest.mark.parametrize("case", ["missing", "loop", "off-edge"])
def test_sabotaged_tables_answer_like_the_hop_loop(sabotaged, family, case):
    service = make_service(family, seed=3, n=8)
    n = len(service.graph)
    broken, u, t = sabotage(sabotaged, service.scheme, family, case)
    service._scheme = broken   # the service serves the broken copy
    answers, walked, stats = walked_pairs(
        service, read_pairs(service.graph, random.Random(4)))
    answer = next(a for a in answers if (a.source, a.target) == (u, t))
    assert answer.routable and not answer.delivered
    replays = stats["fallbacks"].get("pair-replay", 0)
    if case == "missing":
        reason = (f"no route from {u!r} to {t!r}" if family == "destination"
                  else f"no pair entry for {(u, t)!r} at node {u!r}")
        assert (answer.reason, answer.path, answer.hops) == (reason, (), 0)
    elif case == "loop":
        assert answer.reason == "hop limit exceeded"
        assert len(answer.path) == 4 * n + 9 == answer.hops + 1
        assert answer.path[:3] == (u, answer.path[1], u)
    else:
        assert answer.path == () and answer.hops == 0
        assert ("is not a neighbor" if family == "destination"
                else "has no port") in answer.reason
        if numpy_available():
            assert replays >= 1   # the walk cannot follow it
    if numpy_available() and case != "off-edge":
        assert walked and replays == 0


@pytest.mark.parametrize("family", ["destination", "cowen", "pair"])
@pytest.mark.parametrize("limit", [None, 0, 5])
def test_trace_capture_replays_the_read(family, limit):
    """An active capture holds the traces the hop loop would have
    recorded: every routable pair's, in pair order, up to its limit."""
    service = make_service(family, seed=11, n=8)
    pairs = read_pairs(service.graph, random.Random(12))
    service.route(pairs)
    with capture_traces(limit=limit) as walked:
        answers = service.route(pairs)
    with capture_traces(limit=limit) as looped:
        expected = referee(service, pairs)
    assert answers == expected
    assert walked.traces == looped.traces
    assert walked.dropped == looped.dropped


def test_telemetry_counts_walked_and_replayed_pairs(sabotaged):
    service = make_service("destination", seed=5, n=8)
    broken, u, t = sabotage(sabotaged, service.scheme, "destination",
                            "off-edge")
    service._scheme = broken
    pairs = read_pairs(service.graph, random.Random(6))
    obs.enable()
    try:
        obs.reset_all()
        answers = service.route(pairs)
        counters = obs.telemetry_snapshot(
            include_spans=False)["metrics"]["counters"]
    finally:
        obs.disable()
        obs.reset_all()
    assert answers == referee(service, pairs)
    walked = sum(s != t and s in service.graph and t in service.graph
                 for s, t in pairs)
    if numpy_available():
        assert counters["query_engine.batch_pairs"] == walked
        replays = counters["query_engine.batch_fallbacks{reason=pair-replay}"]
        assert 1 <= replays < walked
        # Walked pairs leave route.* alone, and these replays raise
        # before RoutingScheme.route counts them.
        assert not [name for name in counters if name.startswith("route.")]
    else:
        assert counters["query_engine.batch_fallbacks{reason=numpy-missing}"]
