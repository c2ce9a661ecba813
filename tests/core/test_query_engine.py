"""Vectorized query engine vs the reference per-pair loop: exact equality.

The batch engine's contract is *bit-identical* `EvaluationReport`s — the
same routed/delivered/optimal counts, the same failure tuples in the same
order (message strings included), and the same stretch samples.  Hypothesis
drives seeded graphs through every compiled scheme family under both
engines, sabotaged copies of the table schemes included; further tests pin
the read-only tables that keep compiled queries from going stale, the
resolver semantics (env handling, warn-once, explicit errors), the fallback
ladder (telemetry, algebras without an integer key, keys past int64), and
spawn workers that compile their own tables.
"""

import os
import pickle
import random
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

import repro
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
from repro.core.parallel import START_METHOD_ENV
from repro.core.simulate import (
    EvaluationOptions,
    evaluate_scheme,
    oracle_cache,
    route_shard,
)
from repro.frozen import FrozenTable
from repro.graphs.generators import erdos_renyi
from repro.graphs.weighting import WEIGHT_ATTR, assign_random_weights
from repro.obs.metrics import disable as telemetry_disable
from repro.obs.metrics import enable as telemetry_enable
from repro.obs.metrics import reset as telemetry_reset
from repro.routing import compiled_query, query_engine
from repro.routing.cowen import CowenScheme
from repro.routing.destination_table import DestinationTableScheme
from repro.routing.pair_table import PairTableScheme
from repro.routing.tree_routing import TreeRoutingScheme

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


def _with_engine(engine, fn):
    """Run *fn* with REPRO_QUERY_ENGINE pinned, restoring the old value."""
    old = os.environ.get(query_engine.QUERY_ENGINE_ENV)
    os.environ[query_engine.QUERY_ENGINE_ENV] = engine
    try:
        return fn()
    finally:
        if old is None:
            os.environ.pop(query_engine.QUERY_ENGINE_ENV, None)
        else:
            os.environ[query_engine.QUERY_ENGINE_ENV] = old


def _shard_key(result):
    return (result.routed, result.delivered, result.optimal,
            result.failures, result.stretch)


FAMILIES = ("cowen", "destination", "tree", "pair")

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
    "pair": (MinHop, lambda: ShortestPath(max_weight=9),
             lambda: shortest_widest_path(max_weight=9, max_capacity=9)),
}


def _build_instance(family, seed, n):
    rng = random.Random(seed)
    choices = ALGEBRAS[family]
    algebra = choices[seed % len(choices)]()
    if family == "pair":
        n = min(n, 8)   # the enumeration oracle is exponential
    graph = erdos_renyi(n, rng=rng)
    assign_random_weights(graph, algebra, rng=rng)
    if family == "cowen":
        scheme = CowenScheme(graph, algebra, rng=random.Random(seed + 1))
    elif family == "destination":
        scheme = DestinationTableScheme(graph, algebra)
    elif family == "tree":
        scheme = TreeRoutingScheme(graph, algebra)
    else:
        scheme = PairTableScheme(graph, algebra)
    return graph, algebra, scheme


#: Sabotage cases for the table schemes, each built as a new scheme: one
#: node's table emptied; a 2-cycle of next hops toward one target, which
#: ends in the hop limit; an entry the walk cannot follow (a next hop that
#: is not a neighbour, a port that does not exist), which forces a replay.
#: Per (family, case), a failure message the reference must then report.
SABOTAGES = {
    ("destination", "empty-table"): "no route from",
    ("pair", "empty-table"): "no pair entry",
    ("destination", "two-cycle"): "hop limit exceeded",
    ("pair", "two-cycle"): "hop limit exceeded",
    ("destination", "off-edge"): "is not a neighbor",
    ("pair", "off-edge"): "has no port",
}


def _sabotage(sabotaged, scheme, family, case, rng):
    """A sabotaged copy of a destination- or pair-table *scheme*.

    A packet from ``u`` to ``t`` always meets the sabotage: ``u``'s table
    is emptied, or its entry for ``t`` (the ``(u, t)`` header in a pair
    table) leads to the neighbour ``v`` and back, or off every edge.
    """
    graph = scheme.graph
    nodes = sorted(graph.nodes())
    u = rng.choice(nodes)
    name = "_next_hop" if family == "destination" else "_entries"
    table = getattr(scheme, name)
    if case == "empty-table":
        return sabotaged(scheme, name, {u: {}})
    v = rng.choice(sorted(graph.neighbors(u)))
    t = rng.choice([x for x in nodes if x not in (u, v)])
    if family == "destination":
        if case == "two-cycle":
            rows = {u: {**table[u], t: v}, v: {**table[v], t: u}}
        else:
            # a node not adjacent to u, else one not in the graph at all
            w = next((x for x in nodes
                      if x != u and not graph.has_edge(u, x)), len(nodes))
            rows = {u: {**table[u], t: w}}
    else:
        ports = scheme.ports
        if case == "two-cycle":
            rows = {u: {**table[u], (u, t): ports.port(u, v)},
                    v: {**table[v], (u, t): ports.port(v, u)}}
        else:
            rows = {u: {**table[u], (u, t): ports.degree(u) + 1}}
    return sabotaged(scheme, name, rows)


class TestBatchReferenceEquality:
    """The headline property: both engines, same `EvaluationReport`."""

    @needs_numpy
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n=st.integers(min_value=4, max_value=12),
        family=st.sampled_from(FAMILIES),
        sabotage=st.sampled_from(("none", "empty-table", "two-cycle",
                                  "off-edge")),
    )
    @example(seed=1, n=7, family="destination", sabotage="empty-table")
    @example(seed=1, n=7, family="destination", sabotage="two-cycle")
    @example(seed=1, n=7, family="destination", sabotage="off-edge")
    @example(seed=1, n=7, family="pair", sabotage="empty-table")
    @example(seed=1, n=7, family="pair", sabotage="two-cycle")
    @example(seed=1, n=7, family="pair", sabotage="off-edge")
    def test_reports_are_bit_identical(self, seed, n, family, sabotage,
                                       sabotaged):
        graph, algebra, scheme = _build_instance(family, seed, n)
        expected = SABOTAGES.get((family, sabotage))
        if expected is not None:
            # Broken forwarding state: the engines must also agree on
            # every failure.
            scheme = _sabotage(sabotaged, scheme, family, sabotage,
                               random.Random(seed + 2))
        # Every ordered pair (n <= 12), so the sabotaged pair is routed.
        options = EvaluationOptions(pair_count=min(4 * n * n, 200), rng=seed)
        query_engine.reset_query_stats()
        reference = _with_engine("reference", lambda: evaluate_scheme(
            graph, algebra, scheme, options=options))
        batch = _with_engine("batch", lambda: evaluate_scheme(
            graph, algebra, scheme, options=options))
        assert batch == reference
        assert batch.failures == reference.failures
        assert batch.stretch == reference.stretch
        stats = query_engine.query_stats()
        assert stats["batch_shards"] >= 1
        if expected is not None:
            assert any(expected in reason
                       for _, _, reason in reference.failures)
            if sabotage == "off-edge":
                assert stats["fallbacks"].get("pair-replay")

    @needs_numpy
    def test_blocks_keep_pair_order(self, monkeypatch, sabotaged):
        """A shard split into many blocks: failures and samples in order."""
        monkeypatch.setattr(compiled_query, "BLOCK_PAIRS", 7)
        algebra = widest_shortest_path(max_weight=9, max_capacity=9)
        graph = erdos_renyi(14, rng=random.Random(16))
        assign_random_weights(graph, algebra, rng=random.Random(17))
        scheme = sabotaged(DestinationTableScheme(graph, algebra),
                           "_next_hop", {3: {}})
        oracle = oracle_cache.get(graph, algebra, WEIGHT_ATTR)
        nodes = list(graph.nodes())
        pairs = [(s, t) for s in nodes for t in nodes]
        query_engine.reset_query_stats()
        batch = _with_engine("batch", lambda: route_shard(
            algebra, scheme, oracle, list(pairs)))
        stats = query_engine.query_stats()
        reference = _with_engine("reference", lambda: route_shard(
            algebra, scheme, oracle, list(pairs)))
        assert reference.failures
        assert _shard_key(batch) == _shard_key(reference)
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
                           "_next_hop", {5: {}})
        oracle = oracle_cache.get(graph, algebra, WEIGHT_ATTR)
        nodes = list(graph.nodes())
        pairs = [(s, t) for s in nodes for t in nodes]
        reference = _with_engine("reference", lambda: route_shard(
            algebra, scheme, oracle, list(pairs)))
        batch = _with_engine("batch", lambda: route_shard(
            algebra, scheme, oracle, list(pairs)))
        assert reference.failures   # the sabotage is visible
        assert _shard_key(batch) == _shard_key(reference)


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
    def test_telemetry_forces_reference_and_counts_fallback(self):
        algebra = ShortestPath(max_weight=9)
        graph = erdos_renyi(12, rng=random.Random(8))
        assign_random_weights(graph, algebra, rng=random.Random(9))
        scheme = DestinationTableScheme(graph, algebra)
        oracle = oracle_cache.get(graph, algebra, WEIGHT_ATTR)
        pairs = [(0, 5), (1, 6), (2, 7)]
        telemetry_enable()
        try:
            query_engine.reset_query_stats()
            result = _with_engine("batch", lambda: route_shard(
                algebra, scheme, oracle, list(pairs)))
        finally:
            telemetry_disable()
            telemetry_reset()
        stats = query_engine.query_stats()
        assert stats["batch_shards"] == 0
        assert stats["fallbacks"].get("trace-fidelity") == 1
        assert result.routed == len(
            [p for p in pairs])  # the reference loop still evaluated

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
        batch = _with_engine("batch", lambda: route_shard(
            algebra, scheme, oracle, list(pairs)))
        reference = _with_engine("reference", lambda: route_shard(
            algebra, scheme, oracle, list(pairs)))
        assert _shard_key(batch) == _shard_key(reference)
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
        batch = _with_engine("batch", lambda: route_shard(
            algebra, scheme, oracle, list(pairs)))
        reference = _with_engine("reference", lambda: route_shard(
            algebra, scheme, oracle, list(pairs)))
        # every pair but the 4 with s == t (no path weight) delivers
        assert batch.delivered == len(pairs) - 4
        assert _shard_key(batch) == _shard_key(reference)
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
        before = _with_engine("batch", lambda: route_shard(
            algebra, scheme, oracle, list(pairs)))
        assert not before.failures
        with pytest.raises(TypeError):
            scheme._next_hop[nodes[2]] = {}
        broken = sabotaged(scheme, "_next_hop", {nodes[2]: {}})
        reference = _with_engine("reference", lambda: route_shard(
            algebra, broken, oracle, list(pairs)))
        batch = _with_engine("batch", lambda: route_shard(
            algebra, broken, oracle, list(pairs)))
        assert reference.failures
        assert _shard_key(batch) == _shard_key(reference)
        assert (compiled_query.compile_query(broken)
                is not compiled_query.compile_query(scheme))
        again = _with_engine("batch", lambda: route_shard(
            algebra, scheme, oracle, list(pairs)))
        assert _shard_key(again) == _shard_key(before)


#: Per family, the read-only tables of a built scheme, and the store
#: trees a Cowen scheme forwards by (its direct entries read their parent
#: maps).
READ_ONLY_TABLES = {
    "destination-next-hop": ("destination", lambda s: s._next_hop),
    "destination-row": ("destination", lambda s: s._next_hop[0]),
    "pair-entries": ("pair", lambda s: s._entries),
    "pair-row": ("pair", lambda s: s._entries[0]),
    "tree-info": ("tree", lambda s: s._info),
    "tree-labels": ("tree", lambda s: s._labels),
    "cowen-clusters": ("cowen", lambda s: s.clusters),
    "cowen-landmark-of": ("cowen", lambda s: s.landmark_of),
    "cowen-tree-schemes": ("cowen", lambda s: s._tree_schemes),
    "cowen-trees": ("cowen", lambda s: s._trees),
    "store-tree-weight": ("cowen", lambda s: s._trees[0].weight),
    "store-tree-parent": ("cowen", lambda s: s._trees[0].parent),
}


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
        batch = _with_engine("batch", lambda: evaluate_scheme(
            graph, algebra, scheme))
        assert batch.optimal == batch.pairs == 870
        row = scheme._next_hop[0]
        target, hop = next(iter(row.items()))
        other = next(v for v in sorted(graph.neighbors(0)) if v != hop)
        with pytest.raises(TypeError):
            row[target] = other
        assert row[target] == hop
        reference = _with_engine("reference", lambda: evaluate_scheme(
            graph, algebra, scheme))
        assert reference == batch

    @pytest.mark.parametrize("name", sorted(READ_ONLY_TABLES))
    def test_table_stays_read_only_through_pickle(self, name):
        family, table_of = READ_ONLY_TABLES[name]
        _, _, scheme = _build_instance(family, seed=11, n=8)
        clone = pickle.loads(pickle.dumps(scheme))
        for built in (scheme, clone):
            table = table_of(built)
            assert type(table) is FrozenTable
            first, last = list(table)[0], list(table)[-1]
            size = len(table)
            with pytest.raises(TypeError):
                table[first] = table[last]
            with pytest.raises(TypeError):
                table.update({first: table[last]})
            with pytest.raises(TypeError):
                del table[first]
            assert len(table) == size
        assert table_of(clone).keys() == table_of(scheme).keys()

    def test_cowen_sets_are_frozen(self):
        _, _, scheme = _build_instance("cowen", seed=11, n=8)
        assert type(scheme.landmarks) is frozenset
        assert all(type(cluster) is frozenset
                   for cluster in scheme.clusters.values())


class TestSharedQueryTables:
    @needs_numpy
    def test_spawn_workers_match_serial_reference(self, monkeypatch):
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
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
        parallel = _with_engine("batch", lambda: evaluate_scheme(
            graph, algebra, scheme, options=options))
        serial = _with_engine("reference", lambda: evaluate_scheme(
            graph, algebra, scheme, options=serial_options))
        assert parallel == serial
        assert parallel.failures == serial.failures
