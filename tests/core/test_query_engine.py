"""Vectorized query engine vs the reference per-pair loop: exact equality.

The batch engine's contract is *bit-identical* `EvaluationReport`s — the
same routed/delivered/optimal counts, the same failure tuples in the same
order (message strings included), and the same stretch samples.  Hypothesis
drives seeded graphs through every compiled scheme family under both
engines; further tests pin the resolver semantics (env handling, warn-once,
explicit errors), the fallback ladder (telemetry, algebras without an
integer key, keys past int64), and the spawn-path shared-memory attach.
"""

import gc
import os
import pickle
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.shared_arrays import close_arrays

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


class TestBatchReferenceEquality:
    """The headline property: both engines, same `EvaluationReport`."""

    @needs_numpy
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n=st.integers(min_value=4, max_value=12),
        family=st.sampled_from(FAMILIES),
        sabotage=st.booleans(),
    )
    def test_reports_are_bit_identical(self, seed, n, family, sabotage):
        graph, algebra, scheme = _build_instance(family, seed, n)
        if sabotage:
            # Break forwarding state *after* building, the way the fault
            # tests do: the engines must also agree on every failure.
            victim = random.Random(seed + 2).choice(list(graph.nodes()))
            if family == "destination":
                scheme._next_hop[victim] = {}
            elif family == "pair":
                scheme._entries[victim] = {}
        options = EvaluationOptions(pair_count=min(4 * n * n, 200), rng=seed)
        query_engine.reset_query_stats()
        reference = _with_engine("reference", lambda: evaluate_scheme(
            graph, algebra, scheme, options=options))
        batch = _with_engine("batch", lambda: evaluate_scheme(
            graph, algebra, scheme, options=options))
        assert batch == reference
        assert batch.failures == reference.failures
        assert batch.stretch == reference.stretch
        assert query_engine.query_stats()["batch_shards"] >= 1

    @needs_numpy
    def test_blocks_keep_pair_order(self, monkeypatch):
        """A shard split into many blocks: failures and samples in order."""
        monkeypatch.setattr(compiled_query, "BLOCK_PAIRS", 7)
        algebra = widest_shortest_path(max_weight=9, max_capacity=9)
        graph = erdos_renyi(14, rng=random.Random(16))
        assign_random_weights(graph, algebra, rng=random.Random(17))
        scheme = DestinationTableScheme(graph, algebra)
        scheme._next_hop[3] = {}
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
    def test_route_shard_failure_tuples_and_order(self):
        """Sabotaged tables: native failure strings match the reference."""
        algebra = ShortestPath(max_weight=9)
        graph = erdos_renyi(18, rng=random.Random(3))
        assign_random_weights(graph, algebra, rng=random.Random(4))
        scheme = DestinationTableScheme(graph, algebra)
        scheme._next_hop[5] = {}   # strands packets routed *through* 5 too
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
    def test_stale_cache_recompiles_after_mutation(self):
        """Evaluate, sabotage, evaluate again: no stale compiled tables."""
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
        scheme._next_hop[nodes[2]] = {}
        reference = _with_engine("reference", lambda: route_shard(
            algebra, scheme, oracle, list(pairs)))
        batch = _with_engine("batch", lambda: route_shard(
            algebra, scheme, oracle, list(pairs)))
        assert reference.failures
        assert _shard_key(batch) == _shard_key(reference)


class TestSharedQueryTables:
    @needs_numpy
    def test_export_attach_roundtrip_is_zero_copy(self):
        # Widest-shortest path has a max part: the worker must rebuild
        # the key codec (combine included) from its own algebra.
        for algebra in (ShortestPath(max_weight=9),
                        widest_shortest_path(max_weight=9, max_capacity=9)):
            self._round_trip(algebra)

    def _round_trip(self, algebra):
        import numpy as np

        graph = erdos_renyi(20, rng=random.Random(21))
        assign_random_weights(graph, algebra, rng=random.Random(22))
        scheme = CowenScheme(graph, algebra, rng=random.Random(23))
        tables = compiled_query.compile_query(scheme)
        assert tables is not None
        handles, descriptor = compiled_query.export_shared_query(tables)
        if descriptor is None:
            pytest.skip("shared memory unavailable on this platform")
        try:
            # A pickled clone stands in for the spawn worker's unpickled
            # payload (same node objects via pickle memoization).
            _, worker_algebra, worker_scheme = pickle.loads(
                pickle.dumps((graph, algebra, scheme)))
            assert compiled_query.attach_shared_query(worker_scheme,
                                                      descriptor)
            attached = compiled_query.compile_query(worker_scheme)
            assert attached is not None
            assert attached.kind == tables.kind
            for name, segment in zip(descriptor["arrays"], handles):
                array = attached.arrays[name]
                assert np.array_equal(array, tables.arrays[name])
                if not array.size:
                    continue
                # A write through the exporter's segment shows in the
                # attached array: it maps the same memory, not a copy.
                view = np.ndarray(array.shape, dtype=array.dtype,
                                  buffer=segment.buf)
                view[0] += 1
                assert array[0] == tables.arrays[name][0] + 1
                view[0] -= 1
                del view
            # and the attached tables evaluate identically
            oracle = oracle_cache.get(graph, algebra, WEIGHT_ATTR)
            worker_oracle = oracle_cache.get(graph, worker_algebra,
                                             WEIGHT_ATTR)
            nodes = list(graph.nodes())
            pairs = [(s, t) for s in nodes[:5] for t in nodes]
            reference = _with_engine("reference", lambda: route_shard(
                algebra, scheme, oracle, list(pairs)))
            query_engine.reset_query_stats()
            batch = _with_engine("batch", lambda: route_shard(
                worker_algebra, worker_scheme, worker_oracle, list(pairs)))
            assert query_engine.query_stats()["batch_shards"] == 1
            assert _shard_key(batch) == _shard_key(reference)
            compiled_query._CACHE.pop(worker_scheme, None)
            del attached, array
            gc.collect()
        finally:
            close_arrays(handles, unlink=True)

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
