"""One declaration unlocks every integer-key engine.

An algebra that subclasses :class:`RoutingAlgebra` directly and declares
:meth:`~repro.algebra.base.RoutingAlgebra.key_codec` runs the kernel's
bucket frontier, the batch sweep and the compiled query walk, each equal
to its referee.  The same algebra with the default ``key_codec`` runs
the heap, has no batch plan and is evaluated by the per-pair referee.
"""

import random

import pytest

from repro.algebra.base import KEY_ADD, KeyCodec, KeyCombine, RoutingAlgebra
from repro.algebra.properties import PropertyProfile
from repro.core.simulate import (
    EvaluationOptions,
    _reference_shard,
    evaluate_scheme,
    oracle_cache,
    sample_pairs,
)
from repro.graphs.generators import erdos_renyi
from repro.graphs.weighting import WEIGHT_ATTR, assign_random_weights
from repro.paths import batch
from repro.paths.dijkstra import PathTree, _reference_tree
from repro.paths.kernel import compile_graph, kernel_tree
from repro.routing import compiled_query, query_engine
from repro.routing.destination_table import DestinationTableScheme

MAX_TOLL = 3

needs_numpy = pytest.mark.skipif(not batch.numpy_available(),
                                 reason="numpy (repro[fast]) not installed")


class Tolls(RoutingAlgebra):
    """Tolls of 0 to 3 per edge add up along a path; fewer is preferred.

    Free edges make it monotone but not strictly so, and its only
    integer-key declaration is :meth:`key_codec`: a toll is its own key.
    """

    name = "tolls"

    def combine_finite(self, w1, w2):
        return w1 + w2

    def leq_finite(self, w1, w2):
        return w1 <= w2

    def contains(self, weight):
        return isinstance(weight, int) and 0 <= weight

    def sample_weights(self, rng, count):
        return [rng.randint(0, MAX_TOLL) for _ in range(count)]

    def declared_properties(self):
        return PropertyProfile(
            monotone=True, isotone=True, strictly_monotone=False,
            selective=False, cancellative=True, condensed=False,
            delimited=True)

    def key_codec(self, max_hops):
        bound = MAX_TOLL * max_hops + 1
        return KeyCodec(bound=bound, key=lambda weight: weight,
                        decode=lambda key: key,
                        combine=KeyCombine(((KEY_ADD, bound),)))


class KeylessTolls(Tolls):
    """The same algebra with the default, codec-less ``key_codec``."""

    name = "keyless-tolls"
    key_codec = RoutingAlgebra.key_codec


@pytest.fixture(autouse=True)
def clean_engine_state():
    oracle_cache.clear()
    query_engine.reset_query_stats()
    yield
    oracle_cache.clear()
    query_engine.reset_query_stats()


def _instance(algebra, n=30, seed=5):
    rng = random.Random(seed)
    graph = erdos_renyi(n, p=0.2, rng=rng)
    assign_random_weights(graph, algebra, rng=rng)
    return graph


def _kernel_rows(compiled, algebra):
    runs = [kernel_tree(compiled, algebra, root) for root in compiled.nodes]
    return runs, [run.weight for run in runs], [run.parent for run in runs]


def _referee_counts(graph, algebra, scheme, pairs):
    oracle = oracle_cache.get(graph, algebra, WEIGHT_ATTR)
    routed, delivered, optimal, failures, _ = _reference_shard(
        algebra, scheme, oracle, list(pairs))
    return routed, delivered, optimal, tuple(failures)


def _evaluate(graph, algebra, scheme, pairs):
    report = evaluate_scheme(graph, algebra, scheme,
                             EvaluationOptions(pairs=pairs))
    return report, (report.pairs, report.delivered, report.optimal,
                    report.failures)


class TestOneDeclaration:
    def test_bucket_frontier_matches_the_reference(self):
        algebra = Tolls()
        graph = _instance(algebra)
        compiled = compile_graph(graph)
        assert compiled.bucket_plan(algebra) is not None
        runs, _, _ = _kernel_rows(compiled, algebra)
        for root, run in zip(compiled.nodes, runs):
            assert run.stats.bucket_engaged
            tree = PathTree.from_rows(root, compiled.nodes, run.weight,
                                      run.parent)
            reference = _reference_tree(graph, algebra, root)
            assert tree.weight == reference.weight
            assert tree.parent == reference.parent

    @needs_numpy
    def test_batch_sweep_matches_the_kernel(self):
        algebra = Tolls()
        compiled = compile_graph(_instance(algebra))
        assert batch.batch_plan(compiled, algebra) is not None
        _, weights, parents = _kernel_rows(compiled, algebra)
        assert batch.batch_trees(compiled, algebra, compiled.nodes) == (
            weights, parents)

    @needs_numpy
    def test_destination_table_walks_as_the_referee_routes(self):
        algebra = Tolls()
        graph = _instance(algebra)
        scheme = DestinationTableScheme(graph, algebra)
        assert compiled_query.compile_query(scheme) is not None
        pairs = sample_pairs(graph, count=300, rng=1)
        report, counts = _evaluate(graph, algebra, scheme, pairs)
        stats = query_engine.query_stats()
        assert stats["batch_pairs"] == report.pairs > 0
        assert stats["reference_pairs"] == 0
        assert counts == _referee_counts(graph, algebra, scheme, pairs)


class TestWithoutTheDeclaration:
    def test_every_engine_steps_down(self):
        algebra = KeylessTolls()
        graph = _instance(algebra)
        compiled = compile_graph(graph)
        assert compiled.bucket_plan(algebra) is None
        runs, _, _ = _kernel_rows(compiled, algebra)
        assert {run.stats.engine for run in runs} == {"heap"}
        assert batch.batch_plan(compiled, algebra) is None
        scheme = DestinationTableScheme(graph, algebra)
        assert compiled_query.compile_query(scheme) is None
        pairs = sample_pairs(graph, count=300, rng=1)
        report, counts = _evaluate(graph, algebra, scheme, pairs)
        stats = query_engine.query_stats()
        assert stats["batch_pairs"] == 0
        assert stats["reference_pairs"] == report.pairs > 0
        assert counts == _referee_counts(graph, algebra, scheme, pairs)
