"""End-to-end scheme evaluation: delivery, optimality, stretch and memory.

``evaluate_scheme`` is the verification harness every experiment rests on:
it pushes packets between node pairs through the hop-by-hop model, compares
each realized path weight to the true preferred weight (from an appropriate
exact engine), and aggregates delivery, stretch and memory into one report.

Every evaluation knob travels in one :class:`EvaluationOptions`::

    options = EvaluationOptions(pair_count=2000, workers=4, rng=7)
    report = evaluate_scheme(graph, algebra, scheme, options=options)

or through the one-call facade :func:`run_experiment`, which builds the
prescribed scheme and evaluates it under a single seed.

Preferred weights come from the tree store (:mod:`repro.paths.store`),
by default the cached one for the instance (:data:`oracle_cache`) that
:func:`repro.core.compiler.build_scheme` builds the schemes from.  With
``workers > 1`` the pair set is split into source-grouped shards and
evaluated in parallel by :mod:`repro.core.parallel`; shard merging is
exact, so the report is bit-identical to a serial run.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs import events as _events
from repro.obs import tracing as _obs_tracing
from repro.obs.metrics import enabled as _telemetry_enabled
from repro.obs.metrics import metrics as _telemetry

from repro.algebra.base import RoutingAlgebra, is_phi
from repro.exceptions import ReproError
# PreferredWeightOracle is not used here, but kept importable:
# perfbench/spans.py patches its ensure_sources through this module.
from repro.paths.store import PreferredWeightOracle, oracle_cache  # noqa: F401
from repro.routing.memory import MemoryReport, memory_report
from repro.routing.model import RoutingScheme
from repro.routing import query_engine as _query_engine
from repro.routing.stretch import StretchReport, measure_stretch

#: Oracle signature: (source, target) -> preferred weight (PHI if unreachable).
WeightOracle = Callable[[object, object], object]

#: Failures kept on a report (the rest are counted but not enumerated).
MAX_REPORTED_FAILURES = 16

#: Durable heartbeats per shard: one at the start plus one every
#: ``len(pairs) // HEARTBEATS_PER_SHARD`` routed pairs.  Pair-count
#: strides (never wall-clock) keep the durable event stream
#: deterministic; extra time-based heartbeats go down the live-only path.
HEARTBEATS_PER_SHARD = 4

#: Seconds between live-only heartbeats on long quiet stretches.
LIVE_HEARTBEAT_INTERVAL_S = 0.5

def as_rng(rng: Union[int, random.Random, None]) -> Optional[random.Random]:
    """Normalize a seed to a ``random.Random`` (``None`` passes through)."""
    if rng is None or isinstance(rng, random.Random):
        return rng
    if isinstance(rng, bool) or not isinstance(rng, int):
        raise TypeError(f"rng must be an int seed or random.Random, got {rng!r}")
    return random.Random(rng)


# ---------------------------------------------------------------------------
# options and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvaluationOptions:
    """Keyword-only knobs of :func:`evaluate_scheme` / :func:`run_experiment`.

    * ``pairs`` — explicit ordered pairs to route (default: all, or a
      sample of ``pair_count`` of them);
    * ``pair_count`` — sample size when ``pairs`` is not given;
    * ``oracle`` — preferred-weight oracle override (default: the cached
      exact oracle for the instance); parallel workers read it as given,
      so under a start method other than fork it must pickle, or the run
      falls back to serial;
    * ``max_k`` — largest stretch exponent probed per pair;
    * ``trace_limit`` — packet traces captured when telemetry is on;
    * ``workers`` — process count for sharded parallel evaluation
      (``None``/``0``/``1`` = serial);
    * ``shard_size`` — pairs per shard (default: balanced at about four
      shards per worker);
    * ``rng`` — int seed or ``random.Random``; one seed reproduces the
      whole experiment (landmark selection and pair sampling included).
    """

    pairs: Optional[Sequence[Tuple]] = None
    pair_count: Optional[int] = None
    oracle: Optional[WeightOracle] = None
    max_k: int = 16
    trace_limit: int = 16
    workers: Optional[int] = None
    shard_size: Optional[int] = None
    rng: Union[int, random.Random, None] = None

    def __post_init__(self):
        # Deep immutability for the one mutable-typed field: a caller's
        # list is snapshotted into a tuple, so one options object can be
        # shared between a RoutingService and run_experiment (or across
        # threads) without aliasing the caller's data.
        if self.pairs is not None and not isinstance(self.pairs, tuple):
            object.__setattr__(self, "pairs", tuple(self.pairs))
        if self.max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {self.max_k}")
        if self.trace_limit < 0:
            raise ValueError(f"trace_limit must be >= 0, got {self.trace_limit}")
        if self.workers is not None and self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.shard_size is not None and self.shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {self.shard_size}")
        if self.pair_count is not None and self.pair_count < 0:
            raise ValueError(f"pair_count must be >= 0, got {self.pair_count}")


@dataclass(frozen=True)
class EvaluationReport:
    """The outcome of routing a set of pairs through a scheme."""

    scheme_name: str
    pairs: int
    delivered: int
    optimal: int
    stretch: StretchReport
    memory: MemoryReport
    failures: Tuple
    #: Hop-level packet traces, populated only when telemetry is enabled.
    traces: Tuple = field(default=(), compare=False)
    #: Routed pairs whose traces the capture dropped at its limit.
    traces_dropped: int = field(default=0, compare=False)

    @property
    def all_delivered(self) -> bool:
        return self.delivered == self.pairs

    @property
    def all_optimal(self) -> bool:
        return self.optimal == self.pairs

    def summary(self) -> str:
        if self.pairs == 0:
            return (
                f"{self.scheme_name}: no routable pairs evaluated "
                f"(empty pair set or fully disconnected instance); "
                f"memory max {self.memory.max_bits}b "
                f"(avg {self.memory.avg_bits:.1f}b)"
            )
        return (
            f"{self.scheme_name}: delivered {self.delivered}/{self.pairs}, "
            f"optimal {self.optimal}/{self.pairs}, max stretch "
            f"{self.stretch.max_stretch}, memory max {self.memory.max_bits}b "
            f"(avg {self.memory.avg_bits:.1f}b)"
        )


def sample_pairs(graph, count: Optional[int] = None,
                 rng: Union[int, random.Random, None] = None) -> list:
    """All ordered pairs, or a random sample of *count* of them.

    *rng* may be an int seed or a ``random.Random``; sampling is
    deterministic given either (the default is seed 0), so a recorded seed
    replays the identical workload.
    """
    nodes = sorted(graph.nodes())
    pairs = [(s, t) for s, t in itertools.permutations(nodes, 2)]
    if count is None or count >= len(pairs):
        return pairs
    rng = as_rng(rng) or random.Random(0)
    return rng.sample(pairs, count)


# ---------------------------------------------------------------------------
# the routing loop (one shard)
# ---------------------------------------------------------------------------


@dataclass
class ShardResult:
    """The mergeable outcome of routing one contiguous slice of pairs.

    Serial evaluation is the one-shard special case; the parallel engine
    folds many of these (in shard order) into the same aggregate a single
    pass would produce.  ``registry``/``spans`` carry a worker process's
    telemetry back to the parent and stay ``None`` on in-process shards.
    """

    routed: int
    delivered: int
    optimal: int
    stretch: StretchReport
    failures: List[Tuple]
    traces: Tuple = ()
    traces_dropped: int = 0
    registry: Optional[object] = None
    spans: Optional[List] = None
    #: Worker-side run events for this shard (folded in shard order by the
    #: parent, see ``repro.core.parallel``); None on in-process shards.
    events: Optional[List] = None
    #: Shard identity/timing stamped by the parallel engine's workers —
    #: the raw material of the run manifest's per-shard timeline.
    shard_id: Optional[int] = None
    pid: Optional[int] = None
    started_at: Optional[float] = None
    duration_s: Optional[float] = None

    def merge(self, other: "ShardResult") -> None:
        self.routed += other.routed
        self.delivered += other.delivered
        self.optimal += other.optimal
        self.stretch = self.stretch.merge(other.stretch)
        self.failures.extend(other.failures)
        self.traces = self.traces + other.traces
        self.traces_dropped += other.traces_dropped


def route_shard(algebra: RoutingAlgebra, scheme: RoutingScheme,
                oracle: WeightOracle, pairs: Iterable[Tuple],
                max_k: int = 16, trace_limit: int = 16) -> ShardResult:
    """Route *pairs* through *scheme*, verifying each against *oracle*.

    Unreachable pairs (preferred weight ``PHI``) are skipped — the model
    only promises routes where a traversable path exists.  A compilable
    scheme is evaluated on the compiled walk
    (:func:`repro.routing.compiled_query.evaluate_shard`) whether or not
    anything is observing; every other shard, and every shard under
    ``REPRO_QUERY_ENGINE=reference``, takes :func:`_reference_shard`.
    Both fill the ``evaluate.hops`` histogram when telemetry is on.  The
    stretch report folds the walk's per-k counts with *max_k*
    (:meth:`StretchReport.from_counts`) and measures its weight samples,
    or the referee's, with :func:`measure_stretch`: the same report
    either way.
    Traces are captured when telemetry is on and no caller capture is
    already active, so an explicit ``with obs.capture_traces():`` keeps
    collecting into the caller's buffer.

    A lazy *oracle* has its per-source structures bulk-built up front for
    exactly this shard's sources (the ``oracle_trees`` span), so the
    evaluation itself stays pure lookup and a shard touching ``k``
    sources costs ``k`` tree builds, not ``n``.
    """
    events_on = _events.enabled()
    pairs = list(pairs)
    # The shard's distinct sources in first-appearance order — the same
    # order ``ensure_sources`` would dedup to, materialized once for both
    # the bulk build and the event payload.
    shard_sources = list(dict.fromkeys(s for s, _ in pairs))
    if hasattr(oracle, "ensure_sources"):
        built_before = getattr(oracle, "trees_built", 0)
        with _obs_tracing.span("oracle_trees", scheme=scheme.name):
            oracle.ensure_sources(shard_sources)
        if events_on:
            _events.emit("oracle_trees_built",
                         sources=len(shard_sources),
                         built=getattr(oracle, "trees_built", 0) - built_before)
    if events_on:
        # At least one durable heartbeat per shard, then one every
        # pair-count stride; wall-clock extras ride the live-only path so
        # the durable stream stays deterministic under any scheduling.
        _events.emit("shard_heartbeat", pairs_done=0, pairs_total=len(pairs))
    own_capture = (_telemetry_enabled()
                   and _obs_tracing.active_capture() is None)
    with _obs_tracing.span("route_pairs", scheme=scheme.name), \
            (_obs_tracing.capture_traces(limit=trace_limit) if own_capture else
             nullcontext()) as capture:
        walked = None
        if _query_engine.resolve_query_engine() == "batch":
            from repro.routing import compiled_query as _compiled_query

            walked = _compiled_query.evaluate_shard(algebra, scheme, oracle,
                                                    pairs)
        if walked is None:
            routed, delivered, optimal, failures, samples = _reference_shard(
                algebra, scheme, oracle, pairs)
            counts = ()
        else:
            routed, delivered, optimal, failures, counts, samples = walked
            if events_on:
                # The referee's durable heartbeat cadence, so the shard's
                # event stream is engine-proof.
                stride = max(1, len(pairs) // HEARTBEATS_PER_SHARD)
                for done in range(stride, len(pairs) + 1, stride):
                    _events.emit("shard_heartbeat", pairs_done=done,
                                 pairs_total=len(pairs))
    stretch = StretchReport.from_counts(scheme.name, counts, max_k).merge(
        measure_stretch(algebra, samples, scheme_name=scheme.name,
                        max_k=max_k))
    return ShardResult(
        routed=routed, delivered=delivered, optimal=optimal,
        stretch=stretch, failures=failures,
        traces=tuple(capture.traces) if capture else (),
        traces_dropped=capture.dropped if capture else 0,
    )


def _reference_shard(algebra: RoutingAlgebra, scheme: RoutingScheme,
                     oracle: WeightOracle, pairs: Sequence[Tuple]) -> Tuple:
    """The referee: route *pairs* one at a time through ``scheme.route``.

    Returns ``(routed, delivered, optimal, failures, samples)``, with
    failures and one ``(preferred, realized)`` weight sample per
    delivered pair in pair order, for every shard the walk cannot take
    (no numpy, an algebra mismatch, an uncompilable scheme) and for the
    tests that hold the walk to it.  Every route is traced into the
    active capture.
    """
    events_on = _events.enabled()
    registry = _telemetry()
    registry.counter("query_engine.reference_pairs").inc(len(pairs))
    hops = registry.histogram("evaluate.hops", scheme=scheme.name)
    stride = max(1, len(pairs) // HEARTBEATS_PER_SHARD)
    last_live_heartbeat = time.monotonic()
    routed = optimal = 0
    failures: List[Tuple] = []
    samples: List[Tuple] = []
    for done, (s, t) in enumerate(pairs, 1):
        if events_on:
            if done % stride == 0:
                _events.emit("shard_heartbeat", pairs_done=done,
                             pairs_total=len(pairs))
                last_live_heartbeat = time.monotonic()
            elif (time.monotonic() - last_live_heartbeat
                  >= LIVE_HEARTBEAT_INTERVAL_S):
                _events.emit("shard_heartbeat", durable=False,
                             pairs_done=done, pairs_total=len(pairs))
                last_live_heartbeat = time.monotonic()
        preferred = oracle(s, t)
        if is_phi(preferred):
            continue
        routed += 1
        pair_hops, pair_optimal = _verify_pair(algebra, scheme, s, t,
                                               preferred, failures, samples)
        optimal += pair_optimal
        if pair_hops is not None:
            hops.observe(pair_hops)
    return routed, len(samples), optimal, failures, samples


def _verify_pair(algebra: RoutingAlgebra, scheme: RoutingScheme, s, t,
                 preferred, failures: List[Tuple], samples: List[Tuple]
                 ) -> Tuple[Optional[int], bool]:
    """Route one pair hop by hop onto *failures* or *samples*.

    Returns ``(hops, optimal)``: the hop count (None when routing
    raised) and whether the realized weight equals *preferred*.  The
    referee calls it for every pair, the walk for each pair it cannot
    replicate.
    """
    try:
        result = scheme.route(s, t)
    except ReproError as exc:
        failures.append((s, t, str(exc)))
        return None, False
    if not result.delivered:
        failures.append((s, t, result.reason))
        return result.hops, False
    realized = scheme.realized_weight(result)
    samples.append((preferred, realized))
    return result.hops, algebra.eq(realized, preferred)


def finalize_report(scheme: RoutingScheme, merged: ShardResult) -> EvaluationReport:
    """Turn the (merged) shard outcome into the public report."""
    if _telemetry_enabled():
        registry = _telemetry()
        registry.counter("evaluate.pairs", scheme=scheme.name).inc(merged.routed)
        registry.counter("evaluate.delivered", scheme=scheme.name).inc(merged.delivered)
        registry.counter("evaluate.optimal", scheme=scheme.name).inc(merged.optimal)
    return EvaluationReport(
        scheme_name=scheme.name,
        pairs=merged.routed,
        delivered=merged.delivered,
        optimal=merged.optimal,
        stretch=merged.stretch,
        memory=memory_report(scheme),
        failures=tuple(merged.failures[:MAX_REPORTED_FAILURES]),
        traces=merged.traces,
        traces_dropped=merged.traces_dropped,
    )


# ---------------------------------------------------------------------------
# the public evaluation entry points
# ---------------------------------------------------------------------------

def evaluate_scheme(graph, algebra: RoutingAlgebra, scheme: RoutingScheme,
                    options: Optional[EvaluationOptions] = None) -> EvaluationReport:
    """Route pairs through *scheme*, verify against the exact oracle, report.

    All knobs travel in ``options`` (an :class:`EvaluationOptions`, passed
    positionally or by keyword); with ``options=None`` the defaults apply
    (all ordered pairs, cached oracle, serial).  Any other value raises
    ``TypeError``.

    With telemetry enabled (:func:`repro.obs.enable`), the evaluation
    runs the same engine and additionally records the ``evaluate.hops``
    histogram and captures up to ``options.trace_limit`` packet traces,
    surfaced on ``EvaluationReport.traces``.  With ``options.workers > 1``
    shards are evaluated across worker processes and merged exactly
    (including the workers' telemetry); the report is identical to a
    serial run.
    """
    if options is None:
        options = EvaluationOptions()
    elif not isinstance(options, EvaluationOptions):
        raise TypeError(f"options must be an EvaluationOptions, "
                        f"not {type(options).__name__}")

    if options.pairs is not None:
        pairs = list(options.pairs)
    else:
        pairs = sample_pairs(graph, count=options.pair_count, rng=options.rng)
    oracle = options.oracle
    if oracle is None:
        oracle = oracle_cache.get(graph, algebra, attr=scheme.attr,
                                  scheme_name=scheme.name)

    workers = options.workers or 0
    if workers > 1 and len(pairs) > 1:
        from repro.core import parallel

        merged = parallel.evaluate_sharded(
            graph, algebra, scheme, oracle, pairs,
            workers=workers, shard_size=options.shard_size,
            max_k=options.max_k, trace_limit=options.trace_limit,
        )
    else:
        merged = route_shard(algebra, scheme, oracle, pairs,
                             max_k=options.max_k, trace_limit=options.trace_limit)
    return finalize_report(scheme, merged)


@dataclass(frozen=True)
class ExperimentResult:
    """What :func:`run_experiment` hands back: the scheme and its report."""

    scheme: RoutingScheme
    report: EvaluationReport

    def summary(self) -> str:
        return self.report.summary()


def run_experiment(graph, algebra: RoutingAlgebra, *, mode: str = "auto",
                   options: Optional[EvaluationOptions] = None) -> ExperimentResult:
    """Build the prescribed scheme for *algebra* and evaluate it — one call.

    The single public entry point the CLI, benchmarks and tests share:
    ``options.rng`` (an int seed or ``random.Random``) is threaded through
    both scheme construction (landmark selection) and pair sampling, so one
    seed reproduces the entire experiment bit for bit.
    """
    from repro.core.compiler import build_scheme

    if options is None:
        options = EvaluationOptions()
    rng = as_rng(options.rng)
    scheme = build_scheme(graph, algebra, mode=mode, rng=rng)
    if rng is not None:
        options = replace(options, rng=rng)
    report = evaluate_scheme(graph, algebra, scheme, options=options)
    return ExperimentResult(scheme=scheme, report=report)
