"""E-EVT — telemetry overhead: the disabled event path and enabled telemetry.

The PR 6 acceptance experiment.  The run-event stream (``repro.obs.
events``) instruments the pair-routing hot loop with heartbeats, so its
*disabled* cost has to be provably negligible — the same bar the metrics
registry meets.  This benchmark prices the no-op path directly:

* ``emit()`` with events disabled is timed over a large call batch to get
  a per-call cost (a module-flag test and immediate return);
* a kernel-engine preferred-tree sweep (the ``test_dijkstra_kernel``
  workload, scaled down) gives the per-pair routing work it would dilute
  into.

The asserted quantity is the worst-case overhead percentage: one
iteration of the *shipped* guard pattern (``if events_on: emit(...)``
with the flag down, exactly what the referee runs per pair) against
the tree-build work amortized over that source's pairs.  The loop
harness cost is charged to the guard rather than subtracted, and routing
a pair does oracle lookups and table walks on top of the amortized tree
build, so passing here bounds the true overhead from above.  The bar is
<2%.  A bare disabled ``emit()`` call is also timed for the record — it
prices the per-shard bracket events, which are O(shards), not O(pairs).

The enabled side is priced end to end: an all-pairs ``evaluate_scheme``
on a compilable Cowen instance runs with telemetry on and off in
alternating reps.  Observed runs take the same compiled walk as plain
ones, so the difference is what observing costs — the
``evaluate.hops`` histogram, spans, the replay of the sampled packet
traces, and one ``oracle.trees_requested`` bump per source run (the
walk reads each source's preferred weights in one store call, so no
registry lookup is left per pair).  The best-of-reps overhead lands in
the baseline as ``telemetry_overhead_pct`` against a budget set from
measured runs: 5.6-11.5 % in seven runs on a shared 2-CPU host, against
19.6-29.2 % when the walk still called the oracle once per pair.
"""

import random
import time

import pytest

from conftest import record
from repro.algebra import ShortestPath
from repro.core.compiler import build_scheme
from repro.core.simulate import evaluate_scheme
from repro.graphs import assign_random_weights, erdos_renyi
from repro.graphs.weighting import WEIGHT_ATTR
from repro.obs import events
from repro.obs import tracing
from repro.obs.metrics import disable as telemetry_disable
from repro.obs.metrics import enable as telemetry_enable
from repro.obs.metrics import enabled as telemetry_enabled
from repro.obs.metrics import reset as telemetry_reset
from repro.paths.dijkstra import compile_graph, preferred_path_tree
from repro.routing import compiled_query

N = 512
SOURCES = 8
MAX_WEIGHT = 16
EMIT_CALLS = 200_000
REPEATS = 3
MAX_OVERHEAD_PCT = 2.0


def _disabled_emit_cost():
    """Best-of-``REPEATS`` per-call seconds for a disabled ``emit()``."""
    assert not events.enabled()
    emit = events.emit
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(EMIT_CALLS):
            emit("shard_heartbeat", pairs_done=0, pairs_total=0)
        best = min(best, time.perf_counter() - start)
    return best / EMIT_CALLS


def _disabled_guard_cost():
    """Per-iteration seconds for the hot-loop guard with events off.

    This is the exact pattern ``_reference_shard`` runs per pair: a
    local-boolean test that short-circuits the heartbeat bookkeeping.
    Loop overhead is deliberately charged to the guard (conservative).
    """
    assert not events.enabled()
    events_on = events.enabled()
    emit = events.emit
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(EMIT_CALLS):
            if events_on:
                emit("shard_heartbeat", pairs_done=0, pairs_total=0)
        best = min(best, time.perf_counter() - start)
    return best / EMIT_CALLS


def _tree_sweep_cost():
    """Best-of-``REPEATS`` per-source seconds for a kernel tree sweep."""
    algebra = ShortestPath(max_weight=MAX_WEIGHT)
    rng = random.Random(61)
    graph = erdos_renyi(N, rng=rng)
    assign_random_weights(graph, algebra, rng=random.Random(62))
    sources = sorted(random.Random(63).sample(sorted(graph.nodes()), SOURCES))
    compiled = compile_graph(graph, WEIGHT_ATTR)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for source in sources:
            preferred_path_tree(graph, algebra, source, compiled=compiled)
        best = min(best, time.perf_counter() - start)
    return best / SOURCES


def test_disabled_events_are_free():
    was_enabled = events.enabled()
    events.disable()
    try:
        per_guard = _disabled_guard_cost()
        per_emit = _disabled_emit_cost()
    finally:
        if was_enabled:
            events.enable()
    per_source = _tree_sweep_cost()

    # Worst case: one guarded heartbeat check per routed pair, charged
    # against the tree-build work amortized over the (N - 1) pairs it
    # serves.
    per_pair = per_source / (N - 1)
    overhead_pct = 100.0 * per_guard / per_pair

    record(
        "event_overhead",
        [
            f"disabled hot-loop guard: {per_guard * 1e9:.0f}ns/pair; "
            f"bare disabled emit(): {per_emit * 1e9:.0f}ns/call "
            f"(best of {REPEATS}x{EMIT_CALLS:,})",
            f"kernel tree sweep: {per_source * 1e3:.2f}ms/source at n={N} "
            f"-> {per_pair * 1e6:.2f}us amortized per pair",
            f"worst-case disabled overhead: {overhead_pct:.3f}% per pair "
            f"(bar: <{MAX_OVERHEAD_PCT}%)",
        ],
        data={
            "n": N,
            "sources": SOURCES,
            "emit_calls": EMIT_CALLS,
            "disabled_guard_ns": per_guard * 1e9,
            "disabled_emit_ns": per_emit * 1e9,
            "tree_build_ms_per_source": per_source * 1e3,
            "disabled_overhead_pct": overhead_pct,
        },
    )

    assert overhead_pct < MAX_OVERHEAD_PCT, (
        f"disabled hot-loop guard costs {per_guard * 1e9:.0f}ns against "
        f"{per_pair * 1e6:.2f}us of per-pair work — {overhead_pct:.2f}% "
        f"overhead (bar: {MAX_OVERHEAD_PCT}%)"
    )


#: Enabled-telemetry experiment: instance size, alternating reps, budget.
TELEMETRY_N = 256
TELEMETRY_REPS = 7
MAX_TELEMETRY_OVERHEAD_PCT = 20.0


@pytest.mark.skipif(not compiled_query.numpy_available(),
                    reason="numpy not installed (the repro[fast] extra)")
def test_enabled_telemetry_cost():
    algebra = ShortestPath(max_weight=MAX_WEIGHT)
    graph = erdos_renyi(TELEMETRY_N, rng=random.Random(71))
    assign_random_weights(graph, algebra, rng=random.Random(72))
    scheme = build_scheme(graph, algebra, mode="compact",
                          rng=random.Random(73))
    assert compiled_query.compile_query(scheme) is not None
    was_enabled = telemetry_enabled()
    evaluate_scheme(graph, algebra, scheme)   # warm the compiled tables
    seconds = {False: [], True: []}
    try:
        for _ in range(TELEMETRY_REPS):
            for telemetry in (False, True):
                telemetry_reset()
                tracing.clear_spans()
                if telemetry:
                    telemetry_enable()
                start = time.perf_counter()
                report = evaluate_scheme(graph, algebra, scheme)
                seconds[telemetry].append(time.perf_counter() - start)
                telemetry_disable()
                assert len(report.traces) == (16 if telemetry else 0)
    finally:
        telemetry_reset()
        tracing.clear_spans()
        if was_enabled:
            telemetry_enable()
    off = min(seconds[False])
    on = min(seconds[True])
    overhead_pct = 100.0 * (on - off) / off
    pairs = TELEMETRY_N * (TELEMETRY_N - 1)

    record(
        "telemetry_overhead",
        [
            f"erdos-renyi n={TELEMETRY_N}, {scheme.name}, all {pairs:,} "
            f"ordered pairs on the compiled walk",
            f"telemetry off: {off:.3f}s  on: {on:.3f}s "
            f"(best of {TELEMETRY_REPS} alternating reps)",
            f"enabled overhead: {overhead_pct:.1f}% "
            f"(budget: <{MAX_TELEMETRY_OVERHEAD_PCT}%)",
        ],
        data={
            "n": TELEMETRY_N,
            "pairs": pairs,
            "reps": TELEMETRY_REPS,
            "telemetry_off_s": off,
            "telemetry_on_s": on,
            "telemetry_overhead_pct": overhead_pct,
        },
    )

    assert overhead_pct < MAX_TELEMETRY_OVERHEAD_PCT, (
        f"telemetry on costs {overhead_pct:.1f}% over the plain run "
        f"({on:.3f}s vs {off:.3f}s; budget {MAX_TELEMETRY_OVERHEAD_PCT}%)"
    )
