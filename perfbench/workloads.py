"""The benchmark's workloads: seeded inputs, timed phases, output checks.

Every workload runs its timed phase several times in one process (a
"rep") and reports medians over the reps.  Between reps the process-wide
``oracle_cache`` is cleared and a new scheme (or service) is built, so
each rep does the work a fresh ``repro evaluate`` (or ``repro serve``)
process does.  ``gc.collect()`` runs before each timed phase, outside the
clock.  A traced run makes four reps, untraced and traced in turn on the
same inputs, so the process measures its own tracing overhead and its
per-layer counts repeat exactly for a given seed.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import random
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import networkx as nx

from repro.algebra.catalog import ShortestPath
from repro.algebra.lexicographic import widest_shortest_path
from repro.core import compiler, parallel, simulate
from repro.core.simulate import EvaluationOptions, oracle_cache
from repro.graphs import FAMILIES, assign_random_weights
from repro.obs.export import encode_value
from repro.service import wire
from repro.service.service import RoutingService, ServiceOptions

from spans import Patched, Tracer

#: Reps per untraced run at least; more while time allows.
MIN_REPS = 3
#: Reps per traced run: untraced, traced, untraced, traced.  A fixed count
#: keeps the per-layer counts exactly repeatable.
TRACED_REPS = 4
#: Pairs re-evaluated through the per-pair reference loop after the clock.
REFERENCE_SAMPLE = 4096
#: Serve session shape: reads of PAIRS_PER_READ random pairs, one write
#: after every WRITE_EVERY-th read (none after the last read).
READS_PER_SESSION = 500
PAIRS_PER_READ = 32
WRITE_EVERY = 50
#: Distinct (graph, script) inputs per run; session i replays input i mod
#: SESSIONS.  Each session has its own graph and writes, so a run's figures
#: average over many graphs and churn writes rather than one of each.
SESSIONS = 16
#: Pairs of the after-session read compared against a cold service.
CHECK_PAIRS = 64


@dataclass(frozen=True)
class Experiment:
    """``build_scheme(mode="compact")`` then ``evaluate_scheme`` on all pairs."""

    policy: Callable
    n: int
    workers: Optional[int] = None


@dataclass(frozen=True)
class Serve:
    """One closed-loop client driving a RoutingService over the JSONL wire."""

    n: int


WORKLOADS = {
    "cowen-sp-er512": Experiment(ShortestPath, 512),
    "cowen-wsp-er256": Experiment(widest_shortest_path, 256),
    "serve-sp-er128-churn": Serve(128),
    "cowen-sp-er512-w2": Experiment(ShortestPath, 512, workers=2),
}


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _graph(algebra, n: int, rng):
    graph = FAMILIES["erdos-renyi"](n, rng)
    return assign_random_weights(graph, algebra, rng=rng)


def _clock():
    times = os.times()
    return (time.perf_counter(), time.process_time(),
            times.children_user + times.children_system)


def _phase(start, end) -> Dict[str, float]:
    """Wall time, process CPU time and reaped children's CPU time."""
    return {"wall_s": end[0] - start[0], "cpu_s": end[1] - start[1],
            "children_cpu_s": end[2] - start[2]}


def _reap_workers() -> float:
    """Wait for the pool's workers; return the reaped children's CPU time.

    The parallel engine shuts its pool down without waiting, so workers
    can outlive ``evaluate_scheme`` by a moment.
    """
    for child in multiprocessing.active_children():
        child.join()
    return _clock()[2]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def probe_s() -> float:
    """Seconds for a fixed pure-Python task: the machine's speed right now.

    Wall time equal to CPU time does not rule out contention: a busy
    neighbour on a shared core slows this task as much as the program.
    """
    rng = random.Random(0)
    table: Dict[int, int] = {}
    start = time.perf_counter()
    for i in range(100_000):
        key = rng.randrange(4096)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def _reps(seconds: float, traced: bool, run_rep) -> List[dict]:
    """Run reps until the next one would end past *seconds*.

    A traced run makes TRACED_REPS reps instead, odd ones traced.  Each rep
    records the speed probe taken just before it.
    """
    reps: List[dict] = []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        probe = probe_s()
        reps.append(run_rep(len(reps), traced and len(reps) % 2 == 1))
        reps[-1]["probe_s"] = probe
        last = time.perf_counter() - rep_start
        if traced:
            if len(reps) == TRACED_REPS:
                return reps
        elif (len(reps) >= MIN_REPS
              and time.perf_counter() - start + last > seconds):
            return reps


def _layer_delta(tracer: Tracer, before) -> dict:
    """One traced rep's aggregates: parent-side and parent plus workers.

    ``totals`` maps a span name to ``[calls, total_s, self_s]``.
    """
    (totals_before, counts_before) = before
    totals_after, counts_after = tracer.snapshot()
    worker_totals, worker_counts = tracer.worker_totals()
    parent = {name: [a - b for a, b in zip(totals_after[name],
                                           totals_before[name])]
              for name in totals_after}
    return {
        "parent_totals": parent,
        "totals": {name: [p + w for p, w in zip(parent[name],
                                                worker_totals[name])]
                   for name in parent},
        "counts": {name: counts_after[name] - counts_before[name]
                   + worker_counts[name] for name in counts_after},
    }


def _traced(tracer: Tracer, traced: bool):
    if traced:
        tracer.reset_workers()
        return Patched(tracer)
    return nullcontext()


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def run_experiment(spec: Experiment, seed: int, seconds: float,
                   traced: bool, tracer: Tracer) -> dict:
    algebra = spec.policy()
    graph = _graph(algebra, spec.n, random.Random(seed))
    nodes = sorted(graph.nodes())
    pairs = [(s, t) for s in nodes for t in nodes if s != t]
    options = EvaluationOptions(pairs=pairs, workers=spec.workers)
    landmark_seed = seed + 1
    sample = random.Random(seed + 2).sample(pairs, min(REFERENCE_SAMPLE,
                                                       len(pairs)))
    state = {"scheme": None}

    def rep(_index: int, traced_rep: bool) -> dict:
        state["scheme"] = None
        oracle_cache.clear()
        with _traced(tracer, traced_rep):
            before = tracer.snapshot()
            gc.collect()
            t0 = _clock()
            scheme = compiler.build_scheme(graph, algebra, mode="compact",
                                           rng=landmark_seed)
            t1 = _clock()
            gc.collect()
            t2 = _clock()
            frame = tracer.open("core.simulate.evaluate_scheme")
            report = simulate.evaluate_scheme(graph, algebra, scheme,
                                              options=options)
            tracer.close(frame)
            t3 = _clock()
            layers = _layer_delta(tracer, before) if traced_rep else None
        state["scheme"] = scheme
        build, evaluate = _phase(t0, t1), _phase(t2, t3)
        evaluate["children_cpu_s"] = _reap_workers() - t2[2]
        record = {"traced": traced_rep, "build": build, "evaluate": evaluate,
                  "report": report, "layers": layers,
                  "parallel": _parallel_info() if spec.workers else None}
        return record

    load_start = os.getloadavg()[0]
    reps = _reps(seconds, traced, rep)
    load_end = os.getloadavg()[0]
    rss = peak_rss_mb()
    checks = _check_experiment(spec, graph, algebra, state["scheme"], reps,
                               sample, len(pairs))
    return {"kind": "experiment", "n": spec.n, "m": graph.number_of_edges(),
            "reps": reps, "peak_rss_mb": rss, "checks": checks,
            "load_start": load_start, "load_end": load_end}


def _parallel_info() -> Optional[dict]:
    info = parallel.last_run_info()
    if info is None:
        return None
    return {"start_method": info.start_method, "workers": info.workers,
            "shards": [dict(shard) for shard in info.shards],
            "fallback": None if info.fallback is None else info.fallback.reason}


def _check_experiment(spec, graph, algebra, scheme, reps, sample,
                      pair_count) -> dict:
    """Full-run invariants, then a reference-loop replay of a pair sample."""
    problems = []
    attempted = failed = 0
    first = reps[0]["report"]
    for index, rep in enumerate(reps):
        report = rep["report"]
        attempted += report.pairs
        failed += (report.pairs - report.delivered) + \
            (report.stretch.pairs - report.stretch.within_3)
        if report.pairs != pair_count:
            problems.append(f"rep {index}: routed {report.pairs} of "
                            f"{pair_count} pairs on a connected graph")
        if not report.all_delivered:
            problems.append(f"rep {index}: delivered {report.delivered} of "
                            f"{report.pairs}")
        if not report.stretch.stretch3_holds:
            problems.append(f"rep {index}: stretch above 3 "
                            f"(max {report.stretch.max_stretch})")
        if report != first:
            problems.append(f"rep {index}: report differs from rep 0")
        info = rep["parallel"]
        if spec.workers and (info is None or info["fallback"] is not None
                             or len(info["shards"]) < 2):
            problems.append(f"rep {index}: the parallel engine did not run "
                            f"sharded ({info and info['fallback']})")

    sample_options = EvaluationOptions(pairs=sample)
    default = simulate.evaluate_scheme(graph, algebra, scheme,
                                       options=sample_options)
    # The documented override selects the per-pair loop for this replay
    # only, after the clock has stopped.
    os.environ["REPRO_QUERY_ENGINE"] = "reference"
    try:
        reference = simulate.evaluate_scheme(graph, algebra, scheme,
                                             options=sample_options)
    finally:
        del os.environ["REPRO_QUERY_ENGINE"]
    for field in ("pairs", "delivered", "optimal", "stretch", "failures"):
        if getattr(default, field) != getattr(reference, field):
            problems.append(f"reference sample: {field} differs "
                            f"({getattr(default, field)!r} vs "
                            f"{getattr(reference, field)!r})")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "reference_sample": len(sample),
            "summary": first.summary()}


# ---------------------------------------------------------------------------
# the service session
# ---------------------------------------------------------------------------


def _request(index: int, op: str, **fields) -> str:
    return json.dumps({"id": index, "op": op, **fields})


def _script(graph, algebra, rng) -> List[tuple]:
    """``(kind, line)`` requests of one session: reads, with churn writes."""
    nodes = sorted(graph.nodes())
    edges = sorted(tuple(sorted(edge)) for edge in graph.edges())
    bridges = {frozenset(edge) for edge in nx.bridges(graph)}
    non_bridges = [edge for edge in edges if frozenset(edge) not in bridges]
    script = []
    writes = 0
    failed_edge = None
    for read in range(READS_PER_SESSION):
        pairs = [[encode_value(node) for node in rng.sample(nodes, 2)]
                 for _ in range(PAIRS_PER_READ)]
        script.append(("read", _request(len(script), "route", pairs=pairs)))
        if (read + 1) % WRITE_EVERY or read + 1 == READS_PER_SESSION:
            continue
        step = writes % 3
        if step == 0:
            failed_edge = rng.choice(non_bridges)
            u, v = failed_edge
            line = _request(len(script), "fail_link", u=u, v=v)
        elif step == 1:
            u, v = failed_edge
            line = _request(len(script), "restore_link", u=u, v=v)
        else:
            u, v = rng.choice(edges)
            weight = algebra.sample_weights(rng, 1)[0]
            line = _request(len(script), "update_weight", u=u, v=v,
                            weight=encode_value(weight))
        script.append(("write", line))
        writes += 1
    return script


def run_serve(spec: Serve, seed: int, seconds: float, traced: bool,
              tracer: Tracer) -> dict:
    algebra = ShortestPath()
    rng = random.Random(seed)
    sessions = []
    for _ in range(SESSIONS):
        graph = _graph(algebra, spec.n, rng)
        sessions.append((graph, _script(graph, algebra, rng)))
    nodes = sorted(graph.nodes())
    warmup = _request(-1, "route", pairs=[
        [node, nodes[(index + 1) % len(nodes)]]
        for index, node in enumerate(nodes)])
    check_line = _request(-2, "route", pairs=[
        rng.sample(nodes, 2) for _ in range(CHECK_PAIRS)])
    options = ServiceOptions(mode="auto", seed=seed)
    state = {"service": None}

    def send(service, line):
        frame = tracer.open("service.wire")
        response, _ = wire.handle_line(service, line)
        wire.encode_response(response)
        tracer.close(frame)
        return response

    def rep(index: int, traced_rep: bool) -> dict:
        # A traced run replays each input twice, untraced then traced.
        state["service"] = None
        graph, script = sessions[(index // 2 if traced else index) % SESSIONS]
        session_graph = graph.copy()
        latencies: List[float] = []
        failed = 0
        with _traced(tracer, traced_rep):
            before = tracer.snapshot()
            gc.collect()
            t0 = _clock()
            frame = tracer.open("service.init")
            service = RoutingService(session_graph, algebra, options)
            tracer.close(frame)
            warm = send(service, warmup)
            t1 = _clock()
            gc.collect()
            t2 = _clock()
            for request, (_, line) in enumerate(script):
                tracer.request = request
                start = time.perf_counter()
                response = send(service, line)
                latencies.append(time.perf_counter() - start)
                failed += _failed(response)
            tracer.request = None
            t3 = _clock()
            layers = _layer_delta(tracer, before) if traced_rep else None
        state["service"] = service
        stats = service.stats()
        return {"traced": traced_rep, "setup": _phase(t0, t1),
                "session": _phase(t2, t3), "latencies": latencies,
                "failed": failed + _failed(warm),
                "trees_kept": stats["trees_kept"],
                "trees_dropped": stats["trees_dropped"],
                "layers": layers}

    load_start = os.getloadavg()[0]
    reps = _reps(seconds, traced, rep)
    load_end = os.getloadavg()[0]
    rss = peak_rss_mb()
    checks = _check_serve(state["service"], algebra, options, check_line,
                          reps, len(sessions[0][1]))
    edges = statistics.mean(g.number_of_edges() for g, _ in sessions)
    return {"kind": "serve", "n": spec.n, "m": edges,
            "script": [kind for kind, _ in sessions[0][1]], "reps": reps,
            "peak_rss_mb": rss, "checks": checks,
            "load_start": load_start, "load_end": load_end}


def _failed(response) -> int:
    """1 for a response not ok or a read with an undelivered or non-optimal
    pair, else 0.

    ``auto`` mode builds exact destination tables, so every answer must be
    delivered on a preferred path.  Checked as each response arrives and
    then dropped: a session holding every response would fill the heap and
    lengthen the collector's pauses inside later requests.
    """
    if not response.get("ok"):
        return 1
    if response["op"] == "route" and not all(
            answer["delivered"] and answer["optimal"]
            for answer in response["result"]["answers"]):
        return 1
    return 0


def _check_serve(service, algebra, options, check_line, reps,
                 requests) -> dict:
    """Every response ok; the warm service answers like a cold one."""
    problems = []
    attempted = sum(requests + 1 for _ in reps)
    failed = sum(rep["failed"] for rep in reps)
    if failed:
        problems.append(f"{failed} failed requests")
    warm, _ = wire.handle_line(service, check_line)
    cold_service = RoutingService(service.graph.copy(), algebra, options)
    cold, _ = wire.handle_line(cold_service, check_line)
    if wire.encode_response(warm) != wire.encode_response(cold):
        problems.append("after-session answers differ from a cold service "
                        "built from the final graph")
    if not warm.get("ok"):
        problems.append(f"after-session read failed: {warm.get('error')}")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "check_pairs": CHECK_PAIRS}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _serve_samples(result: dict, reps) -> tuple:
    """Warm-read latencies and write-plus-next-read latencies, pooled."""
    script = result["script"]
    warm_reads: List[float] = []
    updates: List[float] = []
    for rep in reps:
        lat = rep["latencies"]
        for index, kind in enumerate(script):
            if kind == "write":
                updates.append(lat[index] + lat[index + 1])
            elif index == 0 or script[index - 1] == "read":
                warm_reads.append(lat[index])
    return warm_reads, updates


def end_to_end(result: dict) -> Dict[str, tuple]:
    """``name -> (value, unit, samples)`` for every end-to-end metric.

    Tracing-off reps only.  Each metric is defined for both kinds of
    workload; the run.py docstring gives the definitions.
    """
    reps = [rep for rep in result["reps"] if not rep["traced"]]
    k = len(reps)
    if result["kind"] == "experiment":
        build = [rep["build"]["wall_s"] for rep in reps]
        evaluate = [rep["evaluate"]["wall_s"] for rep in reps]
        total = [b + e for b, e in zip(build, evaluate)]
        pairs = [rep["report"].pairs for rep in reps]
        return {
            "setup_s": (statistics.median(build), "s", k),
            "experiment_s": (statistics.median(total), "s", k),
            "pairs_per_s": (statistics.median(
                p / e for p, e in zip(pairs, evaluate)), "1/s", k),
            "answers_per_s": (statistics.median(
                p / t for p, t in zip(pairs, total)), "1/s", k),
            "query_p50_ms": (1000 * statistics.median(evaluate), "ms", k),
            "update_to_answer_p50_ms": (1000 * statistics.median(total),
                                        "ms", k),
            "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
        }
    warm_reads, updates = _serve_samples(result, reps)
    reads = result["script"].count("read")
    warm_p50 = statistics.median(warm_reads)
    return {
        "setup_s": (statistics.median(rep["setup"]["wall_s"] for rep in reps),
                    "s", k),
        "experiment_s": (statistics.median(rep["session"]["wall_s"]
                                           for rep in reps), "s", k),
        "pairs_per_s": (PAIRS_PER_READ / warm_p50, "1/s", len(warm_reads)),
        "answers_per_s": (statistics.median(
            reads * PAIRS_PER_READ / rep["session"]["wall_s"]
            for rep in reps), "1/s", k),
        "query_p50_ms": (1000 * warm_p50, "ms", len(warm_reads)),
        "update_to_answer_p50_ms": (1000 * statistics.median(updates), "ms",
                                    len(updates)),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
    }


def ungated(result: dict) -> Dict[str, tuple]:
    """Figures printed beside the metrics but left out of the gate.

    The serve session's p99 warm-read latency is set by the lazy tree
    rebuilds after the heaviest few of a run's ~100 writes, so it moves
    15-25% from seed to seed: more than any bound the gate can hold.
    """
    if result["kind"] != "serve":
        return {}
    warm_reads, _ = _serve_samples(
        result, [rep for rep in result["reps"] if not rep["traced"]])
    return {"query_p99_ms": (1000 * statistics.quantiles(
        warm_reads, n=100, method="inclusive")[98], "ms", len(warm_reads))}


def _timed_wall(result: dict, rep: dict) -> float:
    if result["kind"] == "experiment":
        return rep["build"]["wall_s"] + rep["evaluate"]["wall_s"]
    return rep["setup"]["wall_s"] + rep["session"]["wall_s"]


def per_layer(result: dict) -> Dict[str, tuple]:
    """``name -> (value, unit)`` for every per-layer metric, per traced rep."""
    traced = [rep for rep in result["reps"] if rep["traced"]]
    plain = [rep for rep in result["reps"] if not rep["traced"]]
    k = len(traced)
    totals: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    for rep in traced:
        for name, values in rep["layers"]["totals"].items():
            entry = totals.setdefault(name, [0.0, 0.0, 0.0])
            for i, value in enumerate(values):
                entry[i] += value / k
        for name, value in rep["layers"]["counts"].items():
            counts[name] = counts.get(name, 0.0) + value / k

    def calls(name):
        return totals[name][0]

    def total(name):
        return totals[name][1]

    def own(name):
        return totals[name][2]

    n = result["n"]
    if result["kind"] == "experiment":
        routed = statistics.mean(rep["report"].pairs for rep in traced)
    else:
        routed = PAIRS_PER_READ * result["script"].count("read")
    shards = busy = slowest = overhead = retries = 0.0
    for rep in traced:
        info = rep.get("parallel")
        if not info or not info["shards"]:
            continue
        durations = [shard["duration_s"] or 0.0 for shard in info["shards"]]
        sharded = rep["layers"]["parent_totals"][
            "core.parallel.evaluate_sharded"][1]
        shards += len(durations) / k
        busy += sum(durations) / k
        slowest += max(durations) / k
        overhead += (sharded - max(durations)) / k
        retries += sum(shard["retries"] for shard in info["shards"]) / k
    kept = statistics.mean(rep["trees_kept"] for rep in traced) \
        if result["kind"] == "serve" else 0.0
    dropped = statistics.mean(rep["trees_dropped"] for rep in traced) \
        if result["kind"] == "serve" else 0.0
    unattributed = (statistics.mean(_timed_wall(result, rep) for rep in traced)
                    - sum(self_times(result).values()))
    overhead_s = (statistics.median(_timed_wall(result, rep) for rep in traced)
                  - statistics.median(_timed_wall(result, rep)
                                      for rep in plain))
    return {
        "core.compiler.build_scheme_s": (total("core.compiler.build_scheme"), "s"),
        "core.compiler.build_scheme_calls": (calls("core.compiler.build_scheme"), "count"),
        "paths.preferred_path_tree_s": (total("paths.preferred_path_tree"), "s"),
        "paths.preferred_path_tree_calls": (calls("paths.preferred_path_tree"), "count"),
        "paths.compile_graph_s": (total("paths.compile_graph"), "s"),
        "paths.compile_graph_calls": (calls("paths.compile_graph"), "count"),
        "paths.trees_per_source": (
            (counts["scheme_trees"] + counts["oracle_trees_built"]) / n, "ratio"),
        "routing.tree_routing_s": (total("routing.tree_routing"), "s"),
        "routing.tree_routing_calls": (calls("routing.tree_routing"), "count"),
        "routing.scheme_self_s": (own("core.compiler.build_scheme"), "s"),
        "core.simulate.oracle_trees_s": (total("core.simulate.oracle_trees"), "s"),
        "core.simulate.oracle_trees_built": (counts["oracle_trees_built"], "count"),
        "routing.compiled_query.compile_s": (
            total("routing.compiled_query.compile_query"), "s"),
        "routing.compiled_query.evaluate_shard_s": (
            total("routing.compiled_query.evaluate_shard"), "s"),
        "routing.compiled_query.batch_share": (counts["batch_pairs"] / routed,
                                               "ratio"),
        "routing.compiled_query.fallbacks": (counts["query_fallbacks"], "count"),
        "core.simulate.route_shard_self_s": (own("core.simulate.route_shard"), "s"),
        "routing.stretch.measure_stretch_s": (
            total("routing.stretch.measure_stretch"), "s"),
        "routing.memory.memory_report_s": (total("routing.memory.memory_report"), "s"),
        "core.parallel.evaluate_sharded_s": (
            total("core.parallel.evaluate_sharded"), "s"),
        "core.parallel.shards": (shards, "count"),
        "core.parallel.shard_busy_s": (busy, "s"),
        "core.parallel.max_shard_s": (slowest, "s"),
        "core.parallel.overhead_s": (overhead, "s"),
        "core.parallel.retries": (retries, "count"),
        "service.wire_s": (own("service.wire"), "s"),
        "service.route_s": (own("service.route"), "s"),
        "service.update_s": (total("service.update"), "s"),
        "service.trees_kept": (kept, "count"),
        "service.trees_dropped": (dropped, "count"),
        "service.trees_kept_share": (kept / (kept + dropped) if kept + dropped
                                     else 0.0, "ratio"),
        "trace.unattributed_s": (unattributed, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def self_times(result: dict) -> Dict[str, float]:
    """Parent-side self seconds per span name, per traced rep."""
    traced = [rep for rep in result["reps"] if rep["traced"]]
    out: Dict[str, float] = {}
    for rep in traced:
        for name, values in rep["layers"]["parent_totals"].items():
            out[name] = out.get(name, 0.0) + values[2] / len(traced)
    return out


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    spec = WORKLOADS[name]
    tracer = Tracer()
    if isinstance(spec, Serve):
        result = run_serve(spec, seed, seconds, traced, tracer)
    else:
        result = run_experiment(spec, seed, seconds, traced, tracer)
    result["spans"] = tracer.spans
    return result
