"""The repository benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload cowen-sp-er512 --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports ``repro`` from ``src/``.
It prints every metric with its unit and sample count, then, as the last
line, ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` the per-layer metrics,
the per-layer self times, the unattributed residue and the tracing
overhead.  The full record (every rep, the engines, the environment and,
when traced, every span) goes to ``.perfbench/<workload>-<seed>-<trace>.json``.
The exit code is 0 when the outputs check out, 1 when they do not, and 2
when the sources are missing.

Workloads (see ``BENCHMARK.json``):

* ``cowen-sp-er512`` -- the canonical run: Cowen scheme, shortest path,
  Erdos-Renyi n=512, all 261,632 pairs, serial.  Every fast path engages
  (Dial-bucket kernel, compiled query engine on every pair); tree
  construction is most of the time.
* ``cowen-wsp-er256`` -- widest-shortest path (S x W), n=256, all 65,280
  pairs.  The widest part is not additive, so the batch path engine and
  the compiled query engine both fall back: the bypass side of any change
  to them, and the only workload that times the per-pair reference loop.
* ``serve-sp-er128-churn`` -- one closed-loop client, no think time,
  sending JSONL lines through ``repro.service.wire`` to a RoutingService
  (shortest path, n=128, ``auto`` mode: destination tables).  A session
  is 500 reads of 32 random pairs with one write after every 50th read
  (fail a non-bridge link, restore it, re-weight a random edge, in turn).
  Each session of a run has its own seeded graph and script (16 per run,
  replayed in turn), because one graph's handful of writes decides too
  much of the figures.  The only workload for the service, wire and
  invalidation layers; every write makes the next read rebuild the
  scheme.  One client because the service serializes requests on one
  lock and ``repro serve`` over stdio has one caller that waits for each
  reply.
* ``cowen-sp-er512-w2`` -- the canonical run with ``workers=2`` (fork; sized
  for a 2-CPU machine, one worker per CPU).  The only workload for
  ``core.parallel``; it answers whether two workers still beat serial.

End-to-end metrics (tracing off; medians over the reps of a run).  Each
is defined for both kinds of workload:

=========================  =====================================  ========================================
metric                     experiments                            serve session
=========================  =====================================  ========================================
setup_s                    build_scheme wall time                 RoutingService() + warm-up route of every source
experiment_s               build_scheme + evaluate_scheme         the scripted session (reads and writes)
pairs_per_s                routed pairs / evaluate_scheme time    32 pairs / median warm read latency
answers_per_s              routed pairs / experiment_s            pair answers / session wall time
query_p50_ms               evaluate_scheme time (one bulk query)  warm read latency, line in to encoded reply
update_to_answer_p50_ms    experiment_s (a graph change means a   a write's latency plus the next read's
                           rebuild and a re-evaluation)           (invalidation, lazy rebuild, answer)
peak_rss_mb                peak RSS of the process plus its largest reaped worker
=========================  =====================================  ========================================

A warm read is one that does not immediately follow a write.  Serve
latencies pool every session of the run, with their sample counts.  The
serve run also prints the p99 warm-read latency, but the gate leaves it
out: it is set by the lazy tree rebuilds after the heaviest few of a
run's ~100 writes and moves 15-25% between seeds, more than any bound
the gate can hold.  For the same reason the serve ``pairs_per_s`` is
taken from the median warm read, not from the mean.

Per-layer metrics (traced run; means per traced rep) and the end-to-end
metric each should move:

====================================  ====================================  =============================
layer: metrics                        should move                           on
====================================  ====================================  =============================
core.compiler: build_scheme_s/_calls  setup_s, experiment_s;                experiments; serve
                                      update_to_answer_p50_ms,              (calls = writes + 1)
                                      answers_per_s
paths: preferred_path_tree_s/_calls,  setup_s, experiment_s, peak_rss_mb;   cowen-sp-er512,
compile_graph_s/_calls,               update_to_answer_p50_ms               cowen-wsp-er256; serve
trees_per_source (scheme + oracle
trees / n; 2.0 today, ideal 1.0)
routing (scheme build):               setup_s; update_to_answer_p50_ms      Cowen experiments; serve
tree_routing_s/_calls, scheme_self_s
core.simulate (oracle):               pairs_per_s, experiment_s;            experiments; serve
oracle_trees_s, oracle_trees_built    serve p99 (printed, not gated)
routing.compiled_query: compile_s,    pairs_per_s                           cowen-sp-er512(-w2)
evaluate_shard_s, batch_share,
fallbacks
core.simulate (reference loop):       pairs_per_s                           cowen-wsp-er256
route_shard_self_s
routing.stretch / routing.memory:     pairs_per_s                           experiments
measure_stretch_s, memory_report_s
core.parallel: evaluate_sharded_s,    pairs_per_s, experiment_s,            cowen-sp-er512-w2
shards, shard_busy_s, max_shard_s,    peak_rss_mb
overhead_s, retries
service.wire: wire_s                  query_p50_ms, answers_per_s           serve
service: route_s, update_s,           query_p50_ms; update_to_answer,       serve
trees_kept, trees_dropped,            answers_per_s
trees_kept_share
====================================  ====================================  =============================

Pairings where the prediction is no change: a change to the batch path
engine or the compiled query engine should not move ``cowen-wsp-er256``
(batch share 0, every pair on the reference loop) or the serve session
(which never calls ``evaluate_shard``); a change to ``core.parallel``
should not move the serial workloads; a change to the service or wire
layers should not move the experiments.

The engines run at their defaults: the ``REPRO_*`` overrides below are
cleared before ``repro`` is imported (the record lists what was cleared),
and ``repro.obs`` telemetry, run events and trace capture stay off.  Each
record carries the resolved path and query engines, the start method,
``query_stats()``, ``nproc``, the Python and numpy versions, the commit
when the checkout has one, process CPU time next to wall time for every
timed phase, the 1-minute load average at start and end, and before
each rep the time of a fixed pure-Python probe.  A run whose wall time is
well above its CPU time, or whose probe is slow, ran on a contended
machine: on a shared 2-vCPU AMD EPYC virtual machine the probe has been
seen to take twice its usual time for seconds at a stretch, and its
median over a run to drift by 10-15% within minutes, with wall time
still equal to CPU time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: The environment overrides of engines, telemetry, events and faults.
PINNED_ENV = (
    "REPRO_PATH_ENGINE", "REPRO_QUERY_ENGINE", "REPRO_START_METHOD",
    "REPRO_TELEMETRY", "REPRO_EVENTS", "REPRO_FAULT_SPEC",
    "REPRO_SHARD_RETRIES", "REPRO_SHARD_TIMEOUT", "REPRO_STRAGGLER_FACTOR",
    "REPRO_STRAGGLER_MIN_S", "REPRO_NO_PROGRESS",
)


def _commit():
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(cleared) -> dict:
    import numpy
    from repro.core import parallel
    from repro.obs import events, tracing
    from repro.obs.metrics import enabled as telemetry_enabled
    from repro.paths.kernel import resolve_engine
    from repro.routing.query_engine import resolve_query_engine

    if telemetry_enabled() or events.enabled() or tracing.active_capture():
        raise SystemExit("perfbench: repro.obs is on; refusing to measure")
    return {
        "cleared_env": cleared,
        "path_engine": resolve_engine(),
        "query_engine": resolve_query_engine(),
        "start_method": parallel._start_method(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
    }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    cleared = sorted(name for name in PINNED_ENV if name in os.environ)
    for name in cleared:
        del os.environ[name]
    sys.path.insert(0, str(SRC))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of "
                     f"{', '.join(workloads.WORKLOADS)}")
    environment = _environment(cleared)
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    from repro.routing.query_engine import query_stats
    environment["query_stats"] = query_stats()
    result["environment"] = environment

    checks = result["checks"]
    print(f"workload {args.workload} seed {args.seed}: n={result['n']} "
          f"m={result['m']}, {len(result['reps'])} reps "
          f"({sum(rep['traced'] for rep in result['reps'])} traced)")
    print(f"engines: path {environment['path_engine']}, query "
          f"{environment['query_engine']}, start method "
          f"{environment['start_method']}; nproc {environment['nproc']}; "
          f"load {result['load_start']:.2f} -> {result['load_end']:.2f}; "
          f"cleared env {cleared or 'none'}")
    for rep in result["reps"]:
        phases = {k: v for k, v in rep.items()
                  if isinstance(v, dict) and "wall_s" in v}
        print("  rep" + ("*" if rep["traced"] else " ")
              + f" probe {rep['probe_s']:.4f}s, " + ", ".join(
            f"{name} {p['wall_s']:.3f}s wall {p['cpu_s']:.3f}s cpu"
            + (f" +{p['children_cpu_s']:.3f}s workers"
               if p["children_cpu_s"] else "")
            for name, p in phases.items()))
    if args.trace:
        metrics = workloads.per_layer(result)
        for name, (value, unit) in metrics.items():
            print(f"  {name:42s} {value:14.6f} {unit}")
        print("  self time per traced rep (parent process):")
        self_times = workloads.self_times(result)
        for name, value in sorted(self_times.items(), key=lambda kv: -kv[1]):
            if value:
                print(f"    {name:40s} {value:10.4f} s")
        print(f"    {'unattributed':40s} "
              f"{metrics['trace.unattributed_s'][0]:10.4f} s")
        print(f"  tracing overhead (traced - untraced wall per rep): "
              f"{metrics['trace.overhead_s'][0]:.4f} s")
    else:
        metrics = workloads.end_to_end(result)
        for name, (value, unit, samples) in metrics.items():
            print(f"  {name:26s} {value:14.4f} {unit:5s} (n={samples})")
        for name, (value, unit, samples) in workloads.ungated(result).items():
            print(f"  {name:26s} {value:14.4f} {unit:5s} (n={samples}, "
                  f"not gated)")
    print(f"operations: {checks['attempted']} attempted, "
          f"{checks['failed']} failed")
    for problem in checks["problems"]:
        print(f"CHECK FAILED: {problem}")
    correct = not checks["problems"] and checks["failed"] == 0

    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-{args.seed}-{args.trace}.json"
    record.write_text(json.dumps(_jsonable(result)))
    print(f"record: {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
