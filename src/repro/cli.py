"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``classify <policy>`` — print the algebraic profile and the theorem-
  driven classification of a catalog policy;
* ``route <policy>`` — generate a topology, build the prescribed scheme,
  route all pairs and report delivery/stretch/memory (``--trace`` prints
  the hop-by-hop packet event log, ``--json`` emits the machine-readable
  report);
* ``evaluate <policy>`` — the :func:`repro.run_experiment` facade:
  build + evaluate under one seed, with ``--pairs N`` sampling,
  ``--workers N`` sharded parallel evaluation, a live progress line on a
  TTY (``--progress``/``--quiet``, ``REPRO_NO_PROGRESS``) and
  ``--record-run DIR`` durable run manifests;
* ``profile <policy>`` — run the full pipeline with telemetry enabled and
  dump phase timers, metrics and protocol message counts as JSON
  (``--workers N`` parallelizes the pair evaluation; the same
  progress/recording flags as ``evaluate``);
* ``serve <policy>`` — a persistent :class:`repro.service.RoutingService`
  speaking line-delimited JSON over stdin/stdout (or TCP with
  ``--port``): scheme, oracle trees and compiled graph stay warm across
  route/stretch/memory queries, and update/fail/restore ops mutate the
  topology with surgical invalidation (see ``docs/SERVICE.md``);
* ``report <dir>`` — render a run recorded with ``--record-run``:
  phase tree, per-shard timeline with heartbeats and stragglers,
  fallback causes, counters (``--json`` for the raw manifest + events);
* ``scale <policy>`` — measure per-node table bits over growing n and fit
  the scaling class (the Table 1 experiment for one policy);
* ``table1`` — the full six-row Table 1 reproduction;
* ``golden record|check`` — the packet-trace regression harness: record
  the pinned golden suite to ``tests/golden/*.jsonl``, or replay it and
  fail with a first-divergence report when any routing decision (or the
  fixture serialization itself) changed;
* ``policies`` — list the catalog.

Examples::

    python -m repro classify widest-path
    python -m repro route shortest-path --n 64 --topology barabasi-albert --compact
    python -m repro route widest-path --n 32 --trace
    python -m repro evaluate shortest-path --n 400 --topology waxman --workers 4
    python -m repro evaluate shortest-path --n 400 --workers 4 --record-run runs/r1
    python -m repro report runs/r1
    python -m repro profile widest-path --n 64
    python -m repro scale shortest-widest-path --sizes 16,24,32

Invalid policy or topology names exit with a one-line error and a nonzero
status — never a traceback.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from typing import Optional

import repro.obs as obs
from repro.obs import events as obs_events
from repro.obs import progress as obs_progress
from repro.algebra import (
    MostReliablePath,
    prefer_customer_algebra,
    ShortestPath,
    UsablePath,
    WidestPath,
    empirical_profile,
    provider_customer_algebra,
    shortest_widest_path,
    valley_free_algebra,
    widest_shortest_path,
)
from repro.core import (
    EvaluationOptions,
    PreferredWeightOracle,
    build_scheme,
    classify,
    fit_scaling,
    oracle_cache,
    run_experiment,
)
from repro.exceptions import ReproError
from repro.graphs import (
    FAMILIES,
    assign_random_weights,
    coned_as_topology,
    provider_tree_topology,
)
from repro.routing import memory_report

#: name -> (factory, is_bgp)
POLICIES = {
    "shortest-path": (ShortestPath, False),
    "widest-path": (WidestPath, False),
    "most-reliable-path": (MostReliablePath, False),
    "usable-path": (UsablePath, False),
    "widest-shortest-path": (widest_shortest_path, False),
    "shortest-widest-path": (shortest_widest_path, False),
    "bgp-provider-customer": (provider_customer_algebra, True),
    "bgp-valley-free": (valley_free_algebra, True),
    "bgp-prefer-customer": (prefer_customer_algebra, True),
}


def _policy(name: str):
    if name not in POLICIES:
        raise SystemExit(
            f"unknown policy {name!r}; run `python -m repro policies` for the list"
        )
    factory, is_bgp = POLICIES[name]
    return factory(), is_bgp


def _parse_sizes(text: str, minimum: int = 1) -> list:
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(
            f"--sizes must be comma-separated integers, got {text!r}"
        ) from None
    if len(sizes) < minimum:
        raise SystemExit(f"--sizes needs at least {minimum} comma-separated values")
    return sizes


def _topology(algebra, is_bgp, family: str, n: int, seed: int):
    rng = random.Random(seed)
    if is_bgp:
        if family == "provider-tree" or algebra.name.endswith("(B1)"):
            return provider_tree_topology(n, rng=rng, max_providers=2)
        scale = max(1, n // 12)
        return coned_as_topology(3, scale, 3 * scale, rng=rng)
    if family not in FAMILIES:
        raise SystemExit(f"unknown topology {family!r}; pick one of {sorted(FAMILIES)}")
    graph = FAMILIES[family](n, rng)
    assign_random_weights(graph, algebra, rng=rng)
    return graph


def cmd_policies(_args) -> int:
    for name in sorted(POLICIES):
        algebra, _ = _policy(name)
        print(f"{name:28s} [{algebra.declared_properties().summary()}]")
    return 0


def cmd_classify(args) -> int:
    algebra, _ = _policy(args.policy)
    if args.measure:
        profile = empirical_profile(algebra, rng=random.Random(args.seed))
        print(f"measured properties: [{profile.summary()}]")
    verdict = classify(algebra)
    print(verdict.summary())
    for reason in verdict.reasons:
        print(f"  - {reason}")
    return 0


def _print_trace(trace) -> None:
    # delivered is None while finish() has not run — e.g. the local
    # routing function raised mid-route; that is *unfinished*, not FAILED.
    if trace.delivered is None:
        state = "UNFINISHED (no verdict recorded)"
    elif trace.delivered:
        state = "delivered"
    else:
        state = f"FAILED ({trace.reason})"
    print(f"trace {trace.source!r} -> {trace.target!r}: "
          f"{trace.hops} hops, {state}")
    for event in trace.events:
        bits = f" header={event.header!r}"
        if event.header_bits is not None:
            bits += f" ({event.header_bits}b)"
        if event.action == "forward":
            print(f"  [{event.index}] {event.node!r} --port {event.port}--> "
                  f"{event.next_node!r}{bits}")
        else:
            print(f"  [{event.index}] {event.node!r} deliver{bits}")


def cmd_route(args) -> int:
    algebra, is_bgp = _policy(args.policy)
    graph = _topology(algebra, is_bgp, args.topology, args.n, args.seed)
    mode = "compact" if args.compact else "auto"
    n = graph.number_of_nodes()
    was_enabled = obs.enabled()
    if args.trace:
        obs.enable()
    run_ui = _RunTelemetry("route", args, n * (n - 1), {
        "policy": args.policy, "topology": args.topology, "n": n,
        "m": graph.number_of_edges(), "seed": args.seed, "mode": mode,
    })
    try:
        result = run_experiment(
            graph, algebra, mode=mode,
            options=EvaluationOptions(trace_limit=args.trace_limit,
                                      rng=args.seed + 1),
        )
        report = result.report
    except BaseException:
        run_ui.abort()
        if not was_enabled:
            obs.disable()
        raise
    run_ui.finish(report)
    if not was_enabled:
        obs.disable()
    if args.json:
        payload = {
            "policy": args.policy,
            "topology": {
                "family": args.topology,
                "n": graph.number_of_nodes(),
                "m": graph.number_of_edges(),
            },
            "report": obs.report_to_dict(report),
        }
        print(obs.to_json(payload))
    else:
        print(f"topology: n={graph.number_of_nodes()} m={graph.number_of_edges()}")
        print(report.summary())
        if args.trace:
            for trace in report.traces:
                _print_trace(trace)
            if report.traces_dropped:
                print(f"({report.traces_dropped} further traced route(s) "
                      f"dropped at the capture limit of {args.trace_limit})")
        if report.failures:
            print(f"failures (first {len(report.failures)}): {report.failures}")
    return 1 if report.failures else 0


class _RunTelemetry:
    """Live progress + durable run recording around one CLI experiment.

    Activated when the user asked for live progress (``--progress``, or a
    TTY without ``--quiet``/``--json``/``REPRO_NO_PROGRESS``) or for a
    durable record (``--record-run DIR``).  Either way the run-event
    stream (and full telemetry, which the manifest snapshots) is switched
    on for the duration of the command and restored afterwards; a
    ``run_started``/``run_finished`` pair brackets the experiment.
    """

    def __init__(self, command: str, args, total_pairs: Optional[int],
                 config: dict, reset: bool = True):
        self.command = command
        self.config = config
        self.total_pairs = total_pairs
        self.record_dir = getattr(args, "record_run", None)
        json_mode = bool(getattr(args, "json", False))
        show = obs_progress.should_show_progress(
            progress=getattr(args, "progress", False),
            quiet=getattr(args, "quiet", False),
            json_mode=json_mode, stream=sys.stderr)
        self.active = bool(self.record_dir) or show
        self.renderer = None
        self.started_at = time.time()
        if not self.active:
            return
        self._was_obs = obs.enabled()
        self._was_events = obs_events.enabled()
        obs.enable()
        obs_events.enable()
        if reset:
            obs.reset_all()
        if show:
            self.renderer = obs_progress.ProgressRenderer(
                sys.stderr, total_pairs=total_pairs, label=command)
            obs_events.set_live_consumer(self.renderer.handle)
        obs_events.emit("run_started", command=command,
                        pairs_total=total_pairs,
                        **{key: value for key, value in config.items()
                           if isinstance(value, (str, int, float))})

    def abort(self) -> None:
        """Tear down renderer and enable-flags without writing a manifest."""
        if not self.active:
            return
        if self.renderer is not None:
            obs_events.set_live_consumer(None)
            self.renderer.close()
            self.renderer = None
        if not self._was_events:
            obs_events.disable()
            obs_events.clear_events()
        if not self._was_obs:
            obs.disable()
        self.active = False

    def finish(self, report=None) -> None:
        """Close the run: final event, manifest + event log, restore state."""
        if not self.active:
            return
        from repro.core import parallel as _parallel
        from repro.paths.kernel import resolve_engine

        finished_at = time.time()
        data = {}
        if report is not None:
            data = {"pairs": report.pairs, "delivered": report.delivered,
                    "optimal": report.optimal}
        obs_events.emit("run_finished",
                        duration_s=finished_at - self.started_at, **data)
        if self.renderer is not None:
            obs_events.set_live_consumer(None)
            self.renderer.close()
            self.renderer = None
        if self.record_dir:
            run_info = _parallel.last_run_info()
            engine = {
                "start_method": run_info.start_method if run_info else "serial",
                "path_engine": resolve_engine(),
                "workers": run_info.workers if run_info else 0,
            }
            snapshot = obs.telemetry_snapshot(include_spans=True)
            manifest = obs_events.build_manifest(
                command=self.command, config=self.config, engine=engine,
                started_at=self.started_at, finished_at=finished_at,
                shards=run_info.shards if run_info else [],
                stragglers=run_info.stragglers if run_info else {},
                recovery=run_info.recovery if run_info else {},
                counters=snapshot["metrics"],
                spans=snapshot["spans"],
                report=obs.report_to_dict(report) if report is not None else None,
            )
            manifest_path, events_path = obs_events.write_run(self.record_dir,
                                                              manifest)
            print(f"recorded run -> {manifest_path} + {events_path}",
                  file=sys.stderr)
        if not self._was_events:
            obs_events.disable()
            obs_events.clear_events()
        if not self._was_obs:
            obs.disable()
        self.active = False


def _print_fallback_cause() -> None:
    """One line on why the parallel engine reverted to serial, if it did.

    A recovered run (shards were lost but retries salvaged them without
    a serial fallback) also gets one line, so worker loss never passes
    silently.
    """
    from repro.core import parallel as _parallel

    fallback = _parallel.last_fallback()
    if fallback is not None:
        print(fallback.summary())
    run_info = _parallel.last_run_info()
    recovery = run_info.recovery if run_info else {}
    if recovery.get("recovered"):
        print(f"recovered from worker loss: "
              f"{recovery.get('shards_lost', 0)} shard(s) lost, "
              f"{recovery.get('shards_retried', 0)} retried over "
              f"{recovery.get('pool_rebuilds', 0)} pool rebuild(s)")


def cmd_evaluate(args) -> int:
    """The one-call experiment facade: build + evaluate under one seed."""
    algebra, is_bgp = _policy(args.policy)
    graph = _topology(algebra, is_bgp, args.topology, args.n, args.seed)
    mode = "compact" if args.compact else "auto"
    options = EvaluationOptions(
        pair_count=args.pairs,
        workers=args.workers,
        shard_size=args.shard_size,
        trace_limit=args.trace_limit,
        rng=args.seed + 1,
    )
    n = graph.number_of_nodes()
    total_pairs = args.pairs if args.pairs is not None else n * (n - 1)
    was_enabled = obs.enabled()
    if args.trace:
        obs.enable()
    run_ui = _RunTelemetry("evaluate", args, total_pairs, {
        "policy": args.policy, "topology": args.topology, "n": n,
        "m": graph.number_of_edges(), "seed": args.seed,
        "pairs": total_pairs, "workers": args.workers or 0,
        "mode": mode,
    })
    try:
        result = run_experiment(graph, algebra, mode=mode, options=options)
        report = result.report
    except BaseException:
        run_ui.abort()
        if not was_enabled:
            obs.disable()
        raise
    run_ui.finish(report)
    if not was_enabled:
        obs.disable()
    if args.json:
        payload = {
            "policy": args.policy,
            "scheme": result.scheme.name,
            "workers": args.workers,
            "topology": {
                "family": args.topology,
                "n": graph.number_of_nodes(),
                "m": graph.number_of_edges(),
            },
            # Parent-process oracle lifecycle: with --workers, a tree the
            # parent's oracle lacks is built in a worker, under any start
            # method, and shows up in `profile`'s merged telemetry instead.
            "oracle": oracle_cache.stats(),
            "report": obs.report_to_dict(report),
        }
        print(obs.to_json(payload))
    else:
        print(f"topology: n={graph.number_of_nodes()} m={graph.number_of_edges()}")
        print(report.summary())
        _print_fallback_cause()
        stats = oracle_cache.stats()
        print(f"oracle: {stats['trees_built']}/{graph.number_of_nodes()} "
              f"source trees built ({stats['trees_requested']} lookups)")
        if args.trace:
            for trace in report.traces:
                _print_trace(trace)
            if report.traces_dropped:
                print(f"({report.traces_dropped} further traced route(s) "
                      f"dropped at the capture limit of {args.trace_limit})")
        if report.failures:
            print(f"failures (first {len(report.failures)}): {report.failures}")
    return 1 if report.failures else 0


def cmd_profile(args) -> int:
    """End-to-end pipeline under full telemetry; emits one JSON document."""
    algebra, is_bgp = _policy(args.policy)
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset_all()
    run_ui = None
    try:
        graph = _topology(algebra, is_bgp, args.topology, args.n, args.seed)
        mode = "compact" if args.compact else "auto"
        n = graph.number_of_nodes()
        run_ui = _RunTelemetry("profile", args, n * (n - 1), {
            "policy": args.policy, "topology": args.topology, "n": n,
            "m": graph.number_of_edges(), "seed": args.seed,
            "workers": args.workers or 0, "mode": mode,
        }, reset=False)
        result = run_experiment(
            graph, algebra, mode=mode,
            options=EvaluationOptions(trace_limit=args.trace_limit,
                                      workers=args.workers,
                                      rng=args.seed + 1),
        )
        scheme, report = result.scheme, result.report
        run_ui.finish(report)
        run_ui = None

        # Protocol simulations on a copy (fail_edge and friends mutate), so
        # the profile also carries message/convergence accounting.
        # Protocols that do not apply to this instance (digraphs,
        # non-regular algebras) are skipped and listed as such.
        protocols = {}
        from repro.protocols.distance_vector import DistanceVectorSimulation
        from repro.protocols.link_state import LinkStateSimulation
        from repro.protocols.path_vector import PathVectorSimulation

        for name, factory in (
            ("path-vector", lambda: PathVectorSimulation(graph.copy(), algebra)),
            ("distance-vector",
             lambda: DistanceVectorSimulation(graph.copy(), algebra)),
            ("link-state", lambda: LinkStateSimulation(graph.copy(), algebra)),
        ):
            try:
                protocols[name] = factory().run().summary()
            except ReproError as exc:
                protocols[name] = f"skipped: {exc}"

        snapshot = obs.telemetry_snapshot()
    finally:
        if run_ui is not None:
            run_ui.abort()
        if not was_enabled:
            obs.disable()
    from repro.paths.kernel import resolve_engine

    # The path-engine view: which engine resolved, plus its run counters
    # (relaxations / heap_pushes / stale_pops / bucket_engaged) filtered
    # out of the merged metric snapshot.  See docs/PERFORMANCE.md.
    path_counters = {
        name: value
        for name, value in snapshot["metrics"]["counters"].items()
        if name.startswith("path_engine.")
    }
    # The batch sub-view: whether the vectorized engine could run at all
    # (numpy is an optional extra) plus its sweep counters
    # (batch_sweeps / batch_sources / batch_levels / batch_relaxations /
    # batch_improvements / batch_fallbacks).
    from repro.paths import batch as _batch

    batch_counters = {
        name: value
        for name, value in path_counters.items()
        if name.startswith("path_engine.batch_")
    }
    # The query-engine view: the resolved pair-evaluation engine, its
    # fallback counters from the metric snapshot, and the always-on
    # process-local usage stats (profile runs route under telemetry, which
    # itself forces the reference loop — the stats still show what any
    # plain run of the same workload would have used).
    from repro.routing import compiled_query as _compiled_query
    from repro.routing import query_engine as _query_engine

    query_counters = {
        name: value
        for name, value in snapshot["metrics"]["counters"].items()
        if name.startswith("query_engine.")
    }
    payload = {
        "policy": args.policy,
        "scheme": scheme.name,
        "topology": {
            "family": args.topology,
            "n": graph.number_of_nodes(),
            "m": graph.number_of_edges(),
        },
        "phases": snapshot["spans"],
        "metrics": snapshot["metrics"],
        "path_engine": {
            "engine": resolve_engine(),
            "counters": path_counters,
        },
        "batch": {
            "numpy": _batch.numpy_available(),
            "counters": batch_counters,
        },
        "query": {
            "engine": _query_engine.resolve_query_engine(),
            "numpy": _compiled_query.numpy_available(),
            "counters": query_counters,
            "stats": _query_engine.query_stats(),
        },
        "oracle": oracle_cache.stats(),
        "protocols": protocols,
        "report": obs.report_to_dict(report),
    }
    text = obs.to_json(payload)
    if args.output:
        obs.write_json(args.output, payload)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def cmd_serve(args) -> int:
    """Start a persistent :class:`~repro.service.RoutingService`.

    The built scheme, oracle trees and compiled graph stay warm across
    requests; ``update_weight``/``fail_link``/``restore_link`` ops mutate
    the topology with surgical invalidation.  Speaks one JSON object per
    line on stdin/stdout (the default) or over TCP with ``--port``; EOF
    or an ``op=shutdown`` request ends the session.  See
    ``docs/SERVICE.md`` for the wire format.
    """
    from repro.service import (
        RoutingService,
        ServiceOptions,
        serve_socket,
        serve_stdio,
    )

    algebra, is_bgp = _policy(args.policy)
    graph = _topology(algebra, is_bgp, args.topology, args.n, args.seed)
    mode = "compact" if args.compact else "auto"
    n = graph.number_of_nodes()
    run_ui = _RunTelemetry("serve", args, None, {
        "policy": args.policy, "topology": args.topology, "n": n,
        "m": graph.number_of_edges(), "seed": args.seed, "mode": mode,
    })
    try:
        service = RoutingService(
            graph, algebra, ServiceOptions(mode=mode, seed=args.seed + 1))
        if not args.quiet:
            print(f"serving {service.scheme.name} on n={n} "
                  f"m={graph.number_of_edges()} (one JSON request per line; "
                  f"op=shutdown or EOF ends the session)", file=sys.stderr)
        if args.port is not None:
            code = serve_socket(service, host=args.host, port=args.port)
        else:
            code = serve_stdio(service)
    except BaseException:
        run_ui.abort()
        raise
    run_ui.finish()
    return code


def cmd_report(args) -> int:
    """Render a recorded run (``--record-run DIR``) as a human report."""
    try:
        run = obs_events.read_run(args.run)
    except FileNotFoundError:
        raise SystemExit(
            f"error: no run manifest under {args.run!r} "
            f"(expected {obs_events.MANIFEST_FILE}; record one with "
            f"'repro evaluate ... --record-run {args.run}')"
        )
    if args.json:
        print(obs.to_json({
            "manifest": run["manifest"],
            "events": [obs_events.event_to_dict(event)
                       for event in run["events"]],
        }))
        return 0
    print(obs_progress.render_run_report(run["manifest"], run["events"]))
    return 0


def cmd_scale(args) -> int:
    algebra, is_bgp = _policy(args.policy)
    sizes = _parse_sizes(args.sizes, minimum=3)
    rows = []
    for n in sizes:
        graph = _topology(algebra, is_bgp, args.topology, n, args.seed + n)
        # Build-only: a private tree store goes with the scheme, where the
        # process-wide oracle cache would keep every size's trees.
        scheme = build_scheme(graph, algebra, rng=random.Random(args.seed + n + 1),
                              oracle=PreferredWeightOracle(graph, algebra))
        bits = memory_report(scheme).max_bits
        rows.append((graph.number_of_nodes(), bits))
        print(f"n={graph.number_of_nodes():5d}  max table bits={bits}")
    ns, bits = zip(*rows)
    print(fit_scaling(ns, bits).summary())
    return 0


def _golden_cases(args):
    from repro.regress import GOLDEN_CASES, case_by_name

    if not args.case:
        return list(GOLDEN_CASES)
    try:
        return [case_by_name(name) for name in args.case]
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}")


def cmd_golden_record(args) -> int:
    from repro.regress import record_all

    paths = record_all(args.dir, cases=_golden_cases(args))
    for name, path in paths.items():
        with open(path) as handle:
            traces = sum(1 for line in handle) - 1  # minus the meta line
        print(f"recorded {name}: {traces} traces -> {path}")
    return 0


def cmd_golden_check(args) -> int:
    from repro.regress import check_all

    results = check_all(args.dir, cases=_golden_cases(args))
    failed = [result for result in results if not result.ok]
    for result in results:
        print(f"{result.case}: {result.status.upper()}"
              + (f" — {result.detail}" if result.ok else ""))
    for result in failed:
        print()
        print(result.detail)
    if failed:
        print(f"\ngolden check FAILED for {len(failed)}/{len(results)} case(s)")
        return 1
    print(f"golden check passed: {len(results)} case(s)")
    return 0


def cmd_table1(args) -> int:
    from repro.core.table1 import format_table1, reproduce_table1

    sizes = _parse_sizes(args.sizes, minimum=1)
    rows = reproduce_table1(sizes=sizes, seed=args.seed)
    print(format_table1(rows))
    return 0


def _add_telemetry_options(parser: argparse.ArgumentParser, *,
                           trace_default: Optional[int] = None,
                           json_flag: bool = False) -> None:
    """Shared telemetry/output flags — the one place their contract lives.

    Every subcommand that goes through here gets ``--progress``,
    ``--quiet`` and ``--record-run DIR`` with identical semantics.  The
    precedence rule (implemented once, in
    :func:`repro.obs.progress.should_show_progress`): the
    ``REPRO_NO_PROGRESS`` environment variable and ``--quiet`` always
    win; ``--json`` implies quiet; an explicit ``--progress`` then forces
    the live line; otherwise progress renders only on a TTY.
    ``--record-run`` is independent of all of the above — it switches the
    run-event stream on and writes a durable manifest + event log whether
    or not anything rendered live.

    ``--trace``/``--trace-limit`` appear on commands that can print
    hop-by-hop packet traces (*trace_default* is the per-command capture
    limit); ``--json`` via *json_flag* on commands with a distinct
    machine-readable mode (commands whose output is always JSON, like
    ``profile`` and ``serve``, omit it).  On commands that run no
    experiment (``report``) the progress/record flags are accepted for
    interface uniformity and are inert.
    """
    parser.add_argument("--progress", action="store_true",
                        help="force the live progress line even without a TTY")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the live progress line")
    parser.add_argument("--record-run", metavar="DIR", default=None,
                        help="write a run manifest + event log to DIR")
    if trace_default is not None:
        parser.add_argument("--trace", action="store_true",
                            help="print the hop-by-hop packet event log")
        parser.add_argument("--trace-limit", type=int, default=trace_default,
                            help="max packet traces to capture "
                                 f"(default {trace_default})")
    if json_flag:
        parser.add_argument("--json", action="store_true",
                            help="emit the report as JSON instead of text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Compact policy routing — paper reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("policies", help="list catalog policies").set_defaults(
        func=cmd_policies
    )

    p_classify = sub.add_parser("classify", help="classify a policy")
    p_classify.add_argument("policy")
    p_classify.add_argument("--measure", action="store_true",
                            help="also measure the profile empirically")
    p_classify.add_argument("--seed", type=int, default=0)
    p_classify.set_defaults(func=cmd_classify)

    p_route = sub.add_parser("route", help="build a scheme and route all pairs")
    p_route.add_argument("policy")
    p_route.add_argument("--n", type=int, default=48)
    p_route.add_argument("--topology", default="erdos-renyi")
    p_route.add_argument("--compact", action="store_true",
                         help="use the Theorem 3 compact scheme where possible")
    p_route.add_argument("--seed", type=int, default=0)
    _add_telemetry_options(p_route, trace_default=8, json_flag=True)
    p_route.set_defaults(func=cmd_route)

    p_evaluate = sub.add_parser(
        "evaluate",
        help="build + evaluate one experiment (the run_experiment facade)",
    )
    p_evaluate.add_argument("policy")
    p_evaluate.add_argument("--n", type=int, default=48)
    p_evaluate.add_argument("--topology", default="erdos-renyi")
    p_evaluate.add_argument("--compact", action="store_true",
                            help="use the Theorem 3 compact scheme where possible")
    p_evaluate.add_argument("--pairs", type=int, default=None,
                            help="sample this many ordered pairs (default: all)")
    p_evaluate.add_argument("--workers", type=int, default=None,
                            help="evaluate pair shards across N processes")
    p_evaluate.add_argument("--shard-size", type=int, default=None,
                            help="pairs per shard (default: balanced)")
    p_evaluate.add_argument("--seed", type=int, default=0)
    _add_telemetry_options(p_evaluate, trace_default=16, json_flag=True)
    p_evaluate.set_defaults(func=cmd_evaluate)

    p_profile = sub.add_parser(
        "profile",
        help="run the pipeline with telemetry on; dump timings/metrics JSON",
    )
    p_profile.add_argument("policy")
    p_profile.add_argument("--n", type=int, default=48)
    p_profile.add_argument("--topology", default="erdos-renyi")
    p_profile.add_argument("--compact", action="store_true")
    p_profile.add_argument("--workers", type=int, default=None,
                           help="evaluate pair shards across N processes")
    p_profile.add_argument("--trace-limit", type=int, default=4)
    p_profile.add_argument("--output", default=None,
                           help="write the JSON document here instead of stdout")
    p_profile.add_argument("--seed", type=int, default=0)
    _add_telemetry_options(p_profile)
    p_profile.set_defaults(func=cmd_profile)

    p_serve = sub.add_parser(
        "serve",
        help="persistent routing service (JSONL over stdin/stdout or TCP)",
    )
    p_serve.add_argument("policy")
    p_serve.add_argument("--n", type=int, default=48)
    p_serve.add_argument("--topology", default="erdos-renyi")
    p_serve.add_argument("--compact", action="store_true",
                         help="use the Theorem 3 compact scheme where possible")
    p_serve.add_argument("--port", type=int, default=None,
                         help="serve over TCP on this port (0 picks a free "
                              "one) instead of stdin/stdout")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address for --port (default 127.0.0.1)")
    p_serve.add_argument("--seed", type=int, default=0)
    _add_telemetry_options(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_report = sub.add_parser(
        "report",
        help="render a recorded run directory (manifest + event log)",
    )
    p_report.add_argument("run", help="run directory written by --record-run")
    _add_telemetry_options(p_report, json_flag=True)
    p_report.set_defaults(func=cmd_report)

    p_scale = sub.add_parser("scale", help="fit the memory scaling class")
    p_scale.add_argument("policy")
    p_scale.add_argument("--sizes", default="32,64,128")
    p_scale.add_argument("--topology", default="erdos-renyi")
    p_scale.add_argument("--seed", type=int, default=0)
    p_scale.set_defaults(func=cmd_scale)

    p_table1 = sub.add_parser("table1", help="reproduce the paper's Table 1")
    p_table1.add_argument("--sizes", default="32,64,128")
    p_table1.add_argument("--seed", type=int, default=0)
    p_table1.set_defaults(func=cmd_table1)

    p_golden = sub.add_parser(
        "golden", help="golden packet-trace regression fixtures"
    )
    golden_sub = p_golden.add_subparsers(dest="golden_command", required=True)
    for name, func, help_text in (
        ("record", cmd_golden_record,
         "re-record the golden suite's trace fixtures"),
        ("check", cmd_golden_check,
         "replay the suite and diff hop-for-hop against the fixtures"),
    ):
        p_sub = golden_sub.add_parser(name, help=help_text)
        p_sub.add_argument("--dir", default="tests/golden",
                           help="fixture directory (default: tests/golden)")
        p_sub.add_argument("--case", action="append", default=[],
                           help="restrict to this case (repeatable)")
        p_sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Malformed numeric arguments and the like: a clean error beats a
        # traceback for every subcommand.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # `repro report run/ | head` closes stdout early; exit quietly the
        # way coreutils do instead of dumping a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
