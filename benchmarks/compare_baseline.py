"""Gate benchmark results against the committed baseline.

Diffs ``benchmarks/results/summary.json`` (the run just produced) against
``benchmarks/baseline/summary.json`` (committed) and fails when a tracked
metric regressed by more than the tolerance (default 20%):

* fitted log-log slopes (any ``loglog_slope`` in an experiment's data):
  higher means worse asymptotic growth;
* memory numbers (any key ending in ``_bits``; lists compare their max):
  higher means more routing state;
* parallel ``speedup``: *lower* is worse, so the check is inverted — and
  it is only compared when both runs had enough CPUs to enforce it
  (``speedup_enforced``), since a single-core container cannot beat
  serial no matter what the code does;
* path-engine work rates (any key ending in ``_per_edge``, e.g. the
  kernel benchmark's comparisons-per-edge): higher means more work per
  relaxation, so higher is worse;
* the kernel benchmark's ``comparison_ratio`` (reference vs bucket
  comparisons-per-edge): *lower* is worse, inverted like speedup — but
  always enforced, since counting comparisons is deterministic and CPU
  independent;
* the batch-engine benchmark's ``batch_speedup`` (vectorized all-pairs
  sweep vs the per-source kernel): *lower* is worse, inverted like
  speedup and always enforced — the committed baseline holds the
  benchmark's own acceptance bar (5x), so the gate trips when the
  vectorized path decays back toward per-source Python speed;
* the query-engine benchmark's ``query_speedup`` (vectorized all-pairs
  shard evaluation vs the per-pair reference loop): *lower* is worse,
  inverted and always enforced like ``batch_speedup`` — the committed
  baseline holds the benchmark's own acceptance bar (4x), so the gate
  trips when pair evaluation decays back toward per-pair Python speed;
* telemetry overhead budgets (any key ending in ``_overhead_pct``: the
  event-stream benchmark's disabled-path cost and the enabled-telemetry
  cost of an all-pairs evaluation): higher means the instrumentation
  eats more of the hot loop.  The baseline entry holds
  the *budget* (the benchmark's own assertion bar), not a measured
  sample, so the gate trips only when a measurement blows through the
  bar plus tolerance.

Experiments present in only one summary are reported but do not fail the
gate: CI may run a benchmark subset, and new experiments have no baseline
yet.  Exits 0 on success, 1 on regression, 2 when nothing was comparable
(almost certainly a misconfiguration).

Every invocation also appends one timestamped snapshot of the compared
metrics to ``benchmarks/BENCH_trajectory.json`` (disable with
``--no-trajectory``), giving the repo a cheap longitudinal record of how
each tracked number moves across runs.

Usage::

    python benchmarks/compare_baseline.py [--tolerance 0.2]
        [--current benchmarks/results/summary.json]
        [--baseline benchmarks/baseline/summary.json]
        [--trajectory benchmarks/BENCH_trajectory.json | --no-trajectory]
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_CURRENT = os.path.join(HERE, "results", "summary.json")
DEFAULT_BASELINE = os.path.join(HERE, "baseline", "summary.json")
DEFAULT_TRAJECTORY = os.path.join(HERE, "BENCH_trajectory.json")


def _walk(data, path=""):
    """Yield (dotted_path, value) for every leaf in a nested payload."""
    if isinstance(data, dict):
        for key, value in data.items():
            yield from _walk(value, f"{path}.{key}" if path else str(key))
    else:
        yield path, data


def _as_scalar(value):
    """Numeric view of a tracked leaf: lists of numbers compare their max."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if (isinstance(value, list) and value
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in value)):
        return float(max(value))
    return None


def tracked_metrics(payload):
    """metric path -> (value, direction) for one experiment's payload.

    direction is +1 when higher is worse (slopes, bits) and -1 when lower
    is worse (speedup).
    """
    data = payload.get("data")
    if not isinstance(data, dict):
        return {}
    metrics = {}
    for path, value in _walk(data):
        leaf = path.rsplit(".", 1)[-1]
        scalar = _as_scalar(value)
        if scalar is None:
            continue
        if (leaf == "loglog_slope" or leaf.endswith("_bits")
                or leaf.endswith("_per_edge")
                or leaf.endswith("_overhead_pct")):
            metrics[path] = (scalar, +1)
        elif leaf == "speedup" and data.get("speedup_enforced"):
            metrics[path] = (scalar, -1)
        elif leaf in ("comparison_ratio", "batch_speedup", "query_speedup"):
            metrics[path] = (scalar, -1)
    return metrics


def compare(baseline, current, tolerance):
    """Return (compared, regressions, notes) across shared experiments."""
    base_exps = baseline.get("experiments", {})
    cur_exps = current.get("experiments", {})
    compared, regressions, notes = [], [], []

    for name in sorted(set(base_exps) - set(cur_exps)):
        notes.append(f"baseline-only experiment (not run): {name}")
    for name in sorted(set(cur_exps) - set(base_exps)):
        notes.append(f"new experiment (no baseline yet): {name}")

    for name in sorted(set(base_exps) & set(cur_exps)):
        base_metrics = tracked_metrics(base_exps[name])
        cur_metrics = tracked_metrics(cur_exps[name])
        for path in sorted(set(base_metrics) & set(cur_metrics)):
            base_value, direction = base_metrics[path]
            cur_value, _ = cur_metrics[path]
            if base_value == 0:
                notes.append(f"skipped zero baseline: {name}:{path}")
                continue
            # +1: higher is worse; -1: lower is worse.
            change = direction * (cur_value - base_value) / abs(base_value)
            entry = (name, path, base_value, cur_value, change)
            compared.append(entry)
            if change > tolerance:
                regressions.append(entry)
    return compared, regressions, notes


def append_trajectory(path, current, compared, regressions, tolerance):
    """Append one timestamped snapshot of this run to the trajectory file.

    The file holds ``{"version": 1, "runs": [...]}``; each run carries the
    compared metric values keyed ``experiment:metric.path`` plus which of
    them regressed.  Corrupt or legacy files are restarted rather than
    crashed on — the trajectory is a convenience log, not a gate.
    """
    import datetime

    doc = {"version": 1, "runs": []}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                loaded = json.load(handle)
            if isinstance(loaded, dict) and isinstance(loaded.get("runs"),
                                                       list):
                doc = loaded
        except (OSError, ValueError):
            pass
    doc["runs"].append({
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "experiment_count": len(current.get("experiments", {})),
        "tolerance": tolerance,
        "metrics": {f"{name}:{metric}": cur
                    for name, metric, _base, cur, _change in compared},
        "regressed": [f"{name}:{metric}"
                      for name, metric, _base, _cur, _change in regressions],
    })
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="fail when benchmark metrics regress past the baseline")
    parser.add_argument("--current", default=DEFAULT_CURRENT)
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed relative regression (default 0.2 = 20%%)")
    parser.add_argument("--trajectory", default=DEFAULT_TRAJECTORY,
                        help="per-run snapshot log "
                             "(default benchmarks/BENCH_trajectory.json)")
    parser.add_argument("--no-trajectory", action="store_true",
                        help="skip appending this run to the trajectory log")
    args = parser.parse_args(argv)

    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.current) as handle:
        current = json.load(handle)

    compared, regressions, notes = compare(baseline, current, args.tolerance)

    if not args.no_trajectory:
        append_trajectory(args.trajectory, current, compared, regressions,
                          args.tolerance)

    for note in notes:
        print(f"note: {note}")
    for name, path, base_value, cur_value, change in compared:
        flag = " REGRESSED" if change > args.tolerance else ""
        print(f"{name}:{path}: {base_value:g} -> {cur_value:g} "
              f"({change:+.1%}){flag}")

    if not compared:
        print("error: no comparable metrics between baseline and current "
              "summaries", file=sys.stderr)
        return 2
    if regressions:
        print(f"\n{len(regressions)} metric(s) regressed more than "
              f"{args.tolerance:.0%}:", file=sys.stderr)
        for name, path, base_value, cur_value, change in regressions:
            print(f"  {name}:{path}: {base_value:g} -> {cur_value:g} "
                  f"({change:+.1%})", file=sys.stderr)
        return 1
    print(f"\nOK: {len(compared)} metric(s) within {args.tolerance:.0%} "
          f"of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
