"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table/figure/claim of the paper (see the
per-experiment index in DESIGN.md).  Results are printed AND persisted
twice under ``benchmarks/results/``:

* ``<experiment>.txt`` — the human-readable block EXPERIMENTS.md cites;
* ``<experiment>.json`` — the machine-readable payload (fitted slopes,
  memory numbers, message counts) for trend tracking.

At session end a consolidated ``summary.json`` is written covering every
experiment recorded in the run, so downstream tooling reads one file.
It covers that one session only: a run of one benchmark file rewrites it
with that file's experiments, so it is not tracked, and
``compare_baseline.py`` reads the one its own session just wrote.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: experiment name -> JSON payload, accumulated across the session.
_SUMMARY = {}


def fit_to_dict(fit):
    """Flatten a :class:`repro.core.scaling.ScalingFit` for JSON export."""
    return {
        "best_model": fit.best_model,
        "coefficient": fit.coefficient,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "loglog_slope": fit.loglog_slope,
        "per_model_r2": dict(fit.per_model_r2),
    }


def record(experiment: str, lines, data=None):
    """Print a result block and persist it under benchmarks/results/.

    *lines* feed the legacy ``.txt`` writer; *data* (any JSON-serializable
    structure) additionally lands in ``<experiment>.json`` and in the
    session-wide ``summary.json``.  Experiments recorded without *data*
    still appear in the summary with their text lines.
    """
    from repro.obs.export import write_json

    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n".join(lines)
    banner = f"\n===== {experiment} =====\n{text}\n"
    print(banner)
    with open(os.path.join(RESULTS_DIR, f"{experiment}.txt"), "w") as handle:
        handle.write(text + "\n")
    payload = {"experiment": experiment, "lines": list(lines)}
    if data is not None:
        payload["data"] = data
    write_json(os.path.join(RESULTS_DIR, f"{experiment}.json"), payload)
    _SUMMARY[experiment] = payload


def pytest_sessionfinish(session, exitstatus):
    """Consolidate everything recorded this run into results/summary.json."""
    if not _SUMMARY:
        return
    from repro.obs.export import write_benchmark_summary

    write_benchmark_summary(RESULTS_DIR, _SUMMARY,
                            extra={"exit_status": int(exitstatus)})
