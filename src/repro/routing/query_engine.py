"""Query-engine selection: the compiled walk vs the per-pair referee.

`repro.core.simulate.route_shard` evaluates a shard of (source, target)
pairs.  Two engines produce bit-identical results:

* ``"batch"`` (the default) — compile the built scheme's tables once into
  flat numpy int arrays (:mod:`repro.routing.compiled_query`) and walk an
  entire shard of pairs per vectorized step, folding each walk's integer
  edge keys with the algebra's key combine and decoding realized weights
  only at emit time;
* ``"reference"`` — the referee, :func:`repro.core.simulate._reference_shard`:
  one :meth:`~repro.routing.model.RoutingScheme.route` call per pair,
  hop by hop through Python ``local_decision`` evaluations.

The walk runs whether or not telemetry, run events or a trace capture is
on, and steps aside only when it cannot reproduce the referee
bit-for-bit: no numpy (the ``repro[fast]`` optional extra), an algebra
other than the scheme's, an algebra without an integer key combine (or
whose keys could overflow int64), or an unsupported scheme family.
Every such step-down is counted on ``query_engine.batch_fallbacks``
(tagged with a reason) and on the process-local :func:`query_stats`;
the ``query_engine.*_pairs`` counters, which merge from workers, tell
:func:`engines_ran` which engines a run used.

``REPRO_QUERY_ENGINE=reference`` only selects the referee for every
shard (perfbench's reference replay does); it is read by
:func:`repro.env.env_choice`: explicit argument > environment >
default, with a one-time ``RuntimeWarning`` on unrecognized
environment values.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.env import env_choice
from repro.obs.metrics import enabled as _telemetry_enabled
from repro.obs.metrics import metrics as _telemetry

#: Environment variable selecting the query engine (see EVALUATION_API.md).
QUERY_ENGINE_ENV = "REPRO_QUERY_ENGINE"

_QUERY_ALIASES = {
    "": "batch",
    "auto": "batch",
    "default": "batch",
    "batch": "batch",
    "vectorized": "batch",
    "reference": "reference",
    "loop": "reference",
    "seed": "reference",
}

#: Process-local engine usage counters, always on (one dict update per
#: *shard*, not per pair).  Workers never send them back; the telemetry
#: counters :func:`engines_ran` reads do merge.
_STATS: Dict[str, object] = {
    "batch_shards": 0,
    "batch_pairs": 0,
    "reference_pairs": 0,
    "fallbacks": {},
}


def resolve_query_engine(engine: Optional[str] = None) -> str:
    """The canonical query-engine choice: explicit arg > environment > default.

    Returns ``"batch"`` (vectorized shard evaluation where eligible,
    the referee otherwise) or ``"reference"`` (the referee).  An
    unrecognized *explicit* argument raises ``ValueError``; an
    unrecognized environment value applies the default ``batch`` after a
    one-time ``RuntimeWarning`` (see :func:`repro.env.env_choice`).
    """
    return env_choice(QUERY_ENGINE_ENV, _QUERY_ALIASES, engine)


def count_query_fallback(reason: str, pairs: int = 0) -> None:
    """One shard (or pair) stepped down to the referee, and why."""
    fallbacks = _STATS["fallbacks"]
    fallbacks[reason] = fallbacks.get(reason, 0) + 1
    if pairs:
        _STATS["reference_pairs"] += int(pairs)
    if _telemetry_enabled():
        _telemetry().counter("query_engine.batch_fallbacks",
                             reason=reason).inc()


def note_batch_shard(pairs: int) -> None:
    """One shard ran through the vectorized engine end to end."""
    _STATS["batch_shards"] += 1
    _STATS["batch_pairs"] += int(pairs)
    _telemetry().counter("query_engine.batch_pairs").inc(int(pairs))


def engines_ran(counters: Dict[str, object]) -> Optional[str]:
    """The query engines a telemetry snapshot's *counters* saw run:
    ``batch``, ``reference`` or ``batch+reference``; None for neither."""
    return "+".join(engine for engine in ("batch", "reference")
                    if counters.get(f"query_engine.{engine}_pairs")) or None


def query_stats() -> Dict[str, object]:
    """A snapshot of the process-local engine usage counters."""
    return {
        "batch_shards": _STATS["batch_shards"],
        "batch_pairs": _STATS["batch_pairs"],
        "reference_pairs": _STATS["reference_pairs"],
        "fallbacks": dict(_STATS["fallbacks"]),
    }


def reset_query_stats() -> None:
    """Zero the process-local counters (tests and profile runs)."""
    _STATS["batch_shards"] = 0
    _STATS["batch_pairs"] = 0
    _STATS["reference_pairs"] = 0
    _STATS["fallbacks"] = {}
