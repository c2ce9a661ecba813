"""Query-engine selection: the vectorized pair evaluator vs the seed loop.

`repro.core.simulate.route_shard` evaluates a shard of (source, target)
pairs.  Two engines produce bit-identical results:

* ``"batch"`` (the default) — compile the built scheme's tables once into
  flat numpy int arrays (:mod:`repro.routing.compiled_query`) and walk an
  entire shard of pairs per vectorized step, folding each walk's integer
  edge keys with the algebra's key combine and decoding realized weights
  only at emit time;
* ``"reference"`` — the seed per-pair loop: one
  :meth:`~repro.routing.model.RoutingScheme.route` call per pair, hop by
  hop through Python ``local_decision`` evaluations.

The batch engine is a pure throughput play and silently steps aside
whenever it cannot reproduce the reference bit-for-bit: no numpy (the
``repro[fast]`` optional extra), an algebra without an integer key
combine (or whose keys could overflow int64), an unsupported scheme
family, or any run that needs
hop-level fidelity — active packet-trace capture and telemetry-enabled
runs always take the reference loop, so traces and per-pair histograms
keep their exact per-hop semantics.  Every such step-down is counted on
``query_engine.batch_fallbacks`` (tagged with a reason) and on the
process-local stats served to ``repro profile``'s ``query`` block.

The choice is read by :func:`repro.env.env_choice`: explicit argument >
``REPRO_QUERY_ENGINE`` environment > default, with a one-time
``RuntimeWarning`` on unrecognized environment values.
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

#: Process-local engine usage counters.  Unlike the telemetry registry these
#: are always on (they cost one dict update per *shard*, not per pair) —
#: the batch engine only runs with telemetry disabled, so a metric-only
#: account would never see its successes.
_STATS: Dict[str, object] = {
    "batch_shards": 0,
    "batch_pairs": 0,
    "reference_pairs": 0,
    "fallbacks": {},
}


def resolve_query_engine(engine: Optional[str] = None) -> str:
    """The canonical query-engine choice: explicit arg > environment > default.

    Returns ``"batch"`` (vectorized shard evaluation where eligible,
    reference otherwise) or ``"reference"`` (the seed per-pair loop).  An
    unrecognized *explicit* argument raises ``ValueError``; an
    unrecognized environment value applies the default ``batch`` after a
    one-time ``RuntimeWarning`` (see :func:`repro.env.env_choice`).
    """
    return env_choice(QUERY_ENGINE_ENV, _QUERY_ALIASES, engine)


def count_query_fallback(reason: str, pairs: int = 0) -> None:
    """One shard (or pair) stepped down to the reference loop, and why."""
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
