"""Routing-as-a-service: a long-lived, churn-surviving query layer.

Every batch entry point (``run_experiment``, the CLI subcommands) rebuilds
the scheme, oracle and compiled graph from scratch per call.  This package
is the amortized counterpart: a :class:`RoutingService` builds that state
**once** and answers batched ``route``/``stretch``/``memory`` queries from
the warm structures, while ``update_weight``/``fail_link``/``restore_link``
keep it correct under churn by surgically invalidating only the per-source
trees the change can affect (see
:meth:`repro.paths.store.PreferredWeightOracle.invalidate_edge`) and
rebuilding the compact scheme lazily on the next query.  Answers are
bit-identical to a cold service constructed from the mutated graph.

The service fronts two transports: the in-process Python API here, and the
``repro serve`` CLI speaking line-delimited JSON over stdin/stdout or a
TCP socket (:mod:`repro.service.server`); the wire codec lives in
:mod:`repro.service.wire`.  See ``docs/SERVICE.md`` for the lifecycle,
invalidation semantics and wire format.
"""

from repro.service.service import (
    RouteAnswer,
    RoutingService,
    ServiceOptions,
    UpdateResult,
)
from repro.service.wire import decode_request, encode_response, handle_request
from repro.service.server import serve_lines, serve_socket, serve_stdio

__all__ = [
    "RouteAnswer",
    "RoutingService",
    "ServiceOptions",
    "UpdateResult",
    "decode_request",
    "encode_response",
    "handle_request",
    "serve_lines",
    "serve_socket",
    "serve_stdio",
]
