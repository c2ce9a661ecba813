"""Compact Policy Routing — an executable reproduction of Retvari, Gulyas,
Heszberger, Csernai and Biro, "Compact Policy Routing" (PODC 2011).

The library makes the paper's algebraic compact-routing theory runnable:

* :mod:`repro.algebra` — routing algebras ``(W, phi, ⊕, ⪯)``, property
  checkers, the Table 1 catalog, lexicographic products (Proposition 1),
  subalgebras, Lemma 2 power machinery, and the BGP algebras B1-B4;
* :mod:`repro.graphs` — synthetic topologies, the Fig. 1 counterexamples,
  the Fig. 2 lower-bound family, and tiered AS topologies;
* :mod:`repro.paths` — preferred-path engines (generalized Dijkstra, the
  valley-free automaton, the exact shortest-widest solver, exhaustive
  enumeration) and the Lemma 1 preferred spanning tree;
* :mod:`repro.routing` — the routing-function model with bit-level memory
  accounting, and the schemes: destination tables (Observation 1), compact
  tree routing (Theorem 1), the generalized Cowen stretch-3 scheme
  (Theorem 3), pair tables for non-isotone algebras, and the Theorem 6/7
  compact BGP schemes;
* :mod:`repro.core` — algebra classification per the paper's theorems, a
  scheme compiler, end-to-end simulation, and scaling-law estimation;
* :mod:`repro.lowerbounds` — the incompressibility machinery: forwarding-
  function counting on the Fig. 2 family and the Theorem 4 condition (1)
  witnesses.

Quickstart::

    import random
    import repro
    from repro import algebra, graphs

    policy = algebra.WidestPath()
    graph = graphs.erdos_renyi(64, rng=random.Random(1))
    graphs.assign_random_weights(graph, policy, rng=random.Random(2))
    result = repro.run_experiment(
        graph, policy, mode="auto",
        options=repro.EvaluationOptions(rng=7, workers=4),
    )
    print(result.summary())

:func:`run_experiment` is the one-call evaluation facade (PR 2): it builds
the scheme the paper's theory prescribes, routes the requested pairs
(sharded across worker processes when ``workers > 1``) against the cached
exact oracle, and returns the scheme plus its
:class:`~repro.core.simulate.EvaluationReport`.  Lower-level entry points
(``core.build_scheme``, ``core.evaluate_scheme``) remain available.
"""

from repro import algebra, graphs, paths
from repro.exceptions import (
    AlgebraError,
    AxiomViolationError,
    DeliveryError,
    GraphError,
    NotApplicableError,
    ReproError,
    RoutingError,
)

__version__ = "4.0.0"

__all__ = [
    "algebra",
    "graphs",
    "paths",
    "routing",
    "core",
    "lowerbounds",
    "protocols",
    "service",
    "run_experiment",
    "EvaluationOptions",
    "EvaluationReport",
    "ExperimentResult",
    "RoutingService",
    "ServiceOptions",
    "UpdateResult",
    "AlgebraError",
    "AxiomViolationError",
    "DeliveryError",
    "GraphError",
    "NotApplicableError",
    "ReproError",
    "RoutingError",
    "__version__",
]


#: Evaluation-facade names re-exported lazily from repro.core.
_CORE_EXPORTS = (
    "run_experiment", "EvaluationOptions", "EvaluationReport",
    "ExperimentResult",
)

#: Service-layer names re-exported lazily from repro.service.
_SERVICE_EXPORTS = ("RoutingService", "ServiceOptions", "UpdateResult")


def __getattr__(name):
    # routing/core/lowerbounds import algebra+paths; lazy loading keeps the
    # top-level import light and avoids cycles during partial builds.
    import importlib

    if name in ("routing", "core", "lowerbounds", "protocols", "service"):
        module = importlib.import_module(f"repro.{name}")
        globals()[name] = module
        return module
    if name in _CORE_EXPORTS:
        core = importlib.import_module("repro.core")
        value = getattr(core, name)
        globals()[name] = value
        return value
    if name in _SERVICE_EXPORTS:
        service = importlib.import_module("repro.service")
        value = getattr(service, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
