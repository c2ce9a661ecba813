"""Scheme selection: from an algebra's properties to a runnable scheme.

``build_scheme`` is the library's "compiler": it inspects the algebra's
declared properties and picks the best admissible routing scheme, exactly
following the paper's classification —

=============================  =======================================
algebra                        scheme
=============================  =======================================
selective + monotone           tree routing on the Lemma 1 tree
regular (exact routing)        destination tables (Observation 1)
regular + delimited (compact)  generalized Cowen stretch-3 (Theorem 3)
non-isotone                    source-destination pair tables
B1/B2 under A1 + A2            the Theorem 6 / Theorem 7 tree schemes
=============================  =======================================

The destination-table, Cowen and pair-table schemes read their paths
from the tree store
(:class:`~repro.paths.store.PreferredWeightOracle`), which picks the
exact solver for the algebra.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.algebra.base import RoutingAlgebra
from repro.algebra.bgp import PEER, BGPAlgebra
from repro.exceptions import NotApplicableError
from repro.graphs.weighting import WEIGHT_ATTR
from repro.obs.tracing import span
from repro.paths.store import oracle_cache
from repro.routing.bgp_schemes import B1TreeScheme, B2ConeScheme
from repro.routing.cowen import CowenScheme
from repro.routing.destination_table import DestinationTableScheme
from repro.routing.model import RoutingScheme
from repro.routing.pair_table import PairTableScheme
from repro.routing.tree_routing import TreeRoutingScheme

MODES = ("auto", "exact", "compact")


def _build_bgp(graph, algebra, attr):
    has_peers = any(data[attr] == PEER for _, _, data in graph.edges(data=True))
    if has_peers:
        return B2ConeScheme(graph, algebra, attr=attr)
    return B1TreeScheme(graph, algebra, attr=attr)


def build_scheme(graph, algebra: RoutingAlgebra, mode: str = "auto",
                 attr: str = WEIGHT_ATTR, rng=None, oracle=None,
                 **kwargs) -> RoutingScheme:
    """Build the routing scheme the paper's theory prescribes for *algebra*.

    *rng* seeds any randomized construction step (Cowen landmark
    selection); an int seed or a ``random.Random`` are both accepted, so
    one recorded seed reproduces the built scheme.

    *mode*:

    * ``"exact"`` — the best scheme that routes on preferred paths only;
    * ``"compact"`` — the best sublinear scheme, trading stretch for
      memory where the theory allows (Theorem 3);
    * ``"auto"`` — ``exact``, upgraded to the compact scheme when that
      is exact anyway (selective algebras).

    The Cowen, destination-table and pair-table schemes need preferred
    paths from every node.  They take them from a tree store, the
    :class:`~repro.paths.store.PreferredWeightOracle` *oracle*, which
    picks the solver for the algebra and builds trees in batched sweeps
    over one compiled graph.  By default that is the oracle
    :func:`~repro.core.simulate.evaluate_scheme` reads (from
    :data:`~repro.paths.store.oracle_cache`), so evaluation finds every
    tree and path already built.  A caller that keeps its own oracle
    (the routing service) passes it in, and a rebuild after an edge
    change reuses every tree its invalidation kept.

    Raises :class:`NotApplicableError` when no scheme in the catalog can
    implement the algebra on this graph (the honest outcome for, e.g., the
    un-assumed B3 policy, per Theorem 8).

    With telemetry on, the whole compilation runs inside a
    ``build_scheme`` span; the schemes themselves time their internal
    phases (preferred-tree construction, landmark selection, table
    encoding) as nested spans.
    """
    from repro.core.simulate import as_rng

    with span("build_scheme", algebra=algebra.name, mode=mode):
        return _build_scheme(graph, algebra, mode=mode, attr=attr,
                             rng=as_rng(rng), oracle=oracle, **kwargs)


def _build_scheme(graph, algebra: RoutingAlgebra, mode: str, attr: str,
                  rng: Optional[random.Random], oracle,
                  **kwargs) -> RoutingScheme:
    if mode not in MODES:
        raise NotApplicableError(f"unknown mode {mode!r}; pick one of {MODES}")
    declared = algebra.declared_properties()

    if isinstance(algebra, BGPAlgebra):
        # Theorems 6/7 schemes validate A1 + A2 structure themselves; B3's
        # ranked preference admits no compact scheme (Theorem 8), so only
        # the linear-memory RIB (what BGP actually deploys) is available.
        if len(set(algebra.ranks.values())) > 1:
            if mode == "compact":
                raise NotApplicableError(
                    f"{algebra.name}: ranked BGP preferences are incompressible "
                    f"even under A1 + A2 (Theorem 8); no compact scheme exists — "
                    f"use mode='exact' for the Theta(n)-bit RIB"
                )
            from repro.protocols.path_vector import PathVectorSimulation
            from repro.routing.bgp_rib import RIBScheme

            simulation = PathVectorSimulation(graph, algebra, attr=attr)
            if not simulation.run().converged:
                raise NotApplicableError(
                    f"{algebra.name}: path-vector routing did not converge on "
                    f"this topology; no stable RIB exists"
                )
            return RIBScheme(simulation)
        return _build_bgp(graph, algebra, attr)

    if declared.selective and declared.monotone:
        return TreeRoutingScheme(graph, algebra, attr=attr)

    if declared.regular:
        if mode == "compact" and not declared.delimited:
            raise NotApplicableError(
                f"{algebra.name}: Theorem 3's compact scheme needs delimitedness"
            )
        if mode == "compact":
            scheme_class, options = CowenScheme, dict(rng=rng, **kwargs)
        else:
            scheme_class, options = DestinationTableScheme, {}
    elif declared.isotone is False:
        scheme_class, options = PairTableScheme, {}
    else:
        raise NotApplicableError(
            f"no scheme known for {algebra.name} with profile "
            f"[{declared.summary()}]"
        )
    if oracle is None:
        oracle = oracle_cache.get(graph, algebra, attr=attr,
                                  scheme_name=scheme_class.name)
    return scheme_class(graph, algebra, attr=attr, oracle=oracle, **options)
