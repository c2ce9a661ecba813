"""The pinned golden instances the regression harness records.

Every case is fully determined by its ``seed``: the topology, the edge
weights, any randomized construction step (Cowen landmark selection) and
the routed pair set all derive from ``random.Random`` instances seeded
from it, so a recording made on one machine replays bit-for-bit on
another.  The suite deliberately spans every scheme family the compiler
can emit — each has a distinct node/header shape, which is exactly what
the lossless codec must round-trip:

===========================  ==========================================
case                         scheme / header shape
===========================  ==========================================
``fig1c-shortest-path``      destination tables; int target header
``thm4-shortest-widest``     pair tables; ``(source, target)`` header
``bgp-b1-provider-tree``     Thm 6 tree scheme; ``(dfs, light-ports)``
``bgp-b2-coned``             Thm 7 cone scheme; ``(root, tree label)``
``cowen-er-shortest-path``   Thm 3 Cowen; ``(target, landmark, label)``
``tree-er-widest-path``      Lemma 1 tree routing; ``(dfs, light-ports)``
``cowen-er-widest-shortest`` Thm 3 Cowen over ``S x W``; tuple weights
===========================  ==========================================

Instances are intentionally small (n <= 16): the point is decision
coverage, not load — the whole suite records in seconds so it can run on
every PR.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.algebra import (
    ShortestPath,
    WidestPath,
    provider_customer_algebra,
    shortest_widest_path,
    valley_free_algebra,
    widest_shortest_path,
)
from repro.graphs import (
    assign_random_weights,
    coned_as_topology,
    erdos_renyi,
    fig1c,
    fig2_instance,
    provider_tree_topology,
)
from repro.lowerbounds import shortest_widest_condition1_weights


@dataclass(frozen=True)
class GoldenCase:
    """One pinned (graph, algebra, scheme-mode) instance of the suite."""

    name: str
    description: str
    seed: int
    mode: str
    build: Callable[[random.Random], Tuple]  # rng -> (graph, algebra)

    def instance(self):
        """The case's ``(graph, algebra)``, rebuilt from the pinned seed."""
        return self.build(random.Random(self.seed))

    def scheme_rng(self) -> random.Random:
        """The rng for scheme construction (landmark selection etc.)."""
        return random.Random(self.seed + 1)

    def pairs(self, graph) -> List[Tuple]:
        """The routed pair set: all ordered pairs in sorted-node order."""
        nodes = sorted(graph.nodes())
        return [(s, t) for s in nodes for t in nodes if s != t]


def _fig1c(rng: random.Random):
    # Lemma 1's Fig. 1c 4-cycle with the equal-preference weights the
    # proof uses; ShortestPath is regular, so `auto` compiles to exact
    # destination tables.
    return fig1c(2, 2), ShortestPath()


def _thm4(rng: random.Random):
    # The Section 4.2 incompressibility family for shortest-widest at
    # (p=2, delta=2, k=2): non-isotone, so the compiler emits pair tables.
    weights = shortest_widest_condition1_weights(2, 2)
    instance = fig2_instance(2, 2, weights)
    return instance.graph, shortest_widest_path()


def _bgp_b1(rng: random.Random):
    return (provider_tree_topology(12, rng=rng, max_providers=2),
            provider_customer_algebra())


def _bgp_b2(rng: random.Random):
    return (coned_as_topology(2, 2, 3, rng=rng),
            valley_free_algebra())


def _cowen_er(rng: random.Random):
    graph = erdos_renyi(16, rng=rng)
    assign_random_weights(graph, ShortestPath(), rng=rng)
    return graph, ShortestPath()


def _tree_er(rng: random.Random):
    graph = erdos_renyi(14, rng=rng)
    assign_random_weights(graph, WidestPath(), rng=rng)
    return graph, WidestPath()


def _cowen_ws(rng: random.Random):
    graph = erdos_renyi(16, rng=rng)
    assign_random_weights(graph, widest_shortest_path(), rng=rng)
    return graph, widest_shortest_path()


GOLDEN_CASES: Tuple[GoldenCase, ...] = (
    GoldenCase(
        name="fig1c-shortest-path",
        description="Fig. 1c 4-cycle, shortest path, destination tables",
        seed=1101, mode="auto", build=_fig1c,
    ),
    GoldenCase(
        name="thm4-shortest-widest",
        description="Theorem 4 Fig. 2 family (p=2, delta=2, k=2), "
                    "shortest-widest pair tables",
        seed=1102, mode="auto", build=_thm4,
    ),
    GoldenCase(
        name="bgp-b1-provider-tree",
        description="B1 provider-customer hierarchy (n=12), Theorem 6 tree scheme",
        seed=1103, mode="auto", build=_bgp_b1,
    ),
    GoldenCase(
        name="bgp-b2-coned",
        description="B2 valley-free coned AS topology, Theorem 7 cone scheme",
        seed=1104, mode="auto", build=_bgp_b2,
    ),
    GoldenCase(
        name="cowen-er-shortest-path",
        description="Seeded ER (n=16), shortest path, Theorem 3 Cowen "
                    "stretch-3 landmarks",
        seed=1105, mode="compact", build=_cowen_er,
    ),
    GoldenCase(
        name="tree-er-widest-path",
        description="Seeded ER (n=14), widest path (selective), Lemma 1 "
                    "tree routing",
        seed=1106, mode="auto", build=_tree_er,
    ),
    GoldenCase(
        name="cowen-er-widest-shortest",
        description="Seeded ER (n=16), widest-shortest path (S x W), "
                    "Theorem 3 Cowen stretch-3 landmarks",
        seed=1107, mode="compact", build=_cowen_ws,
    ),
)


def case_by_name(name: str) -> GoldenCase:
    for case in GOLDEN_CASES:
        if case.name == name:
            return case
    known = ", ".join(case.name for case in GOLDEN_CASES)
    raise KeyError(f"unknown golden case {name!r}; known cases: {known}")
