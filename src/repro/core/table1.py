"""One-call reproduction of the paper's Table 1.

``reproduce_table1`` measures, for each of the six intra-domain policies,
the worst-case per-node table size of the best admissible scheme over a
family of growing random graphs, fits the scaling class, and sets it next
to the theoretical classification — producing the empirical version of:

    ==================== ============== ====================
    Algebra              Properties     Local memory
    ==================== ============== ====================
    Shortest path        SM, I          Theta(n)
    Widest path          S, I, M        Theta(log n)
    Most reliable path   SM, I          Theta(n)
    Usable path          S, I, M        Theta(log n)
    Widest-shortest path SM, I          Theta(n)
    Shortest-widest path SM, not-I      Omega(n)
    ==================== ============== ====================

Exposed on the command line as ``python -m repro table1``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.algebra.catalog import (
    MostReliablePath,
    ShortestPath,
    UsablePath,
    WidestPath,
)
from repro.algebra.lexicographic import shortest_widest_path, widest_shortest_path
from repro.core.classify import Classification, classify
from repro.core.compiler import build_scheme
from repro.core.scaling import ScalingFit, fit_scaling
from repro.graphs.generators import erdos_renyi
from repro.graphs.weighting import assign_random_weights
from repro.paths.store import PreferredWeightOracle
from repro.routing.memory import memory_report


@dataclass(frozen=True)
class Table1Row:
    """One measured row of the reproduced Table 1."""

    policy: str
    properties: str
    paper_class: str
    measurements: Tuple[Tuple[int, int], ...]  # (n, max bits)
    fit: ScalingFit
    classification: Classification

    def formatted(self) -> str:
        bits = "  ".join(f"{n}:{b}b" for n, b in self.measurements)
        return (
            f"{self.policy:<22s} [{self.properties:<12s}] "
            f"paper={self.paper_class:<28s} measured[{bits}] {self.fit.summary()}"
        )


def _catalog(max_weight: int):
    return [
        (ShortestPath(max_weight), None, "Theta(n)"),
        (WidestPath(max_weight), None, "Theta(log n)"),
        (MostReliablePath(denominator=max_weight), True, "Theta(n)"),
        (UsablePath(), None, "Theta(log n)"),
        (widest_shortest_path(max_weight, max_weight), None, "Theta(n)"),
        (shortest_widest_path(max_weight, max_weight), None, "Omega(n)"),
    ]


def reproduce_table1(sizes: Sequence[int] = (32, 64, 128),
                     sw_sizes: Sequence[int] = (16, 24, 32),
                     seed: int = 0, max_weight: int = 32) -> List[Table1Row]:
    """Measure every Table 1 row; returns the rows in the paper's order.

    *sw_sizes* bounds the shortest-widest instance sizes separately (its
    pair-table scheme is quadratic in both time and space).
    """
    rows = []
    for algebra, sm_witness, paper_class in _catalog(max_weight):
        is_sw = algebra.name == "shortest-widest-path"
        ns = sw_sizes if is_sw else sizes
        measurements = []
        for n in ns:
            rng = random.Random(seed + n)
            graph = erdos_renyi(n, rng=rng)
            assign_random_weights(graph, algebra, rng=rng)
            # Build-only: a private tree store goes with the scheme, where
            # the process-wide oracle cache would keep every size's trees.
            scheme = build_scheme(graph, algebra, rng=random.Random(seed + n + 1),
                                  oracle=PreferredWeightOracle(graph, algebra))
            measurements.append((n, memory_report(scheme).max_bits))
        fit = fit_scaling(*zip(*measurements))
        verdict = classify(algebra, sm_subalgebra_witness=bool(sm_witness))
        rows.append(Table1Row(
            policy=algebra.name,
            properties=verdict.profile.summary(),
            paper_class=paper_class,
            measurements=tuple(measurements),
            fit=fit,
            classification=verdict,
        ))
    return rows


def format_table1(rows: List[Table1Row]) -> str:
    """A printable reproduction of Table 1."""
    lines = [
        "Table 1 — local memory requirements (paper vs measured)",
        "-" * 100,
    ]
    lines.extend(row.formatted() for row in rows)
    return "\n".join(lines)
