"""Generalized Dijkstra for regular routing algebras (Section 2.4).

For monotone and isotone (= regular, Definition 1) algebras the preferred
paths emanating from a node form a tree and can be computed in polynomial
time by a generalization of Dijkstra's algorithm [Sobrinho 2002]: the
priority queue orders tentative path weights by the algebra's ⪯ instead of
numeric <.

Monotonicity plays the role of non-negative edge weights (extending a path
never improves it) and isotonicity guarantees that settled labels are
final.  The implementation refuses algebras *declared* non-isotone unless
``unsafe=True``; for undeclared algebras it proceeds (callers can validate
results against :mod:`repro.paths.enumerate` on small instances).

Three engines produce the same preferred weights and parents, and the
tree store (:class:`repro.paths.store.PreferredWeightOracle`) alone
decides which one builds a tree:

* the **batch** engine (:mod:`repro.paths.batch`) runs vectorized numpy
  sweeps over CSR-flattened arrays for monotone algebras with an integer
  key combine (shortest, widest, widest-shortest and shortest-widest
  path among them); the store runs it when two or more sources are
  missing and the algebra has a batch plan;
* the **compiled kernel** (:mod:`repro.paths.kernel`) runs one Python
  sweep per source over the same arrays, with a Dial-style bucketed
  frontier when the algebra declares an integer key embedding and the
  reference heap otherwise; the store runs it for every other build, and
  :func:`preferred_path_tree` always runs it;
* the **reference** engine, :func:`_reference_tree`, walks the networkx
  adjacency dicts with a ``_HeapEntry`` heap — the seed implementation,
  kept as the referee that tests and the E-KRN benchmark call by name.

The batch and kernel engines return a tree as rows over the compiled
node index, the tree store's one format
(:class:`~repro.paths.kernel.KernelRun`); :meth:`PathTree.from_rows`
makes node-keyed maps of them, in node-index order, for the callers
that ask for maps.  The referee's maps are in first-relaxation order, so
maps compare by content.

All-pairs work should not call :func:`preferred_path_tree` once per
source: the store builds every source's tree in batched sweeps over one
compiled graph, and the schemes :func:`repro.core.compiler.build_scheme`
makes read their trees from it.

See ``docs/PERFORMANCE.md`` for the selection rules and counters.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.algebra.base import PHI, RoutingAlgebra, Weight, is_phi
from repro.exceptions import AlgebraError
from repro.frozen import FrozenTable
from repro.graphs.weighting import WEIGHT_ATTR
from repro.paths.kernel import (  # noqa: F401  (re-exported for compat)
    CompiledGraph,
    KernelRun,
    KernelStats,
    _HeapEntry,
    compile_graph,
    emit_stats,
    kernel_tree,
)


@dataclass(frozen=True)
class PathTree:
    """Preferred paths from *root* to every reachable node.

    ``weight[v]`` is the preferred path weight (absent if unreachable;
    ``weight[root]`` is absent too, since the empty path has no weight in a
    semigroup), ``parent[v]`` is the penultimate node on the preferred
    root→v path.  Both maps are read-only
    (:class:`~repro.frozen.FrozenTable`).
    """

    root: object
    weight: Dict[object, Weight]
    parent: Dict[object, object]

    @classmethod
    def from_rows(cls, root, nodes: Sequence, weight: Sequence,
                  parent: Sequence[int]) -> "PathTree":
        """The tree whose rows over *nodes* are *weight* and *parent*
        (:class:`~repro.paths.kernel.KernelRun`), as maps in node-index
        order."""
        reached = [i for i, up in enumerate(parent) if up >= 0]
        keys = [nodes[i] for i in reached]
        return cls(root,
                   FrozenTable(zip(keys, map(weight.__getitem__, reached))),
                   FrozenTable(zip(keys, [nodes[parent[i]] for i in reached])))

    def path_to(self, target) -> Optional[list]:
        """The preferred root→target node sequence, or None if unreachable."""
        if target == self.root:
            return [self.root]
        if target not in self.parent:
            return None
        path = [target]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        path.reverse()
        return path

    def reachable(self):
        """Nodes with a traversable preferred path from the root."""
        return set(self.weight)


def preferred_path_tree(graph, algebra: RoutingAlgebra, root, attr: str = WEIGHT_ATTR,
                        unsafe: bool = False, *,
                        compiled: Optional[CompiledGraph] = None) -> PathTree:
    """Run generalized Dijkstra from *root* on the kernel; returns a :class:`PathTree`.

    Works on undirected graphs (and digraphs, following out-edges).  For
    right-associative algebras use :mod:`repro.paths.valley_free` instead —
    path-vector composition does not grow from the source side.

    Pass a pre-built *compiled* graph (from :func:`compile_graph`) to
    amortize flattening across per-source runs; single-shot callers can
    omit it.  Trees for many sources come cheaper from the tree store.
    """
    if compiled is None:
        compiled = compile_graph(graph, attr)
    elif compiled.attr != attr:
        raise ValueError(
            f"compiled graph flattened attr {compiled.attr!r}, requested {attr!r}"
        )
    run = preferred_path_rows(compiled, algebra, root, unsafe=unsafe)
    return PathTree.from_rows(root, compiled.nodes, run.weight, run.parent)


def preferred_path_rows(compiled: CompiledGraph, algebra: RoutingAlgebra,
                        root, unsafe: bool = False) -> KernelRun:
    """:func:`preferred_path_tree`'s kernel run, as rows over the compiled
    node index: the tree store's format, with the same checks."""
    if algebra.is_right_associative:
        raise AlgebraError(
            f"{algebra.name} is right-associative; use the valley-free path engine"
        )
    declared = algebra.declared_properties()
    if not unsafe and (declared.monotone is False or declared.isotone is False):
        raise AlgebraError(
            f"generalized Dijkstra requires a regular algebra; {algebra.name} declares "
            f"monotone={declared.monotone}, isotone={declared.isotone} "
            f"(pass unsafe=True to force)"
        )
    if root not in compiled.node_index:
        raise AlgebraError(f"root {root!r} not in graph")
    run = kernel_tree(compiled, algebra, root)
    emit_stats(run.stats)
    return run


def _reference_tree(graph, algebra: RoutingAlgebra, root,
                    attr: str = WEIGHT_ATTR) -> PathTree:
    """The seed engine: adjacency-dict walk with a ``_HeapEntry`` heap."""
    neighbors = graph.neighbors if not graph.is_directed() else graph.successors
    weight: Dict[object, Weight] = {}
    parent: Dict[object, object] = {}
    settled = set()
    counter = itertools.count()
    heap = []
    keyfn = algebra.comparison_key()
    relaxations = 0
    pushes = 0
    stale = 0

    # Seed with the root's incident edges: the empty path has no weight
    # (semigroups lack an identity), so distances start at one edge.
    settled.add(root)
    for v in neighbors(root):
        w = graph[root][v][attr]
        if v == root or is_phi(w):
            continue  # a loop at the root labels nothing
        relaxations += 1
        if v not in weight or algebra.lt(w, weight[v]):
            weight[v] = w
            parent[v] = root
            heapq.heappush(heap, _HeapEntry(keyfn(w), w, next(counter), v))
            pushes += 1

    while heap:
        entry = heapq.heappop(heap)
        u = entry.node
        if u in settled or not algebra.eq(entry.weight, weight.get(u, PHI)):
            stale += 1
            continue
        settled.add(u)
        for v in neighbors(u):
            if v in settled:
                continue
            edge_weight = graph[u][v][attr]
            if is_phi(edge_weight):
                continue
            relaxations += 1
            candidate = algebra.combine(weight[u], edge_weight)
            if is_phi(candidate):
                continue
            if v not in weight or algebra.lt(candidate, weight[v]):
                weight[v] = candidate
                parent[v] = u
                heapq.heappush(
                    heap, _HeapEntry(keyfn(candidate), candidate, next(counter), v))
                pushes += 1

    emit_stats(KernelStats(engine="reference", relaxations=relaxations,
                           frontier_pushes=pushes, stale_pops=stale,
                           bucket_engaged=False))
    return PathTree(root, FrozenTable(weight), FrozenTable(parent))
