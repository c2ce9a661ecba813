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

Three engines produce the (bit-identical) result:

* the **batch** engine (:mod:`repro.paths.batch`, the default for
  multi-source builds) runs vectorized numpy sweeps over CSR-flattened
  arrays for monotone algebras with an integer key combine (shortest,
  widest, widest-shortest and shortest-widest path among them), and
  hands every other algebra (or an install without numpy) to the
  kernel;
* the **compiled kernel** (:mod:`repro.paths.kernel`, the default for a
  single root) runs one Python sweep per source over the same arrays,
  with a Dial-style bucketed frontier when the algebra declares an
  integer key embedding and the reference heap otherwise;
* the **reference** engine below walks the networkx adjacency dicts with
  a ``_HeapEntry`` heap — the seed implementation, kept as the semantics
  referee and selectable with ``REPRO_PATH_ENGINE=reference``.

All-pairs work should not call :func:`preferred_path_tree` once per
source: the tree store
(:class:`repro.core.simulate.PreferredWeightOracle`) builds every
source's tree in batched sweeps over one compiled graph, and the
schemes :func:`repro.core.compiler.build_scheme` makes read their trees
from it.

See ``docs/PERFORMANCE.md`` for the selection rules and counters.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from repro.algebra.base import PHI, RoutingAlgebra, Weight, is_phi
from repro.exceptions import AlgebraError
from repro.frozen import FrozenTable
from repro.graphs.weighting import WEIGHT_ATTR
from repro.paths.kernel import (  # noqa: F401  (re-exported for compat)
    CompiledGraph,
    KernelStats,
    _HeapEntry,
    compile_graph,
    emit_stats,
    kernel_tree,
    resolve_engine,
)


@dataclass(frozen=True)
class PathTree:
    """Preferred paths from *root* to every reachable node.

    ``weight[v]`` is the preferred path weight (absent if unreachable;
    ``weight[root]`` is absent too, since the empty path has no weight in a
    semigroup), ``parent[v]`` is the penultimate node on the preferred
    root→v path.  Every engine emits both maps read-only
    (:class:`~repro.frozen.FrozenTable`): schemes forward by them.
    """

    root: object
    weight: Dict[object, Weight]
    parent: Dict[object, object]

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
                        unsafe: bool = False, *, engine: Optional[str] = None,
                        compiled: Optional[CompiledGraph] = None) -> PathTree:
    """Run generalized Dijkstra from *root*; returns a :class:`PathTree`.

    Works on undirected graphs (and digraphs, following out-edges).  For
    right-associative algebras use :mod:`repro.paths.valley_free` instead —
    path-vector composition does not grow from the source side.

    *engine* forces a path engine (``batch``, ``kernel``,
    ``reference``); by default the ``REPRO_PATH_ENGINE``
    environment override applies, falling back to the kernel (one root
    leaves the batch engine no sweep to share).  Pass a
    pre-built *compiled* graph (from :func:`compile_graph`) to amortize
    flattening across per-source runs — mandatory hygiene for all-pairs
    sweeps; single-shot callers can omit it.
    """
    _check_tree_preconditions(algebra, unsafe)
    resolved = resolve_engine(engine, single_root=True)
    if resolved == "reference" and compiled is None:
        if root not in graph:
            raise AlgebraError(f"root {root!r} not in graph")
        return _reference_tree(graph, algebra, root, attr)
    if compiled is None:
        compiled = compile_graph(graph, attr)
    elif compiled.attr != attr:
        raise ValueError(
            f"compiled graph flattened attr {compiled.attr!r}, requested {attr!r}"
        )
    if root not in compiled.node_index:
        raise AlgebraError(f"root {root!r} not in graph")
    if resolved == "batch":
        from repro.paths import batch as _batch

        plan = _batch.batch_plan(compiled, algebra)
        if plan is not None:
            run = _batch.batch_tree(compiled, algebra, root, plan=plan)
            return PathTree(root, run.weight, run.parent)
        # Per-algebra fallback: ineligible instances run the (bit-identical)
        # PR 5 kernel instead.
        _batch.count_fallback()
    run = kernel_tree(compiled, algebra, root)
    emit_stats(run.stats)
    return PathTree(root, run.weight, run.parent)


def _check_tree_preconditions(algebra: RoutingAlgebra, unsafe: bool) -> None:
    """The regularity guards shared by the per-source and bulk entry points."""
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


def _reference_tree(graph, algebra: RoutingAlgebra, root, attr: str) -> PathTree:
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
        if is_phi(w):
            continue
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


def all_pairs_preferred_weights(graph, algebra: RoutingAlgebra, attr: str = WEIGHT_ATTR,
                                unsafe: bool = False, *,
                                engine: Optional[str] = None) -> Dict[object, PathTree]:
    """Preferred path trees from every node (n runs of generalized Dijkstra).

    Eager by design: use it when every tree is genuinely needed (e.g.
    materializing a full routing table).  The graph is compiled once and
    shared across the per-source runs.  Under the default ``batch``
    engine (with an eligible algebra) all sources run through the vectorized
    multi-source sweeps of :mod:`repro.paths.batch` — identical trees,
    one chunked numpy sweep instead of n Python loops.  Evaluation
    workloads that touch only some sources should go through the lazy
    :class:`repro.core.simulate.PreferredWeightOracle` instead, which
    builds per-source trees on first query.
    """
    resolved = resolve_engine(engine)
    compiled = None
    if resolved != "reference":
        compiled = compile_graph(graph, attr)
    if resolved == "batch" and compiled is not None:
        from repro.paths import batch as _batch

        plan = _batch.batch_plan(compiled, algebra)
        if plan is not None:
            _check_tree_preconditions(algebra, unsafe)
            nodes = list(graph.nodes())
            runs = _batch.batch_trees(compiled, algebra, nodes, plan=plan)
            return {
                node: PathTree(node, run.weight, run.parent)
                for node, run in zip(nodes, runs)
            }
        _batch.count_fallback()
        resolved = "kernel"
    return {
        node: preferred_path_tree(graph, algebra, node, attr=attr, unsafe=unsafe,
                                  engine=resolved, compiled=compiled)
        for node in graph.nodes()
    }
