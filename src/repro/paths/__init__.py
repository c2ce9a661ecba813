"""Preferred-path engines: generalized Dijkstra, BGP automaton, SW solver,
exhaustive enumeration, and the Lemma 1 spanning tree."""

from repro.paths.batch import (
    BatchPlan,
    BatchStats,
    batch_plan,
    batch_trees,
    numpy_available,
)
from repro.paths.dijkstra import (
    PathTree,
    preferred_path_tree,
)
from repro.paths.kernel import (
    CompiledGraph,
    KernelStats,
    compile_graph,
    kernel_tree,
    node_ranks,
    resolve_engine,
)
from repro.paths.enumerate import (
    PreferredPath,
    all_preferred_by_enumeration,
    preferred_by_enumeration,
    preferred_weight_matrix,
)
from repro.paths.kpaths import k_preferred_paths, preferred_tie_set
from repro.paths.shortest_widest import (
    SWRoute,
    all_pairs_shortest_widest,
    shortest_widest_routes,
    widest_bottlenecks,
)
from repro.paths.spanning_tree import (
    DisjointSet,
    maps_to_tree,
    preferred_spanning_tree,
    tree_path,
)
from repro.paths.valley_free import (
    BGPRoute,
    all_pairs_bgp_routes,
    bgp_routes,
    valley_free_reachable_sets,
)

__all__ = [
    "BatchPlan",
    "BatchStats",
    "batch_plan",
    "batch_trees",
    "numpy_available",
    "PathTree",
    "preferred_path_tree",
    "CompiledGraph",
    "KernelStats",
    "compile_graph",
    "kernel_tree",
    "node_ranks",
    "resolve_engine",
    "PreferredPath",
    "all_preferred_by_enumeration",
    "preferred_by_enumeration",
    "preferred_weight_matrix",
    "k_preferred_paths",
    "preferred_tie_set",
    "SWRoute",
    "all_pairs_shortest_widest",
    "shortest_widest_routes",
    "widest_bottlenecks",
    "DisjointSet",
    "maps_to_tree",
    "preferred_spanning_tree",
    "tree_path",
    "BGPRoute",
    "all_pairs_bgp_routes",
    "bgp_routes",
    "valley_free_reachable_sets",
]
