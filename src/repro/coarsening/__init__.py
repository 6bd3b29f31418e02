"""Graph coarsening: MultiEdgeCollapse (sequential + parallel), MILE baseline, hierarchy."""

from .hierarchy import CoarseningHierarchy, expand_embedding, project_vertex_sets
from .metrics import (
    CoarseningReport,
    edge_retention,
    hub_merge_count,
    shrink_rates,
    summarize,
    super_vertex_balance,
)
from .mile_coarsening import heavy_edge_matching_once, mile_coarsen, structural_equivalence_groups
from .multi_edge_collapse import (
    DEFAULT_THRESHOLD,
    CoarseningResult,
    coarsen_graph,
    collapse_once,
    degree_order,
    multi_edge_collapse,
)
from .parallel_collapse import (
    compact_mapping,
    parallel_collapse_once,
    parallel_multi_edge_collapse,
)

__all__ = [
    "CoarseningHierarchy",
    "expand_embedding",
    "project_vertex_sets",
    "CoarseningReport",
    "edge_retention",
    "hub_merge_count",
    "shrink_rates",
    "summarize",
    "super_vertex_balance",
    "heavy_edge_matching_once",
    "mile_coarsen",
    "structural_equivalence_groups",
    "DEFAULT_THRESHOLD",
    "CoarseningResult",
    "coarsen_graph",
    "collapse_once",
    "degree_order",
    "multi_edge_collapse",
    "compact_mapping",
    "parallel_collapse_once",
    "parallel_multi_edge_collapse",
]
