"""MultiEdgeCollapse — the sequential coarsening algorithm (Algorithm 4).

Given a graph ``G_i``, the algorithm produces a smaller graph ``G_{i+1}``
whose vertices are *clusters* (super vertices) of ``G_i`` vertices, plus the
mapping array ``map_i`` that records which super vertex each original vertex
belongs to.  The three key design decisions from Section 3.2:

1. **Agglomerative matching around hubs** — the vertices are processed in
   decreasing-degree order; an unmarked vertex opens a new cluster and pulls
   its unmarked neighbours into it, which preserves first- and second-order
   proximity (neighbourhoods collapse together).
2. **Hub-collision rule** — a neighbour ``u`` may only join ``v``'s cluster if
   ``|Γ(v)| ≤ δ`` or ``|Γ(u)| ≤ δ`` where ``δ = |E_i| / |V_i|``.  Merging two
   hubs destroys structural information and creates giant super vertices that
   stall further coarsening.
3. **Degree ordering** — processing high-degree vertices first stops small
   vertices from "locking" hubs into tiny clusters, maximising the shrink
   rate per level.

``coarsen_graph`` builds ``G_{i+1}`` from ``(G_i, map_i)`` by relabelling
every edge through the mapping and removing duplicates and self loops, which
is the CSR-level equivalent of the paper's ``Coarsen`` call (line 15).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..graph.csr import CSRGraph, csr_from_pair_keys, pack_keys

__all__ = [
    "CoarseningResult",
    "degree_order",
    "collapse_once",
    "coarsen_graph",
    "multi_edge_collapse",
]

#: Default stopping threshold from the paper (Section 3.2: "threshold = 100
#: is used for all the experiments ... which is the default value for Gosh").
DEFAULT_THRESHOLD = 100


@dataclass
class CoarseningResult:
    """The output of a full multilevel coarsening run.

    Attributes
    ----------
    graphs:
        ``[G_0, G_1, ..., G_{D-1}]`` — the original graph followed by each
        coarser level.
    mappings:
        ``mappings[i]`` maps vertices of ``G_i`` to vertices of ``G_{i+1}``
        (length ``|V_i|``).  There are ``D - 1`` mappings.
    level_times:
        Wall-clock seconds spent producing each coarse level (for Table 5).
    """

    graphs: list[CSRGraph]
    mappings: list[np.ndarray]
    level_times: list[float]

    @property
    def num_levels(self) -> int:
        """The paper's D — number of graphs in the hierarchy."""
        return len(self.graphs)

    @property
    def level_sizes(self) -> list[int]:
        return [g.num_vertices for g in self.graphs]

    def total_time(self) -> float:
        return float(sum(self.level_times))


def degree_order(graph: CSRGraph) -> np.ndarray:
    """Vertices in decreasing-degree order, ties broken by vertex id.

    The paper sorts by neighbourhood size so that hub vertices open clusters
    before their low-degree neighbours can lock them.  One ``np.sort`` of
    packed ``(max_degree - degree, id)`` keys gives the order a stable
    argsort of the negated degrees would.
    """
    degrees = graph.degrees
    n = degrees.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    top = int(degrees.max())
    keys = np.sort(pack_keys(top - degrees, np.arange(n), top + 1, n))
    return keys % n


def collapse_once(graph: CSRGraph, *, order: np.ndarray | None = None,
                  hub_rule: bool = True) -> tuple[np.ndarray, int]:
    """One pass of MultiEdgeCollapse mapping (lines 3–14 of Algorithm 4).

    Returns ``(mapping, num_clusters)`` where ``mapping[v]`` is the new super
    vertex id of ``v``.  ``hub_rule=False`` disables the δ-threshold check
    (used by the ablation bench).
    """
    n = graph.num_vertices
    if order is None:
        order = degree_order(graph)
    mapping = np.full(n, -1, dtype=np.int64)
    degrees = graph.degrees
    xadj, adj = graph.xadj, graph.adj
    delta = graph.num_edges / max(n, 1)
    cluster = 0
    for v in order:
        v = int(v)
        if mapping[v] != -1:
            continue
        mapping[v] = cluster
        deg_v_ok = degrees[v] <= delta
        start, end = xadj[v], xadj[v + 1]
        for idx in range(start, end):
            u = int(adj[idx])
            if mapping[u] != -1:
                continue
            if hub_rule and not (deg_v_ok or degrees[u] <= delta):
                # Two hubs: refuse the merge to keep structural information.
                continue
            mapping[u] = cluster
        cluster += 1
    return mapping, cluster


def coarsen_graph(graph: CSRGraph, mapping: np.ndarray, num_clusters: int,
                  *, name: str | None = None) -> CSRGraph:
    """Build ``G_{i+1}`` from ``G_i`` and its cluster mapping.

    Every arc ``(u, v)`` of ``G_i`` becomes ``(map[u], map[v])``; self loops
    created by intra-cluster edges are removed and parallel arcs are merged.
    The mapped arcs are packed into ``src * K + dst`` keys and sorted once
    (:func:`~repro.graph.csr.csr_from_pair_keys`).  The arcs of an undirected
    ``G_i`` come in both directions, so its mapped arcs already do too and
    are not doubled; a directed ``G_i`` is symmetrised.
    """
    if mapping.shape[0] != graph.num_vertices:
        raise ValueError("mapping must have one entry per vertex")
    if np.any(mapping < 0):
        raise ValueError("mapping contains unassigned vertices")
    k = int(num_clusters)
    if mapping.size and int(mapping.max()) >= k:
        raise ValueError(f"mapping refers to clusters outside [0, {k})")
    src = np.repeat(mapping, graph.degrees)
    dst = mapping[graph.adj]
    keep = src != dst
    keys = pack_keys(src[keep], dst[keep], k, k)
    if not graph.undirected:
        keys = np.concatenate([keys, pack_keys(dst[keep], src[keep], k, k)])
    xadj, adj = csr_from_pair_keys(k, keys, dedup=True)
    return CSRGraph(xadj=xadj, adj=adj, num_vertices=k, undirected=True,
                    name=name or f"{graph.name}_coarse")


def multi_edge_collapse(graph: CSRGraph, *, threshold: int = DEFAULT_THRESHOLD,
                        max_levels: int = 32, hub_rule: bool = True,
                        use_degree_order: bool = True) -> CoarseningResult:
    """Full multilevel coarsening (Algorithm 4).

    Coarsening continues until the newest graph has at most ``threshold``
    vertices, a level fails to shrink the graph (fixed point), or
    ``max_levels`` levels have been produced.

    Parameters
    ----------
    threshold:
        Stop when ``|V_i| <= threshold`` (paper default 100).
    hub_rule:
        Apply the δ hub-collision rule (ablation hook).
    use_degree_order:
        Process vertices in decreasing-degree order (ablation hook); when
        False the natural order 0..n-1 is used.
    """
    graphs = [graph]
    mappings: list[np.ndarray] = []
    times: list[float] = []
    current = graph
    level = 0
    while current.num_vertices > threshold and level < max_levels:
        t0 = perf_counter()
        order = degree_order(current) if use_degree_order else np.arange(current.num_vertices)
        mapping, num_clusters = collapse_once(current, order=order, hub_rule=hub_rule)
        if num_clusters >= current.num_vertices:
            # No shrinkage possible (e.g. empty graph / all singletons); stop.
            break
        nxt = coarsen_graph(current, mapping, num_clusters,
                            name=f"{graph.name}_L{level + 1}")
        times.append(perf_counter() - t0)
        graphs.append(nxt)
        mappings.append(mapping)
        current = nxt
        level += 1
    return CoarseningResult(graphs=graphs, mappings=mappings, level_times=times)
