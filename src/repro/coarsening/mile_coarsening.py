"""MILE-style coarsening baseline.

MILE (Liang et al., 2018) coarsens with a hybrid of Structural Equivalence
Matching (SEM) and Normalized Heavy Edge Matching (NHEM): vertices with
identical neighbourhoods are merged first, then remaining vertices are
matched pairwise along their heaviest (normalised) incident edge.  Because
every merge combines at most a handful of vertices, MILE shrinks the graph by
roughly a factor of two per level — much more slowly than MultiEdgeCollapse,
which is exactly the comparison of Table 5.

This is a from-scratch reimplementation of that scheme on the CSR substrate,
with the same interface as the GOSH coarseners so that the Table 5 bench and
the MILE baseline pipeline can swap it in.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..graph.csr import CSRGraph
from .multi_edge_collapse import CoarseningResult, coarsen_graph
from .parallel_collapse import compact_mapping

__all__ = ["heavy_edge_matching_once", "structural_equivalence_groups", "mile_coarsen"]


def structural_equivalence_groups(graph: CSRGraph) -> np.ndarray:
    """Group vertices whose adjacency lists are identical (SEM).

    Returns an array of group labels (not yet compacted to cluster ids): two
    vertices share a label iff they have exactly the same sorted neighbour
    list.  Hash the rows to avoid quadratic comparisons.
    """
    n = graph.num_vertices
    labels = np.arange(n, dtype=np.int64)
    buckets: dict[tuple[int, ...], int] = {}
    for v in range(n):
        key = tuple(int(x) for x in graph.neighbors(v))
        if not key:
            continue  # isolated vertices stay alone
        if key in buckets:
            labels[v] = buckets[key]
        else:
            buckets[key] = v
    return labels


def heavy_edge_matching_once(graph: CSRGraph, *, use_sem: bool = True,
                             rng: np.random.Generator | None = None) -> tuple[np.ndarray, int]:
    """One level of MILE coarsening: SEM groups then pairwise NHEM matching.

    The normalised edge weight between u and v is ``1 / sqrt(deg(u) deg(v))``
    (all edges have unit weight in our graphs); each unmatched vertex is
    matched to its unmatched neighbour with the highest normalised weight,
    i.e. the lowest-degree neighbour.
    """
    n = graph.num_vertices
    rng = rng or np.random.default_rng(0)
    degrees = graph.degrees.astype(np.float64)
    matched = np.full(n, -1, dtype=np.int64)

    if use_sem:
        sem_labels = structural_equivalence_groups(graph)
        # Vertices sharing a SEM label merge into the representative.
        for v in range(n):
            rep = sem_labels[v]
            if rep != v:
                matched[v] = rep
                matched[rep] = rep

    # NHEM on the remaining vertices, processed in random order as MILE does.
    order = rng.permutation(n)
    xadj, adj = graph.xadj, graph.adj
    for v in order:
        v = int(v)
        if matched[v] != -1:
            continue
        best_u = -1
        best_w = -1.0
        for idx in range(xadj[v], xadj[v + 1]):
            u = int(adj[idx])
            if matched[u] != -1 or u == v:
                continue
            w = 1.0 / np.sqrt(max(degrees[v], 1.0) * max(degrees[u], 1.0))
            if w > best_w:
                best_w = w
                best_u = u
        if best_u >= 0:
            matched[v] = v
            matched[best_u] = v
        else:
            matched[v] = v
    # Any vertex never touched (isolated) becomes its own cluster.
    untouched = matched == -1
    matched[untouched] = np.flatnonzero(untouched)

    return compact_mapping(matched)


def mile_coarsen(graph: CSRGraph, num_levels: int, *, use_sem: bool = True,
                 seed: int = 0) -> CoarseningResult:
    """Coarsen ``num_levels`` times with the MILE scheme (Table 5 baseline).

    MILE has no size-based stopping criterion — the paper fixes the number of
    levels — so this mirrors that interface.
    """
    rng = np.random.default_rng(seed)
    graphs = [graph]
    mappings: list[np.ndarray] = []
    times: list[float] = []
    current = graph
    for level in range(num_levels):
        t0 = perf_counter()
        mapping, num_clusters = heavy_edge_matching_once(current, use_sem=use_sem, rng=rng)
        if num_clusters >= current.num_vertices:
            break
        nxt = coarsen_graph(current, mapping, num_clusters,
                            name=f"{graph.name}_mile_L{level + 1}")
        times.append(perf_counter() - t0)
        graphs.append(nxt)
        mappings.append(mapping)
        current = nxt
    return CoarseningResult(graphs=graphs, mappings=mappings, level_times=times)
