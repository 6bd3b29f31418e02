"""Parallel MultiEdgeCollapse (Section 3.2.2).

The original implementation parallelises the mapping phase over τ OpenMP
threads with a lock per ``map`` entry and uses the *hub-vertex id* as the
temporary cluster id (so no shared counter is needed), then compacts the ids
in a final O(|V|) pass.  Coarse-graph construction uses per-thread private
edge buffers that are merged with a prefix-sum scan.

Hardware substitution: Python threads running the mapping loop serialise on
the interpreter lock, so real OS threads cannot demonstrate the speedup.
:func:`parallel_collapse_once` is instead a fully vectorised NumPy pass that
plays the role of the τ-thread version.  Like the threaded original it may
produce a slightly different (but equally valid) clustering than the
sequential pass, because cluster ownership is decided by priority rather
than strict sequential order.  Its speedup over the pure-Python sequential
loop on the same machine is what Table 4 measures.  A deterministic
simulation of the τ threads' lock protocol lives with the tests
(``tests/oracles.py``), which check that it yields consistent coarsenings.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..graph.csr import CSRGraph
from .multi_edge_collapse import CoarseningResult, coarsen_graph, DEFAULT_THRESHOLD

__all__ = [
    "parallel_collapse_once",
    "parallel_multi_edge_collapse",
    "compact_mapping",
]


def compact_mapping(raw_mapping: np.ndarray) -> tuple[np.ndarray, int]:
    """Compact hub-id cluster labels to the contiguous range ``0..K-1``.

    The parallel algorithm stores the *hub vertex id* in ``map[v]``; this is
    the final sequential pass described in the paper that detects vertices
    with ``map[v] == v`` and renumbers all entries.  Each label becomes its
    rank among the labels in use — a presence mask over the label range and
    a prefix sum, no sort; O(|V|) for the hub-id labels the coarseners pass.
    """
    raw = np.asarray(raw_mapping, dtype=np.int64)
    if raw.size == 0:
        return np.zeros(0, dtype=np.int64), 0
    offset = raw - raw.min()
    used = np.zeros(int(offset.max()) + 1, dtype=bool)
    used[offset] = True
    rank = np.cumsum(used) - 1
    return rank[offset], int(rank[-1]) + 1


def parallel_collapse_once(graph: CSRGraph, *, hub_rule: bool = True) -> tuple[np.ndarray, int]:
    """Vectorised single-level collapse with hub-priority semantics.

    Every vertex chooses, among its neighbours that are allowed to absorb it
    (hub rule) and that dominate it in degree order (degree, then id — the
    same priority the sequential pass uses), the highest-priority neighbour
    as its *leader*.  A vertex with no dominating eligible neighbour is its
    own leader.  A leader claim is only honoured when the chosen leader is a
    root (its own leader); otherwise the vertex falls back to being a root —
    exactly the "skip the candidate on lock failure" behaviour of the
    threaded code.  Nothing is sorted.
    """
    n = graph.num_vertices
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0
    degrees = graph.degrees.astype(np.int64)
    delta = graph.num_edges / max(n, 1)
    adj = graph.adj

    # Priority: higher degree wins; ties broken by smaller vertex id.  Encode
    # as one integer, unique per vertex, so "best neighbour" is a plain max
    # and the winning priority decodes back to its vertex.
    priority = degrees * np.int64(n) + (np.int64(n) - 1 - np.arange(n, dtype=np.int64))

    # Arc src <- dst means "dst could lead src".  The leader must strictly
    # dominate the follower in priority so that the relation is acyclic
    # (mirrors "hubs are processed first").
    candidate = priority[adj]
    valid = candidate > np.repeat(priority, degrees)
    # The hub rule requires deg(leader) <= delta or deg(follower) <= delta.
    if hub_rule:
        small = degrees <= delta
        valid &= small[adj] | np.repeat(small, degrees)

    leader = np.arange(n, dtype=np.int64)
    if np.any(valid):
        # CSR arcs are grouped by follower: one max per non-empty row picks
        # the highest-priority dominating neighbour (-1 marks "none").
        candidate[~valid] = -1
        rows = np.flatnonzero(degrees)
        best = np.maximum.reduceat(candidate, graph.xadj[rows])
        claims = best >= 0
        leader[rows[claims]] = np.int64(n) - 1 - best[claims] % np.int64(n)

    # Honour a claim only if the chosen leader is itself a root; otherwise
    # the follower becomes a root (skip-on-contention).
    chained = leader[leader] != leader
    follower_ids = np.arange(n, dtype=np.int64)
    leader = np.where(chained, follower_ids, leader)

    mapping, num_clusters = compact_mapping(leader)
    return mapping, num_clusters


def parallel_multi_edge_collapse(graph: CSRGraph, *, threshold: int = DEFAULT_THRESHOLD,
                                 max_levels: int = 32, hub_rule: bool = True) -> CoarseningResult:
    """Full multilevel coarsening using the vectorised parallel pass."""
    graphs = [graph]
    mappings: list[np.ndarray] = []
    times: list[float] = []
    current = graph
    level = 0
    while current.num_vertices > threshold and level < max_levels:
        t0 = perf_counter()
        mapping, num_clusters = parallel_collapse_once(current, hub_rule=hub_rule)
        if num_clusters >= current.num_vertices:
            break
        nxt = coarsen_graph(current, mapping, num_clusters,
                            name=f"{graph.name}_L{level + 1}")
        times.append(perf_counter() - t0)
        graphs.append(nxt)
        mappings.append(mapping)
        current = nxt
        level += 1
    return CoarseningResult(graphs=graphs, mappings=mappings, level_times=times)
