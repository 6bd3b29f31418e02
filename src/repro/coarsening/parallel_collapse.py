"""Parallel MultiEdgeCollapse (Section 3.2.2).

The original implementation parallelises the mapping phase over τ OpenMP
threads with a lock per ``map`` entry and uses the *hub-vertex id* as the
temporary cluster id (so no shared counter is needed), then compacts the ids
in a final O(|V|) pass.  Coarse-graph construction uses per-thread private
edge buffers that are merged with a prefix-sum scan.

Hardware substitution: Python threads running the mapping loop serialise on
the interpreter lock, so real OS threads cannot demonstrate the speedup.  We
therefore provide two implementations with the *same algorithmic semantics*:

* :func:`parallel_collapse_once` — a fully vectorised NumPy pass that plays
  the role of the τ-thread version.  Like the threaded original it may
  produce a slightly different (but equally valid) clustering than the
  sequential pass, because cluster ownership is decided by priority rather
  than strict sequential order.  Its speedup over the pure-Python sequential
  loop on the same machine is what Table 4 measures.
* :func:`simulated_threaded_collapse` — a deterministic simulation of τ
  threads with per-entry locks and skip-on-contention semantics, used by the
  tests to check that the lock protocol yields consistent coarsenings.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..graph.csr import CSRGraph
from .multi_edge_collapse import CoarseningResult, coarsen_graph, DEFAULT_THRESHOLD

__all__ = [
    "parallel_collapse_once",
    "parallel_multi_edge_collapse",
    "simulated_threaded_collapse",
    "compact_mapping",
]


def compact_mapping(raw_mapping: np.ndarray) -> tuple[np.ndarray, int]:
    """Compact hub-id cluster labels to the contiguous range ``0..K-1``.

    The parallel algorithm stores the *hub vertex id* in ``map[v]``; this is
    the final sequential pass described in the paper that detects vertices
    with ``map[v] == v`` and renumbers all entries.
    """
    unique_ids, compacted = np.unique(raw_mapping, return_inverse=True)
    return compacted.astype(np.int64), int(unique_ids.shape[0])


def parallel_collapse_once(graph: CSRGraph, *, hub_rule: bool = True) -> tuple[np.ndarray, int]:
    """Vectorised single-level collapse with hub-priority semantics.

    Every vertex chooses, among its neighbours that are allowed to absorb it
    (hub rule) and that dominate it in degree order (degree, then id — the
    same priority the sequential pass uses), the highest-priority neighbour
    as its *leader*.  A vertex with no dominating eligible neighbour is its
    own leader.  A leader claim is only honoured when the chosen leader is a
    root (its own leader); otherwise the vertex falls back to being a root —
    exactly the "skip the candidate on lock failure" behaviour of the
    threaded code.
    """
    n = graph.num_vertices
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0
    degrees = graph.degrees.astype(np.int64)
    delta = graph.num_edges / max(n, 1)
    arcs = graph.edge_array()
    src, dst = arcs[:, 0], arcs[:, 1]

    # Priority: higher degree wins; ties broken by smaller vertex id.  Encode
    # as a single sortable key so argmax over neighbours is vectorisable.
    priority = degrees * np.int64(n) + (np.int64(n) - 1 - np.arange(n, dtype=np.int64))

    # Eligibility of the arc (src <- dst means "dst could lead src"):
    # the hub rule requires deg(leader) <= delta or deg(follower) <= delta.
    if hub_rule:
        eligible = (degrees[dst] <= delta) | (degrees[src] <= delta)
    else:
        eligible = np.ones(src.shape[0], dtype=bool)
    # The leader must strictly dominate the follower in priority so that the
    # relation is acyclic (mirrors "hubs are processed first").
    dominates = priority[dst] > priority[src]
    valid = eligible & dominates

    leader = np.arange(n, dtype=np.int64)
    if np.any(valid):
        vsrc = src[valid]
        vdst = dst[valid]
        # For each follower pick the highest-priority dominating neighbour:
        # sort arcs by (follower, leader priority) and take the last per group.
        order = np.lexsort((priority[vdst], vsrc))
        vsrc_sorted = vsrc[order]
        vdst_sorted = vdst[order]
        # Last occurrence per follower has the max leader priority.
        is_last = np.ones(vsrc_sorted.shape[0], dtype=bool)
        is_last[:-1] = vsrc_sorted[:-1] != vsrc_sorted[1:]
        leader[vsrc_sorted[is_last]] = vdst_sorted[is_last]

    # Honour a claim only if the chosen leader is itself a root; otherwise
    # the follower becomes a root (skip-on-contention).
    chained = leader[leader] != leader
    follower_ids = np.arange(n, dtype=np.int64)
    leader = np.where(chained, follower_ids, leader)

    mapping, num_clusters = compact_mapping(leader)
    return mapping, num_clusters


def simulated_threaded_collapse(graph: CSRGraph, num_threads: int = 4, *,
                                hub_rule: bool = True, chunk_size: int = 64,
                                seed: int = 0) -> tuple[np.ndarray, int]:
    """Deterministic simulation of the τ-thread lock-per-entry algorithm.

    The vertex order (decreasing degree) is split into chunks that are dealt
    to ``num_threads`` virtual threads round-robin (the paper's dynamic
    scheduling with small batches).  Threads take turns executing one vertex
    at a time; a thread that finds its candidate already mapped (lock held)
    skips it, exactly like the real implementation.  The result is a valid
    coarsening whose quality can be compared against the sequential one.
    """
    n = graph.num_vertices
    degrees = graph.degrees
    delta = graph.num_edges / max(n, 1)
    order = np.argsort(-degrees, kind="stable")
    mapping = np.full(n, -1, dtype=np.int64)
    xadj, adj = graph.xadj, graph.adj

    # Build per-thread work queues (round-robin chunks of the global order).
    queues: list[list[int]] = [[] for _ in range(max(1, num_threads))]
    for chunk_start in range(0, n, chunk_size):
        thread_id = (chunk_start // chunk_size) % max(1, num_threads)
        queues[thread_id].extend(int(v) for v in order[chunk_start:chunk_start + chunk_size])
    cursors = [0] * len(queues)

    active = True
    while active:
        active = False
        for t, queue in enumerate(queues):
            if cursors[t] >= len(queue):
                continue
            active = True
            v = queue[cursors[t]]
            cursors[t] += 1
            if mapping[v] != -1:
                continue
            #

            mapping[v] = v  # hub-id labelling, compacted later
            deg_v_ok = degrees[v] <= delta
            for idx in range(xadj[v], xadj[v + 1]):
                u = int(adj[idx])
                if mapping[u] != -1:
                    continue  # lock held by another (virtual) thread
                if hub_rule and not (deg_v_ok or degrees[u] <= delta):
                    continue
                mapping[u] = v
    mapping[mapping == -1] = np.flatnonzero(mapping == -1)
    return compact_mapping(mapping)


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
