"""Test-side oracles: slow, obvious restatements of production code paths.

Each function here is the independent check of a vectorised path in
``src/`` and has no production caller.  The suites import this module as
``oracles``: ``tests/`` holds a ``conftest.py`` and no ``__init__.py``, so
pytest's default (prepend) import mode puts it on ``sys.path``.

* :func:`reference_sample_rows` — the per-vertex loop over CSR rows that
  :func:`repro.large.sample_pool.sample_rows` must match array for array.
* :func:`build_filtered_adjacency` — one direction's filtered sub-CSR from
  a partner mask, the byte-for-byte reference of
  :func:`repro.large.sample_pool.build_filtered_adjacencies`.
* :func:`expand_pairs` — a pool's source-major directions as flat
  ``(src, dst)`` pairs; :func:`two_way_partition` — a partition from a mask,
  so a (part, mask) draw can go through the production cache.
* :func:`simulated_threaded_collapse` — the τ-thread lock-per-entry
  MultiEdgeCollapse, simulated deterministically.
"""

from __future__ import annotations

import numpy as np

from repro.coarsening import compact_mapping, degree_order
from repro.graph import CSRGraph
from repro.graph.partition import VertexPartition
from repro.large.sample_pool import FilteredAdjacency, pick_indices


def _empty_rows() -> tuple[np.ndarray, np.ndarray]:
    return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)


def reference_sample_rows(graph: CSRGraph, part_vertices: np.ndarray,
                          partner_mask: np.ndarray, count_per_vertex: int,
                          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex loop: for each vertex of ``part_vertices`` with a neighbour
    in ``partner_mask``, draw ``count_per_vertex`` of those neighbours.

    Re-masks every neighbour list straight from the graph and draws one
    ``rng.random(B)`` per eligible vertex, so it shares nothing with the
    filtered sub-CSR but :func:`pick_indices`.  Returns source-major
    ``(rows, dst)`` like ``sample_rows``.
    """
    B = int(count_per_vertex)
    if B == 0:
        return _empty_rows()
    rows: list[int] = []
    dsts: list[np.ndarray] = []
    for row, v in enumerate(np.asarray(part_vertices, dtype=np.int64)):
        nbrs = graph.neighbors(int(v))
        valid = nbrs[partner_mask[nbrs]]
        if valid.shape[0] == 0:
            continue
        rows.append(row)
        dsts.append(valid[pick_indices(rng.random(B), valid.shape[0])])
    if not rows:
        return _empty_rows()
    return np.array(rows, dtype=np.int64), np.concatenate(dsts)


def build_filtered_adjacency(graph: CSRGraph, part_vertices: np.ndarray,
                             partner_mask: np.ndarray) -> FilteredAdjacency:
    """The filtered sub-CSR of one (part, partner-part) direction.

    Row by row: each vertex's CSR neighbours selected by ``partner_mask``
    (a boolean mask over the whole vertex set), in within-row order.
    """
    vertices = np.asarray(part_vertices, dtype=np.int64)
    rows = [nbrs[partner_mask[nbrs]] for nbrs in map(graph.neighbors, vertices.tolist())]
    offsets = np.zeros(vertices.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.array([r.shape[0] for r in rows], dtype=np.int64), out=offsets[1:])
    targets = np.concatenate(rows) if rows else graph.adj[:0]
    return FilteredAdjacency(vertices=vertices, offsets=offsets, targets=targets)


def expand_pairs(pool) -> tuple[np.ndarray, np.ndarray]:
    """Flat global ``(src, dst)`` pairs of a ``SamplePool`` or one
    ``PoolDirection``: each row's source repeated ``B`` times, directions
    in pool order (``part_a``'s sources first)."""
    directions = getattr(pool, "directions", (pool,))
    src = [np.repeat(d.vertices[d.rows], d.B) for d in directions]
    return np.concatenate(src), np.concatenate([d.dst for d in directions])


def two_way_partition(in_b: np.ndarray) -> VertexPartition:
    """Part 1 is the vertices the boolean mask ``in_b`` selects, part 0 the rest."""
    in_b = np.asarray(in_b, dtype=bool)
    return VertexPartition(num_vertices=in_b.shape[0], part_of=in_b.astype(np.int64),
                           parts=[np.flatnonzero(~in_b), np.flatnonzero(in_b)])


def simulated_threaded_collapse(graph: CSRGraph, num_threads: int = 4, *,
                                hub_rule: bool = True,
                                chunk_size: int = 64) -> tuple[np.ndarray, int]:
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
    order = degree_order(graph)
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
