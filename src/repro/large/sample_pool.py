"""Host-side positive sampling for the large-graph engine (SampleManager).

When a graph is too large to keep on the device, GOSH draws the positive
samples on the host: for the kernel that processes the part pair
``(V^j, V^k)``, a *sample pool* ``S^{j,k}`` holds, for every vertex of
``V^j``, up to ``B`` uniformly drawn neighbours that fall inside ``V^k``
(and symmetrically for ``V^k`` vs ``V^j``).  :class:`SamplePoolManager`
builds one pool per call, on the producer thread of
:class:`~repro.large.pipeline.PipelinedExecutor`, which bounds the pools in
flight by ``S_GPU``.

**One sampler.**  Each direction is drawn by :func:`sample_rows` over a
:class:`FilteredAdjacency` sub-CSR that keeps only the edges landing in
the partner part.  :class:`FilteredAdjacencyCache` builds those sub-CSRs
in one pass per part (:func:`build_filtered_adjacencies`) and reuses them
across rotations.

**Source-major output.**  A direction is ``(rows, dst)``: ``rows`` are the
local rows (positions in the part's vertex array) of the *eligible*
vertices, those with at least one neighbour inside the partner part,
strictly increasing; ``dst`` holds ``len(rows) * B`` partner ids, each
row's ``B`` draws consecutive and in row order.  That is the layout of the
paper's large-graph kernel, one source vertex's ``B`` samples to one warp:
the kernel gathers and writes back each source row once, with no scatter
plan for the source side.  Vertices without a partner-part neighbour draw
nothing, the paper's "almost equivalent to B×K epochs" caveat.

**Exact parity with a per-vertex loop.**  :func:`sample_rows` consumes one
row of ``B`` float64 uniforms per eligible vertex, in row order, mapped to
a neighbour index with ``floor(u * count)`` (:func:`pick_indices`).
NumPy's ``Generator.random`` fills arrays sequentially from the bit
stream, so one ``rng.random((n_eligible, B))`` draw equals a loop of
per-vertex ``rng.random(B)`` calls bit for bit: the test-side oracle, such
a loop over CSR rows, returns *identical* ``(rows, dst)`` arrays from an
equally seeded Generator.  (``floor(u * count)`` deviates from a perfectly
uniform draw by less than ``count * 2**-53`` per bucket.)

Two properties make the manager safe to drive from the producer thread:

* **Order-independent randomness.**  Every pool is drawn from its own seeded
  stream keyed by ``(seed, POOL_STREAM, rotation, a, b)``, so the pool for a
  given (rotation, pair) has identical contents whichever thread built it,
  and in whatever order — the property the producer-vs-inline golden-parity
  tests pin.
* **Locked shared state.**  The produced/sample counters and the
  filtered-adjacency cache are lock-protected, because the consumer reads
  :meth:`SamplePoolManager.stats` while the producer counts; the sampling
  itself (pure NumPy) runs outside the lock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph, pack_keys
from ..graph.partition import VertexPartition

__all__ = [
    "FilteredAdjacency",
    "FilteredAdjacencyCache",
    "build_filtered_adjacencies",
    "pick_indices",
    "sample_rows",
    "PoolDirection",
    "SamplePool",
    "SamplePoolManager",
    "POOL_STREAM",
    "pool_rng",
]

#: Stream tag separating pool draws from the kernel-side negative streams
#: (see :data:`repro.large.pipeline.KERNEL_STREAM`).
POOL_STREAM = 1


def pool_rng(seed: int, rotation: int, part_a: int, part_b: int) -> np.random.Generator:
    """The seeded generator owning one (rotation, pair) pool's randomness.

    Keying the stream by content rather than draw order is what makes pool
    contents independent of *production* order — the producer thread and
    an inline build on the consumer draw identical pools.
    """
    return np.random.default_rng((seed, POOL_STREAM, rotation, part_a, part_b))


# --------------------------------------------------------------------------- #
# Filtered adjacency (sub-CSR of edges landing in the partner part)
# --------------------------------------------------------------------------- #
@dataclass
class FilteredAdjacency:
    """Sub-CSR over one part's vertices, keeping only partner-part neighbours.

    ``targets[offsets[i]:offsets[i + 1]]`` are the neighbours of
    ``vertices[i]`` that fall inside the partner part, in CSR row order.
    """

    vertices: np.ndarray
    offsets: np.ndarray
    targets: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)


def _gather_rows(graph: CSRGraph, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Degrees of ``vertices`` and their concatenated CSR rows, in row order."""
    xadj = graph.xadj
    deg = xadj[vertices + 1] - xadj[vertices]
    # Position of every entry inside ``adj``: its row's start plus its offset
    # within the row, i.e. a running index shifted per row.
    shift = np.repeat(xadj[vertices] - (np.cumsum(deg) - deg), deg)
    return deg, graph.adj[np.arange(shift.shape[0], dtype=np.int64) + shift]


def build_filtered_adjacencies(graph: CSRGraph, part_vertices: np.ndarray,
                               part_of: np.ndarray, num_parts: int) -> list[FilteredAdjacency]:
    """Every partner part's filtered sub-CSR of one part, from one pass.

    Entry ``k`` keeps, for each vertex of ``part_vertices``, its neighbours
    ``u`` with ``part_of[u] == k``, in CSR row order.  The part's rows are
    gathered once for all ``num_parts`` partners: one ``np.sort`` of the
    packed keys ``(part_of[nbr], position)`` groups the arcs by partner part
    and keeps each group in row order, within-row order included; one
    ``bincount`` of ``(partner, row)`` gives every group's row counts.
    """
    vertices = np.asarray(part_vertices, dtype=np.int64)
    n = vertices.shape[0]
    deg, nbrs = _gather_rows(graph, vertices)
    total = nbrs.shape[0]
    partner = np.asarray(part_of, dtype=np.int64)[nbrs]
    sizes = np.bincount(partner, minlength=num_parts)
    keys = np.sort(pack_keys(partner, np.arange(total), num_parts, max(total, 1)))
    # The sorted keys run partner by partner, ``sizes[k]`` of each: subtract
    # each run's ``k * total`` to read the positions back without a division.
    keys -= np.repeat(np.arange(num_parts, dtype=np.int64) * total, sizes)
    targets = nbrs[keys]
    bounds = np.zeros(num_parts + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    row_ids = np.repeat(np.arange(n, dtype=np.int64), deg)
    counts = np.bincount(partner * n + row_ids, minlength=num_parts * n)
    offsets = np.zeros((num_parts, n + 1), dtype=np.int64)
    np.cumsum(counts.reshape(num_parts, n), axis=1, out=offsets[:, 1:])
    return [FilteredAdjacency(vertices=vertices, offsets=offsets[k],
                              targets=targets[bounds[k]:bounds[k + 1]])
            for k in range(num_parts)]


class FilteredAdjacencyCache:
    """Filtered sub-CSRs per ``(from_part, to_part)``, built once and reused.

    The cache belongs to one (graph, partition) pair, so every rotation of
    the large-graph engine reuses the same filtered neighbour lists instead
    of re-filtering the adjacency on every pool build.

    The first ``get`` for a ``from_part`` runs :func:`build_filtered_adjacencies`
    — one gather of that part's arcs — and caches the sub-CSRs for *every*
    partner part at once, so a level with ``K`` parts reads its arcs ``K``
    times, not ``K**2``.  ``builds`` counts those per-part passes (at most
    ``K`` per cache), ``entries`` the parts cached (each holding ``K``
    sub-CSRs), and ``hits`` the ``get`` calls served without a pass.

    Thread-safe: the large-graph engine builds pools on its producer thread
    while the consumer may read :meth:`stats` (via
    ``SamplePoolManager.stats``), so lookup-or-build runs under a lock
    (entries are immutable once built and a one-time pass per part is cheap
    enough to serialise).
    """

    def __init__(self, graph: CSRGraph, partition: VertexPartition):
        self.graph = graph
        self.partition = partition
        self._entries: dict[int, list[FilteredAdjacency]] = {}
        self._lock = threading.RLock()
        self.builds = 0
        self.hits = 0

    def get(self, from_part: int, to_part: int) -> FilteredAdjacency:
        with self._lock:
            entries = self._entries.get(from_part)
            if entries is None:
                self.builds += 1
                entries = build_filtered_adjacencies(
                    self.graph, self.partition.parts[from_part],
                    self.partition.part_of, self.partition.num_parts)
                self._entries[from_part] = entries
            else:
                self.hits += 1
            return entries[to_part]

    def nbytes(self) -> int:
        with self._lock:
            # The K sub-CSRs of one part share its vertex array: count it once.
            return int(sum(entries[0].vertices.nbytes
                           + sum(e.offsets.nbytes + e.targets.nbytes for e in entries)
                           for entries in self._entries.values()))

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"entries": len(self._entries), "builds": self.builds,
                    "hits": self.hits, "nbytes": self.nbytes()}


# --------------------------------------------------------------------------- #
# The sampler
# --------------------------------------------------------------------------- #
def pick_indices(u: np.ndarray, counts: np.ndarray | int) -> np.ndarray:
    """Map uniforms in [0, 1) to indices in ``[0, counts)``: ``floor(u * counts)``.

    The ``minimum`` guard covers the (representable but never produced by
    ``Generator.random``) corner where ``u * counts`` rounds up to ``counts``.
    """
    idx = (u * counts).astype(np.int64)
    return np.minimum(idx, np.asarray(counts, dtype=np.int64) - 1)


def sample_rows(filtered: FilteredAdjacency, count_per_vertex: int,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count_per_vertex`` partner-part neighbours (with replacement)
    for every eligible vertex of ``filtered``, source-major ``(rows, dst)``.

    One ``rng.random((n_eligible, B))`` draw, one uniform per sample in row
    order (see the module docstring for why that equals a per-vertex loop).
    """
    counts = filtered.counts
    rows = np.flatnonzero(counts > 0)
    B = int(count_per_vertex)
    if rows.shape[0] == 0 or B == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    idx = pick_indices(rng.random((rows.shape[0], B)), counts[rows][:, None])
    return rows, filtered.targets[filtered.offsets[rows][:, None] + idx].ravel()


@dataclass(frozen=True)
class PoolDirection:
    """One direction of a pool, in the sampler's source-major layout.

    ``rows`` are local rows of ``from_part`` (positions in ``vertices``, its
    global ids), strictly increasing; ``dst`` holds ``B`` partner-part ids
    per row, consecutive and in row order.  Source vertex ``vertices[r]``
    therefore owns ``B`` consecutive samples — the paper kernel's
    one-source-per-warp layout, which the pair kernel scatters without a
    plan.
    """

    from_part: int
    to_part: int
    vertices: np.ndarray     # global ids of from_part (shared, not owned)
    rows: np.ndarray
    B: int
    dst: np.ndarray

    @property
    def num_samples(self) -> int:
        return int(self.dst.shape[0])

    def nbytes(self) -> int:
        return int(self.rows.nbytes + self.dst.nbytes)


@dataclass(frozen=True)
class SamplePool:
    """Positive samples for one (part_a, part_b) kernel.

    ``directions`` holds the ``part_a → part_b`` samples and, for an
    off-diagonal pair, the ``part_b → part_a`` ones, each kept as built
    (see :class:`PoolDirection`).
    """

    part_a: int
    part_b: int
    directions: tuple[PoolDirection, ...]

    @property
    def num_samples(self) -> int:
        return sum(d.num_samples for d in self.directions)

    def nbytes(self) -> int:
        """Bytes the pool carries: each direction's rows and destinations."""
        return sum(d.nbytes() for d in self.directions)


@dataclass
class SamplePoolManager:
    """Builds sample pools for a partitioned training run.

    Parameters
    ----------
    graph:
        The level's graph (kept on the host — never copied to the device).
    partition:
        The K-way vertex partition.
    batch_per_vertex:
        The paper's ``B`` — positive samples per vertex per pool.
    seed:
        Keys every pool's stream (:func:`pool_rng`).
    """

    graph: CSRGraph
    partition: VertexPartition
    batch_per_vertex: int = 5
    seed: int = 0
    pools_produced: int = 0
    samples_produced: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        # Filtered sub-CSRs (edges landing in the partner part) are built in
        # one pass per part, for all partners, and reused across rotations.
        self._filtered = FilteredAdjacencyCache(self.graph, self.partition)

    def _sample_direction(self, from_part: int, to_part: int,
                          rng: np.random.Generator) -> PoolDirection:
        """For every vertex of ``from_part``, draw B neighbours inside ``to_part``."""
        rows, dst = sample_rows(self._filtered.get(from_part, to_part),
                                self.batch_per_vertex, rng)
        return PoolDirection(from_part=from_part, to_part=to_part,
                             vertices=self.partition.parts[from_part],
                             rows=rows, B=int(self.batch_per_vertex), dst=dst)

    def build_pool(self, part_a: int, part_b: int, *, rotation: int = 0) -> SamplePool:
        """Draw the pool for one part pair (both sampling directions) from
        its keyed stream."""
        from ..obs import trace  # lazy: keep the sampling hot path import-free

        t0 = time.perf_counter()
        rng = pool_rng(self.seed, rotation, part_a, part_b)
        directions = [self._sample_direction(part_a, part_b, rng)]
        if part_a != part_b:
            directions.append(self._sample_direction(part_b, part_a, rng))
        pool = SamplePool(part_a=part_a, part_b=part_b, directions=tuple(directions))
        if trace.enabled:
            trace.add_complete("pool-build", time.perf_counter() - t0,
                               rotation=rotation, pair=[part_a, part_b],
                               samples=pool.num_samples)
        with self._lock:
            self.pools_produced += 1
            self.samples_produced += pool.num_samples
        return pool

    def stats(self) -> dict[str, object]:
        with self._lock:
            return {
                "pools_produced": self.pools_produced,
                "samples_produced": self.samples_produced,
                "filtered_cache": self._filtered.stats(),
            }
