"""Host-side positive sampling for the large-graph engine (SampleManager / PoolManager).

When a graph is too large to keep on the device, GOSH draws the positive
samples on the host: for the kernel that processes the part pair
``(V^j, V^k)``, a *sample pool* ``S^{j,k}`` holds, for every vertex of
``V^j``, up to ``B`` positive neighbours that fall inside ``V^k`` (and
symmetrically for ``V^k`` vs ``V^j``).  Pools are produced ahead of time by
the SampleManager thread, buffered, and shipped to the device by the
PoolManager; at most ``S_GPU`` pools are resident.

Two properties make the manager safe to drive from a real producer thread
(see :mod:`repro.large.pipeline`):

* **Order-independent randomness.**  Every pool is drawn from its own seeded
  stream keyed by ``(seed, POOL_STREAM, rotation, a, b)``, so the pool for a
  given (rotation, pair) has identical contents whether it was built eagerly
  by a background producer, prefetched, or built on an ``acquire`` miss —
  the property the pipelined/sequential golden-parity tests pin.
* **Locked shared state.**  The bounded FIFO buffer, the
  produced/consumed/sample counters, and the filtered-adjacency cache are
  all lock-protected; the sampling itself (pure NumPy) runs outside the
  lock, so concurrent builders do not serialise on the hot path.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.partition import VertexPartition
from ..graph.sampler_backends import (
    DEFAULT_SAMPLER_BACKEND,
    FilteredAdjacencyCache,
    SamplerBackend,
    get_sampler_backend,
)

__all__ = ["PoolDirection", "SamplePool", "SamplePoolManager", "POOL_STREAM", "pool_rng"]

#: Stream tag separating pool draws from the kernel-side negative streams
#: (see :data:`repro.large.pipeline.KERNEL_STREAM`).
POOL_STREAM = 1


def pool_rng(seed: int, rotation: int, part_a: int, part_b: int) -> np.random.Generator:
    """The seeded generator owning one (rotation, pair) pool's randomness.

    Keying the stream by content rather than draw order is what makes pool
    contents independent of *production* order — the producer thread, an
    inline prefetch, and an acquire-miss rebuild all draw identical pools.
    """
    return np.random.default_rng((seed, POOL_STREAM, rotation, part_a, part_b))


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
    def src(self) -> np.ndarray:
        """Global source id of every sample, expanded on demand (read-only)."""
        return np.repeat(self.vertices[self.rows], self.B)

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
    (see :class:`PoolDirection`).  ``src``/``dst`` expand both directions
    into flat global pairs on demand, ``part_a``'s sources first.
    """

    part_a: int
    part_b: int
    directions: tuple[PoolDirection, ...]

    @property
    def src(self) -> np.ndarray:
        return np.concatenate([d.src for d in self.directions])

    @property
    def dst(self) -> np.ndarray:
        return np.concatenate([d.dst for d in self.directions])

    @property
    def num_samples(self) -> int:
        return sum(d.num_samples for d in self.directions)

    def nbytes(self) -> int:
        """Bytes the pool carries: each direction's rows and destinations."""
        return sum(d.nbytes() for d in self.directions)


@dataclass
class SamplePoolManager:
    """Builds and buffers sample pools for a partitioned training run.

    Parameters
    ----------
    graph:
        The level's graph (kept on the host — never copied to the device).
    partition:
        The K-way vertex partition.
    batch_per_vertex:
        The paper's ``B`` — positive samples per vertex per pool.
    max_resident_pools:
        The paper's ``S_GPU`` — maximum number of pools buffered "on the
        device" at once.
    sampler_backend:
        The part-pair sampling engine (``"reference"`` loop oracle,
        ``"vectorized"`` batched default, ``"degree_biased"`` hub-weighted,
        or any registered backend — see :mod:`repro.graph.sampler_backends`).
        The two uniform built-ins draw identical pairs from the same seed.
    """

    graph: CSRGraph
    partition: VertexPartition
    batch_per_vertex: int = 5
    max_resident_pools: int = 4
    seed: int = 0
    sampler_backend: "str | SamplerBackend" = DEFAULT_SAMPLER_BACKEND
    pools_produced: int = 0
    pools_consumed: int = 0
    samples_produced: int = 0
    #: Buffered pools keyed by ``(rotation, max(pair), min(pair))`` — the
    #: rotation is part of the key because pool contents are keyed streams:
    #: a pool prefetched for rotation 7 must never satisfy an acquire for
    #: rotation 2.
    _buffer: "OrderedDict[tuple[int, int, int], SamplePool]" = field(default_factory=OrderedDict)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        #: Keys a concurrent ``prefetch`` has claimed but not yet delivered;
        #: they count against ``max_resident_pools`` so two threads filling
        #: the buffer at once cannot overshoot it.
        self._pending: set[tuple[int, int, int]] = set()
        self._sampler = get_sampler_backend(self.sampler_backend)
        # Filtered sub-CSRs (edges landing in the partner part) are built once
        # per (part, partner-part) direction and reused across rotations.
        self._filtered = FilteredAdjacencyCache(self.graph, self.partition)
        # Pre-compute part membership masks once (shared with the filtered
        # cache); pools are built lazily.
        self._masks = [self._filtered.mask(k) for k in range(self.partition.num_parts)]

    # ------------------------------------------------------------------ #
    # Production (SampleManager role)
    # ------------------------------------------------------------------ #
    def _sample_direction(self, from_part: int, to_part: int,
                          rng: np.random.Generator) -> PoolDirection:
        """For every vertex of ``from_part``, draw B neighbours inside ``to_part``."""
        # Only build (and hold) the filtered sub-CSR for backends that read
        # it — the reference oracle walks the graph itself.  Third-party
        # backends that do not declare the flag get the cache by default.
        filtered = (self._filtered.get(from_part, to_part)
                    if getattr(self._sampler, "uses_filtered_adjacency", True)
                    else None)
        vertices = self.partition.parts[from_part]
        rows, dst = self._sampler.sample_rows(
            self.graph, vertices, self._masks[to_part],
            self.batch_per_vertex, rng, filtered=filtered)
        return PoolDirection(from_part=from_part, to_part=to_part, vertices=vertices,
                             rows=rows, B=int(self.batch_per_vertex), dst=dst)

    def _build(self, part_a: int, part_b: int, rotation: int) -> SamplePool:
        """Draw one pool from its keyed stream (no counters, no buffering)."""
        rng = pool_rng(self.seed, rotation, part_a, part_b)
        directions = [self._sample_direction(part_a, part_b, rng)]
        if part_a != part_b:
            directions.append(self._sample_direction(part_b, part_a, rng))
        return SamplePool(part_a=part_a, part_b=part_b, directions=tuple(directions))

    def build_pool(self, part_a: int, part_b: int, *, rotation: int = 0) -> SamplePool:
        """Build the pool for one part pair (both sampling directions)."""
        from ..obs import trace  # lazy: keep the sampling hot path import-free

        t0 = time.perf_counter()
        pool = self._build(part_a, part_b, rotation)
        if trace.enabled:
            trace.add_complete("pool-build", time.perf_counter() - t0,
                               rotation=rotation, pair=[part_a, part_b],
                               samples=pool.num_samples)
        with self._lock:
            self.pools_produced += 1
            self.samples_produced += pool.num_samples
        return pool

    def prefetch(self, upcoming_pairs: list[tuple[int, int]], *,
                 rotation: int = 0) -> None:
        """Fill the buffer with pools for the next pairs (PoolManager role).

        Safe to call concurrently with ``acquire``/``prefetch`` from other
        threads: a key is *claimed* under the lock before its (unlocked)
        build, so the buffer plus in-flight claims never exceed
        ``max_resident_pools`` and no pair is built twice.
        """
        for pair in upcoming_pairs:
            key = (rotation, max(pair), min(pair))
            with self._lock:
                if len(self._buffer) + len(self._pending) >= self.max_resident_pools:
                    break
                if key in self._buffer or key in self._pending:
                    continue
                self._pending.add(key)
            try:
                pool = self._build(key[1], key[2], rotation)
            except BaseException:
                with self._lock:
                    self._pending.discard(key)
                raise
            with self._lock:
                self._pending.discard(key)
                self._buffer[key] = pool
                self.pools_produced += 1
                self.samples_produced += pool.num_samples

    # ------------------------------------------------------------------ #
    # Consumption (device side of Algorithm 5, line 10)
    # ------------------------------------------------------------------ #
    def acquire(self, part_a: int, part_b: int, *, rotation: int = 0) -> SamplePool:
        """Get (building if necessary) and consume the pool for a pair.

        Only a pool buffered for the *same rotation* is served; a buffer
        miss (including a racing prefetch that has claimed but not yet
        delivered the key) builds from the keyed stream, so the returned
        contents are identical either way.
        """
        key = (rotation, max(part_a, part_b), min(part_a, part_b))
        with self._lock:
            pool = self._buffer.pop(key, None)
            if pool is not None:
                self.pools_consumed += 1
                return pool
        pool = self.build_pool(key[1], key[2], rotation=rotation)
        with self._lock:
            self.pools_consumed += 1
        return pool

    def note_consumed(self) -> None:
        """Count a pool consumed outside the buffer path.

        The pipelined executor hands pools over through its own bounded
        queue rather than the prefetch buffer; it reports each handover here
        so ``pools_consumed`` stays comparable across execution modes.
        """
        with self._lock:
            self.pools_consumed += 1

    @property
    def resident_pools(self) -> int:
        with self._lock:
            return len(self._buffer)

    @property
    def resident_pool_keys(self) -> list[tuple[int, int]]:
        """Buffered pool pairs, oldest first (bounded-FIFO production order)."""
        with self._lock:
            return [(a, b) for _, a, b in self._buffer]

    def stats(self) -> dict[str, object]:
        with self._lock:
            return {
                "pools_produced": self.pools_produced,
                "pools_consumed": self.pools_consumed,
                "samples_produced": self.samples_produced,
                "resident_pools": len(self._buffer),
                "sampler_backend": self._sampler.name,
                "filtered_cache": self._filtered.stats(),
            }
