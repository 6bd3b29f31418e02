"""Host-side positive sampling for the large-graph engine (SampleManager).

When a graph is too large to keep on the device, GOSH draws the positive
samples on the host: for the kernel that processes the part pair
``(V^j, V^k)``, a *sample pool* ``S^{j,k}`` holds, for every vertex of
``V^j``, up to ``B`` positive neighbours that fall inside ``V^k`` (and
symmetrically for ``V^k`` vs ``V^j``).  :class:`SamplePoolManager` builds
one pool per call; the executors of :mod:`repro.large.pipeline` decide when,
and the pipelined one bounds the pools in flight by ``S_GPU``.

Two properties make the manager safe to drive from a real producer thread:

* **Order-independent randomness.**  Every pool is drawn from its own seeded
  stream keyed by ``(seed, POOL_STREAM, rotation, a, b)``, so the pool for a
  given (rotation, pair) has identical contents whether a background
  producer or the consumer thread built it, and in whatever order — the
  property the pipelined/sequential golden-parity tests pin.
* **Locked shared state.**  The produced/sample counters and the
  filtered-adjacency cache are lock-protected; the sampling itself (pure
  NumPy) runs outside the lock, so concurrent builders do not serialise on
  the hot path.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

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
    contents independent of *production* order — the producer thread and
    the sequential oracle's inline build draw identical pools.
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
    """Builds sample pools for a partitioned training run.

    Parameters
    ----------
    graph:
        The level's graph (kept on the host — never copied to the device).
    partition:
        The K-way vertex partition.
    batch_per_vertex:
        The paper's ``B`` — positive samples per vertex per pool.
    sampler_backend:
        The part-pair sampling engine (``"reference"`` loop oracle,
        ``"vectorized"`` batched default, ``"degree_biased"`` hub-weighted,
        or any registered backend — see :mod:`repro.graph.sampler_backends`).
        The two uniform built-ins draw identical pairs from the same seed.
    """

    graph: CSRGraph
    partition: VertexPartition
    batch_per_vertex: int = 5
    seed: int = 0
    sampler_backend: "str | SamplerBackend" = DEFAULT_SAMPLER_BACKEND
    pools_produced: int = 0
    samples_produced: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._sampler = get_sampler_backend(self.sampler_backend)
        # Filtered sub-CSRs (edges landing in the partner part) are built in
        # one pass per part, for all partners, and reused across rotations.
        self._filtered = FilteredAdjacencyCache(self.graph, self.partition)
        # Pre-compute part membership masks once (shared with the filtered
        # cache); pools are built lazily.
        self._masks = [self._filtered.mask(k) for k in range(self.partition.num_parts)]

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
                "sampler_backend": self._sampler.name,
                "filtered_cache": self._filtered.stats(),
            }
