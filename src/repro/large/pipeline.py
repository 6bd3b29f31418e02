"""Pool production for the large-graph engine (Section 3.3).

The paper's engine is three concurrent agents: a SampleManager producing
sample pools, a PoolManager shipping them to the device, and the training
loop consuming them.  :class:`PipelinedExecutor` is that producer: a
background thread walks the schedule, builds each pool one source-major
direction at a time and *prepares* it (destination global→local
resolution, scatter plans for the destination and negative sides,
pre-drawn negative rounds — see
:meth:`~repro.gpu.backends.vectorized.VectorizedBackend.prepare_pair`),
then hands it over through a bounded ready-pool queue of capacity
``S_GPU``.  The producer blocks (backpressure) when the consumer falls
behind, exactly like the paper's ``S_GPU`` buffer bound.

**Determinism.**  Every pool is drawn from a stream keyed by
``(seed, rotation, pair)`` (:func:`~repro.large.sample_pool.pool_rng`) and
every kernel's negatives from a stream keyed the same way
(:func:`kernel_rng`), so no draw depends on *when* production happened.
Consumption order is fixed by the schedule and kernels only ever run on the
consumer thread, so the embedding is **bit-identical** to producing each
pool inline right before its kernel — ``tests/large/test_pipeline.py``
pins that against an inline reference executor.

Every handover is timed: :class:`PipelineStats` sums the consumer's stall
and the producer's build + prepare time and keeps the peak ready-queue
depth — perfbench reports the stall as ``large.pool_stall_s``; with
tracing on, each pool's production is also a ``pool-produce`` span.
"""

from __future__ import annotations

import queue
import threading
import warnings
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..faults import FAULTS
from ..gpu.backends.vectorized import PairPlan, VectorizedBackend
from ..graph.partition import VertexPartition
from ..obs import trace
from .sample_pool import PoolDirection, SamplePool, SamplePoolManager

__all__ = [
    "KERNEL_STREAM",
    "kernel_rng",
    "ScheduleEntry",
    "build_schedule",
    "DirectionBatch",
    "ReadyPool",
    "PipelineStats",
    "PoolPreparer",
    "PipelinedExecutor",
]

#: Stream tag separating kernel-side negative draws from the pool streams
#: (see :data:`repro.large.sample_pool.POOL_STREAM`).
KERNEL_STREAM = 2


def kernel_rng(seed: int, rotation: int, part_a: int, part_b: int) -> np.random.Generator:
    """The generator owning one (rotation, pair) kernel's negative draws.

    Keyed like the pool streams so the draws are independent of where they
    happen: the producer pre-drawing negatives into a
    :class:`~repro.gpu.backends.vectorized.PairPlan` consumes exactly the
    stream an inline kernel launch would have consumed.
    """
    return np.random.default_rng((seed, KERNEL_STREAM, rotation, part_a, part_b))


@dataclass(frozen=True)
class ScheduleEntry:
    """One kernel slot of the training run, in consumption order."""

    rotation: int
    pair_index: int          # position within the rotation's inside-out order
    pair: tuple[int, int]


def build_schedule(rotations: int, order: list[tuple[int, int]]) -> list[ScheduleEntry]:
    """The full (rotation × inside-out pair) consumption schedule."""
    return [ScheduleEntry(rotation=r, pair_index=i, pair=pair)
            for r in range(rotations) for i, pair in enumerate(order)]


@dataclass
class DirectionBatch:
    """One direction of a pool, ready for a single ``train_pair`` launch.

    ``samples`` is the pool's source-major :class:`~repro.large.sample_pool.PoolDirection`,
    handed over as the sampler built it; ``plan`` is its prepared launch,
    with the negatives already drawn from the pool's keyed kernel stream.
    """

    samples: PoolDirection
    plan: PairPlan

    @property
    def from_part(self) -> int:
        return self.samples.from_part

    @property
    def to_part(self) -> int:
        return self.samples.to_part


@dataclass
class ReadyPool:
    """A produced, direction-split, kernel-prepared pool awaiting its slot."""

    entry: ScheduleEntry
    pool: SamplePool
    directions: list[DirectionBatch]


@dataclass
class PipelineStats:
    """Aggregate pipeline behaviour of one training run."""

    stall_seconds: float = 0.0      # total consumer time spent waiting on pools
    produce_seconds: float = 0.0    # total build + prepare time (producer side)
    max_queue_depth: int = 0        # peak ready pools buffered after a handover


class PoolPreparer:
    """Turns raw sample pools into device-ready :class:`ReadyPool` objects.

    Owns everything production needs beyond the pool itself: the partition,
    the partition-wide global→local lookup, the negative count, and the
    kernel backend whose ``prepare_pair`` builds each launch's plan.  Reads
    no embedding or device state, so it is safe on the producer thread.
    """

    def __init__(self, partition: VertexPartition, backend: VectorizedBackend,
                 global_to_local: np.ndarray, negative_samples: int, seed: int):
        self.partition = partition
        self.backend = backend
        self.g2l = global_to_local
        self.ns = negative_samples
        self.seed = seed

    def ready(self, entry: ScheduleEntry, pool: SamplePool) -> ReadyPool:
        a, b = entry.pair
        rng = kernel_rng(self.seed, entry.rotation, a, b)
        directions: list[DirectionBatch] = []
        for samples in pool.directions:
            if samples.num_samples == 0:
                continue   # no launch for this direction -> no negative draws
            plan = self.backend.prepare_pair(
                self.partition.parts[samples.from_part],
                self.partition.parts[samples.to_part],
                samples.rows, samples.B, samples.dst, self.ns, rng,
                index_b=self.g2l)
            directions.append(DirectionBatch(samples=samples, plan=plan))
        return ReadyPool(entry=entry, pool=pool, directions=directions)


class PipelinedExecutor:
    """Producer-thread execution: pools are built ahead, behind a bounded queue.

    The producer walks the schedule, builds + prepares each pool, and blocks
    when ``capacity`` (the paper's ``S_GPU``) ready pools are already
    waiting.  The consumer pops pools in schedule order; any time it spends
    blocked in :meth:`next_ready` is recorded as stall.  Errors raised on
    the producer (bad sampler, index corruption, …) are re-raised at the
    consumer's next pop; :meth:`close` always unblocks and joins the
    producer, so a consumer-side failure cannot leave it wedged on a full
    queue.
    """

    _POLL_SECONDS = 0.05

    def __init__(self, manager: SamplePoolManager, preparer: PoolPreparer,
                 schedule: list[ScheduleEntry], capacity: int):
        self.manager = manager
        self.preparer = preparer
        self.schedule = schedule
        self.stats = PipelineStats()
        self._queue: "queue.Queue[ReadyPool | _ProducerFailure]" = queue.Queue(
            maxsize=max(1, capacity))
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._produce,
                                        name="gosh-pool-producer", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #
    def _produce(self) -> None:
        try:
            for entry in self.schedule:
                if self._stop.is_set():
                    return
                t0 = perf_counter()
                # Crosses on the producer thread; an injected fault travels
                # the _ProducerFailure envelope and re-raises at the
                # consumer's next pop — exactly how a real producer-side
                # crash (bad sampler, index corruption) would surface.
                FAULTS.crossing("pool-producer", rotation=entry.rotation,
                                pair=entry.pair)
                pool = self.manager.build_pool(*entry.pair, rotation=entry.rotation)
                ready = self.preparer.ready(entry, pool)
                elapsed = perf_counter() - t0
                self.stats.produce_seconds += elapsed
                if trace.enabled:
                    # Runs on the producer thread — the exported trace shows
                    # production genuinely overlapping the consumer's kernels.
                    trace.add_complete("pool-produce", elapsed,
                                       rotation=entry.rotation,
                                       pair=list(entry.pair))
                if not self._put(ready):
                    return
        except BaseException as exc:  # surface on the consumer thread
            self._put(_ProducerFailure(exc))

    def _put(self, item) -> bool:
        """Blocking put with backpressure that stays interruptible."""
        while not self._stop.is_set():
            try:
                self._queue.put(item, timeout=self._POLL_SECONDS)
                # Benign race with the consumer's maximum: both sides only
                # ever raise it, and it is a diagnostic, not a correctness
                # quantity.
                self.stats.max_queue_depth = max(self.stats.max_queue_depth,
                                                 self._queue.qsize())
                return True
            except queue.Full:
                continue
        return False

    # ------------------------------------------------------------------ #
    # Consumer side
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "PipelinedExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def next_ready(self) -> ReadyPool:
        t0 = perf_counter()
        while True:
            try:
                item = self._queue.get(timeout=self._POLL_SECONDS)
                break
            except queue.Empty:
                if not self._thread.is_alive():
                    # The producer may have delivered its final item between
                    # our timeout and the liveness check — take one last look
                    # before declaring it gone.
                    try:
                        item = self._queue.get_nowait()
                        break
                    except queue.Empty:
                        raise RuntimeError(
                            "pool producer exited without delivering the next "
                            "pool") from None
        wait = perf_counter() - t0
        if isinstance(item, _ProducerFailure):
            raise item.error
        self.stats.stall_seconds += wait
        self.stats.max_queue_depth = max(self.stats.max_queue_depth,
                                         self._queue.qsize())
        return item

    def close(self) -> None:
        """Stop the producer, drain the queue, and join the thread."""
        self._stop.set()
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                break
        self._thread.join(timeout=10.0)
        if self._thread.is_alive():  # pragma: no cover - requires a wedged build
            warnings.warn(
                "pool-producer thread did not stop within 10s; it is a daemon "
                "and will not block exit, but SamplePoolManager counters may "
                "still advance until its current build finishes",
                RuntimeWarning, stacklevel=2)


@dataclass
class _ProducerFailure:
    """Envelope carrying a producer-thread exception to the consumer."""

    error: BaseException
