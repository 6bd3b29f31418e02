"""LargeGraphGPU — the out-of-memory training engine (Algorithm 5, Section 3.3).

When a level's embedding matrix does not fit on the (simulated) device, the
vertex set is partitioned into ``K`` parts and training proceeds in
*rotations*: during one rotation every part pair ``(V^a, V^b)`` is processed
once, with ``B`` positive samples per vertex (drawn on the host by the
:class:`~repro.large.sample_pool.SamplePoolManager`) and ``B * ns`` negative
samples per vertex drawn from the partner part on the device.  One rotation
is therefore (almost) equivalent to ``B * K`` epochs, so the engine runs
``ceil(e_i / (B * K))`` rotations to honour the level's epoch budget.

The number of parts ``K`` is derived from the device-memory budget so that
``P_GPU`` sub-matrices plus the sample-pool buffers fit; sub-matrix residency
is managed by :class:`~repro.large.gpu_state.GPUState` (allocation failures
on the simulated device are real errors, not warnings).

Pool production runs through a pluggable execution mode (see
:mod:`repro.large.pipeline`): ``"pipelined"`` (default) produces and
prepares pools on a background thread behind a bounded ``S_GPU`` queue —
the paper's SampleManager/PoolManager threads, for real — while
``"sequential"`` is the single-threaded oracle.  Both are bit-identical
because every random draw is keyed by (rotation, pair), never by execution
order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..faults import FAULTS
from ..graph.csr import CSRGraph
from ..obs import trace
from ..graph.partition import compute_num_parts, contiguous_partition
from ..gpu.backends import get_backend
from ..gpu.device import DeviceMemoryError, SimulatedDevice
from ..gpu.warp import WarpConfig
from .gpu_state import GPUState
from .pipeline import (
    DEFAULT_EXECUTION_MODE,
    PoolPreparer,
    build_schedule,
    create_executor,
    normalize_execution_mode,
)
from .rotation import inside_out_order
from .sample_pool import SamplePoolManager

if TYPE_CHECKING:  # repro.embedding imports this module via embedding.gosh
    from ..embedding.config import GoshConfig

__all__ = ["LargeGraphStats", "LargeGraphTrainer"]

# Graceful degradation under DeviceMemoryError: halve the resident footprint
# (P_GPU bins, S_GPU queue slots) and retry with bounded exponential backoff
# instead of dying.  The *partition* (K) is always computed from the
# configured P_GPU, so a degraded run walks the same schedule and draws the
# same streams — degradation is bit-neutral.
MAX_OOM_RETRIES = 8
OOM_BACKOFF_BASE_S = 0.05
OOM_BACKOFF_MAX_S = 2.0


@dataclass
class LargeGraphStats:
    """Execution record of one large-graph training call."""

    num_parts: int = 0
    rotations: int = 0
    kernels: int = 0
    positive_samples: int = 0
    submatrix_switches: int = 0
    seconds: float = 0.0
    execution_mode: str = DEFAULT_EXECUTION_MODE
    pool_stall_seconds: float = 0.0   # kernel time lost waiting on pools
    pool_produce_seconds: float = 0.0  # build + prepare time (producer side)
    max_ready_pools: int = 0           # peak ready-queue depth observed
    start_rotation: int = 0            # first rotation executed (resume cursor)
    oom_retries: int = 0               # attempts lost to DeviceMemoryError
    # One record per degradation step: the error, the halved footprint the
    # retry ran with, and the backoff it waited (see MAX_OOM_RETRIES).
    degradations: list[dict] = field(default_factory=list)


class LargeGraphTrainer:
    """Runs Algorithm 5 for one level against a simulated device.

    ``config`` is the run's :class:`~repro.embedding.config.GoshConfig`; the
    engine reads B, P_GPU, S_GPU, ns, the learning-rate schedule, the layer
    backends and the seed from it.  ``min_parts`` forces ``K >= min_parts``
    (tests / figure 3).
    """

    def __init__(self, device: SimulatedDevice, config: GoshConfig | None = None,
                 *, min_parts: int | None = None):
        if config is None:
            from ..embedding.config import GoshConfig
            config = GoshConfig()
        self.device = device
        self.config = config
        self.min_parts = min_parts

    def train(self, graph: CSRGraph, embedding: np.ndarray, epochs: int, *,
              base_lr: float | None = None, level: int = 0,
              start_rotation: int = 0,
              on_rotation: Callable[[int], None] | None = None) -> LargeGraphStats:
        """Train ``embedding`` in place for (approximately) ``epochs`` epochs.

        ``start_rotation`` skips rotations already completed by a checkpointed
        run: the schedule entries keep their true rotation numbers, so every
        content-keyed draw and the LR decay match the uninterrupted run
        bit-for-bit.  ``on_rotation(completed)`` fires after each rotation
        with the host matrix synced (see :meth:`GPUState.sync_to_host`) — the
        checkpoint hook.  ``level`` only labels fault-injection crossings.
        """
        cfg = self.config
        n, dim = embedding.shape
        if n != graph.num_vertices:
            raise ValueError("embedding and graph disagree on |V|")
        lr0 = cfg.learning_rate if base_lr is None else base_lr

        # --- Line 1: GetEmbeddingPartInfo -------------------------------- #
        # K is ALWAYS computed from the configured P_GPU, never a degraded
        # one: changing K would change the partition, the schedule, and every
        # keyed draw — breaking bit-exact resume.  Degradation only shrinks
        # the resident footprint below.
        k = compute_num_parts(
            n, dim, embedding.dtype.itemsize, self.device.spec.memory_bytes,
            resident_parts=cfg.resident_submatrices,
        )
        if self.min_parts is not None:
            k = max(k, self.min_parts)
        partition = contiguous_partition(n, k)
        k = partition.num_parts

        B = cfg.positive_batch_per_vertex
        rotations = max(1, int(np.ceil(epochs / (B * k))))
        if not 0 <= start_rotation <= rotations:
            raise ValueError(
                f"start_rotation={start_rotation} outside [0, {rotations}]")

        order = inside_out_order(k)
        schedule = [e for e in build_schedule(rotations, order)
                    if e.rotation >= start_rotation]

        # Snapshot the matrix at entry: a failed (OOM) attempt may have
        # flushed partial updates nowhere, but the host rows of evicted parts
        # can already differ — restore before every retry.
        entry_state = embedding.copy()
        p_gpu = cfg.resident_submatrices
        s_gpu = cfg.resident_sample_pools
        degradations: list[dict] = []
        attempt = 0
        while True:
            stats = LargeGraphStats(
                num_parts=k, rotations=rotations, start_rotation=start_rotation,
                execution_mode=normalize_execution_mode(cfg.execution_mode))
            t0 = perf_counter()
            try:
                self._run(graph, embedding, partition, schedule, order,
                          rotations, lr0, p_gpu, s_gpu, stats,
                          level=level, on_rotation=on_rotation)
            except DeviceMemoryError as exc:
                new_p = max(2, p_gpu // 2)
                new_s = max(1, s_gpu // 2)
                if (new_p, new_s) == (p_gpu, s_gpu) or attempt >= MAX_OOM_RETRIES:
                    raise
                delay = min(OOM_BACKOFF_BASE_S * (2 ** attempt), OOM_BACKOFF_MAX_S)
                degradations.append({
                    "attempt": attempt,
                    "error": str(exc),
                    "resident_submatrices": new_p,
                    "resident_sample_pools": new_s,
                    "backoff_s": delay,
                })
                p_gpu, s_gpu = new_p, new_s
                embedding[...] = entry_state
                attempt += 1
                time.sleep(delay)
                continue
            stats.oom_retries = attempt
            stats.degradations = degradations
            stats.seconds = perf_counter() - t0
            return stats

    def _run(self, graph: CSRGraph, embedding: np.ndarray, partition,
             schedule, order, rotations: int, lr0: float,
             p_gpu: int, s_gpu: int, stats: LargeGraphStats, *,
             level: int, on_rotation: Callable[[int], None] | None) -> None:
        """One attempt over ``schedule`` with the given resident footprint."""
        cfg = self.config
        dim = embedding.shape[1]
        pools = SamplePoolManager(
            graph=graph, partition=partition,
            batch_per_vertex=cfg.positive_batch_per_vertex,
            seed=cfg.seed, sampler_backend=cfg.sampler_backend,
        )
        state = GPUState(embedding=embedding, parts=partition.parts,
                         device=self.device, num_bins=p_gpu)
        warp_config = WarpConfig(dim=dim, small_dim_mode=cfg.small_dim_mode)
        backend = get_backend(cfg.kernel_backend)
        # One partition-wide global→local lookup array, built once and cached
        # on the partition, replaces the per-kernel-call dict index maps.
        g2l = partition.global_to_local()
        preparer = PoolPreparer(partition, backend, g2l,
                                cfg.negative_samples, cfg.seed)
        pcie_bytes_per_second = self.device.spec.pcie_gbps * 1e9
        last_index = len(order) - 1
        executor = create_executor(cfg.execution_mode, pools, preparer,
                                   schedule, s_gpu)
        rotation_start = perf_counter()
        try:
            with executor:
                for entry in schedule:
                    # Learning rate decays across rotations the way it decays
                    # across epochs in the in-memory trainer.
                    lr = lr0 * max(1.0 - entry.rotation / rotations, cfg.learning_rate_decay_floor)
                    a, b = entry.pair
                    upcoming = order[entry.pair_index + 1:]
                    state.ensure_pair(a, b, upcoming=upcoming)
                    ready = executor.next_ready()
                    pool = ready.pool

                    if trace.enabled:
                        # Ship the pool: a simulated H2D copy.  A zero-duration
                        # marker keeps the real-time profile honest; the
                        # PCIe-priced duration rides along in args.
                        nbytes = pool.nbytes()
                        trace.add_instant("h2d", level=level,
                                          rotation=entry.rotation, pair=[a, b],
                                          simulated_s=round(nbytes / pcie_bytes_per_second, 9),
                                          nbytes=nbytes)

                    sub = {a: state.submatrix(a)}
                    sub[b] = state.submatrix(b) if b != a else sub[a]
                    t_kernel = perf_counter()
                    for direction in ready.directions:
                        # A prepared launch reads its samples from the plan;
                        # only an unprepared one needs the expanded pairs.
                        if direction.plan is None:
                            pairs, extra = (direction.src, direction.dst), {}
                        else:
                            pairs, extra = (None, None), {"plan": direction.plan}
                        backend.train_pair(
                            partition.parts[direction.from_part],
                            partition.parts[direction.to_part],
                            sub[direction.from_part], sub[direction.to_part],
                            *pairs, cfg.negative_samples, lr, ready.rng,
                            device=self.device, warp_config=warp_config,
                            index_a=g2l, index_b=g2l, **extra,
                        )
                    if trace.enabled:
                        trace.add_complete("kernel", perf_counter() - t_kernel,
                                           level=level, rotation=entry.rotation,
                                           pair=[a, b],
                                           samples=pool.num_samples)
                    stats.kernels += 1
                    stats.positive_samples += pool.num_samples
                    if entry.pair_index == last_index:
                        completed = entry.rotation + 1
                        if trace.enabled:
                            trace.add_complete(
                                "rotation", perf_counter() - rotation_start,
                                level=level, rotation=completed)
                            rotation_start = perf_counter()
                        if on_rotation is not None:
                            state.sync_to_host()
                            on_rotation(completed)
                        FAULTS.crossing("rotation-boundary",
                                        level=level, rotation=completed)
            state.flush()
        except BaseException:
            # Free device memory without write-back: the caller restores the
            # host matrix from its entry snapshot before any retry.
            state.release()
            raise
        stats.submatrix_switches = state.switches
        stats.pool_stall_seconds = executor.stats.stall_seconds
        stats.pool_produce_seconds = executor.stats.produce_seconds
        stats.max_ready_pools = executor.stats.max_queue_depth

