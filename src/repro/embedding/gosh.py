"""GOSH — the end-to-end multilevel embedding pipeline (Algorithm 2).

Given a graph ``G_0`` and a :class:`~repro.embedding.config.GoshConfig`, the
pipeline:

1. coarsens ``G_0`` into a hierarchy ``G_0 … G_{D-1}`` with
   MultiEdgeCollapse (parallel by default, sequential or disabled via the
   config — the latter reproduces the Gosh-NoCoarse rows of Table 6),
2. distributes the epoch budget over the levels with the smoothing ratio,
3. randomly initialises ``M_{D-1}`` and trains level by level from coarsest
   to finest, expanding the embedding through the coarsening mapping between
   levels,
4. per level, trains in-memory when ``G_i`` and ``M_i`` fit on the simulated
   device, and falls back to the partitioned large-graph engine otherwise
   (lines 5–10 of Algorithm 2).

The returned :class:`GoshResult` carries the final embedding plus per-level
statistics used by the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..coarsening.hierarchy import CoarseningHierarchy
from ..coarsening.multi_edge_collapse import multi_edge_collapse
from ..coarsening.parallel_collapse import parallel_multi_edge_collapse
from ..faults import FAULTS
from ..gpu.device import SimulatedDevice, embedding_fits_on_device
from ..large.scheduler import LargeGraphStats, LargeGraphTrainer
from ..graph.csr import CSRGraph
from ..obs import trace
from .checkpoint import CheckpointMismatchError, CheckpointPolicy, ResumeState, TrainingInterrupted
from .config import GoshConfig, NORMAL
from .epochs import distribute_epochs
from .trainer import LevelTrainer, TrainingStats, init_embedding

__all__ = ["GoshResult", "GoshEmbedder", "embed"]


@dataclass
class GoshResult:
    """Output of a GOSH run."""

    embedding: np.ndarray
    hierarchy: CoarseningHierarchy
    config: GoshConfig
    coarsening_seconds: float = 0.0
    training_seconds: float = 0.0
    total_seconds: float = 0.0
    epochs_per_level: list[int] = field(default_factory=list)
    level_stats: list[TrainingStats] = field(default_factory=list)
    large_graph_stats: list[LargeGraphStats] = field(default_factory=list)
    checkpoints_saved: int = 0
    resumed_from: dict | None = None  # {"level", "rotation", "version"}

    @property
    def num_levels(self) -> int:
        return self.hierarchy.num_levels

    def summary(self) -> dict[str, object]:
        return {
            "config": self.config.name,
            "levels": self.num_levels,
            "level_sizes": self.hierarchy.level_sizes(),
            "epochs_per_level": self.epochs_per_level,
            "coarsening_s": round(self.coarsening_seconds, 4),
            "training_s": round(self.training_seconds, 4),
            "total_s": round(self.total_seconds, 4),
        }


class GoshEmbedder:
    """Drives Algorithm 2 for a given configuration and simulated device."""

    def __init__(self, config: GoshConfig | None = None,
                 device: SimulatedDevice | None = None):
        self.config = config or NORMAL
        self.config.validate()
        self.device = device or SimulatedDevice()

    # ------------------------------------------------------------------ #
    def coarsen(self, graph: CSRGraph) -> tuple[CoarseningHierarchy, float]:
        """Stage 1 of Algorithm 2: build the coarsening hierarchy."""
        cfg = self.config
        t0 = perf_counter()
        if not cfg.use_coarsening:
            hierarchy = CoarseningHierarchy.trivial(graph)
        else:
            coarsener = (parallel_multi_edge_collapse if cfg.use_parallel_coarsening
                         else multi_edge_collapse)
            result = coarsener(graph, threshold=cfg.coarsening_threshold,
                               max_levels=cfg.max_coarsening_levels)
            hierarchy = CoarseningHierarchy.from_result(result)
        seconds = perf_counter() - t0
        if trace.enabled:
            trace.add_complete("coarsen", seconds,
                               vertices=graph.num_vertices,
                               levels=hierarchy.num_levels)
        return hierarchy, seconds

    # ------------------------------------------------------------------ #
    def embed(self, graph: CSRGraph, *, epochs: int | None = None,
              hierarchy: CoarseningHierarchy | None = None,
              checkpoint: CheckpointPolicy | None = None,
              resume: ResumeState | None = None) -> GoshResult:
        """Run the full pipeline and return the level-0 embedding.

        A pre-built ``hierarchy`` (e.g. from the :mod:`repro.api` hierarchy
        cache) skips stage 1 entirely; ``coarsening_seconds`` is then 0.

        ``checkpoint`` snapshots the matrix + cursor into the store at level
        boundaries and (optionally) every N rotations of a partitioned level;
        ``resume`` restarts from such a snapshot.  Because every random draw
        is keyed by content (seed, stream, rotation, pair) — never by wall
        clock or call order — a resumed run is bit-identical to an
        uninterrupted one.  Cursor semantics: ``(L, 0)`` is the matrix as
        expanded *into* level ``L`` (untrained); ``(L, r > 0)`` means ``r``
        rotations of partitioned level ``L`` are complete.
        """
        cfg = self.config
        total_start = perf_counter()
        if hierarchy is not None:
            coarsening_seconds = 0.0
        else:
            # coarsen() records its own trace span, covering this path and
            # the tool wrapper's cache-aware pre-coarsening alike.
            hierarchy, coarsening_seconds = self.coarsen(graph)

        budget = epochs if epochs is not None else cfg.epochs
        epochs_per_level = distribute_epochs(budget, hierarchy.num_levels, cfg.smoothing_ratio)

        rng = np.random.default_rng(cfg.seed)
        result = GoshResult(
            embedding=np.zeros((0, cfg.dim), dtype=np.float32),
            hierarchy=hierarchy,
            config=cfg,
            coarsening_seconds=coarsening_seconds,
            epochs_per_level=epochs_per_level,
        )

        trainer = LevelTrainer(
            negative_samples=cfg.negative_samples,
            learning_rate=cfg.learning_rate,
            lr_decay_floor=cfg.learning_rate_decay_floor,
            kernel="optimized",
            backend=cfg.kernel_backend,
            small_dim_mode=cfg.small_dim_mode,
            seed=cfg.seed,
            device=self.device,
        )
        large_trainer = LargeGraphTrainer(self.device, cfg)

        training_start = perf_counter()
        # Line 2: random initialisation of the coarsest level's matrix.
        coarsest = hierarchy.coarsest()
        embedding = init_embedding(coarsest.num_vertices, cfg.dim, rng)

        if resume is not None:
            result.resumed_from = {"level": resume.level, "rotation": resume.rotation,
                                   "version": resume.entry.version}

        # Lines 3–11: train from the coarsest level down to level 0.
        for level in hierarchy.training_order():
            start_rotation = 0
            if resume is not None:
                if level > resume.level:
                    # Already trained and expanded through this level in the
                    # interrupted run; the checkpoint matrix carries it.
                    continue
                if level == resume.level:
                    expected = hierarchy.level(level).num_vertices
                    rows, rdim = resume.embedding.shape
                    if rows != expected or rdim != cfg.dim:
                        raise CheckpointMismatchError(
                            f"checkpoint {resume.describe()} has shape "
                            f"({rows}, {rdim}); level {level} needs "
                            f"({expected}, {cfg.dim})")
                    embedding = np.array(resume.embedding, dtype=np.float32, copy=True)
                    start_rotation = resume.rotation
            level_graph = hierarchy.level(level)
            level_epochs = epochs_per_level[level]
            if level_epochs > 0:
                with trace.span("level", level=level,
                                vertices=level_graph.num_vertices,
                                epochs=level_epochs):
                    if embedding_fits_on_device(level_graph.num_vertices, cfg.dim,
                                                level_graph.nbytes(), self.device):
                        if start_rotation > 0:
                            raise CheckpointMismatchError(
                                f"checkpoint cursor (level={level}, rotation="
                                f"{start_rotation}) points inside a partitioned "
                                "level, but the level now fits in device memory "
                                "— was the device or dim changed?")
                        stats = trainer.train(level_graph, embedding, level_epochs,
                                              level=level, base_lr=cfg.learning_rate)
                        result.level_stats.append(stats)
                    else:
                        on_rotation = None
                        if checkpoint is not None:
                            on_rotation = self._make_rotation_hook(
                                checkpoint, result, level, embedding)
                        lstats = large_trainer.train(level_graph, embedding, level_epochs,
                                                     base_lr=cfg.learning_rate, level=level,
                                                     start_rotation=start_rotation,
                                                     on_rotation=on_rotation)
                        result.large_graph_stats.append(lstats)
            if level > 0:
                # Line 11: project M_i onto M_{i-1} through map_{i-1}.
                embedding = hierarchy.expand(level, embedding)
                if checkpoint is not None and (checkpoint.at_level_boundaries
                                               or checkpoint.stop_requested()):
                    with trace.span("checkpoint", level=level - 1, rotation=0):
                        entry = checkpoint.save(embedding, level=level - 1,
                                                rotation=0)
                    result.checkpoints_saved += 1
                    if checkpoint.stop_requested():
                        raise TrainingInterrupted(entry, level=level - 1, rotation=0)
            FAULTS.crossing("level-boundary", level=level)

        result.embedding = embedding
        result.training_seconds = perf_counter() - training_start
        result.total_seconds = perf_counter() - total_start
        return result

    @staticmethod
    def _make_rotation_hook(checkpoint: CheckpointPolicy, result: GoshResult,
                            level: int, matrix: np.ndarray):
        """Per-level rotation callback: cadence checkpoints + graceful stop.

        The large trainer calls this with the host matrix already synced
        (see ``GPUState.sync_to_host``), so ``matrix`` is snapshot-safe.
        """
        def on_rotation(completed: int) -> None:
            if checkpoint.stop_requested():
                with trace.span("checkpoint", level=level, rotation=completed):
                    entry = checkpoint.save(matrix, level=level, rotation=completed)
                result.checkpoints_saved += 1
                raise TrainingInterrupted(entry, level=level, rotation=completed)
            if checkpoint.due_at_rotation(completed):
                with trace.span("checkpoint", level=level, rotation=completed):
                    checkpoint.save(matrix, level=level, rotation=completed)
                result.checkpoints_saved += 1
        return on_rotation


def embed(graph: CSRGraph, config: GoshConfig | None = None, *,
          device: SimulatedDevice | None = None, epochs: int | None = None,
          checkpoint: CheckpointPolicy | None = None,
          resume: ResumeState | None = None) -> GoshResult:
    """One-call convenience API: ``repro.embed(graph, config)``."""
    return GoshEmbedder(config=config, device=device).embed(
        graph, epochs=epochs, checkpoint=checkpoint, resume=resume)
