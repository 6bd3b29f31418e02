"""Level trainer — the reproduction of ``TrainInGPU`` (Algorithm 3).

One *epoch* processes every vertex of the level's graph as a source exactly
once: it draws one positive sample from the source's neighbourhood and ``ns``
negative samples from the noise distribution, then applies Algorithm 1
updates through the (simulated-GPU) kernel.  Epochs are synchronised — the
kernel for epoch ``j + 1`` is not launched until epoch ``j`` finished — and
the learning rate decays linearly within the level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.samplers import NegativeSampler, PositiveSampler
from ..gpu.backends import KernelBackend, get_backend
from ..gpu.device import SimulatedDevice
from ..gpu.warp import WarpConfig
from .epochs import per_epoch_learning_rate

__all__ = ["init_embedding", "TrainingStats", "LevelTrainer"]


def init_embedding(num_vertices: int, dim: int,
                   rng: np.random.Generator | int | None = 0,
                   *, scale: float | None = None,
                   dtype=np.float32) -> np.ndarray:
    """Random initial embedding matrix.

    Uses the word2vec-style uniform initialisation in ``[-0.5/d, 0.5/d)``
    unless an explicit ``scale`` is given.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    s = (0.5 / dim) if scale is None else scale
    return ((rng.random((num_vertices, dim)) - 0.5) * 2.0 * s).astype(dtype)


@dataclass
class TrainingStats:
    """Per-level training record (feeds the speedup-breakdown figure)."""

    level: int = 0
    epochs: int = 0
    updates: int = 0
    seconds: float = 0.0
    final_lr: float = 0.0
    per_epoch_seconds: list[float] = field(default_factory=list)


@dataclass
class LevelTrainer:
    """Trains one coarsening level's embedding matrix in place.

    Parameters
    ----------
    kernel:
        ``"optimized"`` (staged, the GOSH kernel) or ``"naive"`` (per-sample
        global traffic, the Figure 4 reference point).
    backend:
        Kernel backend executing the epochs: a registered name
        (``"vectorized"`` — whole-epoch batched ops, the default — or
        ``"reference"`` — the loop-based oracle) or any object
        implementing :class:`~repro.gpu.backends.KernelBackend`.
    device:
        Optional :class:`SimulatedDevice` used for memory accounting and the
        simulated cost model.  When given, the embedding matrix is notionally
        resident on it (the in-memory path of Algorithm 2, lines 5–7).
    """

    negative_samples: int = 3
    learning_rate: float = 0.035
    lr_decay_floor: float = 1e-4
    kernel: str = "optimized"
    backend: str | KernelBackend = "vectorized"
    small_dim_mode: bool = True
    seed: int = 0
    device: SimulatedDevice | None = None

    def __post_init__(self) -> None:
        if self.kernel not in ("optimized", "naive"):
            raise ValueError(f"unknown kernel {self.kernel!r}")
        self._backend = get_backend(self.backend)

    def train(self, graph: CSRGraph, embedding: np.ndarray, epochs: int, *,
              level: int = 0, base_lr: float | None = None,
              rng: np.random.Generator | None = None) -> TrainingStats:
        """Run ``epochs`` synchronised epochs over ``graph``, updating ``embedding``."""
        if embedding.shape[0] != graph.num_vertices:
            raise ValueError(
                f"embedding has {embedding.shape[0]} rows, graph has {graph.num_vertices} vertices"
            )
        rng = rng or np.random.default_rng(self.seed + level)
        lr0 = self.learning_rate if base_lr is None else base_lr
        pos_sampler = PositiveSampler(graph, strategy="adjacency", seed=rng)
        neg_sampler = NegativeSampler(graph.num_vertices, seed=rng)
        warp_config = WarpConfig(dim=embedding.shape[1], small_dim_mode=self.small_dim_mode)

        stats = TrainingStats(level=level, epochs=epochs)
        sources = np.arange(graph.num_vertices, dtype=np.int64)
        lr = lr0
        for epoch in range(epochs):
            t0 = perf_counter()
            lr = per_epoch_learning_rate(lr0, epoch, epochs, floor=self.lr_decay_floor)
            positives = pos_sampler.sample(sources)
            negatives = neg_sampler.sample((sources.shape[0], self.negative_samples))
            self._backend.train_epoch(embedding, sources, positives, negatives, lr,
                                      kernel=self.kernel, device=self.device,
                                      warp_config=warp_config)
            dt = perf_counter() - t0
            stats.per_epoch_seconds.append(dt)
            stats.seconds += dt
            stats.updates += sources.shape[0] * (1 + self.negative_samples)
        stats.final_lr = lr
        return stats

