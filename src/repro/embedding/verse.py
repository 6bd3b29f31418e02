"""VERSE baseline — CPU, single-level noise-contrastive embedding.

VERSE (Tsitsulin et al., 2018) is the embedding method GOSH builds on: the
same Algorithm 1 update, but trained on the original graph only (no
coarsening) on the CPU.  The paper uses it both as the quality reference and
as the speed baseline for every speedup number in Tables 6 and 7.

Two execution modes are provided:

* ``mode="loop"`` — a faithful per-vertex Python loop in the spirit of the
  original single-thread C++ implementation.  Slow, used only on tiny graphs
  and as the CPU reference point of the Figure 4 breakdown.
* ``mode="vectorized"`` — the same update schedule expressed as NumPy batch
  operations, standing in for the 16-thread OpenMP build the paper measures
  (this is the fair "CPU parallel" baseline on this substrate).

Both support the adjacency and PPR similarity measures (the paper runs VERSE
with PPR, alpha = 0.85).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.samplers import NegativeSampler, PositiveSampler
from ..gpu.kernels import sigmoid, train_epoch_optimized
from .trainer import init_embedding

__all__ = ["VerseConfig", "VerseResult", "verse_embed"]


@dataclass(frozen=True)
class VerseConfig:
    """Hyper-parameters for the VERSE baseline (paper Section 4.3 settings)."""

    dim: int = 128
    epochs: int = 600
    learning_rate: float = 0.0025
    negative_samples: int = 3
    similarity: str = "ppr"      # "ppr" (paper default, alpha=0.85) or "adjacency"
    ppr_alpha: float = 0.85
    mode: str = "vectorized"     # "vectorized" or "loop"
    seed: int = 0


@dataclass
class VerseResult:
    embedding: np.ndarray
    seconds: float
    epochs: int


def verse_embed(graph: CSRGraph, config: VerseConfig | None = None) -> VerseResult:
    """Train a VERSE embedding of ``graph``."""
    cfg = config or VerseConfig()
    rng = np.random.default_rng(cfg.seed)
    embedding = init_embedding(graph.num_vertices, cfg.dim, rng)
    pos_sampler = PositiveSampler(
        graph,
        strategy="adjacency" if cfg.similarity == "adjacency" else "ppr",
        walk_length=max(1, int(round(1.0 / max(1e-6, 1.0 - cfg.ppr_alpha)))) if cfg.similarity == "ppr" else 1,
        seed=rng,
    )
    neg_sampler = NegativeSampler(graph.num_vertices, seed=rng)
    sources = np.arange(graph.num_vertices, dtype=np.int64)

    t0 = perf_counter()
    if cfg.mode == "vectorized":
        for epoch in range(cfg.epochs):
            lr = cfg.learning_rate * max(1.0 - epoch / cfg.epochs, 1e-4)
            positives = pos_sampler.sample(sources)
            negatives = neg_sampler.sample((sources.shape[0], cfg.negative_samples))
            train_epoch_optimized(embedding, sources, positives, negatives, lr)
    elif cfg.mode == "loop":
        _loop_train(graph, embedding, cfg, pos_sampler, neg_sampler, rng)
    else:
        raise ValueError(f"unknown mode {cfg.mode!r}")
    return VerseResult(embedding=embedding, seconds=perf_counter() - t0, epochs=cfg.epochs)


def _loop_train(graph: CSRGraph, embedding: np.ndarray, cfg: VerseConfig,
                pos_sampler: PositiveSampler, neg_sampler: NegativeSampler,
                rng: np.random.Generator) -> None:
    """Per-vertex scalar updates — the single-thread CPU reference path."""
    n = graph.num_vertices
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * max(1.0 - epoch / cfg.epochs, 1e-4)
        order = rng.permutation(n)
        for v in order:
            v = int(v)
            pos = pos_sampler.sample(np.array([v]))[0]
            if pos >= 0:
                _scalar_update(embedding, v, int(pos), 1.0, lr)
            for _ in range(cfg.negative_samples):
                neg = int(neg_sampler.sample(1)[0])
                _scalar_update(embedding, v, neg, 0.0, lr)


def _scalar_update(embedding: np.ndarray, v: int, s: int, b: float, lr: float) -> None:
    score = (b - float(sigmoid(float(np.dot(embedding[v], embedding[s]))))) * lr
    embedding[v] = embedding[v] + embedding[s] * score
    embedding[s] = embedding[s] + embedding[v] * score
