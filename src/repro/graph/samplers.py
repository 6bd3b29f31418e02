"""Positive and negative sample generation.

GOSH trains with VERSE-style noise-contrastive estimation: for every source
vertex one *positive* sample is drawn from the similarity distribution
``sim_Q`` (here adjacency similarity — a uniformly random neighbour) and
``ns`` *negative* samples are drawn from a noise distribution (uniform over
the vertex set).  Section 3.1 draws both on the GPU; these samplers do it
vectorised over whole epochs.  Section 3.3 draws the large-graph engine's
positives on the host, per part pair: :mod:`repro.large.sample_pool`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph

__all__ = [
    "PositiveSampler",
    "NegativeSampler",
    "AliasTable",
    "sample_positive_batch",
    "sample_negative_batch",
    "random_walk_positive_batch",
]


def sample_positive_batch(graph: CSRGraph, sources: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
    """Draw one uniformly-random neighbour per source vertex.

    Sources with no neighbours return ``-1``; callers must skip them (the
    link-prediction pipeline removes isolated vertices up front, but coarse
    graphs may still contain them transiently).
    """
    sources = np.asarray(sources, dtype=np.int64)
    deg = graph.xadj[sources + 1] - graph.xadj[sources]
    offsets = np.zeros(sources.shape[0], dtype=np.int64)
    nonzero = deg > 0
    if np.any(nonzero):
        offsets[nonzero] = rng.integers(0, deg[nonzero])
    result = np.full(sources.shape[0], -1, dtype=np.int64)
    result[nonzero] = graph.adj[graph.xadj[sources[nonzero]] + offsets[nonzero]]
    return result


def sample_negative_batch(num_vertices: int, shape: tuple[int, ...] | int,
                          rng: np.random.Generator,
                          *, restrict_to: np.ndarray | None = None) -> np.ndarray:
    """Draw negative samples uniformly over ``[0, num_vertices)``.

    When ``restrict_to`` is given (the large-graph engine restricts negatives
    to the partner sub-matrix part), samples are drawn from that id array.
    """
    if restrict_to is not None:
        idx = rng.integers(0, restrict_to.shape[0], size=shape)
        return restrict_to[idx]
    return rng.integers(0, num_vertices, size=shape, dtype=np.int64)


def random_walk_positive_batch(graph: CSRGraph, sources: np.ndarray, walk_length: int,
                               rng: np.random.Generator) -> np.ndarray:
    """PPR-style positive sampling: terminate a short random walk.

    VERSE's default similarity is personalised PageRank; GOSH uses adjacency
    similarity, but we keep the walk sampler so the VERSE baseline can be run
    with its recommended settings (``alpha = 0.85`` corresponds to a
    geometric walk length).
    """
    current = np.asarray(sources, dtype=np.int64).copy()
    for _ in range(max(1, walk_length)):
        nxt = sample_positive_batch(graph, current, rng)
        stuck = nxt < 0
        nxt[stuck] = current[stuck]
        current = nxt
    return current


@dataclass
class AliasTable:
    """O(1) sampling from a discrete distribution (Walker's alias method).

    GraphVite and several embedding systems sample negatives proportional to
    degree^0.75; the alias table supports that noise distribution.
    """

    prob: np.ndarray
    alias: np.ndarray

    @classmethod
    def from_weights(cls, weights: np.ndarray) -> "AliasTable":
        weights = np.asarray(weights, dtype=np.float64)
        if weights.size == 0:
            raise ValueError("weights must be non-empty")
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")
        total = weights.sum()
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        n = weights.shape[0]
        scaled = weights * (n / total)
        prob = np.zeros(n, dtype=np.float64)
        alias = np.zeros(n, dtype=np.int64)
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        scaled = scaled.copy()
        while small and large:
            s = small.pop()
            l = large.pop()
            prob[s] = scaled[s]
            alias[s] = l
            scaled[l] = scaled[l] - (1.0 - scaled[s])
            if scaled[l] < 1.0:
                small.append(l)
            else:
                large.append(l)
        for leftover in small + large:
            prob[leftover] = 1.0
            alias[leftover] = leftover
        return cls(prob=prob, alias=alias)

    def sample(self, size: int | tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        n = self.prob.shape[0]
        idx = rng.integers(0, n, size=size)
        accept = rng.random(size=idx.shape) < self.prob[idx]
        return np.where(accept, idx, self.alias[idx])


class PositiveSampler:
    """Positive-sample stream for a graph.

    ``strategy`` selects between the paper's adjacency similarity
    (``"adjacency"``) and VERSE's PPR walks (``"ppr"``).  The large-graph
    engine's part-pair pools are drawn by
    :class:`~repro.large.sample_pool.SamplePoolManager` instead.
    """

    def __init__(self, graph: CSRGraph, *, strategy: str = "adjacency",
                 walk_length: int = 3, seed: int | np.random.Generator | None = 0):
        if strategy not in ("adjacency", "ppr"):
            raise ValueError(f"unknown positive sampling strategy: {strategy!r}")
        self.graph = graph
        self.strategy = strategy
        self.walk_length = walk_length
        self.rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    def sample(self, sources: np.ndarray) -> np.ndarray:
        if self.strategy == "adjacency":
            return sample_positive_batch(self.graph, sources, self.rng)
        return random_walk_positive_batch(self.graph, sources, self.walk_length, self.rng)


class NegativeSampler:
    """Negative-sample stream (uniform or degree^0.75 noise distribution)."""

    def __init__(self, num_vertices: int, *, degrees: np.ndarray | None = None,
                 power: float = 0.0, seed: int | np.random.Generator | None = 0):
        self.num_vertices = num_vertices
        self.rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        self._alias: AliasTable | None = None
        if power > 0.0:
            if degrees is None:
                raise ValueError("degrees required when power > 0")
            weights = np.power(np.asarray(degrees, dtype=np.float64), power)
            weights[weights <= 0] = 1e-12
            self._alias = AliasTable.from_weights(weights)

    def sample(self, shape: int | tuple[int, ...],
               restrict_to: np.ndarray | None = None) -> np.ndarray:
        if self._alias is not None and restrict_to is None:
            return self._alias.sample(shape, self.rng)
        return sample_negative_batch(self.num_vertices, shape, self.rng, restrict_to=restrict_to)
