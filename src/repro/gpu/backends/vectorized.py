"""The ``"vectorized"`` backend — whole-epoch batched kernels.

The reference kernels process an epoch in 2048-source chunks, evaluate an
exact ``float64`` sigmoid per round, and scatter sample updates with
``np.add.at`` (which is an order of magnitude slower than plain fancy
indexing because it resolves duplicate indices by accumulation).  This
backend computes whole sample-rounds as single batched NumPy expressions:

* **Fused sigmoid LUT** — scores go through a ``float32`` lookup table
  (:class:`~repro.gpu.kernels.SigmoidTable` with 8192 bins over ``[-6, 6]``),
  the GraphVite/word2vec trick; maximum quantisation error per update is
  ``lr * 0.5 * (12 / 8192)`` — two orders of magnitude below the update
  magnitude itself.
* **Gather–update–scatter with deterministic last-writer-wins** — sample
  rounds of the epoch kernels write updated sample vectors back with fancy
  index assignment.  When the same vertex is sampled twice in one round, the
  later occurrence (in sample order) wins, which is deterministic across
  runs; the reference backend accumulates both.  This mirrors the paper's
  benign write-races (Section 3.1) more literally than accumulation does —
  on the GPU a lost concurrent update is exactly what a race produces.
* **Precomputed index arrays** — the pair kernel maps global vertex ids
  through :func:`~repro.gpu.kernels.build_index_lookup` arrays instead of
  per-call Python dicts, and accepts partition-wide cached arrays from the
  large-graph scheduler.

The pair kernel keeps *accumulation* semantics for its conflicts (positive
pools repeat each source ``B`` times, so dropping conflicting updates would
change training quality) but resolves them with a deterministic sort +
``np.add.reduceat`` segment sum instead of ``np.add.at``.

Parity with the reference backend is pinned by
``tests/gpu/test_kernel_backends.py``; the documented tolerances are
``atol = 2e-2`` on embeddings after a handful of epochs (LUT quantisation +
conflict policy) and ``atol = 1e-5`` for a single pair-kernel call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..device import SimulatedDevice
from ..warp import WarpConfig
from ..kernels import (
    SigmoidTable,
    record_epoch_cost,
    record_pair_cost,
    resolve_pair_locals,
)
from .base import EPOCH_KERNELS

__all__ = ["VectorizedBackend", "ScatterPlan", "PairPlan", "plan_scatter"]


@dataclass(frozen=True)
class ScatterPlan:
    """Precomputed index structure for one deterministic segment scatter-add.

    The expensive part of ``target[idx] += updates`` with duplicate
    accumulation is the stable sort of ``idx`` — which depends only on the
    indices, never on the update values.  A plan captures that sort (the
    permutation, the duplicate-segment starts, and the unique target rows) so
    the value-dependent half can run later, possibly on another thread's
    schedule: the pipelined large-graph engine builds plans on the producer
    while the consumer applies them against live sub-matrices.
    """

    order: np.ndarray    # stable argsort of idx
    starts: np.ndarray   # duplicate-segment boundaries in the sorted order
    heads: np.ndarray    # unique target rows, one per segment

    def apply(self, target: np.ndarray, updates: np.ndarray) -> None:
        """``target[idx] += updates`` using the precomputed sort."""
        if self.order.size == 0:
            return
        target[self.heads] += np.add.reduceat(updates[self.order], self.starts, axis=0)


def plan_scatter(idx: np.ndarray) -> ScatterPlan:
    """Build the :class:`ScatterPlan` for an index array (value-independent)."""
    if idx.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return ScatterPlan(order=empty, starts=empty, heads=empty)
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    # Segment boundaries straight off the sorted array (np.unique would
    # needlessly re-sort it).
    starts = np.concatenate(([0], np.flatnonzero(sorted_idx[1:] != sorted_idx[:-1]) + 1))
    return ScatterPlan(order=order, starts=starts, heads=sorted_idx[starts])


@dataclass(frozen=True)
class PairPlan:
    """Device-ready preparation of one pair-kernel launch.

    Everything ``train_pair`` needs that does *not* read embedding values:
    resolved local index arrays, scatter plans for the positive rounds, and
    the pre-drawn negative targets (one row per round) with their plans.
    Built by :meth:`VectorizedBackend.prepare_pair` — on the pipelined
    engine's producer thread — and consumed by passing ``plan=`` to
    :meth:`VectorizedBackend.train_pair`, which is then bit-identical to the
    unprepared call with the same generator (the plan drew the same negative
    stream the kernel would have drawn inline).
    """

    local_src: np.ndarray
    local_dst: np.ndarray
    pos_src_scatter: ScatterPlan
    pos_dst_scatter: ScatterPlan
    neg_targets: np.ndarray          # (rounds, |part_a|) pre-drawn negatives
    neg_scatters: tuple[ScatterPlan, ...]

    def nbytes(self) -> int:
        arrays = [self.local_src, self.local_dst, self.neg_targets]
        for plan in (self.pos_src_scatter, self.pos_dst_scatter, *self.neg_scatters):
            arrays += [plan.order, plan.starts, plan.heads]
        return int(sum(a.nbytes for a in arrays))


class VectorizedBackend:
    """Whole-epoch batched kernels (fused LUT, last-writer-wins scatter).

    Parameters
    ----------
    table_size, bound:
        Resolution and clip range of the fused sigmoid lookup table.
    sig:
        Optional callable overriding the LUT entirely (the parity tests pass
        the exact sigmoid here to isolate conflict-policy differences).
    """

    name = "vectorized"

    def __init__(self, *, table_size: int = 8192, bound: float = 6.0, sig=None):
        self._sig = sig if sig is not None else SigmoidTable(
            bound=bound, size=table_size, dtype=np.float32)

    # ------------------------------------------------------------------ #
    # Epoch kernels
    # ------------------------------------------------------------------ #
    def train_epoch(self, embedding: np.ndarray, sources: np.ndarray,
                    positives: np.ndarray, negatives: np.ndarray, lr: float, *,
                    kernel: str = "optimized",
                    device: SimulatedDevice | None = None,
                    warp_config: WarpConfig | None = None) -> None:
        if kernel not in EPOCH_KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}; options: {', '.join(EPOCH_KERNELS)}")
        sources = np.asarray(sources, dtype=np.int64)
        if sources.size == 0:
            return
        ns = negatives.shape[1] if negatives.ndim == 2 else 0
        if kernel == "optimized":
            if np.unique(sources).shape[0] != sources.shape[0]:
                raise ValueError("sources must be unique within an epoch")
            self._epoch_optimized(embedding, sources, positives, negatives, lr, ns)
        else:
            self._epoch_naive(embedding, sources, positives, negatives, lr, ns)

        record_epoch_cost(device, kernel, sources.shape[0], ns, embedding.shape[1],
                          warp_config=warp_config)

    def _epoch_optimized(self, embedding: np.ndarray, sources: np.ndarray,
                         positives: np.ndarray, negatives: np.ndarray,
                         lr: float, ns: int) -> None:
        """Source-staged epoch as one whole-epoch chunk.

        Same structure as the reference kernel with ``chunk_size = |sources|``:
        stage every source vector once, run the positive round and ``ns``
        negative rounds against global memory, then merge the staged source
        deltas with whatever the same rows received as samples.
        """
        sig = self._sig
        original = embedding[sources]
        staged = original.copy()
        valid_pos = positives >= 0
        if np.any(valid_pos):
            samples = positives[valid_pos]
            sub = staged[valid_pos]
            sample_vecs = embedding[samples]
            scores = (1.0 - sig(np.einsum("ij,ij->i", sub, sample_vecs))) * lr
            sub += sample_vecs * scores[:, None]
            staged[valid_pos] = sub
            # Fancy assignment: duplicate samples resolve last-writer-wins.
            embedding[samples] = sample_vecs + sub * scores[:, None]
        for k in range(ns):
            samples = negatives[:, k]
            sample_vecs = embedding[samples]
            scores = (0.0 - sig(np.einsum("ij,ij->i", staged, sample_vecs))) * lr
            staged += sample_vecs * scores[:, None]
            embedding[samples] = sample_vecs + staged * scores[:, None]
        received = embedding[sources] - original
        embedding[sources] = staged + received

    def _epoch_naive(self, embedding: np.ndarray, sources: np.ndarray,
                     positives: np.ndarray, negatives: np.ndarray,
                     lr: float, ns: int) -> None:
        """Unstaged epoch: re-gather and re-scatter the source every round."""
        sig = self._sig
        valid_pos = positives >= 0
        rounds = [(sources[valid_pos], 1.0, positives[valid_pos])]
        rounds += [(sources, 0.0, negatives[:, k]) for k in range(ns)]
        for srcs, b, samples in rounds:
            if srcs.size == 0:
                continue
            src_vecs = embedding[srcs]
            sample_vecs = embedding[samples]
            scores = (b - sig(np.einsum("ij,ij->i", src_vecs, sample_vecs))) * lr
            new_src = src_vecs + sample_vecs * scores[:, None]
            embedding[srcs] = new_src
            # Re-gather: a vertex can be source and sample of the same round,
            # and the reference applies the sample delta on top of the source
            # write that just happened.
            embedding[samples] = embedding[samples] + new_src * scores[:, None]

    # ------------------------------------------------------------------ #
    # Pair kernel (large-graph engine)
    # ------------------------------------------------------------------ #
    def prepare_pair(self, part_a: np.ndarray, part_b: np.ndarray,
                     pos_src: np.ndarray, pos_dst: np.ndarray,
                     ns: int, rng: np.random.Generator, *,
                     index_a: np.ndarray | None = None,
                     index_b: np.ndarray | None = None) -> PairPlan:
        """Precompute the value-independent half of one ``train_pair`` call.

        Resolves the global→local index maps, builds the scatter plans for
        the positive rounds, and pre-draws the negative rounds from ``rng``
        — consuming it exactly as the inline kernel would (one
        ``integers(0, |part_b|, |part_a|)`` call per round), so a prepared
        launch and an unprepared launch sharing a generator produce
        bit-identical embeddings.  Reads no embedding data, which is what
        lets the pipelined engine run it on the pool-producer thread.
        """
        if pos_src.shape[0] != pos_dst.shape[0]:
            raise ValueError("pos_src and pos_dst must have equal length")
        local_src, local_dst = resolve_pair_locals(pos_src, pos_dst, part_a, part_b,
                                                   index_a, index_b)
        rounds = ns if (ns > 0 and part_a.shape[0] and part_b.shape[0]) else 0
        neg_targets = np.stack([
            rng.integers(0, part_b.shape[0], size=part_a.shape[0])
            for _ in range(rounds)
        ]) if rounds else np.zeros((0, part_a.shape[0]), dtype=np.int64)
        return PairPlan(
            local_src=local_src, local_dst=local_dst,
            pos_src_scatter=plan_scatter(local_src),
            pos_dst_scatter=plan_scatter(local_dst),
            neg_targets=neg_targets,
            neg_scatters=tuple(plan_scatter(row) for row in neg_targets),
        )

    def train_pair(self, part_a: np.ndarray, part_b: np.ndarray,
                   sub_a: np.ndarray, sub_b: np.ndarray,
                   pos_src: np.ndarray, pos_dst: np.ndarray,
                   ns: int, lr: float, rng: np.random.Generator, *,
                   device: SimulatedDevice | None = None,
                   warp_config: WarpConfig | None = None,
                   index_a: np.ndarray | None = None,
                   index_b: np.ndarray | None = None,
                   plan: PairPlan | None = None) -> None:
        if plan is None:
            plan = self.prepare_pair(part_a, part_b, pos_src, pos_dst, ns, rng,
                                     index_a=index_a, index_b=index_b)
        sig = self._sig
        local_src, local_dst = plan.local_src, plan.local_dst

        # Positive updates: scores from the pre-update vectors, conflicts
        # accumulated with the deterministic segment sum (positive pools
        # repeat every source B times — dropping those would lose training
        # signal, so last-writer-wins is wrong here).
        if local_src.size:
            src_vecs = sub_a[local_src]
            dst_vecs = sub_b[local_dst]
            scores = (1.0 - sig(np.einsum("ij,ij->i", src_vecs, dst_vecs))) * lr
            new_src = src_vecs + dst_vecs * scores[:, None]
            plan.pos_src_scatter.apply(sub_a, dst_vecs * scores[:, None])
            plan.pos_dst_scatter.apply(sub_b, new_src * scores[:, None])

        # Negative rounds: one per ns, sources are every vertex of part A
        # (unique, so the source side needs no conflict resolution at all).
        for neg_targets, neg_scatter in zip(plan.neg_targets, plan.neg_scatters):
            src_vecs = sub_a
            dst_vecs = sub_b[neg_targets]
            scores = (0.0 - sig(np.einsum("ij,ij->i", src_vecs, dst_vecs))) * lr
            new_src = src_vecs + dst_vecs * scores[:, None]
            sub_a += dst_vecs * scores[:, None]
            neg_scatter.apply(sub_b, new_src * scores[:, None])

        record_pair_cost(device, local_src.shape[0], part_a.shape[0], ns,
                         sub_a.shape[1], warp_config=warp_config)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.__class__.__name__}()"
