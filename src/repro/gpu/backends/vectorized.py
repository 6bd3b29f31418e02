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
change training quality).  Its scatters are bit-identical to ``np.add.at``
in sample order without calling ``np.add.at``:

* **Source side, no plan.**  Prepared launches take their positive sources
  in the sampler's source-major layout — strictly increasing local rows,
  each owning ``B`` consecutive samples (the paper kernel's one source
  vertex per warp).  :func:`scatter_rows` gathers each row once, adds its
  ``B`` updates left to right and writes it back: ``np.add.at``'s order,
  with no sort and no conflicts.  Negative rounds use every row of part A
  once, so they need no resolution either.
* **Destination and negative sides, planned.**  Those indices repeat in
  any order, so they go through a :class:`ScatterPlan` of duplicate-rank
  levels and degree-bucketed hub tails, built on the pipelined engine's
  producer thread.

Unprepared calls with arbitrary ``(pos_src, pos_dst)`` pairs plan the
source side too; they are bit-identical to a prepared launch of the same
samples.

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
    resolve_locals,
    resolve_pair_locals,
)
from ...graph.csr import pack_keys
from .base import EPOCH_KERNELS

__all__ = ["VectorizedBackend", "ScatterPlan", "PairPlan", "plan_scatter", "scatter_rows",
           "check_rows", "LEVELS"]


#: Occurrence ranks handled by plain fancy adds; longer (hub) segments put
#: the rest of their occurrences in padded tail buckets.
LEVELS = 8


@dataclass(frozen=True)
class TailBucket:
    """Hub segments whose tails fit one padded power-of-two width ``w``."""

    heads: np.ndarray   # (nseg,) unique target rows
    rows: np.ndarray    # (nseg, w) sample rows in order, padded with m = len(idx)
    pad: np.ndarray     # flat positions of the padding cells in ``rows``


@dataclass(frozen=True)
class ScatterPlan:
    """Precomputed index structure for ``np.add.at(target, idx, updates)``.

    The pair kernel plans the indices that repeat in arbitrary order: the
    positive destinations and every negative round's targets.  (Positive
    sources arrive source-major and go through :func:`scatter_rows`
    instead.)  The result is bit-identical to ``np.add.at`` in sample order:
    each target row receives its duplicate updates one at a time, left to
    right.  A plan depends only on ``idx``, never on the update values, so
    the pipelined large-graph engine builds plans on the producer thread
    while the consumer applies them against live sub-matrices.

    After a stable sort of ``idx`` each distinct row is a segment of its
    occurrences.  Level ``r`` holds the segments longer than ``r`` with the
    sample row of each one's ``r``-th occurrence; its heads are unique, so
    ``target[heads] += updates[rows]`` is a plain fancy add.  Occurrences
    past :data:`LEVELS` (hubs) go to tail buckets grouped by padded
    power-of-two width, which bounds both the bucket count and the padding;
    padding cells hold ``-0.0``, the exact IEEE additive identity.
    """

    levels: tuple[tuple[np.ndarray, np.ndarray], ...]   # (heads, rows) per rank
    tails: tuple[TailBucket, ...]

    def apply(self, target: np.ndarray, updates: np.ndarray) -> None:
        """``np.add.at(target, idx, updates)`` using the precomputed plan.

        Exact when ``updates`` has ``target``'s dtype (as in the kernels).
        """
        for heads, rows in self.levels:
            # u + t == t + u exactly; np.take gathers faster than fancy indexing.
            cells = np.take(updates, rows, axis=0)
            cells += np.take(target, heads, axis=0)
            target[heads] = cells
        for bucket in self.tails:
            # Padding indexes m; clip keeps the gather in range and the
            # padding cells are overwritten with -0.0 right after.
            cells = np.take(updates, bucket.rows, axis=0, mode="clip")
            cells.reshape(-1, *cells.shape[2:])[bucket.pad] = -0.0
            # (t + u0) + u1 + ...: addition commutes exactly, so folding the
            # target into the first column keeps the left-to-right order.
            cells[:, 0] += target[bucket.heads]
            target[bucket.heads] = _sum_columns(cells)

    def nbytes(self) -> int:
        arrays = [a for level in self.levels for a in level]
        arrays += [a for b in self.tails for a in (b.heads, b.rows, b.pad)]
        return int(sum(a.nbytes for a in arrays))


def _sum_columns(cells: np.ndarray) -> np.ndarray:
    """Left-to-right sum over axis 1 of an ``(nseg, w, ...)`` array.

    ``np.add.reduce`` runs the reduced axis as an outer loop — one sequential
    row add per column — while a row axis of width > 1 stays innermost; if
    the rows are scalars numpy would sum pairwise instead, so those go
    through ``accumulate``, which is sequential by definition.  The reduce
    starts from ``initial``, which must be ``-0.0``: ``+0.0 + -0.0`` would
    flip a ``-0.0`` first column to ``+0.0``.
    """
    if cells[0, 0].size > 1:
        return np.add.reduce(cells, axis=1, initial=-0.0)
    return np.add.accumulate(cells, axis=1)[:, -1]


def plan_scatter(idx: np.ndarray) -> ScatterPlan:
    """Build the :class:`ScatterPlan` for a non-negative index array.

    One ``np.sort`` of the packed keys ``idx * m + position``
    (:func:`~repro.graph.csr.pack_keys`) gives the order a stable argsort of
    ``idx`` would: the quotient of each sorted key is the row, the remainder
    its sample position.  Value-independent: the pipelined engine calls it on
    the producer thread.
    """
    m = int(idx.size)
    if m == 0:
        return ScatterPlan(levels=(), tails=())
    keys = np.sort(pack_keys(idx, np.arange(m), int(idx.max()) + 1, m))
    sorted_idx = keys // m
    order = keys - sorted_idx * m
    # Segment boundaries come straight off the sorted keys: no second sort.
    starts = np.concatenate(([0], np.flatnonzero(sorted_idx[1:] != sorted_idx[:-1]) + 1))
    lengths = np.diff(starts, append=m)
    levels = []
    for r in range(min(LEVELS, int(lengths.max()))):
        seg = starts[lengths > r]
        levels.append((sorted_idx[seg], order[seg + r]))

    hub = lengths > LEVELS
    hub_starts, tail = starts[hub] + LEVELS, lengths[hub] - LEVELS
    # Bucket by padded width 2**ceil(log2(tail)), so every width < 2 * tail.
    log_width = np.frexp(tail - 1)[1]
    tails = []
    for e in np.flatnonzero(np.bincount(log_width)):
        sel = log_width == e
        w = 1 << int(e)
        cols = np.arange(w)
        pos = hub_starts[sel, None] + cols
        real = cols < tail[sel, None]
        rows = np.where(real, order[np.minimum(pos, m - 1)], m)
        tails.append(TailBucket(heads=sorted_idx[hub_starts[sel] - LEVELS], rows=rows,
                                pad=np.flatnonzero(~real)))
    return ScatterPlan(levels=tuple(levels), tails=tuple(tails))


def check_rows(rows: np.ndarray, size: int) -> None:
    """Raise ``KeyError`` unless ``rows`` strictly increase within ``[0, size)``.

    The O(n) guard of the source-major path: it is what makes the rows of
    :func:`scatter_rows` unique, and what the destination side's round-trip
    check proves for global ids.
    """
    if rows.size and (int(rows[0]) < 0 or int(rows[-1]) >= size
                      or not (rows[1:] > rows[:-1]).all()):
        raise KeyError("src_rows: not strictly increasing rows of the resident part")


def scatter_rows(target: np.ndarray, rows: np.ndarray, B: int,
                 updates: np.ndarray) -> None:
    """``np.add.at(target, np.repeat(rows, B), updates)`` for source-major rows.

    ``rows`` must strictly increase (:func:`check_rows`), so each is written
    once: gather the rows, add their ``B`` update columns left to right, and
    write them back.  Every row sees ``t + u0 + u1 + ...`` — ``np.add.at``'s
    sample order — so the result is bit-identical, signed zeros included.
    """
    if rows.size == 0:
        return
    cols = updates.reshape(rows.shape[0], B, *updates.shape[1:])
    acc = np.take(target, rows, axis=0)
    for j in range(B):
        acc += cols[:, j]
    target[rows] = acc


@dataclass(frozen=True)
class PairPlan:
    """Device-ready preparation of one pair-kernel launch.

    Everything ``train_pair`` needs that does *not* read embedding values:
    the positive sources as source-major ``src_rows`` (strictly increasing
    local rows of part A, ``B`` consecutive samples each — no scatter plan),
    the destinations' local rows and scatter plan, and the pre-drawn
    negative targets (one row per round) with their plans.  Built by
    :meth:`VectorizedBackend.prepare_pair` — on the pipelined engine's
    producer thread — and consumed by passing ``plan=`` to
    :meth:`VectorizedBackend.train_pair`, which is then bit-identical to the
    unprepared call on the expanded pairs with the same generator (the plan
    drew the same negative stream the kernel would have drawn inline).
    """

    src_rows: np.ndarray
    B: int
    local_dst: np.ndarray
    pos_dst_scatter: ScatterPlan
    neg_targets: np.ndarray          # (rounds, |part_a|) pre-drawn negatives
    neg_scatters: tuple[ScatterPlan, ...]

    def nbytes(self) -> int:
        arrays = [self.src_rows, self.local_dst, self.neg_targets]
        plans = (self.pos_dst_scatter, *self.neg_scatters)
        return int(sum(a.nbytes for a in arrays)) + sum(p.nbytes() for p in plans)


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
    @staticmethod
    def _draw_negatives(part_a: np.ndarray, part_b: np.ndarray, ns: int,
                        rng: np.random.Generator) -> np.ndarray:
        """One ``integers(0, |part_b|, |part_a|)`` row per negative round."""
        if not (ns > 0 and part_a.shape[0] and part_b.shape[0]):
            return np.zeros((0, part_a.shape[0]), dtype=np.int64)
        return np.stack([rng.integers(0, part_b.shape[0], size=part_a.shape[0])
                         for _ in range(ns)])

    def prepare_pair(self, part_a: np.ndarray, part_b: np.ndarray,
                     src_rows: np.ndarray, B: int, pos_dst: np.ndarray,
                     ns: int, rng: np.random.Generator, *,
                     index_b: np.ndarray | None = None) -> PairPlan:
        """Precompute the value-independent half of one ``train_pair`` call.

        Takes the positives source-major, as the sampler draws them:
        ``src_rows`` (strictly increasing local rows of ``part_a``) each own
        ``B`` consecutive entries of ``pos_dst`` (global ids in ``part_b``).
        The source side is only checked (:func:`check_rows`, O(n)) — no
        global→local lookup and no scatter plan; the destinations are
        resolved through ``index_b`` with the round-trip check and planned.
        Then the negative rounds are pre-drawn from ``rng``, consuming it
        exactly as the inline kernel would, so a prepared launch and an
        unprepared launch of the expanded pairs sharing a generator produce
        bit-identical embeddings.  Reads no embedding data, which is what
        lets the pipelined engine run it on the pool-producer thread.
        """
        B = int(B)
        if pos_dst.shape[0] != src_rows.shape[0] * B:
            raise ValueError("pos_dst must hold B samples per source row")
        check_rows(src_rows, part_a.shape[0])
        local_dst = resolve_locals(pos_dst, part_b, index_b, "pos_dst/part_b")
        neg_targets = self._draw_negatives(part_a, part_b, ns, rng)
        return PairPlan(
            src_rows=src_rows, B=B, local_dst=local_dst,
            pos_dst_scatter=plan_scatter(local_dst),
            neg_targets=neg_targets,
            neg_scatters=tuple(plan_scatter(row) for row in neg_targets),
        )

    def train_pair(self, part_a: np.ndarray, part_b: np.ndarray,
                   sub_a: np.ndarray, sub_b: np.ndarray,
                   pos_src: np.ndarray | None, pos_dst: np.ndarray | None,
                   ns: int, lr: float, rng: np.random.Generator | None, *,
                   device: SimulatedDevice | None = None,
                   warp_config: WarpConfig | None = None,
                   index_a: np.ndarray | None = None,
                   index_b: np.ndarray | None = None,
                   plan: PairPlan | None = None) -> None:
        """One pair launch; with ``plan`` the positional pairs, ``rng`` and
        the index arrays are ignored.

        Without a plan, ``(pos_src, pos_dst)`` may be arbitrary global pairs:
        both sides are resolved and planned, and the negatives drawn, inline.
        """
        if plan is None:
            if pos_src.shape[0] != pos_dst.shape[0]:
                raise ValueError("pos_src and pos_dst must have equal length")
            local_src, local_dst = resolve_pair_locals(pos_src, pos_dst, part_a, part_b,
                                                       index_a, index_b)
            neg_targets = self._draw_negatives(part_a, part_b, ns, rng)
            neg_scatters = [plan_scatter(row) for row in neg_targets]
            src_scatter, dst_scatter = plan_scatter(local_src), plan_scatter(local_dst)
        else:
            local_src, local_dst = np.repeat(plan.src_rows, plan.B), plan.local_dst
            src_scatter, dst_scatter = None, plan.pos_dst_scatter
            neg_targets, neg_scatters = plan.neg_targets, plan.neg_scatters

        sig = self._sig
        # Positive updates: scores from the pre-update vectors, conflicts
        # accumulated exactly as np.add.at would (positive pools repeat
        # every source B times — dropping those would lose training signal,
        # so last-writer-wins is wrong here).  With the float32 LUT the
        # scores share the matrices' dtype, so the in-place steps round
        # exactly like ``new_src = src + dst * s`` and its products.  The
        # source scatter runs first: on a diagonal pair ``sub_a is sub_b``.
        if local_src.size:
            src_vecs = np.take(sub_a, local_src, axis=0)
            dst_vecs = np.take(sub_b, local_dst, axis=0)
            scores = (1.0 - sig(np.einsum("ij,ij->i", src_vecs, dst_vecs))) * lr
            dst_vecs *= scores[:, None]
            src_vecs += dst_vecs
            src_vecs *= scores[:, None]
            if src_scatter is None:
                scatter_rows(sub_a, plan.src_rows, plan.B, dst_vecs)
            else:
                src_scatter.apply(sub_a, dst_vecs)
            dst_scatter.apply(sub_b, src_vecs)

        # Negative rounds: one per ns, sources are every vertex of part A
        # (unique, so the source side needs no conflict resolution at all).
        for targets, scatter in zip(neg_targets, neg_scatters):
            dst_vecs = np.take(sub_b, targets, axis=0)
            scores = (0.0 - sig(np.einsum("ij,ij->i", sub_a, dst_vecs))) * lr
            # sub_a after the in-place add is the updated source vector.
            dst_vecs *= scores[:, None]
            sub_a += dst_vecs
            scatter.apply(sub_b, sub_a * scores[:, None])

        record_pair_cost(device, local_src.shape[0], part_a.shape[0], ns,
                         sub_a.shape[1], warp_config=warp_config)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.__class__.__name__}()"
