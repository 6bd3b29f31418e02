"""Embedding kernels (Algorithm 1 + the per-epoch body of Algorithm 3).

The CUDA kernels of the original implementation are replaced by vectorised
NumPy batch operations with the *same update semantics*:

* **Epoch synchronisation** — one call processes one epoch; no two epochs
  overlap (the paper's main race-reduction measure).
* **Source staging** — every source vertex appears exactly once per epoch, so
  its vector is "staged" (gathered once), updated through the positive and
  ``ns`` negative samples, and written back once — the shared-memory
  optimisation of Section 3.1.
* **Benign sample races** — sampled vertices are updated with
  ``np.add.at`` scatter-adds, so two warps sampling the same vertex in the
  same round accumulate both updates, mirroring the accepted race on the GPU.

Two kernel variants are provided because Figure 4 distinguishes them:

* :func:`train_epoch_naive` — gathers the source vector from "global memory"
  for every sample and scatters it back each time (no staging, no
  coalescing); this is the paper's *naive GPU* data point.
* :func:`train_epoch_optimized` — the staged, batched version described
  above; this is the *optimized GPU* data point and the kernel GOSH uses.
"""

from __future__ import annotations

import numpy as np

from .device import SimulatedDevice
from .warp import WarpConfig

__all__ = [
    "sigmoid",
    "SigmoidTable",
    "update_embedding_pair",
    "train_epoch_optimized",
    "train_epoch_naive",
    "train_pair_kernel",
    "build_index_lookup",
]


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    """Numerically-stable logistic function."""
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


class SigmoidTable:
    """Pre-computed sigmoid lookup table.

    GPU embedding implementations (GraphVite, word2vec lineage) replace the
    transcendental with a small table; we keep the same trick because it also
    speeds up NumPy slightly and documents the bounded-input behaviour
    (inputs are clipped to ``[-bound, bound]``).
    """

    def __init__(self, bound: float = 6.0, size: int = 1024, dtype=np.float64):
        if bound <= 0 or size < 2:
            raise ValueError("bound must be positive and size >= 2")
        self.bound = float(bound)
        self.size = int(size)
        xs = np.linspace(-bound, bound, size)
        self.table = np.asarray(sigmoid(xs), dtype=dtype)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        clipped = np.clip(x, -self.bound, self.bound)
        idx = ((clipped + self.bound) * (self.size - 1) / (2 * self.bound)).astype(np.int64)
        return self.table[idx]


def update_embedding_pair(vec_v: np.ndarray, vec_s: np.ndarray, positive: bool,
                          lr: float) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 1 on a single (source, sample) pair — reference implementation.

    Returns the updated copies ``(M[v], M[sample])``.  The batched kernels
    below are the production path; this function is the oracle the property
    tests compare them against.
    """
    b = 1.0 if positive else 0.0
    score = (b - sigmoid(float(np.dot(vec_v, vec_s)))) * lr
    new_v = vec_v + vec_s * score
    new_s = vec_s + new_v * score
    return new_v, new_s


def _apply_sample_round(staged: np.ndarray, embedding: np.ndarray,
                        samples: np.ndarray, b: float, lr: float,
                        sig) -> None:
    """One sample round for all sources at once (staged source vectors).

    ``staged`` is the (num_sources, d) array of in-shared-memory source
    vectors, modified in place; ``embedding`` is global memory, scatter-added
    in place.
    """
    sample_vecs = embedding[samples]
    scores = (b - sig(np.einsum("ij,ij->i", staged, sample_vecs))) * lr
    staged += sample_vecs * scores[:, None]
    # The sample update uses the *updated* source vector (line 3 of Alg. 1).
    np.add.at(embedding, samples, staged * scores[:, None])


def train_epoch_optimized(embedding: np.ndarray, sources: np.ndarray,
                          positives: np.ndarray, negatives: np.ndarray,
                          lr: float, *, device: SimulatedDevice | None = None,
                          warp_config: WarpConfig | None = None,
                          chunk_size: int = 2048,
                          sig=sigmoid) -> None:
    """One synchronised epoch with source staging (the GOSH kernel).

    Sources are processed in chunks of ``chunk_size`` warps; within a chunk
    the source vectors live in "shared memory" (a staged copy), while the
    sampled vectors are scatter-updated in global memory.  At write-back the
    staged source update is *merged* with any updates the same rows received
    as samples during the chunk, mirroring the GPU behaviour where warps
    interleave in time and only truly concurrent accesses race.

    Parameters
    ----------
    embedding:
        ``(|V|, d)`` matrix updated in place ("global memory").
    sources:
        Source vertices for this epoch; must not contain duplicates (each
        vertex is the source of at most one warp per epoch).
    positives:
        One positive sample per source (entries < 0 mean "no positive
        neighbour"; those sources skip the positive round).
    negatives:
        ``(num_sources, ns)`` negative samples.
    """
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size == 0:
        return
    if np.unique(sources).shape[0] != sources.shape[0]:
        raise ValueError("sources must be unique within an epoch")
    ns = negatives.shape[1] if negatives.ndim == 2 else 0
    num_sources = sources.shape[0]
    for start in range(0, num_sources, chunk_size):
        stop = min(start + chunk_size, num_sources)
        chunk = sources[start:stop]
        chunk_pos = positives[start:stop]
        chunk_neg = negatives[start:stop] if ns else negatives

        original = embedding[chunk].copy()
        staged = original.copy()                 # shared-memory staging
        valid_pos = chunk_pos >= 0
        if np.any(valid_pos):
            # Positive round only for sources that have a positive sample.
            sub = staged[valid_pos]
            _apply_sample_round(sub, embedding, chunk_pos[valid_pos], 1.0, lr, sig)
            staged[valid_pos] = sub
        for k in range(ns):
            _apply_sample_round(staged, embedding, chunk_neg[:, k], 0.0, lr, sig)
        # Write back: keep the source-side updates (staged - original) plus
        # whatever the rows received as samples meanwhile.
        received = embedding[chunk] - original
        embedding[chunk] = staged + received

    record_epoch_cost(device, "optimized", num_sources, ns, embedding.shape[1],
                      warp_config=warp_config)


def train_epoch_naive(embedding: np.ndarray, sources: np.ndarray,
                      positives: np.ndarray, negatives: np.ndarray,
                      lr: float, *, device: SimulatedDevice | None = None,
                      sig=sigmoid) -> None:
    """The un-optimised kernel: re-read and re-write the source per sample.

    Functionally equivalent to a per-sample sequence of Algorithm 1 updates
    against global memory (no staging), which costs (1 + ns) gathers and
    2 x (1 + ns) scatters of the source vector per epoch instead of one of
    each.  Used as the Figure 4 "Naive GPU" reference point.
    """
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size == 0:
        return
    ns = negatives.shape[1] if negatives.ndim == 2 else 0
    rounds: list[tuple[np.ndarray, float, np.ndarray]] = []
    valid_pos = positives >= 0
    rounds.append((sources[valid_pos], 1.0, positives[valid_pos]))
    for k in range(ns):
        rounds.append((sources, 0.0, negatives[:, k]))
    for srcs, b, samples in rounds:
        if srcs.size == 0:
            continue
        src_vecs = embedding[srcs]                       # global read every round
        sample_vecs = embedding[samples]
        scores = (b - sig(np.einsum("ij,ij->i", src_vecs, sample_vecs))) * lr
        new_src = src_vecs + sample_vecs * scores[:, None]
        embedding[srcs] = new_src                        # global write every round
        np.add.at(embedding, samples, new_src * scores[:, None])

    record_epoch_cost(device, "naive", sources.shape[0], ns, embedding.shape[1])


def build_index_lookup(part: np.ndarray, size: int | None = None) -> np.ndarray:
    """Global-id → local-row lookup array for a sub-matrix part.

    ``lookup[g] == i`` iff ``part[i] == g``; ids outside ``part`` map to
    ``-1``.  This replaces the per-call Python ``dict`` index maps the pair
    kernel used to build: the array is built once per partition (the
    large-graph scheduler caches one global-sized array per
    :class:`~repro.graph.partition.VertexPartition`) and reused by every
    kernel launch of a rotation.
    """
    part = np.asarray(part, dtype=np.int64)
    if size is None:
        size = int(part.max()) + 1 if part.size else 0
    lookup = np.full(size, -1, dtype=np.int64)
    lookup[part] = np.arange(part.shape[0], dtype=np.int64)
    return lookup


def resolve_locals(ids: np.ndarray, part: np.ndarray, index: np.ndarray | None,
                   name: str) -> np.ndarray:
    """Map global ids to local rows of ``part`` through a lookup array.

    Ids outside ``part`` raise ``KeyError`` — the contract the per-call
    ``dict`` maps used to enforce.  The check is a round-trip
    (``part[local] == global``) rather than a ``>= 0`` test because the
    scheduler passes one *partition-wide* lookup array, in which an id from
    the wrong part still resolves to a non-negative row — of the wrong
    sub-matrix — and would otherwise corrupt it silently.
    """
    if index is None:
        index = build_index_lookup(part)
    if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= index.shape[0]):
        raise KeyError(f"{name}: positive-pair ids outside the lookup range")
    local = index[ids].astype(np.int64, copy=False)
    if local.size and (
            (local < 0).any() or int(local.max()) >= part.shape[0]
            or not np.array_equal(part[local], ids)):
        raise KeyError(f"{name}: positive-pair ids outside the resident part")
    return local


def resolve_pair_locals(pos_src: np.ndarray, pos_dst: np.ndarray,
                        part_a: np.ndarray, part_b: np.ndarray,
                        index_a: np.ndarray | None,
                        index_b: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Map global positive-pair ids to local sub-matrix rows (both backends).

    :func:`resolve_locals` for each side; a diagonal pair (``part_b is
    part_a``) builds one lookup for both when none is given.
    """
    if index_a is None:
        index_a = build_index_lookup(part_a)
    if index_b is None:
        index_b = index_a if part_b is part_a else build_index_lookup(part_b)
    return (resolve_locals(pos_src, part_a, index_a, "pos_src/part_a"),
            resolve_locals(pos_dst, part_b, index_b, "pos_dst/part_b"))


def record_epoch_cost(device: SimulatedDevice | None, kernel: str,
                      num_sources: int, ns: int, dim: int, *,
                      warp_config: WarpConfig | None = None) -> None:
    """Simulated-device accounting for one epoch-kernel launch.

    Shared by every backend: the device prices the *paper's* GPU, so the
    modelled work must not depend on which host implementation ran.
    """
    if device is None:
        return
    if kernel == "optimized":
        cfg = warp_config or WarpConfig(dim=dim)
        device.record_kernel(num_sources * (1 + ns) * dim, efficiency=cfg.lane_efficiency)
    else:
        # Naive kernel: uncoalesced global traffic modelled as ~3x the work at
        # the efficiency of one lane per element.
        device.record_kernel(num_sources * (1 + ns) * dim * 3,
                             efficiency=min(1.0, dim / 32) * 0.5)


def record_pair_cost(device: SimulatedDevice | None, num_positives: int,
                     num_sources: int, ns: int, dim: int, *,
                     warp_config: WarpConfig | None = None) -> None:
    """Simulated-device accounting for one pair-kernel launch (all backends)."""
    if device is None:
        return
    cfg = warp_config or WarpConfig(dim=dim)
    device.record_kernel((num_positives + num_sources * ns) * dim,
                         efficiency=cfg.lane_efficiency)


def train_pair_kernel(part_a: np.ndarray, part_b: np.ndarray,
                      sub_a: np.ndarray, sub_b: np.ndarray,
                      pos_src: np.ndarray, pos_dst: np.ndarray,
                      ns: int, lr: float, rng: np.random.Generator, *,
                      device: SimulatedDevice | None = None,
                      warp_config: WarpConfig | None = None,
                      index_a: np.ndarray | None = None,
                      index_b: np.ndarray | None = None,
                      sig=sigmoid) -> None:
    """The large-graph kernel for one (V^a, V^b) sub-matrix pair (Section 3.3).

    ``sub_a``/``sub_b`` are the two resident sub-matrices (updated in place);
    ``part_a``/``part_b`` are the global vertex ids they contain.  Positive
    pairs ``(pos_src, pos_dst)`` are given in *global* ids (drawn on the host
    by the SampleManager); negative samples are drawn here, "on the device",
    uniformly from the partner part — exactly the split the paper uses.

    ``index_a``/``index_b`` are optional pre-built global→local lookup arrays
    (see :func:`build_index_lookup`); passing them skips the per-call lookup
    construction.  A single partition-wide array may serve as both.
    """
    if pos_src.shape[0] != pos_dst.shape[0]:
        raise ValueError("pos_src and pos_dst must have equal length")
    # Map global ids to positions inside the resident sub-matrices.
    local_src, local_dst = resolve_pair_locals(pos_src, pos_dst, part_a, part_b,
                                               index_a, index_b)

    # Positive updates.
    if local_src.size:
        src_vecs = sub_a[local_src]
        dst_vecs = sub_b[local_dst]
        scores = (1.0 - sig(np.einsum("ij,ij->i", src_vecs, dst_vecs))) * lr
        new_src = src_vecs + dst_vecs * scores[:, None]
        np.add.at(sub_a, local_src, dst_vecs * scores[:, None])
        np.add.at(sub_b, local_dst, new_src * scores[:, None])

    # Negative updates: for each source vertex in part A, ns negatives from
    # part B (and the caller invokes this kernel symmetrically for B vs A).
    if ns > 0 and part_a.shape[0] and part_b.shape[0]:
        neg_sources = np.arange(part_a.shape[0], dtype=np.int64)
        for _ in range(ns):
            neg_targets = rng.integers(0, part_b.shape[0], size=neg_sources.shape[0])
            src_vecs = sub_a[neg_sources]
            dst_vecs = sub_b[neg_targets]
            scores = (0.0 - sig(np.einsum("ij,ij->i", src_vecs, dst_vecs))) * lr
            new_src = src_vecs + dst_vecs * scores[:, None]
            np.add.at(sub_a, neg_sources, dst_vecs * scores[:, None])
            np.add.at(sub_b, neg_targets, new_src * scores[:, None])

    record_pair_cost(device, local_src.shape[0], part_a.shape[0], ns, sub_a.shape[1],
                     warp_config=warp_config)
