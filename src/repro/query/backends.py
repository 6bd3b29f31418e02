"""Query backend layer: swappable top-k implementations over one scorer.

Like the kernel/sampler backend layers (:mod:`repro.gpu.backends` /
:mod:`repro.graph.sampler_backends`): a small protocol, two built-ins, and
name-based registration (:data:`QUERY_BACKENDS`) for third parties.

* ``"exact"`` — the brute-force oracle: score every row against every query
  in one pass and fully sort each query's score column.  Clarity over speed.
* ``"blocked"`` — the production path (default): stream the matrix in row
  blocks, keep only each block's top-k candidates (plus score ties at the
  boundary), and merge at the end.  It never materialises the full
  ``|V| x Q`` score matrix and replaces the oracle's per-query full sorts
  with O(|V|) partial selection, so throughput scales with matmul instead of
  sorting (floor ≥5x in ``benchmarks/test_query_perf.py``).

**Parity is exact.**  Both backends score through the same primitive
(:meth:`PreparedMatrix.score_block`) over the *same* ``block_rows`` grid —
identical float32 matmuls on identical row ranges, so the score bits cannot
drift even on BLAS builds whose accumulation order varies with the matrix
shape.  What differs is only the selection: the oracle sorts every score,
the blocked backend keeps per-block top-k candidates — including *every*
candidate tied with a block's k-th best score, so boundary ties cannot evict
the id the oracle would keep — and both break ties identically (smaller id
wins, via :func:`topk_by_score`).  The golden suite in ``tests/query/``
pins ids *and* score bits across block sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Protocol, runtime_checkable

import numpy as np

from ..registry import Registry, UnknownNameError

__all__ = [
    "METRICS",
    "DEFAULT_QUERY_BACKEND",
    "QUERY_BACKENDS",
    "PreparedMatrix",
    "QueryBackend",
    "ExactQueryBackend",
    "BlockedQueryBackend",
    "UnknownQueryBackendError",
    "register_query_backend",
    "get_query_backend",
    "available_query_backends",
    "topk_by_score",
    "resolve_vertex_range",
]

#: Supported scoring metrics.  ``dot`` is the raw inner product; ``cosine``
#: normalises by the precomputed row/query norms; ``sigmoid`` is the
#: trainer's edge-probability model sigma(u . v) — the same link score the
#: update kernels optimise — and, being monotone in ``dot``, ranks
#: identically while returning calibrated (0, 1) scores.
METRICS = ("dot", "cosine", "sigmoid")

DEFAULT_QUERY_BACKEND = "blocked"


@dataclass
class PreparedMatrix:
    """The embedding matrix prepared once for any number of queries.

    ``matrix`` is float32 and C-contiguous (a no-op view when the source —
    e.g. a memory-mapped store shard — already is).  ``inv_norms`` is
    precomputed lazily for the cosine metric and shared by every backend, so
    normalisation cannot introduce cross-backend drift.
    """

    matrix: np.ndarray
    metric: str = "cosine"
    _inv_norms: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}; options: {', '.join(METRICS)}")
        if self.matrix.ndim != 2:
            raise ValueError(f"embedding must be a 2-D matrix, got shape {self.matrix.shape}")
        self.matrix = np.ascontiguousarray(self.matrix, dtype=np.float32)

    @property
    def num_rows(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    @property
    def inv_norms(self) -> np.ndarray:
        if self._inv_norms is None:
            norms = np.sqrt(np.einsum("ij,ij->i", self.matrix, self.matrix,
                                      dtype=np.float32))
            # Zero rows score 0 against everything instead of NaN.
            safe = np.where(norms > 0.0, norms, np.float32(1.0))
            self._inv_norms = (np.float32(1.0) / safe).astype(np.float32)
        return self._inv_norms

    def prepare_queries(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Coerce queries to float32 ``(Q, d)`` and precompute their norms."""
        q = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        if q.shape[1] != self.dim:
            raise ValueError(f"queries must have dimension {self.dim}, got {q.shape[1]}")
        if self.metric != "cosine":
            return q, None
        qnorms = np.sqrt(np.einsum("ij,ij->i", q, q, dtype=np.float32))
        safe = np.where(qnorms > 0.0, qnorms, np.float32(1.0))
        return q, (np.float32(1.0) / safe).astype(np.float32)

    def blocks(self, block_rows: int) -> Iterator[tuple[int, int]]:
        """The canonical block grid: every backend scores these exact ranges.

        Sharing the grid (not just the primitive) is what makes cross-backend
        score bits reproducible: optimized BLAS may change its accumulation
        order with the matrix shape, so the oracle must issue the *same*
        matmuls as the production backend, not one big one.
        """
        if block_rows < 1:
            raise ValueError("block_rows must be >= 1")
        for start in range(0, self.num_rows, block_rows):
            yield start, min(self.num_rows, start + block_rows)

    def score_block(self, start: int, stop: int, queries: np.ndarray,
                    inv_qnorms: np.ndarray | None) -> np.ndarray:
        """Score rows ``[start, stop)`` against every query: ``(rows, Q)``.

        This is the single scoring primitive both backends call, on the
        ranges produced by :meth:`blocks`.
        """
        scores = self.matrix[start:stop] @ queries.T
        if self.metric == "cosine":
            scores *= self.inv_norms[start:stop, None]
            scores *= inv_qnorms[None, :]
        elif self.metric == "sigmoid":
            np.negative(scores, out=scores)
            np.exp(scores, out=scores)
            scores += np.float32(1.0)
            np.reciprocal(scores, out=scores)
        return scores


def topk_by_score(ids: np.ndarray, scores: np.ndarray, k: int,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The shared ranking rule: descending score, ascending id on ties."""
    order = np.lexsort((ids, -scores.astype(np.float64)))[:k]
    return ids[order], scores[order]


def resolve_vertex_range(vertex_range: "tuple[int, int] | None",
                         num_rows: int) -> tuple[int, int]:
    """Validate a candidate row range ``[lo, hi)`` (``None`` = every row).

    The range restricts which rows may *appear in the answer* — it is the
    primitive the sharded serving tier routes on (each shard owns one range
    of the shared matrix).  Scoring still walks the canonical block grid of
    the full matrix (see the backends), so a ranged answer's score bits are
    identical to the same rows' bits in an unranged run.
    """
    if vertex_range is None:
        return 0, num_rows
    lo, hi = int(vertex_range[0]), int(vertex_range[1])
    if not (0 <= lo < hi <= num_rows):
        raise ValueError(
            f"vertex_range [{lo}, {hi}) must satisfy 0 <= lo < hi <= {num_rows}")
    return lo, hi


@runtime_checkable
class QueryBackend(Protocol):
    """Uniform interface over every top-k implementation."""

    name: str

    def describe(self) -> str:
        """One-line human-readable description."""
        ...

    def topk(self, prepared: PreparedMatrix, queries: np.ndarray, k: int, *,
             block_rows: int = 4096,
             vertex_range: "tuple[int, int] | None" = None,
             ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(ids, scores)``, each ``(Q, k)``, ranked per query.

        ``vertex_range`` restricts the candidate rows to ``[lo, hi)`` (the
        sharded serving tier's routing primitive) without perturbing score
        bits: implementations must score the same canonical blocks as the
        unranged run and only mask the selection.
        """
        ...


class ExactQueryBackend:
    """Brute force oracle: materialise every score, fully sort every query.

    Scoring walks the same block grid as the blocked backend (see
    :meth:`PreparedMatrix.blocks`) so the two backends' score bits are
    identical by construction; everything after — keep all ``|V| x Q``
    scores, full per-query sort — is deliberately naive.
    """

    name = "exact"

    def describe(self) -> str:
        return ("exact: full |V|xQ score matrix, full per-query sort "
                "(brute-force oracle)")

    def topk(self, prepared: PreparedMatrix, queries: np.ndarray, k: int, *,
             block_rows: int = 4096,
             vertex_range: "tuple[int, int] | None" = None,
             ) -> tuple[np.ndarray, np.ndarray]:
        q, inv_qnorms = prepared.prepare_queries(queries)
        n = prepared.num_rows
        lo, hi = resolve_vertex_range(vertex_range, n)
        k = min(k, hi - lo)
        if n == 0 or k == 0:
            return (np.empty((q.shape[0], 0), dtype=np.int64),
                    np.empty((q.shape[0], 0), dtype=np.float32))
        # Score whole canonical blocks even at the range edges — masking
        # happens after scoring, so a ranged run's bits match the full run.
        parts_ids: list[np.ndarray] = []
        parts_scores: list[np.ndarray] = []
        for start, stop in prepared.blocks(block_rows):
            if stop <= lo or start >= hi:
                continue
            block = prepared.score_block(start, stop, q, inv_qnorms)
            a, b = max(start, lo) - start, min(stop, hi) - start
            parts_ids.append(np.arange(start + a, start + b, dtype=np.int64))
            parts_scores.append(block[a:b])
        all_ids = np.concatenate(parts_ids)
        scores = np.concatenate(parts_scores, axis=0)
        out_ids = np.empty((q.shape[0], k), dtype=np.int64)
        out_scores = np.empty((q.shape[0], k), dtype=np.float32)
        for j in range(q.shape[0]):
            out_ids[j], out_scores[j] = topk_by_score(all_ids, scores[:, j], k)
        return out_ids, out_scores


class BlockedQueryBackend:
    """Chunked float32 matmul with per-block candidate selection (default)."""

    name = "blocked"

    def describe(self) -> str:
        return ("blocked: chunked float32 matmul, per-block top-k candidates "
                "(ties kept), merged per query (default)")

    def topk(self, prepared: PreparedMatrix, queries: np.ndarray, k: int, *,
             block_rows: int = 4096,
             vertex_range: "tuple[int, int] | None" = None,
             ) -> tuple[np.ndarray, np.ndarray]:
        q, inv_qnorms = prepared.prepare_queries(queries)
        n, num_q = prepared.num_rows, q.shape[0]
        lo, hi = resolve_vertex_range(vertex_range, n)
        k = min(k, hi - lo)
        if n == 0 or k == 0:
            return (np.empty((num_q, 0), dtype=np.int64),
                    np.empty((num_q, 0), dtype=np.float32))
        cand_ids: list[np.ndarray] = []
        cand_cols: list[np.ndarray] = []
        cand_scores: list[np.ndarray] = []
        for start, stop in prepared.blocks(block_rows):
            if stop <= lo or start >= hi:
                continue
            scores = prepared.score_block(start, stop, q, inv_qnorms)
            # Mask out-of-range rows only after the full-block matmul, so
            # the surviving rows' score bits equal the unranged run's.
            a, b = max(start, lo) - start, min(stop, hi) - start
            if a or b < stop - start:
                scores = scores[a:b]
            base = start + a
            rows = b - a
            if rows > k:
                # k-th best score per query; keep everything scoring >= it
                # so boundary ties survive to the merge (where the shared
                # smaller-id-wins rule resolves them exactly like the
                # oracle).  NaN scores rank *last* in the final sort, but
                # np.partition orders them like +inf — so sanitise them to
                # -inf for the threshold: they then stop stealing top-k
                # slots from finite scores, and survive as candidates only
                # when a block has fewer than k finite rows (threshold
                # -inf), which is exactly when the oracle's answer could
                # need its NaN tail.
                ranked = np.where(np.isnan(scores), -np.inf, scores)
                part = np.partition(ranked, rows - k, axis=0)
                thresholds = part[rows - k]
                keep_rows, keep_cols = np.nonzero(ranked >= thresholds[None, :])
            else:
                keep_rows, keep_cols = np.nonzero(np.ones_like(scores, dtype=bool))
            cand_ids.append((base + keep_rows).astype(np.int64))
            cand_cols.append(keep_cols)
            cand_scores.append(scores[keep_rows, keep_cols])
        ids = np.concatenate(cand_ids)
        cols = np.concatenate(cand_cols)
        merged = np.concatenate(cand_scores)
        out_ids = np.empty((num_q, k), dtype=np.int64)
        out_scores = np.empty((num_q, k), dtype=np.float32)
        order = np.argsort(cols, kind="stable")
        bounds = np.searchsorted(cols[order], np.arange(num_q + 1))
        for j in range(num_q):
            sel = order[bounds[j]:bounds[j + 1]]
            out_ids[j], out_scores[j] = topk_by_score(ids[sel], merged[sel], k)
        return out_ids, out_scores


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
QUERY_BACKENDS: Registry[QueryBackend] = Registry(
    "query backend", {"exact": ExactQueryBackend, "blocked": BlockedQueryBackend},
    default=DEFAULT_QUERY_BACKEND)

UnknownQueryBackendError = UnknownNameError
register_query_backend = QUERY_BACKENDS.register
#: Resolve a name (cached singleton per name), ``None`` (the default) or an
#: object already implementing the protocol (returned as-is).
get_query_backend = QUERY_BACKENDS.get
available_query_backends = QUERY_BACKENDS.names
