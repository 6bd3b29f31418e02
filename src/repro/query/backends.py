"""Query top-k layer: the serving path and its oracle over one scorer.

* ``"blocked"`` — the one serving path: copy scored row blocks into one
  window buffer of at most :data:`WINDOW_FLOATS` floats, keep only each
  window's top-k candidates (plus score ties at the boundary), and merge at
  the end: no ``|V| x Q`` score matrix, no full sorts, and one selection per
  window, not per block (perfbench measures it as ``query.engine_us``).
* ``"exact"`` — the brute-force oracle: score every row against every query
  in one pass and fully sort each query's score column.  Clarity over speed;
  reached through ``QueryEngine(..., backend="exact")`` by tests and
  perfbench's ``quality`` check.

**Parity is exact.**  Both backends score through the same primitive
(:meth:`PreparedMatrix.score_block`) over the *same* ``block_rows`` grid —
identical float32 matmuls on identical row ranges, so the score bits cannot
drift even on BLAS builds whose accumulation order varies with the matrix
shape.  What differs is only the selection: the oracle sorts every score,
the blocked backend keeps per-window top-k candidates — including *every*
candidate tied with a window's k-th best score, so boundary ties cannot evict
the id the oracle would keep — and both break ties identically (smaller id
wins, via :func:`topk_by_score`).  The golden suite in ``tests/query/``
pins ids *and* score bits across block sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = [
    "METRICS",
    "PreparedMatrix",
    "ExactQueryBackend",
    "BlockedQueryBackend",
    "topk_by_score",
    "resolve_vertex_range",
]

#: Supported scoring metrics.  ``dot`` is the raw inner product; ``cosine``
#: normalises by the precomputed row/query norms; ``sigmoid`` is the
#: trainer's edge-probability model sigma(u . v) — the same link score the
#: update kernels optimise — and, being monotone in ``dot``, ranks
#: identically while returning calibrated (0, 1) scores.
METRICS = ("dot", "cosine", "sigmoid")

#: Scores one selection window holds at most (4 MiB): consecutive whole
#: canonical blocks, at least one, so a small microbatch over a shard selects
#: once and a large one stays bounded at ``WINDOW_FLOATS // Q`` rows.
WINDOW_FLOATS = 1 << 20


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


def _scored_windows(prepared: PreparedMatrix, q: np.ndarray,
                    inv_qnorms: np.ndarray | None, block_rows: int, lo: int,
                    hi: int, window_rows: int) -> Iterator[tuple[int, np.ndarray]]:
    """Score the canonical blocks overlapping ``[lo, hi)``, window by window.

    Yields ``(base, window)``: a ``(rows, Q)`` view of one reused buffer
    holding the in-range scores of consecutive whole blocks, row ``i`` for
    vertex ``base + i``.  Edge blocks are scored in full and masked after, so
    a ranged run's bits match the full run.  Each window overwrites the last.
    """
    buf = np.empty((min(window_rows, hi - lo), q.shape[0]), dtype=np.float32)
    base = fill = 0
    for start, stop in prepared.blocks(block_rows):
        if stop <= lo or start >= hi:
            continue
        a, b = max(start, lo), min(stop, hi)
        if fill + b - a > len(buf):
            yield base, buf[:fill]
            fill = 0
        if not fill:
            base = a
        block = prepared.score_block(start, stop, q, inv_qnorms)
        buf[fill:fill + b - a] = block[a - start:b - start]
        fill += b - a
    yield base, buf[:fill]


def _ranked(k: int, columns: Iterator[tuple[np.ndarray, np.ndarray]],
            ) -> tuple[np.ndarray, np.ndarray]:
    """Stack each query's :func:`topk_by_score` over its ``(ids, scores)``."""
    ids, scores = zip(*(topk_by_score(i, s, k) for i, s in columns))
    return np.stack(ids), np.stack(scores)


class ExactQueryBackend:
    """Brute force oracle: materialise every score, fully sort every query.

    Scoring fills one window spanning the whole range on the blocked
    backend's block grid (see :meth:`PreparedMatrix.blocks`), so the two
    backends' score bits are identical by construction; everything after —
    keep all ``|V| x Q`` scores, full per-query sort — is deliberately naive.
    """

    name = "exact"

    def topk(self, prepared: PreparedMatrix, queries: np.ndarray, k: int, *,
             block_rows: int = 4096,
             vertex_range: "tuple[int, int] | None" = None,
             ) -> tuple[np.ndarray, np.ndarray]:
        q, inv_qnorms = prepared.prepare_queries(queries)
        lo, hi = resolve_vertex_range(vertex_range, prepared.num_rows)
        k = min(k, hi - lo)
        if k == 0 or len(q) == 0:
            return np.empty((len(q), k), np.int64), np.empty((len(q), k), np.float32)
        (_, scores), = _scored_windows(prepared, q, inv_qnorms, block_rows,
                                       lo, hi, hi - lo)
        ids = np.arange(lo, hi, dtype=np.int64)
        return _ranked(k, ((ids, column) for column in scores.T))


class BlockedQueryBackend:
    """Chunked float32 matmul with per-window candidate selection (serving)."""

    name = "blocked"

    def topk(self, prepared: PreparedMatrix, queries: np.ndarray, k: int, *,
             block_rows: int = 4096,
             vertex_range: "tuple[int, int] | None" = None,
             ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(ids, scores)``, each ``(Q, k)``, ranked per query.

        ``vertex_range`` restricts the candidate rows to ``[lo, hi)`` (the
        sharded serving tier's routing primitive) without perturbing score
        bits: the same canonical blocks as the unranged run are scored and
        only the selection is masked.
        """
        q, inv_qnorms = prepared.prepare_queries(queries)
        num_q = len(q)
        lo, hi = resolve_vertex_range(vertex_range, prepared.num_rows)
        k = min(k, hi - lo)
        if k == 0 or num_q == 0:
            return np.empty((num_q, k), np.int64), np.empty((num_q, k), np.float32)
        window_rows = max(WINDOW_FLOATS // (num_q * block_rows), 1) * block_rows
        flat: list[np.ndarray] = []             # candidates' row * Q + query
        kept: list[np.ndarray] = []
        for base, scores in _scored_windows(prepared, q, inv_qnorms, block_rows,
                                            lo, hi, window_rows):
            rows = len(scores)
            if rows > k:
                # Keep every score >= the k-th best, so ties reach the
                # merge's smaller-id-wins rule.  NaN ranks last there but
                # like +inf in np.partition, so it counts as -inf here: it
                # survives only when a window has fewer than k finite rows.
                ranked = scores
                if np.isnan(scores).any():
                    ranked = np.where(np.isnan(scores), -np.inf, scores)
                thresholds = np.partition(ranked, rows - k, axis=0)[rows - k]
                keep = np.flatnonzero(ranked >= thresholds)
            else:
                keep = np.arange(scores.size)
            flat.append(base * num_q + keep)
            kept.append(scores.ravel()[keep])
        ids, cols = np.divmod(np.concatenate(flat), num_q)
        merged = np.concatenate(kept)
        order = np.argsort(cols, kind="stable")
        bounds = np.searchsorted(cols[order], np.arange(num_q + 1))
        sels = (order[bounds[j]:bounds[j + 1]] for j in range(num_q))
        return _ranked(k, ((ids[sel], merged[sel]) for sel in sels))
