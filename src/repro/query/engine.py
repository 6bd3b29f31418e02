"""`QueryEngine` — k-NN similarity serving over one embedding matrix.

The engine owns a :class:`~repro.query.backends.PreparedMatrix` (float32
view + lazily cached norms) and answers many small top-k requests cheaply:

* :meth:`query` — score arbitrary query vectors (one or a stacked batch).
* :meth:`nearest` — neighbours of stored vertices by id, optionally
  excluding the vertex itself (the common "similar items" request).
* :meth:`stats` — serving counters (queries, rows scored, seconds).

Every engine serves through :class:`~repro.query.backends.BlockedQueryBackend`;
``backend="exact"`` swaps in the brute-force oracle for tests and quality
checks.  The matrix typically comes straight out of an
:class:`~repro.store.EmbeddingStore` entry loaded with ``mmap=True``, in
which case blocks are paged off disk on first touch and the engine holds no
second copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..obs import trace
from .backends import (
    BlockedQueryBackend,
    ExactQueryBackend,
    PreparedMatrix,
    resolve_vertex_range,
)

__all__ = ["QueryEngine", "QueryResult"]

#: The serving path and its oracle, bit-identical to each other.
_BACKENDS = {"blocked": BlockedQueryBackend, "exact": ExactQueryBackend}


@dataclass(frozen=True)
class QueryResult:
    """Top-k answer for a batch of queries.

    ``ids``/``scores`` are ``(Q, k)``, ranked per row by descending score
    with ascending-id tie-break.
    """

    ids: np.ndarray
    scores: np.ndarray
    metric: str
    seconds: float

    @property
    def num_queries(self) -> int:
        return int(self.ids.shape[0])

    @property
    def k(self) -> int:
        return int(self.ids.shape[1])

    def as_rows(self, query_labels: "list[object] | None" = None) -> list[dict[str, object]]:
        """Flat rows for table printing: one row per (query, rank)."""
        rows = []
        for j in range(self.num_queries):
            label = query_labels[j] if query_labels is not None else j
            for rank in range(self.k):
                rows.append({
                    "query": label,
                    "rank": rank + 1,
                    "neighbor": int(self.ids[j, rank]),
                    self.metric: round(float(self.scores[j, rank]), 6),
                })
        return rows


class QueryEngine:
    """Top-k similarity queries over one embedding matrix."""

    def __init__(self, embedding: np.ndarray, *, metric: str = "cosine",
                 backend: str = "blocked", block_rows: int = 4096):
        if backend not in _BACKENDS:
            raise ValueError(f"unknown query backend {backend!r}; "
                             f"options: {', '.join(_BACKENDS)}")
        if block_rows < 1:
            raise ValueError("block_rows must be >= 1")
        self.prepared = PreparedMatrix(embedding, metric=metric)
        self.backend = _BACKENDS[backend]()
        self.block_rows = block_rows
        self.queries_served = 0
        self.batches_served = 0
        self.rows_scored = 0
        self.query_seconds = 0.0

    @property
    def metric(self) -> str:
        return self.prepared.metric

    @property
    def num_vertices(self) -> int:
        return self.prepared.num_rows

    @property
    def dim(self) -> int:
        return self.prepared.dim

    def describe(self) -> str:
        return (f"QueryEngine: {self.num_vertices}x{self.dim} matrix, "
                f"{self.metric} metric, {self.backend.name} backend "
                f"(block_rows={self.block_rows})")

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def query(self, vectors: np.ndarray, k: int = 10, *,
              vertex_range: "tuple[int, int] | None" = None) -> QueryResult:
        """Top-k rows for each query vector (``(d,)`` or ``(Q, d)``).

        ``vertex_range`` restricts the candidate rows to ``[lo, hi)`` — the
        sharded serving tier's routing primitive.  The surviving rows'
        score bits are identical to an unranged run (backends score the
        same canonical blocks and only mask selection).
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        lo, hi = resolve_vertex_range(vertex_range, self.num_vertices)
        q = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        t0 = perf_counter()
        ids, scores = self.backend.topk(self.prepared, q, k,
                                        block_rows=self.block_rows,
                                        vertex_range=vertex_range)
        seconds = perf_counter() - t0
        self.queries_served += q.shape[0]
        self.batches_served += 1
        self.rows_scored += (hi - lo) * q.shape[0]
        self.query_seconds += seconds
        if trace.enabled:
            trace.add_complete("engine.query", seconds,
                               queries=int(q.shape[0]), k=int(k),
                               rows=int(hi - lo), backend=self.backend.name)
        return QueryResult(ids=ids, scores=scores, metric=self.metric,
                           seconds=seconds)

    def nearest(self, vertices: "int | np.ndarray", k: int = 10, *,
                exclude_self: bool = True,
                vertex_range: "tuple[int, int] | None" = None) -> QueryResult:
        """Top-k neighbours of stored vertices, queried by id.

        With ``exclude_self`` (default) each vertex is removed from its own
        answer — the engine asks for ``k + 1`` and drops the vertex's row,
        so the caller still receives ``k`` neighbours.  Vertex ids are
        always global (not relative to ``vertex_range``); with a range,
        ``exclude_self`` reserves one slot regardless of whether the query
        vertex falls inside the range, keeping the output rectangular.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        idx = np.atleast_1d(np.asarray(vertices, dtype=np.int64))
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_vertices):
            raise ValueError(
                f"vertex ids must lie in [0, {self.num_vertices}), "
                f"got range [{idx.min()}, {idx.max()}]")
        if not exclude_self:
            return self.query(self.prepared.matrix[idx], k,
                              vertex_range=vertex_range)
        lo, hi = resolve_vertex_range(vertex_range, self.num_vertices)
        size = hi - lo
        want = min(k, max(size - 1, 0))
        result = self.query(self.prepared.matrix[idx], min(want + 1, size),
                            vertex_range=vertex_range)
        # Each row's first `want` ids other than its own vertex, in rank order.
        keep = np.argsort(result.ids == idx[:, None], axis=1, kind="stable")[:, :want]
        return QueryResult(ids=np.take_along_axis(result.ids, keep, 1),
                           scores=np.take_along_axis(result.scores, keep, 1),
                           metric=result.metric, seconds=result.seconds)

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, object]:
        return {
            "metric": self.metric,
            "backend": self.backend.name,
            "shape": [self.num_vertices, self.dim],
            "block_rows": self.block_rows,
            "queries_served": self.queries_served,
            "batches_served": self.batches_served,
            "rows_scored": self.rows_scored,
            "query_seconds": round(self.query_seconds, 4),
        }
