"""repro.query — high-throughput k-NN similarity serving over embeddings.

The consumption-side counterpart of the training pipeline: load an embedding
(typically memory-mapped out of the :mod:`repro.store`), prepare it once, and
answer many small top-k requests cheaply.

* :class:`QueryEngine` — the serving object (:meth:`~QueryEngine.query`,
  :meth:`~QueryEngine.nearest`, counters).
* :mod:`repro.query.backends` — the top-k layer: every engine serves
  through :class:`BlockedQueryBackend` (chunked float32 matmul) on a fixed
  4,096-row grid; :class:`ExactQueryBackend` is the brute-force oracle
  (``QueryEngine(..., backend="exact")``), bit-identical to it.

Quickstart::

    from repro.query import QueryEngine

    engine = QueryEngine(result.embedding, metric="cosine")
    answer = engine.nearest([0, 7], k=5)
    print(answer.ids, answer.scores)
"""

from .backends import (
    METRICS,
    BlockedQueryBackend,
    ExactQueryBackend,
    PreparedMatrix,
    resolve_vertex_range,
    topk_by_score,
)
from .engine import QueryEngine, QueryResult

__all__ = [
    "METRICS",
    "BlockedQueryBackend",
    "ExactQueryBackend",
    "PreparedMatrix",
    "resolve_vertex_range",
    "topk_by_score",
    "QueryEngine",
    "QueryResult",
]
