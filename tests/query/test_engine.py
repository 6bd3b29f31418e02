"""Tests for the QueryEngine serving object (and its store integration)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import EmbeddingResult
from repro.query import QueryEngine
from repro.store import EmbeddingStore


@pytest.fixture
def matrix(rng) -> np.ndarray:
    m = rng.standard_normal((120, 8)).astype(np.float32)
    m[30] = m[10]                                   # guaranteed duplicate
    return m


class TestQuery:
    def test_query_shapes_and_ranking(self, matrix):
        engine = QueryEngine(matrix, metric="cosine")
        result = engine.query(matrix[:3], k=5)
        assert result.ids.shape == (3, 5)
        assert result.scores.shape == (3, 5)
        # Scores are ranked descending per query.
        assert (np.diff(result.scores, axis=1) <= 0).all()
        # A stored vector's best match is itself (cosine 1.0).
        assert result.ids[0, 0] == 0
        assert engine.backend.name == "blocked"

    def test_nearest_excludes_self_by_default(self, matrix):
        engine = QueryEngine(matrix, metric="cosine")
        result = engine.nearest([10, 0], k=4)
        assert result.ids.shape == (2, 4)
        assert 10 not in result.ids[0]
        assert result.ids[0, 0] == 30               # the duplicate row
        assert 0 not in result.ids[1]

    def test_nearest_can_include_self(self, matrix):
        engine = QueryEngine(matrix, metric="cosine")
        result = engine.nearest(10, k=3, exclude_self=False)
        assert result.ids[0, 0] == 10               # smaller id wins the tie
        assert result.ids[0, 1] == 30

    def test_nearest_rejects_out_of_range(self, matrix):
        engine = QueryEngine(matrix)
        with pytest.raises(ValueError, match="vertex ids"):
            engine.nearest(len(matrix), k=2)
        with pytest.raises(ValueError, match="vertex ids"):
            engine.nearest(-1, k=2)

    def test_validation(self, matrix):
        with pytest.raises(ValueError, match="metric"):
            QueryEngine(matrix, metric="euclid")
        with pytest.raises(ValueError, match="block_rows"):
            QueryEngine(matrix, block_rows=0)
        with pytest.raises(ValueError, match="faiss") as exc:
            QueryEngine(matrix, backend="faiss")
        assert "exact" in str(exc.value) and "blocked" in str(exc.value)
        engine = QueryEngine(matrix)
        with pytest.raises(ValueError, match="k must be"):
            engine.query(matrix[0], k=0)

    def test_stats_counters(self, matrix):
        engine = QueryEngine(matrix, metric="dot", block_rows=50)
        engine.query(matrix[:3], k=2)
        engine.nearest(5, k=2)
        stats = engine.stats()
        assert stats["queries_served"] == 4
        assert stats["batches_served"] == 2
        assert stats["rows_scored"] == 4 * len(matrix)
        assert stats["metric"] == "dot"
        assert stats["backend"] == "blocked"
        assert stats["shape"] == [120, 8]
        assert stats["query_seconds"] >= 0.0

    def test_describe_mentions_shape_and_backend(self, matrix):
        engine = QueryEngine(matrix, metric="sigmoid", backend="exact")
        text = engine.describe()
        assert "120x8" in text and "sigmoid" in text and "exact" in text


class TestRangedQueries:
    def test_ranged_query_restricts_candidates_with_global_ids(self, matrix):
        engine = QueryEngine(matrix, metric="cosine", block_rows=50)
        result = engine.query(matrix[:3], k=5, vertex_range=(40, 90))
        assert result.ids.shape == (3, 5)
        assert ((result.ids >= 40) & (result.ids < 90)).all()
        # rows_scored accounts the restricted scan, not the whole matrix.
        assert engine.stats()["rows_scored"] == 50 * 3

    def test_ranged_nearest_reserves_a_self_slot_rectangularly(self, matrix):
        """Vertex ids are global; with exclude_self the output has
        min(k, size - 1) columns whether or not the query vertex's own row
        falls inside the range (self-exclusion costs a slot either way)."""
        engine = QueryEngine(matrix, metric="cosine")
        inside = engine.nearest([10], k=4, vertex_range=(0, 40))
        outside = engine.nearest([100], k=4, vertex_range=(0, 40))
        assert inside.ids.shape == outside.ids.shape == (1, 4)
        assert 10 not in inside.ids[0]
        assert inside.ids[0, 0] == 30               # 10's duplicate row
        assert ((outside.ids >= 0) & (outside.ids < 40)).all()

    def test_ranged_nearest_clamps_k_to_range_size(self, matrix):
        # want = min(k, size - 1) for every row — one slot is reserved for
        # self-exclusion even when self lies outside the range, so a batch
        # mixing both kinds stays rectangular.
        engine = QueryEngine(matrix, metric="dot")
        result = engine.nearest([5, 22], k=50, vertex_range=(20, 25))
        assert result.ids.shape == (2, 4)
        assert 22 not in result.ids[1]
        assert ((result.ids >= 20) & (result.ids < 25)).all()

    def test_ranged_matches_unranged_over_the_full_span(self, matrix):
        engine = QueryEngine(matrix, metric="cosine")
        full = engine.nearest([7, 90], k=6)
        spanned = engine.nearest([7, 90], k=6, vertex_range=(0, 120))
        assert (full.ids == spanned.ids).all()
        assert full.scores.tobytes() == spanned.scores.tobytes()

    def test_bad_range_raises(self, matrix):
        engine = QueryEngine(matrix)
        with pytest.raises(ValueError, match="range"):
            engine.query(matrix[:1], k=3, vertex_range=(60, 40))
        with pytest.raises(ValueError, match="range"):
            engine.nearest([0], k=3, vertex_range=(0, 121))


class TestStoreIntegration:
    def test_engine_over_mmapped_store_entry(self, tmp_path, matrix, tiny_graph):
        """The serving path: save -> load(mmap=True) -> query, no copies."""
        store = EmbeddingStore(tmp_path)
        result = EmbeddingResult(embedding=matrix, tool="gosh-fast",
                                 graph="tiny", seconds=0.1,
                                 metadata={"dim": 8})
        store.save(result, graph=tiny_graph)
        loaded = store.load(tiny_graph.fingerprint(), "gosh-fast", mmap=True)
        engine = QueryEngine(loaded.embedding, metric="cosine")
        # float32 C-contiguous mmap is served in place — no resident copy.
        assert np.shares_memory(engine.prepared.matrix, loaded.embedding)
        fresh = QueryEngine(matrix, metric="cosine")
        a = engine.nearest([10, 99], k=5)
        b = fresh.nearest([10, 99], k=5)
        assert (a.ids == b.ids).all()
        assert (a.scores == b.scores).all()

    def test_result_rows_for_tables(self, matrix):
        engine = QueryEngine(matrix, metric="cosine")
        result = engine.nearest([10], k=2)
        rows = result.as_rows(query_labels=[10])
        assert rows[0]["query"] == 10
        assert rows[0]["rank"] == 1
        assert rows[0]["neighbor"] == 30
        assert "cosine" in rows[0]
