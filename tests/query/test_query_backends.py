"""Golden parity suite: the blocked backend IS the exact oracle, bit for bit.

The acceptance bar for the query layer mirrors the sampler-backend suite:
``"blocked"`` must return identical top-k ids *and* identical float32 score
bits (with the shared stable tie-break) to the ``"exact"`` brute-force
oracle, for every metric, any k, and any blocking — including block
boundaries that split score ties.  Both backends are driven on the same
``block_rows`` grid, exactly as :class:`~repro.query.QueryEngine` drives
them: scoring walks identical blocks (so score bits cannot drift with BLAS
shape heuristics) and only the *selection* differs — which is the part the
oracle exists to pin down.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.query import (
    DEFAULT_QUERY_BACKEND,
    METRICS,
    PreparedMatrix,
    QueryBackend,
    UnknownQueryBackendError,
    available_query_backends,
    get_query_backend,
    register_query_backend,
    topk_by_score,
)
from repro.query.backends import QUERY_BACKENDS


def golden_matrix(n: int, dim: int, seed: int) -> np.ndarray:
    """A matrix with deliberate duplicate rows so score ties are guaranteed."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, dim)).astype(np.float32)
    # Duplicates both within one block and across typical block boundaries.
    if n >= 50:
        m[7] = m[3]
        m[n // 2 + 1] = m[5]
        m[n - 2] = m[3]
    return m


class TestParity:
    """The golden suite pinned by the acceptance criteria."""

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("k", [1, 7, 64])
    def test_blocked_matches_exact_bit_for_bit(self, metric, k):
        m = golden_matrix(997, 16, seed=11)          # prime => ragged last block
        prepared = PreparedMatrix(m, metric=metric)
        queries = np.random.default_rng(5).standard_normal((13, 16)).astype(np.float32)
        for block_rows in (1, 64, 100, 997, 5000):
            exact_ids, exact_scores = get_query_backend("exact").topk(
                prepared, queries, k, block_rows=block_rows)
            ids, scores = get_query_backend("blocked").topk(
                prepared, queries, k, block_rows=block_rows)
            assert (ids == exact_ids).all(), (metric, k, block_rows)
            assert scores.dtype == exact_scores.dtype == np.float32
            assert (scores.view(np.int32) == exact_scores.view(np.int32)).all(), \
                (metric, k, block_rows)

    def test_ranking_is_stable_across_grids(self):
        """Across *different* block sizes only the low score bits may move
        (BLAS shape heuristics); the returned ids must not."""
        m = golden_matrix(997, 16, seed=11)
        prepared = PreparedMatrix(m, metric="cosine")
        queries = np.random.default_rng(8).standard_normal((7, 16)).astype(np.float32)
        reference_ids, reference_scores = get_query_backend("blocked").topk(
            prepared, queries, 10, block_rows=997)
        for block_rows in (33, 128, 4096):
            ids, scores = get_query_backend("blocked").topk(
                prepared, queries, 10, block_rows=block_rows)
            assert (ids == reference_ids).all(), block_rows
            np.testing.assert_allclose(scores, reference_scores, rtol=1e-5)

    def test_tie_break_is_stable_smaller_id_first(self):
        """Duplicate rows tie exactly; both backends must rank the smaller
        vertex id first, even when the duplicates land in different blocks."""
        m = golden_matrix(200, 8, seed=3)
        prepared = PreparedMatrix(m, metric="cosine")
        query = m[3][None, :]                        # rows 3, 7, 198 tie at 1.0
        for backend in ("exact", "blocked"):
            ids, scores = get_query_backend(backend).topk(
                prepared, query, 3, block_rows=32)
            assert ids[0].tolist() == [3, 7, 198], backend
            assert scores[0, 0] == scores[0, 1] == scores[0, 2]

    def test_k_larger_than_matrix_returns_all_rows(self):
        m = golden_matrix(9, 4, seed=0)
        prepared = PreparedMatrix(m, metric="dot")
        q = m[:2]
        for backend in ("exact", "blocked"):
            ids, scores = get_query_backend(backend).topk(prepared, q, 50,
                                                          block_rows=4)
            assert ids.shape == (2, 9)
            assert sorted(ids[0].tolist()) == list(range(9))

    def test_single_query_vector_accepted(self):
        m = golden_matrix(64, 8, seed=1)
        prepared = PreparedMatrix(m, metric="cosine")
        ids, scores = get_query_backend("blocked").topk(prepared, m[0], 5)
        assert ids.shape == (1, 5)

    def test_sigmoid_is_monotone_in_dot(self):
        """sigma(u.v) reranks nothing: identical ids to the dot metric, with
        calibrated (0, 1) scores (the trainer's link-probability model)."""
        m = golden_matrix(300, 8, seed=9)
        q = np.random.default_rng(2).standard_normal((4, 8)).astype(np.float32)
        dot_ids, _ = get_query_backend("blocked").topk(
            PreparedMatrix(m, metric="dot"), q, 10)
        sig_ids, sig_scores = get_query_backend("blocked").topk(
            PreparedMatrix(m, metric="sigmoid"), q, 10)
        assert (dot_ids == sig_ids).all()
        assert ((sig_scores > 0.0) & (sig_scores < 1.0)).all()

    def test_cosine_scores_are_normalised(self):
        m = golden_matrix(100, 8, seed=4)
        ids, scores = get_query_backend("exact").topk(
            PreparedMatrix(m, metric="cosine"), m[17], 1)
        assert ids[0, 0] == 17
        assert scores[0, 0] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("block_rows", [5, 3, 100])
    def test_nan_rows_rank_last_in_both_backends(self, block_rows):
        """A corrupted/divergent embedding (NaN rows) must stay servable:
        both backends rank NaN candidates last — the blocked backend must
        neither crash nor come up short of k when a block's k-th best score
        is NaN."""
        m = golden_matrix(10, 4, seed=2)
        m[4:] = np.nan                              # majority-NaN blocks
        prepared = PreparedMatrix(m, metric="dot")
        q = golden_matrix(2, 4, seed=3)
        exact_ids, exact_scores = get_query_backend("exact").topk(
            prepared, q, 3, block_rows=block_rows)
        ids, scores = get_query_backend("blocked").topk(
            prepared, q, 3, block_rows=block_rows)
        assert ids.shape == (2, 3)
        assert (ids == exact_ids).all()
        assert (np.isnan(scores) == np.isnan(exact_scores)).all()
        finite = ~np.isnan(scores)
        assert (scores[finite] == exact_scores[finite]).all()
        # Finite rows win over NaN rows.
        assert set(ids[0, :3].tolist()) <= {0, 1, 2, 3}

    def test_zero_rows_and_queries_score_zero_not_nan(self):
        m = golden_matrix(40, 8, seed=6)
        m[11] = 0.0
        prepared = PreparedMatrix(m, metric="cosine")
        zq = np.zeros((1, 8), dtype=np.float32)
        for backend in ("exact", "blocked"):
            _, scores = get_query_backend(backend).topk(prepared, zq, 40)
            assert np.isfinite(scores).all()
            assert (scores == 0.0).all()


class TestVertexRange:
    """Ranged top-k — the sharded serving tier's routing primitive.

    A ranged call scores the *same* canonical ``block_rows`` grid as an
    unranged run and only masks selection, so partitioning the rows and
    re-merging with the shared tie rule must reproduce the full run bit
    for bit — this is what makes the shard router's merge exact.
    """

    @pytest.mark.parametrize("backend", ["exact", "blocked"])
    @pytest.mark.parametrize("block_rows", [1, 33, 100, 997, 5000])
    def test_partitioned_runs_merge_to_the_full_run(self, backend, block_rows):
        m = golden_matrix(997, 16, seed=11)
        prepared = PreparedMatrix(m, metric="cosine")
        queries = np.random.default_rng(5).standard_normal((5, 16)).astype(np.float32)
        k = 10
        full_ids, full_scores = get_query_backend(backend).topk(
            prepared, queries, k, block_rows=block_rows)
        cuts = [0, 300, 601, 997]           # uneven, unaligned with the grid
        parts = [get_query_backend(backend).topk(
                     prepared, queries, k, block_rows=block_rows,
                     vertex_range=(lo, hi))
                 for lo, hi in zip(cuts, cuts[1:])]
        for row in range(queries.shape[0]):
            ids = np.concatenate([ids_part[row] for ids_part, _ in parts])
            scores = np.concatenate([scores_part[row] for _, scores_part in parts])
            merged_ids, merged_scores = topk_by_score(ids, scores, k)
            assert merged_ids.tolist() == full_ids[row].tolist(), (backend, block_rows)
            assert merged_scores.tobytes() == full_scores[row].tobytes(), \
                (backend, block_rows)

    @pytest.mark.parametrize("backend", ["exact", "blocked"])
    def test_ranged_ids_are_global_and_in_range(self, backend):
        m = golden_matrix(200, 8, seed=3)
        prepared = PreparedMatrix(m, metric="dot")
        q = m[:3]
        ids, _ = get_query_backend(backend).topk(
            prepared, q, 5, block_rows=32, vertex_range=(60, 140))
        assert ((ids >= 60) & (ids < 140)).all()

    @pytest.mark.parametrize("backend", ["exact", "blocked"])
    def test_k_clamps_to_the_range_size(self, backend):
        m = golden_matrix(100, 8, seed=4)
        prepared = PreparedMatrix(m, metric="cosine")
        ids, scores = get_query_backend(backend).topk(
            prepared, m[:2], 50, block_rows=16, vertex_range=(10, 20))
        assert ids.shape == scores.shape == (2, 10)
        assert sorted(ids[0].tolist()) == list(range(10, 20))

    @pytest.mark.parametrize("bad", [(5, 5), (10, 5), (-1, 10), (0, 101)])
    def test_invalid_ranges_raise(self, bad):
        m = golden_matrix(100, 8, seed=4)
        prepared = PreparedMatrix(m, metric="dot")
        for backend in ("exact", "blocked"):
            with pytest.raises(ValueError, match="range"):
                get_query_backend(backend).topk(prepared, m[:1], 3,
                                                vertex_range=bad)


class TestPreparedMatrix:
    def test_float32_contiguous_input_is_not_copied(self):
        m = np.ascontiguousarray(golden_matrix(10, 4, seed=0))
        prepared = PreparedMatrix(m, metric="dot")
        assert prepared.matrix is m

    def test_other_dtypes_are_coerced(self):
        m = golden_matrix(10, 4, seed=0).astype(np.float64)
        prepared = PreparedMatrix(m)
        assert prepared.matrix.dtype == np.float32

    def test_rejects_bad_metric_and_shapes(self):
        with pytest.raises(ValueError, match="unknown metric"):
            PreparedMatrix(np.zeros((3, 2), dtype=np.float32), metric="l2")
        with pytest.raises(ValueError, match="2-D"):
            PreparedMatrix(np.zeros(3, dtype=np.float32))
        prepared = PreparedMatrix(np.zeros((3, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="dimension"):
            prepared.prepare_queries(np.zeros((1, 5), dtype=np.float32))

    def test_topk_by_score_rule(self):
        ids = np.array([5, 2, 9, 1], dtype=np.int64)
        scores = np.array([0.5, 0.9, 0.9, 0.1], dtype=np.float32)
        out_ids, out_scores = topk_by_score(ids, scores, 3)
        assert out_ids.tolist() == [2, 9, 5]        # ties: ascending id
        assert out_scores.tolist() == pytest.approx([0.9, 0.9, 0.5])


class TestRegistry:
    """Mirrors the kernel/sampler backend registry contract."""

    def test_builtins_registered(self):
        assert available_query_backends()[:2] == ["exact", "blocked"]
        assert DEFAULT_QUERY_BACKEND == "blocked"

    def test_default_and_case_insensitive(self):
        assert get_query_backend(None).name == "blocked"
        assert get_query_backend("EXACT").name == "exact"

    def test_instances_are_cached_singletons(self):
        assert get_query_backend("blocked") is get_query_backend("blocked")

    def test_instance_passthrough(self):
        backend = get_query_backend("exact")
        assert get_query_backend(backend) is backend

    def test_unknown_name_raises_with_options(self):
        with pytest.raises(UnknownQueryBackendError, match="faiss"):
            get_query_backend("faiss")
        try:
            get_query_backend("faiss")
        except UnknownQueryBackendError as exc:
            assert "exact" in str(exc) and "blocked" in str(exc)

    def test_third_party_registration(self):
        class MirrorBackend:
            name = "mirror"

            def describe(self):
                return "test double"

            def topk(self, prepared, queries, k, *, block_rows=4096):
                return get_query_backend("exact").topk(prepared, queries, k)

        register_query_backend("mirror", MirrorBackend)
        try:
            resolved = get_query_backend("mirror")
            assert isinstance(resolved, QueryBackend)
            with pytest.raises(ValueError, match="already registered"):
                register_query_backend("mirror", MirrorBackend)
            register_query_backend("mirror", MirrorBackend, replace=True)
        finally:
            QUERY_BACKENDS.unregister("mirror")
