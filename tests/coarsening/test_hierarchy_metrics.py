"""Unit tests for the coarsening hierarchy, embedding expansion, and metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coarsening import (
    CoarseningHierarchy,
    edge_retention,
    expand_embedding,
    hub_merge_count,
    multi_edge_collapse,
    parallel_multi_edge_collapse,
    project_vertex_sets,
    shrink_rates,
    summarize,
    super_vertex_balance,
)
from repro.graph import powerlaw_cluster


@pytest.fixture
def hierarchy(small_power_graph):
    return CoarseningHierarchy.from_result(
        parallel_multi_edge_collapse(small_power_graph, threshold=30)
    )


class TestExpandEmbedding:
    def test_rows_copied(self):
        coarse = np.array([[1.0, 2.0], [3.0, 4.0]])
        mapping = np.array([0, 0, 1, 0, 1])
        fine = expand_embedding(coarse, mapping)
        assert fine.shape == (5, 2)
        assert np.array_equal(fine[0], coarse[0])
        assert np.array_equal(fine[2], coarse[1])

    def test_returns_independent_copy(self):
        coarse = np.ones((2, 3))
        fine = expand_embedding(coarse, np.array([0, 1, 1]))
        fine[0, 0] = 99.0
        assert coarse[0, 0] == 1.0

    def test_invalid_mapping_raises(self):
        with pytest.raises(ValueError):
            expand_embedding(np.ones((2, 3)), np.array([0, 5]))


class TestProjectVertexSets:
    def test_inverse_of_mapping(self):
        mapping = np.array([0, 1, 0, 2, 1])
        sets = project_vertex_sets(mapping, 3)
        assert sorted(sets[0].tolist()) == [0, 2]
        assert sorted(sets[1].tolist()) == [1, 4]
        assert sets[2].tolist() == [3]


class TestHierarchy:
    def test_validate_passes(self, hierarchy):
        hierarchy.validate()

    def test_training_order_coarsest_first(self, hierarchy):
        order = list(hierarchy.training_order())
        assert order[0] == hierarchy.num_levels - 1
        assert order[-1] == 0

    def test_expand_chain_reaches_level_zero(self, hierarchy):
        emb = np.random.default_rng(0).random((hierarchy.coarsest().num_vertices, 8))
        full = hierarchy.project_to_original(hierarchy.num_levels - 1, emb)
        assert full.shape[0] == hierarchy.level(0).num_vertices

    def test_expand_rejects_bad_level(self, hierarchy):
        emb = np.zeros((hierarchy.coarsest().num_vertices, 4))
        with pytest.raises(ValueError):
            hierarchy.expand(0, emb)

    def test_expand_rejects_bad_shape(self, hierarchy):
        with pytest.raises(ValueError):
            hierarchy.expand(1, np.zeros((1, 4)))

    def test_composed_mapping_consistency(self, hierarchy):
        last = hierarchy.num_levels - 1
        composed = hierarchy.composed_mapping(last)
        assert composed.shape[0] == hierarchy.level(0).num_vertices
        assert composed.max() < hierarchy.coarsest().num_vertices

    def test_super_vertex_sizes_sum(self, hierarchy):
        last = hierarchy.num_levels - 1
        sizes = hierarchy.super_vertex_sizes(last)
        assert sizes.sum() == hierarchy.level(0).num_vertices
        assert np.all(sizes >= 1)

    def test_trivial_hierarchy(self, small_power_graph):
        h = CoarseningHierarchy.trivial(small_power_graph)
        assert h.num_levels == 1
        assert list(h.training_order()) == [0]
        h.validate()

    def test_validate_catches_bad_mapping_count(self, small_power_graph):
        h = CoarseningHierarchy(graphs=[small_power_graph], mappings=[np.zeros(3, dtype=np.int64)])
        with pytest.raises(ValueError):
            h.validate()


class TestMetrics:
    def test_shrink_rates_in_unit_interval(self, small_power_graph):
        result = multi_edge_collapse(small_power_graph, threshold=30)
        rates = shrink_rates(result)
        assert all(0.0 < r < 1.0 for r in rates)

    def test_edge_retention_decreasing(self, small_power_graph):
        result = multi_edge_collapse(small_power_graph, threshold=30)
        retention = edge_retention(result)
        assert retention[0] == pytest.approx(1.0)
        assert all(retention[i] >= retention[i + 1] for i in range(len(retention) - 1))

    def test_hub_merge_count_star(self, star_graph):
        # the star's hub plus leaves form one cluster containing one hub only
        mapping = np.zeros(star_graph.num_vertices, dtype=np.int64)
        assert hub_merge_count(star_graph, mapping) == 0

    def test_hub_merge_count_detects_merge(self):
        g = powerlaw_cluster(100, m=4, seed=0)
        # put the two highest-degree vertices into the same cluster artificially
        top2 = np.argsort(-g.degrees)[:2]
        mapping = np.arange(g.num_vertices, dtype=np.int64)
        mapping[top2[1]] = mapping[top2[0]]
        mapping, _ = np.unique(mapping, return_inverse=True)[1], None
        mapping = np.unique(np.arange(g.num_vertices) if False else mapping)  # keep compacted
        # simpler: recompute compacted mapping
        raw = np.arange(g.num_vertices, dtype=np.int64)
        raw[top2[1]] = top2[0]
        _, compact = np.unique(raw, return_inverse=True)
        assert hub_merge_count(g, compact.astype(np.int64)) >= 1

    def test_super_vertex_balance(self):
        assert super_vertex_balance(np.array([0, 1, 2, 3])) == pytest.approx(1.0)
        assert super_vertex_balance(np.array([0, 0, 0, 1])) == pytest.approx(3.0 / 2.0)

    def test_summarize_report(self, small_power_graph):
        result = multi_edge_collapse(small_power_graph, threshold=30)
        report = summarize(result)
        assert report.num_levels == result.num_levels
        assert report.last_level_size == result.graphs[-1].num_vertices
        assert 0.0 < report.mean_shrink_rate < 1.0
        assert "D" in report.as_row()
