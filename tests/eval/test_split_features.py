"""Unit tests for the link-prediction split and feature construction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import (
    EDGE_OPERATORS,
    build_dataset,
    edge_features,
    sample_negative_edges,
    train_test_split,
)
from repro.graph import CSRGraph


class TestTrainTestSplit:
    def test_default_80_20(self, small_power_graph):
        split = train_test_split(small_power_graph, seed=0)
        total = small_power_graph.num_undirected_edges
        assert split.num_train_edges == round(0.8 * total)
        assert split.num_test_edges <= total - split.num_train_edges

    def test_train_graph_contains_only_train_edges(self, small_power_graph):
        split = train_test_split(small_power_graph, seed=0)
        assert split.train_graph.num_undirected_edges == split.num_train_edges
        for u, v in split.train_edges[:50]:
            assert split.train_graph.has_edge(int(u), int(v))

    def test_test_edges_not_in_train_graph(self, small_power_graph):
        split = train_test_split(small_power_graph, seed=0)
        for u, v in split.test_edges:
            assert not split.train_graph.has_edge(int(u), int(v))

    def test_test_endpoints_active_in_train(self, small_power_graph):
        """The paper's V_test ⊆ V_train guarantee."""
        split = train_test_split(small_power_graph, seed=0)
        deg = split.train_graph.degrees
        assert np.all(deg[split.test_edges[:, 0]] > 0)
        assert np.all(deg[split.test_edges[:, 1]] > 0)

    def test_custom_fraction(self, small_power_graph):
        split = train_test_split(small_power_graph, train_fraction=0.5, seed=0)
        assert split.num_train_edges == round(0.5 * small_power_graph.num_undirected_edges)

    def test_invalid_fraction(self, small_power_graph):
        with pytest.raises(ValueError):
            train_test_split(small_power_graph, train_fraction=1.5)

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            train_test_split(CSRGraph.empty(5))

    def test_different_seeds_differ(self, small_power_graph):
        a = train_test_split(small_power_graph, seed=0)
        b = train_test_split(small_power_graph, seed=1)
        assert not np.array_equal(a.train_edges, b.train_edges)


class TestNegativeEdgeSampling:
    def test_samples_are_non_edges(self, small_power_graph):
        negatives = sample_negative_edges(small_power_graph, 200, seed=0)
        assert negatives.shape == (200, 2)
        for u, v in negatives:
            assert not small_power_graph.has_edge(int(u), int(v))
            assert u != v

    def test_no_duplicates(self, small_power_graph):
        negatives = sample_negative_edges(small_power_graph, 300, seed=0)
        keys = set(map(tuple, negatives.tolist()))
        assert len(keys) == 300

    def test_exclude_graph_respected(self, small_power_graph):
        extra = CSRGraph.from_edges(small_power_graph.num_vertices,
                                    sample_negative_edges(small_power_graph, 50, seed=3))
        negatives = sample_negative_edges(small_power_graph, 100, seed=4, exclude=extra)
        for u, v in negatives:
            assert not extra.has_edge(int(u), int(v))

    def test_active_vertices_only(self):
        g = CSRGraph.from_edges(10, [(0, 1), (1, 2), (2, 3)])
        negatives = sample_negative_edges(g, 3, seed=0, restrict_to_active=True)
        active = {0, 1, 2, 3}
        assert set(negatives.ravel().tolist()).issubset(active)

    def test_dense_graph_raises(self):
        from repro.graph import complete

        g = complete(6)
        with pytest.raises(RuntimeError):
            sample_negative_edges(g, 10, seed=0)


class TestEdgeFeatures:
    def test_hadamard(self):
        emb = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        feats = edge_features(emb, np.array([[0, 1], [1, 2]]))
        assert np.allclose(feats, [[3.0, 8.0], [15.0, 24.0]])

    def test_all_operators_produce_correct_shape(self):
        emb = np.random.default_rng(0).random((10, 4))
        pairs = np.array([[0, 1], [2, 3], [4, 5]])
        for op in EDGE_OPERATORS:
            feats = edge_features(emb, pairs, operator=op)
            assert feats.shape == (3, 4)

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            edge_features(np.ones((3, 2)), np.array([[0, 1]]), operator="xor")

    def test_bad_pairs_shape(self):
        with pytest.raises(ValueError):
            edge_features(np.ones((3, 2)), np.array([0, 1, 2]))

    def test_build_dataset_balanced_labels(self):
        emb = np.random.default_rng(0).random((20, 4))
        pos = np.array([[0, 1], [2, 3]])
        neg = np.array([[4, 5], [6, 7], [8, 9]])
        X, y = build_dataset(emb, pos, neg, shuffle=False)
        assert X.shape == (5, 4)
        assert y.tolist() == [1, 1, 0, 0, 0]

    def test_build_dataset_shuffles(self):
        emb = np.random.default_rng(0).random((30, 4))
        pos = np.column_stack([np.arange(10), np.arange(10, 20)])
        neg = np.column_stack([np.arange(20, 30), np.arange(0, 10)])
        _, y_noshuffle = build_dataset(emb, pos, neg, shuffle=False)
        _, y_shuffle = build_dataset(emb, pos, neg, shuffle=True, seed=1)
        assert not np.array_equal(y_noshuffle, y_shuffle)
        assert y_shuffle.sum() == 10
