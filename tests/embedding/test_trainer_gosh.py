"""Unit and integration tests for the level trainer, GOSH pipeline, and VERSE baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.embedding import (
    FAST,
    NO_COARSE,
    NORMAL,
    GoshEmbedder,
    LevelTrainer,
    VerseConfig,
    embed,
    init_embedding,
    verse_embed,
)
from repro.gpu import DeviceSpec, SimulatedDevice
from repro.graph import social_community, stochastic_block_model


class TestInitEmbedding:
    def test_shape_and_dtype(self):
        emb = init_embedding(100, 16, 0)
        assert emb.shape == (100, 16)
        assert emb.dtype == np.float32

    def test_default_scale(self):
        emb = init_embedding(1000, 64, 0)
        assert np.abs(emb).max() <= 0.5 / 64 + 1e-6

    def test_custom_scale(self):
        emb = init_embedding(100, 8, 0, scale=1.0)
        assert np.abs(emb).max() > 0.5

    def test_deterministic(self):
        assert np.array_equal(init_embedding(50, 8, 7), init_embedding(50, 8, 7))


class TestLevelTrainer:
    def test_embedding_changes(self, community_graph):
        emb = init_embedding(community_graph.num_vertices, 16, 0)
        before = emb.copy()
        LevelTrainer(seed=0).train(community_graph, emb, 5)
        assert not np.array_equal(emb, before)

    def test_stats_populated(self, community_graph):
        emb = init_embedding(community_graph.num_vertices, 16, 0)
        stats = LevelTrainer(negative_samples=2, seed=0).train(community_graph, emb, 4, level=3)
        assert stats.level == 3
        assert stats.epochs == 4
        assert stats.updates == 4 * community_graph.num_vertices * 3
        assert len(stats.per_epoch_seconds) == 4
        assert stats.seconds > 0

    def test_shape_mismatch_raises(self, community_graph):
        with pytest.raises(ValueError):
            LevelTrainer().train(community_graph, np.zeros((3, 8), dtype=np.float32), 1)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            LevelTrainer(kernel="warp-speed")

    def test_learning_improves_community_separation(self, community_graph):
        emb = init_embedding(community_graph.num_vertices, 16, 0)
        LevelTrainer(negative_samples=3, learning_rate=0.05, seed=0).train(
            community_graph, emb, 60)
        labels = np.repeat(np.arange(4), 80)
        # mean intra-community dot must exceed mean inter-community dot
        rng = np.random.default_rng(0)
        i = rng.integers(0, community_graph.num_vertices, 4000)
        j = rng.integers(0, community_graph.num_vertices, 4000)
        dots = np.einsum("ij,ij->i", emb[i], emb[j])
        same = labels[i] == labels[j]
        assert dots[same].mean() > dots[~same].mean()

    def test_naive_kernel_also_learns(self, community_graph):
        emb = init_embedding(community_graph.num_vertices, 16, 0)
        stats = LevelTrainer(kernel="naive", seed=0).train(community_graph, emb, 3)
        assert stats.epochs == 3

    def test_trains_on_a_simulated_device(self, community_graph):
        emb = init_embedding(community_graph.num_vertices, 8, 0)
        stats = LevelTrainer(device=SimulatedDevice()).train(community_graph, emb, 2)
        assert stats.epochs == 2


class TestGoshPipeline:
    def test_end_to_end_shapes(self, small_power_graph):
        cfg = NORMAL.scaled(0.05, dim=16)
        result = embed(small_power_graph, cfg)
        assert result.embedding.shape == (small_power_graph.num_vertices, 16)
        assert result.num_levels >= 2
        assert sum(result.epochs_per_level) == cfg.epochs
        assert result.total_seconds > 0

    def test_no_coarsening_single_level(self, small_power_graph):
        cfg = NO_COARSE.scaled(0.05, dim=16)
        result = embed(small_power_graph, cfg)
        assert result.num_levels == 1
        assert result.hierarchy.level(0) is small_power_graph

    def test_level_stats_cover_all_levels(self, small_power_graph):
        cfg = FAST.scaled(0.05, dim=16)
        result = embed(small_power_graph, cfg)
        assert len(result.level_stats) == result.num_levels
        assert not result.large_graph_stats  # fits on the default device

    def test_epochs_override(self, small_power_graph):
        result = embed(small_power_graph, FAST.scaled(0.05, dim=8), epochs=12)
        assert sum(result.epochs_per_level) == 12

    def test_deterministic_given_seed(self, small_power_graph):
        cfg = FAST.scaled(0.05, dim=8).with_(seed=11)
        a = embed(small_power_graph, cfg).embedding
        b = embed(small_power_graph, cfg).embedding
        assert np.array_equal(a, b)

    def test_small_device_routes_through_large_engine(self):
        g = social_community(600, intra_degree=6, seed=4)
        # device too small for the level-0 matrix (600 x 16 x 4 = 38 KB)
        device = SimulatedDevice(spec=DeviceSpec(name="nano", memory_bytes=16 * 1024))
        cfg = FAST.scaled(0.02, dim=16)
        result = GoshEmbedder(cfg, device=device).embed(g)
        assert result.large_graph_stats, "large-graph engine should have been used"
        assert result.embedding.shape == (600, 16)

    def test_summary_keys(self, small_power_graph):
        result = embed(small_power_graph, FAST.scaled(0.02, dim=8))
        summary = result.summary()
        assert {"config", "levels", "epochs_per_level", "total_s"}.issubset(summary)

    def test_quality_on_community_graph(self):
        """Multilevel embedding must separate SBM communities."""
        g = stochastic_block_model([60, 60, 60], p_in=0.2, p_out=0.01, seed=5)
        result = embed(g, NORMAL.scaled(0.1, dim=16))
        emb = result.embedding
        labels = np.repeat(np.arange(3), 60)
        rng = np.random.default_rng(1)
        i = rng.integers(0, g.num_vertices, 3000)
        j = rng.integers(0, g.num_vertices, 3000)
        dots = np.einsum("ij,ij->i", emb[i], emb[j])
        same = labels[i] == labels[j]
        assert dots[same].mean() > dots[~same].mean()


class TestVerseBaseline:
    def test_embedding_shape(self, small_power_graph):
        cfg = VerseConfig(dim=16, epochs=5, seed=0)
        result = verse_embed(small_power_graph, cfg)
        assert result.embedding.shape == (small_power_graph.num_vertices, 16)
        assert result.epochs == 5
        assert result.seconds > 0

    def test_adjacency_similarity_mode(self, small_power_graph):
        cfg = VerseConfig(dim=8, epochs=3, similarity="adjacency", seed=0)
        result = verse_embed(small_power_graph, cfg)
        assert result.embedding.shape[1] == 8

    def test_loop_mode_tiny(self, tiny_graph):
        cfg = VerseConfig(dim=4, epochs=2, mode="loop", seed=0)
        result = verse_embed(tiny_graph, cfg)
        assert result.embedding.shape == (6, 4)

    def test_unknown_mode(self, tiny_graph):
        with pytest.raises(ValueError):
            verse_embed(tiny_graph, VerseConfig(mode="quantum"))
