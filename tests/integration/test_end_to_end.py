"""Integration tests: the full GOSH workflow against the paper's claims (scaled down)."""

from __future__ import annotations

import pytest

from repro.baselines import MileConfig, mile_embed
from repro.coarsening import multi_edge_collapse, parallel_multi_edge_collapse
from repro.embedding import FAST, NO_COARSE, NORMAL, SLOW, GoshEmbedder, VerseConfig, verse_embed
from repro.eval import evaluate_embedding, train_test_split
from repro.gpu import DeviceSpec, SimulatedDevice
from repro.graph import social_community
from repro.harness import load_dataset


@pytest.fixture(scope="module")
def medium_graph():
    return social_community(900, intra_degree=10, hub_fraction=0.01, hub_reach=0.05, seed=0)


@pytest.fixture(scope="module")
def medium_split(medium_graph):
    return train_test_split(medium_graph, seed=0)


class TestLinkPredictionQuality:
    """Scaled-down Table 6: every GOSH configuration reaches useful AUCROC."""

    @pytest.mark.parametrize("config", [FAST, NORMAL, SLOW], ids=lambda c: c.name)
    def test_gosh_configs_learn(self, medium_split, config):
        cfg = config.scaled(0.35, dim=32)
        emb = GoshEmbedder(cfg).embed(medium_split.train_graph).embedding
        result = evaluate_embedding(emb, medium_split, seed=0)
        assert result.auc > 0.70, f"{config.name} AUCROC too low: {result.auc:.3f}"

    def test_no_coarse_also_learns(self, medium_split):
        cfg = NO_COARSE.scaled(0.35, dim=32)
        emb = GoshEmbedder(cfg).embed(medium_split.train_graph).embedding
        result = evaluate_embedding(emb, medium_split, seed=0)
        assert result.auc > 0.80

    def test_slow_at_least_as_good_as_fast(self, medium_split):
        fast = GoshEmbedder(FAST.scaled(0.35, dim=32)).embed(medium_split.train_graph).embedding
        slow = GoshEmbedder(SLOW.scaled(0.35, dim=32)).embed(medium_split.train_graph).embedding
        auc_fast = evaluate_embedding(fast, medium_split, seed=0).auc
        auc_slow = evaluate_embedding(slow, medium_split, seed=0).auc
        assert auc_slow >= auc_fast - 0.03  # slow may not lose meaningfully

    def test_gosh_faster_than_no_coarse(self, medium_split):
        """The core speed claim: coarsening cuts embedding time substantially."""
        fast_result = GoshEmbedder(FAST.scaled(0.35, dim=32)).embed(medium_split.train_graph)
        nocoarse_result = GoshEmbedder(NO_COARSE.scaled(0.35, dim=32)).embed(medium_split.train_graph)
        assert fast_result.total_seconds < nocoarse_result.total_seconds


class TestCoarseningClaims:
    def test_parallel_coarsening_faster_than_sequential(self):
        """Table 4 shape: the parallel algorithm wins, quality is comparable."""
        graph = load_dataset("hyperlink2012", seed=0)
        seq = multi_edge_collapse(graph, threshold=100)
        par = parallel_multi_edge_collapse(graph, threshold=100)
        assert par.total_time() < seq.total_time()
        assert abs(seq.num_levels - par.num_levels) <= 2

    def test_gosh_coarsening_outshrinks_mile(self):
        """Table 5 shape: MultiEdgeCollapse reaches far smaller last levels."""
        from repro.coarsening import mile_coarsen

        graph = load_dataset("com-orkut", seed=0)
        levels = 5
        gosh = multi_edge_collapse(graph, threshold=1, max_levels=levels)
        mile = mile_coarsen(graph, num_levels=levels)
        assert gosh.graphs[-1].num_vertices < mile.graphs[-1].num_vertices
        assert gosh.total_time() < mile.total_time()


class TestLargeGraphPath:
    def test_out_of_memory_graph_embeds_via_partitioning(self):
        """Table 7 setting: the embedding matrix does not fit, GOSH still works."""
        graph = load_dataset("soc-sinaweibo", seed=0)
        dim = 32
        matrix_bytes = graph.num_vertices * dim * 4
        device = SimulatedDevice(spec=DeviceSpec(name="small", memory_bytes=matrix_bytes // 3))
        cfg = FAST.scaled(0.1, dim=dim)
        result = GoshEmbedder(cfg, device=device).embed(graph)
        assert result.large_graph_stats, "partitioned engine must be used"
        assert result.embedding.shape == (graph.num_vertices, dim)
        split = train_test_split(graph, seed=0)
        # re-embed the training graph through the same memory-limited device
        emb = GoshEmbedder(cfg, device=device).embed(split.train_graph).embedding
        quality = evaluate_embedding(emb, split, classifier="sgd", seed=0)
        assert quality.auc > 0.6


class TestBaselineComparison:
    def test_gosh_fast_beats_verse_on_time(self, medium_split):
        verse = verse_embed(medium_split.train_graph, VerseConfig(dim=32, epochs=210, seed=0))
        gosh = GoshEmbedder(FAST.scaled(0.35, dim=32)).embed(medium_split.train_graph)
        assert gosh.total_seconds < verse.seconds
        verse_auc = evaluate_embedding(verse.embedding, medium_split, seed=0).auc
        gosh_auc = evaluate_embedding(gosh.embedding, medium_split, seed=0).auc
        # quality within a few points of the (slower) baseline
        assert gosh_auc > verse_auc - 0.15

    def test_mile_pipeline_runs_end_to_end(self, medium_split):
        result = mile_embed(medium_split.train_graph,
                            MileConfig(dim=32, coarsening_levels=4, base_epochs=30, seed=0))
        auc = evaluate_embedding(result.embedding, medium_split, seed=0).auc
        assert auc > 0.55
