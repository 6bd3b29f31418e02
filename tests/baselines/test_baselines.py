"""Tests for the MILE and GraphVite-like baseline pipelines."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.baselines import (
    GraphViteConfig,
    MileConfig,
    graphvite_embed,
    mile_embed,
)
from repro.gpu import DeviceMemoryError, DeviceSpec, SimulatedDevice
from repro.graph import powerlaw_cluster, social_community

#: SHA-256 of MILE's float32 embedding of ``powerlaw_cluster(300, m=3,
#: seed=1)`` at ``MileConfig(dim=16, base_epochs=20, seed=0)``, recorded
#: when its coarsest level was trained through the ``train_level`` wrapper
#: (numpy 2.4, x86-64).
MILE_SHA256 = "e9507966b2e03e7a3215e94a597d158f3eefb63cc0a5f691784bf5b5adce567c"


@pytest.fixture
def graph():
    return social_community(300, intra_degree=8, seed=2)


class TestMile:
    def test_end_to_end_shapes(self, graph):
        cfg = MileConfig(dim=16, coarsening_levels=3, base_epochs=10, seed=0)
        result = mile_embed(graph, cfg)
        assert result.embedding.shape == (graph.num_vertices, 16)
        assert result.hierarchy.num_levels >= 2
        assert result.total_seconds > 0
        assert result.coarsening_seconds > 0

    def test_refinement_smooths_neighbors(self, graph):
        cfg = MileConfig(dim=16, coarsening_levels=3, base_epochs=20,
                         refinement_hops=2, seed=0)
        result = mile_embed(graph, cfg)
        emb = result.embedding
        edges = graph.undirected_edge_array()
        rng = np.random.default_rng(0)
        ru = rng.integers(0, graph.num_vertices, edges.shape[0])
        rv = rng.integers(0, graph.num_vertices, edges.shape[0])
        pos = np.einsum("ij,ij->i", emb[edges[:, 0]], emb[edges[:, 1]]).mean()
        rnd = np.einsum("ij,ij->i", emb[ru], emb[rv]).mean()
        assert pos > rnd

    def test_embedding_is_byte_identical_to_the_recorded_one(self):
        """MILE trains on the reference kernel, as it always has: the level
        trainer's vectorized default must not leak into the baseline."""
        g = powerlaw_cluster(300, m=3, seed=1)
        emb = mile_embed(g, MileConfig(dim=16, base_epochs=20, seed=0)).embedding
        assert emb.dtype == np.float32
        assert hashlib.sha256(emb.tobytes()).hexdigest() == MILE_SHA256

    def test_fewer_levels_than_requested_on_small_graph(self):
        small = social_community(60, intra_degree=4, seed=0)
        result = mile_embed(small, MileConfig(dim=8, coarsening_levels=10, base_epochs=2, seed=0))
        assert result.hierarchy.num_levels <= 11


class TestGraphViteLike:
    def test_runs_when_memory_sufficient(self, graph):
        cfg = GraphViteConfig(dim=16, epochs=10, seed=0)
        result = graphvite_embed(graph, cfg, device=SimulatedDevice())
        assert result.embedding.shape == (graph.num_vertices, 16)
        assert result.episodes == 10

    def test_fails_without_partitioning_when_memory_small(self, graph):
        """The paper's Table 7 behaviour: GraphVite cannot embed what does not fit."""
        tiny = SimulatedDevice(spec=DeviceSpec(name="tiny", memory_bytes=8 * 1024))
        with pytest.raises(DeviceMemoryError):
            graphvite_embed(graph, GraphViteConfig(dim=16, epochs=5), device=tiny)

    def test_embedding_learns_edges(self, graph):
        cfg = GraphViteConfig(dim=16, epochs=60, learning_rate=0.05, seed=0)
        result = graphvite_embed(graph, cfg, device=SimulatedDevice())
        emb = result.embedding
        edges = graph.undirected_edge_array()
        rng = np.random.default_rng(0)
        ru = rng.integers(0, graph.num_vertices, edges.shape[0])
        rv = rng.integers(0, graph.num_vertices, edges.shape[0])
        pos = np.einsum("ij,ij->i", emb[edges[:, 0]], emb[edges[:, 1]]).mean()
        rnd = np.einsum("ij,ij->i", emb[ru], emb[rv]).mean()
        assert pos > rnd

    def test_degree_biased_negatives_used(self, graph):
        # power=0.75 is the default; just ensure the config plumbs through.
        cfg = GraphViteConfig(dim=8, epochs=2, negative_power=0.75, seed=0)
        result = graphvite_embed(graph, cfg, device=SimulatedDevice())
        assert result.embedding.shape[1] == 8
