"""Kernel backends through the trainer and pipeline; no layer option in the
config, API or CLI.

A backend is selected only on :class:`LevelTrainer`: the GOSH pipeline always
runs the vectorized one, so the end-to-end parity tests swap the reference
oracle in by patching the embedder's trainer class.  Likewise the
partitioned engine always draws its pools with ``sample_rows``; the sampler
parity run swaps the test-side oracle loop in by patching
``SamplePoolManager._sample_direction``.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from oracles import reference_sample_rows
from repro.api import get_tool
from repro.cli import main
from repro.embedding import (
    FAST,
    NORMAL,
    GoshConfig,
    GoshEmbedder,
    LevelTrainer,
    embed,
    init_embedding,
)
from repro.gpu import DeviceSpec, SimulatedDevice, VectorizedBackend, get_backend
from repro.graph import social_community, stochastic_block_model
from repro.large import LargeGraphTrainer, PoolDirection, SamplePoolManager

BASELINES = ("verse", "mile", "graphvite")


def embed_with_reference_kernels(graph, cfg):
    """``embed`` with the GOSH level trainer running the reference backend."""
    import repro.embedding.gosh as gosh

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gosh, "LevelTrainer", partial(LevelTrainer, backend="reference"))
        return embed(graph, cfg)


class TestLevelTrainerBackend:
    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError):
            LevelTrainer(backend="warp-speed")

    def test_backend_instance_accepted(self, community_graph):
        emb = init_embedding(community_graph.num_vertices, 8, 0)
        stats = LevelTrainer(backend=VectorizedBackend(), seed=0).train(
            community_graph, emb, 2)
        assert stats.epochs == 2

    def test_vectorized_backend_learns(self, community_graph):
        emb = init_embedding(community_graph.num_vertices, 16, 0)
        LevelTrainer(backend="vectorized", negative_samples=3,
                     learning_rate=0.05, seed=0).train(community_graph, emb, 60)
        labels = np.repeat(np.arange(4), 80)
        rng = np.random.default_rng(0)
        i = rng.integers(0, community_graph.num_vertices, 4000)
        j = rng.integers(0, community_graph.num_vertices, 4000)
        dots = np.einsum("ij,ij->i", emb[i], emb[j])
        same = labels[i] == labels[j]
        assert dots[same].mean() > dots[~same].mean()

    def test_train_level_backend_kwarg(self, community_graph):
        """A level trainer runs the backend it names, vectorized by default."""
        assert LevelTrainer()._backend is get_backend("vectorized")
        trainer = LevelTrainer(backend="reference", seed=0)
        assert trainer._backend is get_backend("reference")
        emb = init_embedding(community_graph.num_vertices, 8, 0)
        assert trainer.train(community_graph, emb, 2).epochs == 2

    def test_both_kernels_run_through_vectorized(self, community_graph):
        for kernel in ("optimized", "naive"):
            emb = init_embedding(community_graph.num_vertices, 8, 0)
            before = emb.copy()
            LevelTrainer(backend="vectorized", kernel=kernel, seed=0).train(
                community_graph, emb, 2)
            assert not np.array_equal(emb, before)


class TestGoshConfigBackend:
    def test_default_is_vectorized(self):
        from repro.gpu.backends import DEFAULT_BACKEND

        assert DEFAULT_BACKEND == "vectorized"
        # The reference oracle stays registered for MILE and the parity suites.
        from repro.gpu import available_backends
        assert "reference" in available_backends()

    def test_invalid_backend_fails_validation(self):
        """The config selects no kernel: the GOSH trainers always run the
        vectorized backend, and the dead noise exponent is gone too."""
        for removed in ("kernel_backend", "negative_power"):
            with pytest.raises(TypeError, match=removed):
                NORMAL.with_(**{removed: "reference"})

    def test_pipeline_runs_vectorized(self, small_power_graph):
        cfg = FAST.scaled(0.05, dim=16)
        result = embed(small_power_graph, cfg)
        assert result.embedding.shape == (small_power_graph.num_vertices, 16)
        assert len(result.level_stats) == result.num_levels

    def test_pipeline_deterministic_per_backend(self, small_power_graph):
        cfg = FAST.scaled(0.05, dim=8).with_(seed=11)
        a = embed(small_power_graph, cfg).embedding
        b = embed(small_power_graph, cfg).embedding
        assert np.array_equal(a, b)

    def test_backend_embeddings_numerically_close(self, small_power_graph):
        """End-to-end parity: same config, same seed, backends agree closely.

        The pipeline (coarsening, epoch distribution, sampling) is identical;
        only kernel arithmetic differs.  Per-epoch differences compound
        through the multilevel expansion, so the documented end-to-end bound
        is looser than the per-kernel one: mean cosine >= 0.9.  The graph
        trains in memory, so the patched level trainer runs every epoch.
        """
        base = FAST.scaled(0.1, dim=16).with_(seed=7)
        ref = embed_with_reference_kernels(small_power_graph, base).embedding
        vec = embed(small_power_graph, base).embedding
        assert not np.array_equal(ref, vec)
        cos = np.einsum("ij,ij->i", ref, vec) / (
            np.linalg.norm(ref, axis=1) * np.linalg.norm(vec, axis=1) + 1e-12)
        assert cos.mean() >= 0.9


class TestLargeGraphBackend:
    def test_vectorized_pair_backend_runs(self):
        g = social_community(600, intra_degree=6, seed=4)
        device = SimulatedDevice(spec=DeviceSpec(name="nano", memory_bytes=16 * 1024))
        emb = init_embedding(g.num_vertices, 16, 2)
        stats = LargeGraphTrainer(device, GoshConfig(), min_parts=3).train(g, emb, 10)
        assert stats.kernels > 0
        assert np.all(np.isfinite(emb))

    def test_embedder_hands_the_engine_its_own_config(self, monkeypatch):
        """One GoshConfig from embedder to partitioned engine: no copy."""
        import repro.embedding.gosh as gosh

        seen = []

        class Recording(LargeGraphTrainer):
            def __init__(self, device, config=None, **kwargs):
                seen.append(config)
                super().__init__(device, config, **kwargs)

        monkeypatch.setattr(gosh, "LargeGraphTrainer", Recording)
        g = social_community(600, intra_degree=6, seed=4)
        device = SimulatedDevice(spec=DeviceSpec(name="nano", memory_bytes=16 * 1024))
        embedder = GoshEmbedder(FAST.scaled(0.02, dim=16), device=device)
        assert embedder.embed(g).large_graph_stats
        assert len(seen) == 1 and seen[0] is embedder.config

    def test_routed_from_pipeline(self):
        g = social_community(600, intra_degree=6, seed=4)
        device = SimulatedDevice(spec=DeviceSpec(name="nano", memory_bytes=16 * 1024))
        cfg = FAST.scaled(0.02, dim=16)
        result = GoshEmbedder(cfg, device=device).embed(g)
        assert result.large_graph_stats


class TestApiAndCli:
    def test_gosh_tool_invalid_backend_raises(self):
        """No tool selects a kernel backend: the keyword itself is refused."""
        for name in ("gosh-fast", "gosh-nocoarse"):
            with pytest.raises(TypeError, match="kernel_backend"):
                get_tool(name, dim=8, kernel_backend="reference")

    def test_baselines_reject_invalid_backend_names_too(self):
        """The baselines take no layer option, so none (typo or not) passes
        silently and mislabels a benchmark number."""
        for name in BASELINES:
            with pytest.raises(TypeError, match="kernel_backend"):
                get_tool(name, dim=8, kernel_backend="vectorised")

    def test_describe_uses_canonical_names(self):
        """With no layer to choose, describe() names neither sampler nor kernels."""
        text = get_tool("gosh-fast", dim=8).describe()
        assert text.startswith("GOSH fast:")
        assert "sampler" not in text and "kernels" not in text

    def test_gosh_tool_embeds_with_vectorized(self, small_power_graph):
        tool = get_tool("gosh-fast", dim=8, epoch_scale=0.02)
        result = tool.embed(small_power_graph)
        assert result.embedding.shape == (small_power_graph.num_vertices, 8)

    def test_cli_kernel_backend_flag(self, capsys):
        """There is no --kernel-backend: argparse rejects it."""
        with pytest.raises(SystemExit) as exc:
            main(["embed", "com-amazon", "--kernel-backend", "reference"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --kernel-backend" in capsys.readouterr().err

    def test_cli_unknown_kernel_backend_exits(self, capsys):
        """Neither of the other two tool-option commands takes it either."""
        from repro.cli import build_parser
        for command in ("evaluate", "query"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command, "com-amazon",
                                           "--kernel-backend", "vectorized"])
            assert exc.value.code == 2
            assert "--kernel-backend" in capsys.readouterr().err

    def test_cli_parser_default_is_none(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["embed", "com-dblp"])
        assert not hasattr(args, "kernel_backend")


class TestSamplerBackendIntegration:
    """One positive sampler: no option selects it, and the partitioned run
    is bit-identical to one whose pools the oracle loop draws."""

    def test_config_default_and_validation(self):
        with pytest.raises(TypeError, match="sampler_backend"):
            NORMAL.with_(sampler_backend="reference")
        NORMAL.validate()

    def test_large_graph_path_identical_across_sampler_backends(self, monkeypatch):
        """Sampler parity is exact, so the whole partitioned training run is
        bit-identical when the oracle loop draws every pool direction."""
        g = social_community(600, intra_degree=6, seed=4)

        def train():
            device = SimulatedDevice(spec=DeviceSpec(name="nano", memory_bytes=16 * 1024))
            emb = init_embedding(g.num_vertices, 16, 2)
            stats = LargeGraphTrainer(device, GoshConfig(), min_parts=3).train(g, emb, 10)
            assert stats.positive_samples > 0
            return emb

        default = train()
        oracle_draws = []

        def oracle_direction(self, from_part, to_part, rng):
            part = self.partition.parts[from_part]
            rows, dst = reference_sample_rows(self.graph, part, self.partition.mask(to_part),
                                              self.batch_per_vertex, rng)
            oracle_draws.append(dst.size)
            return PoolDirection(from_part=from_part, to_part=to_part, vertices=part,
                                 rows=rows, B=self.batch_per_vertex, dst=dst)

        monkeypatch.setattr(SamplePoolManager, "_sample_direction", oracle_direction)
        oracle = train()
        assert sum(oracle_draws) > 0
        assert np.array_equal(oracle, default)

    def test_baselines_reject_invalid_sampler_backend_names(self):
        """No tool, GOSH or baseline, takes a sampler option."""
        for name in ("gosh-fast", "gosh-nocoarse") + BASELINES:
            with pytest.raises(TypeError, match="sampler_backend"):
                get_tool(name, dim=8, sampler_backend="vectorized")

    def test_cli_sampler_backend_flag(self, capsys):
        """There is no --sampler-backend: argparse rejects it."""
        with pytest.raises(SystemExit) as exc:
            main(["embed", "com-amazon", "--sampler-backend", "reference"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --sampler-backend" in capsys.readouterr().err

    def test_cli_unknown_sampler_backend_exits(self, capsys):
        """Neither of the other two tool-option commands takes it either."""
        from repro.cli import build_parser
        for command in ("evaluate", "query"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command, "com-amazon",
                                           "--sampler-backend", "vectorized"])
            assert exc.value.code == 2
            assert "--sampler-backend" in capsys.readouterr().err

    def test_cli_parser_default_is_none(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["embed", "com-dblp"])
        assert not hasattr(args, "sampler_backend")


def test_quality_parity_on_sbm():
    """Both backends must recover SBM community structure equally well."""
    g = stochastic_block_model([60, 60, 60], p_in=0.2, p_out=0.01, seed=5)
    labels = np.repeat(np.arange(3), 60)
    rng = np.random.default_rng(1)
    i = rng.integers(0, g.num_vertices, 3000)
    j = rng.integers(0, g.num_vertices, 3000)
    cfg = NORMAL.scaled(0.1, dim=16)
    embeddings = {
        "reference": embed_with_reference_kernels(g, cfg).embedding,
        "vectorized": embed(g, cfg).embedding,
    }
    for backend, emb in embeddings.items():
        dots = np.einsum("ij,ij->i", emb[i], emb[j])
        same = labels[i] == labels[j]
        assert dots[same].mean() > dots[~same].mean(), backend
