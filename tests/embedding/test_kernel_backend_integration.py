"""Backend selection wired through the trainer, config, pipeline, API and CLI."""

from __future__ import annotations

import numpy as np
import pytest

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
from repro.large import LargeGraphTrainer

#: The GOSH-only layer options; every baseline must refuse each of them.
LAYER_OPTIONS = {"kernel_backend": "vectorized", "sampler_backend": "vectorized",
                 "execution_mode": "pipelined"}
BASELINES = ("verse", "mile", "graphvite")


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
        assert NORMAL.kernel_backend == "vectorized"
        # The reference oracle stays registered for the parity suites.
        from repro.gpu import available_backends
        assert "reference" in available_backends()

    def test_invalid_backend_fails_validation(self):
        with pytest.raises(ValueError):
            NORMAL.with_(kernel_backend="warp-speed").validate()

    def test_pipeline_runs_vectorized(self, small_power_graph):
        cfg = FAST.scaled(0.05, dim=16).with_(kernel_backend="vectorized")
        result = embed(small_power_graph, cfg)
        assert result.embedding.shape == (small_power_graph.num_vertices, 16)
        assert len(result.level_stats) == result.num_levels

    def test_pipeline_deterministic_per_backend(self, small_power_graph):
        cfg = FAST.scaled(0.05, dim=8).with_(kernel_backend="vectorized", seed=11)
        a = embed(small_power_graph, cfg).embedding
        b = embed(small_power_graph, cfg).embedding
        assert np.array_equal(a, b)

    def test_backend_embeddings_numerically_close(self, small_power_graph):
        """End-to-end parity: same config, same seed, backends agree closely.

        The pipeline (coarsening, epoch distribution, sampling) is identical;
        only kernel arithmetic differs.  Per-epoch differences compound
        through the multilevel expansion, so the documented end-to-end bound
        is looser than the per-kernel one: mean cosine >= 0.9.
        """
        base = FAST.scaled(0.1, dim=16).with_(seed=7)
        ref = embed(small_power_graph, base.with_(kernel_backend="reference")).embedding
        vec = embed(small_power_graph, base.with_(kernel_backend="vectorized")).embedding
        cos = np.einsum("ij,ij->i", ref, vec) / (
            np.linalg.norm(ref, axis=1) * np.linalg.norm(vec, axis=1) + 1e-12)
        assert cos.mean() >= 0.9


class TestLargeGraphBackend:
    def _run(self, backend):
        g = social_community(600, intra_degree=6, seed=4)
        device = SimulatedDevice(spec=DeviceSpec(name="nano", memory_bytes=16 * 1024))
        emb = init_embedding(g.num_vertices, 16, 2)
        cfg = GoshConfig(kernel_backend=backend)
        stats = LargeGraphTrainer(device, cfg, min_parts=3).train(g, emb, 10)
        return emb, stats

    def test_vectorized_pair_backend_runs(self):
        emb, stats = self._run("vectorized")
        assert stats.kernels > 0
        assert np.all(np.isfinite(emb))

    def test_backends_agree_on_large_graph_path(self):
        ref_emb, ref_stats = self._run("reference")
        vec_emb, vec_stats = self._run("vectorized")
        assert ref_stats.kernels == vec_stats.kernels
        assert ref_stats.num_parts == vec_stats.num_parts
        # identical schedule + host sampling; only kernel arithmetic differs
        np.testing.assert_allclose(vec_emb, ref_emb, atol=2e-2)

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
        cfg = FAST.scaled(0.02, dim=16).with_(kernel_backend="vectorized")
        result = GoshEmbedder(cfg, device=device).embed(g)
        assert result.large_graph_stats


class TestApiAndCli:
    def test_get_tool_accepts_kernel_backend_for_gosh_tools(self):
        for name in ("gosh-fast", "gosh-normal", "gosh-slow", "gosh-nocoarse"):
            tool = get_tool(name, dim=8, epoch_scale=0.02, kernel_backend="reference")
            assert tool.config.kernel_backend == "reference"

    def test_gosh_tool_propagates_backend(self):
        tool = get_tool("gosh-fast", dim=8, kernel_backend="vectorized")
        assert tool.config.kernel_backend == "vectorized"
        assert "vectorized" in tool.describe()

    def test_gosh_tool_invalid_backend_raises(self):
        with pytest.raises(ValueError):
            get_tool("gosh-fast", dim=8, kernel_backend="warp-speed")

    def test_baselines_reject_invalid_backend_names_too(self):
        """The baselines take no layer option, so none (typo or not) passes
        silently and mislabels a benchmark number."""
        for name in BASELINES:
            for option, value in LAYER_OPTIONS.items():
                with pytest.raises(TypeError, match=option):
                    get_tool(name, dim=8, **{option: value})
            with pytest.raises(TypeError, match="kernel_backend"):
                get_tool(name, dim=8, kernel_backend="vectorised")

    def test_gosh_tool_embeds_with_vectorized(self, small_power_graph):
        tool = get_tool("gosh-fast", dim=8, epoch_scale=0.02,
                        kernel_backend="vectorized")
        result = tool.embed(small_power_graph)
        assert result.embedding.shape == (small_power_graph.num_vertices, 8)

    def test_cli_kernel_backend_flag(self, tmp_path, capsys):
        out = tmp_path / "emb.npy"
        code = main(["embed", "com-amazon", "--config", "fast", "--dim", "8",
                     "--epoch-scale", "0.02", "--kernel-backend", "vectorized",
                     "-o", str(out)])
        assert code == 0
        assert np.load(out).shape[1] == 8
        assert "vectorized" in capsys.readouterr().out

    def test_cli_layer_flag_on_a_baseline_exits_naming_it(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["embed", "com-amazon", "--tool", "verse",
                  "--kernel-backend", "reference", "-o", str(tmp_path / "x.npy")])
        message = str(exc.value.code)
        assert "--kernel-backend" in message and "'verse'" in message
        assert "\n" not in message
        out = tmp_path / "emb.npy"
        assert main(["embed", "com-amazon", "--tool", "verse", "--dim", "8",
                     "--epoch-scale", "0.02", "-o", str(out)]) == 0
        assert np.load(out).shape[1] == 8

    def test_cli_unknown_kernel_backend_exits(self):
        with pytest.raises(SystemExit):
            main(["embed", "com-amazon", "--kernel-backend", "warp-speed"])

    def test_cli_parser_default_is_none(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["embed", "com-dblp"])
        assert args.kernel_backend is None


class TestSamplerBackendIntegration:
    """--sampler-backend wired through config, scheduler, API and CLI."""

    def test_config_default_and_validation(self):
        assert NORMAL.sampler_backend == "vectorized"
        with pytest.raises(ValueError):
            NORMAL.with_(sampler_backend="warp-speed").validate()

    def test_large_graph_path_identical_across_sampler_backends(self):
        """Sampler parity is exact, so the whole partitioned training run is
        bit-identical whichever sampler backend produced the pools."""
        g = social_community(600, intra_degree=6, seed=4)
        embeddings = {}
        for backend in ("reference", "vectorized"):
            device = SimulatedDevice(spec=DeviceSpec(name="nano", memory_bytes=16 * 1024))
            emb = init_embedding(g.num_vertices, 16, 2)
            cfg = GoshConfig(sampler_backend=backend)
            stats = LargeGraphTrainer(device, cfg, min_parts=3).train(g, emb, 10)
            embeddings[backend] = emb
            assert stats.positive_samples > 0
        assert np.array_equal(embeddings["reference"], embeddings["vectorized"])

    def test_get_tool_accepts_sampler_backend_for_gosh_tools(self):
        for name in ("gosh-fast", "gosh-normal", "gosh-slow", "gosh-nocoarse"):
            tool = get_tool(name, dim=8, epoch_scale=0.02, sampler_backend="reference")
            assert tool.config.sampler_backend == "reference"

    def test_gosh_tool_propagates_sampler_backend(self):
        tool = get_tool("gosh-fast", dim=8, sampler_backend="reference")
        assert tool.config.sampler_backend == "reference"
        assert "reference sampler" in tool.describe()

    def test_baselines_reject_invalid_sampler_backend_names(self):
        for name in BASELINES:
            with pytest.raises(TypeError, match="sampler_backend"):
                get_tool(name, dim=8, sampler_backend="vectorised")
            with pytest.raises(TypeError, match="sampler_backend"):
                get_tool(name, dim=8, sampler_backend="vectorized")

    def test_cli_sampler_backend_flag(self, tmp_path):
        out = tmp_path / "emb.npy"
        code = main(["embed", "com-amazon", "--config", "fast", "--dim", "8",
                     "--epoch-scale", "0.02", "--sampler-backend", "reference",
                     "-o", str(out)])
        assert code == 0
        assert np.load(out).shape[1] == 8

    def test_cli_unknown_sampler_backend_exits(self):
        with pytest.raises(SystemExit):
            main(["embed", "com-amazon", "--sampler-backend", "warp-speed"])

    def test_cli_parser_default_is_none(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["embed", "com-dblp"])
        assert args.sampler_backend is None


def test_quality_parity_on_sbm():
    """Both backends must recover SBM community structure equally well."""
    g = stochastic_block_model([60, 60, 60], p_in=0.2, p_out=0.01, seed=5)
    labels = np.repeat(np.arange(3), 60)
    rng = np.random.default_rng(1)
    i = rng.integers(0, g.num_vertices, 3000)
    j = rng.integers(0, g.num_vertices, 3000)
    for backend in ("reference", "vectorized"):
        emb = embed(g, NORMAL.scaled(0.1, dim=16).with_(kernel_backend=backend)).embedding
        dots = np.einsum("ij,ij->i", emb[i], emb[j])
        same = labels[i] == labels[j]
        assert dots[same].mean() > dots[~same].mean(), backend


class TestExecutionModeIntegration:
    """--execution-mode wired through config, scheduler, API and CLI."""

    def test_config_default_and_validation(self):
        assert NORMAL.execution_mode == "pipelined"
        with pytest.raises(ValueError):
            NORMAL.with_(execution_mode="warp-speed").validate()

    def test_embedder_routes_mode_to_large_engine(self):
        g = social_community(600, intra_degree=6, seed=4)
        embeddings = {}
        for mode in ("sequential", "pipelined"):
            device = SimulatedDevice(spec=DeviceSpec(name="nano", memory_bytes=16 * 1024))
            cfg = FAST.scaled(0.02, dim=16).with_(execution_mode=mode)
            result = GoshEmbedder(cfg, device=device).embed(g)
            assert result.large_graph_stats
            assert all(s.execution_mode == mode for s in result.large_graph_stats)
            embeddings[mode] = result.embedding
        assert np.array_equal(embeddings["sequential"], embeddings["pipelined"])

    def test_get_tool_accepts_execution_mode_for_gosh_tools(self):
        for name in ("gosh-fast", "gosh-normal", "gosh-slow", "gosh-nocoarse"):
            tool = get_tool(name, dim=8, epoch_scale=0.02, execution_mode="sequential")
            assert tool.config.execution_mode == "sequential"

    def test_gosh_tool_propagates_execution_mode(self):
        tool = get_tool("gosh-fast", dim=8, execution_mode="sequential")
        assert tool.config.execution_mode == "sequential"
        assert "sequential execution" in tool.describe()

    def test_default_mode_not_mentioned_in_describe(self):
        tool = get_tool("gosh-fast", dim=8)
        assert "execution" not in tool.describe()

    def test_empty_mode_is_unknown_not_the_default(self):
        """Only None selects the default mode; "" is a typo like any other."""
        with pytest.raises(ValueError):
            GoshConfig(execution_mode="").validate()
        with pytest.raises(ValueError):
            get_tool("gosh-fast", dim=8, execution_mode="")
        with pytest.raises(TypeError):
            get_tool("verse", dim=8, execution_mode="")

    def test_describe_uses_canonical_names(self):
        text = get_tool("gosh-fast", dim=8, kernel_backend="Reference",
                        sampler_backend="VECTORIZED").describe()
        assert "reference kernels" in text
        assert "sampler" not in text

    def test_baselines_reject_invalid_mode_names_too(self):
        for name in BASELINES:
            with pytest.raises(TypeError, match="execution_mode"):
                get_tool(name, dim=8, execution_mode="pipelined-ish")
            with pytest.raises(TypeError, match="execution_mode"):
                get_tool(name, dim=8, execution_mode="sequential")

    def test_cli_execution_mode_flag(self, tmp_path, capsys):
        out = tmp_path / "emb.npy"
        code = main(["embed", "com-amazon", "--config", "fast", "--dim", "8",
                     "--epoch-scale", "0.02", "--execution-mode", "sequential",
                     "-o", str(out)])
        assert code == 0
        assert np.load(out).shape[1] == 8
        assert "sequential" in capsys.readouterr().out

    def test_cli_unknown_execution_mode_exits(self):
        with pytest.raises(SystemExit):
            main(["embed", "com-amazon", "--execution-mode", "warp-speed"])

    def test_cli_parser_default_is_none(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["embed", "com-dblp"])
        assert args.execution_mode is None
