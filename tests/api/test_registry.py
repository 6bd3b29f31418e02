"""Tests for the repro.api tool registry and the EmbeddingTool wrappers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    EmbeddingResult,
    EmbeddingTool,
    UnknownToolError,
    as_embedder,
    available_tools,
    get_tool,
    register_tool,
    tool_descriptions,
    unregister_tool,
)

BUILTINS = ["verse", "mile", "graphvite", "gosh-fast", "gosh-normal", "gosh-slow",
            "gosh-nocoarse"]


class TestRegistry:
    def test_all_builtins_registered(self):
        names = available_tools()
        assert len(names) >= 7
        for name in BUILTINS:
            assert name in names

    def test_builtin_presentation_order(self):
        names = available_tools()
        assert names[:7] == BUILTINS

    def test_get_tool_case_insensitive_and_aliases(self):
        assert get_tool("Gosh-Fast").name == "gosh-fast"
        assert get_tool("  VERSE ").name == "verse"
        assert get_tool("gosh").name == "gosh-normal"
        assert get_tool("gosh-no-coarsening").name == "gosh-nocoarse"

    def test_unknown_name_raises_with_options(self):
        with pytest.raises(UnknownToolError) as exc_info:
            get_tool("node2vec")
        assert "node2vec" in str(exc_info.value)
        assert "gosh-fast" in str(exc_info.value)
        assert isinstance(exc_info.value, KeyError)

    def test_register_and_unregister_custom_tool(self, tiny_graph):
        class ConstantTool:
            name = "constant"
            display_name = "Constant"

            def __init__(self, *, dim=None, epoch_scale=1.0, device=None, seed=None):
                self.dim = dim or 4

            def describe(self):
                return "returns a constant matrix"

            def prepare(self, graph):
                pass

            def embed(self, graph, *, device=None, seed=None, progress=None):
                emb = np.zeros((graph.num_vertices, self.dim), dtype=np.float32)
                return EmbeddingResult(embedding=emb, tool=self.name,
                                       graph=graph.name, seconds=0.0)

            def __call__(self, graph):
                return self.embed(graph).embedding

        register_tool("constant", ConstantTool)
        try:
            assert "constant" in available_tools()
            tool = get_tool("constant", dim=3)
            assert isinstance(tool, EmbeddingTool)
            assert tool.embed(tiny_graph).embedding.shape == (6, 3)
            # Duplicate registration must be explicit.
            with pytest.raises(ValueError):
                register_tool("constant", ConstantTool)
            register_tool("constant", ConstantTool, replace=True)
        finally:
            unregister_tool("constant")
        assert "constant" not in available_tools()

    def test_explicit_registration_wins_over_builtin_alias(self):
        """A tool registered under an alias name must not be shadowed by it."""
        marker = object()
        register_tool("gosh", lambda **kw: marker)
        try:
            assert get_tool("gosh") is marker
        finally:
            unregister_tool("gosh")
        # With the registration gone the builtin alias applies again.
        assert get_tool("gosh").name == "gosh-normal"

    def test_alias_cannot_hijack_a_builtin_alias(self):
        """Claiming an existing alias must be explicit, like a name."""
        with pytest.raises(ValueError, match="already registered"):
            register_tool("hijacker", lambda **kw: None, aliases=("gosh",))
        assert "hijacker" not in available_tools()
        assert get_tool("gosh").name == "gosh-normal"

    def test_builtin_name_collision_rejected(self):
        with pytest.raises(ValueError):
            register_tool("verse", lambda **kw: None)

    def test_tool_descriptions_rows(self):
        rows = tool_descriptions(dim=8, epoch_scale=0.02)
        names = [r["name"] for r in rows]
        assert set(BUILTINS) <= set(names)
        assert all(r["description"] for r in rows)


class TestBuiltinTools:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_embed_returns_canonical_result(self, name, tiny_graph):
        tool = get_tool(name, dim=8, epoch_scale=0.02, seed=0)
        assert isinstance(tool, EmbeddingTool)
        result = tool.embed(tiny_graph)
        assert isinstance(result, EmbeddingResult)
        assert result.embedding.shape == (tiny_graph.num_vertices, 8)
        assert np.isfinite(result.embedding).all()
        assert result.tool == tool.name
        assert result.graph == tiny_graph.name
        assert result.seconds >= 0
        assert result.timings and all(v >= 0 for v in result.timings.values())
        assert result.raw is not None
        # Bare-callable compatibility: tool(graph) -> matrix.
        assert tool(tiny_graph).shape == (tiny_graph.num_vertices, 8)

    def test_gosh_result_stats_shape(self, small_power_graph):
        result = get_tool("gosh-fast", dim=8, epoch_scale=0.02).embed(small_power_graph)
        assert result.stats["levels"] == len(result.stats["level_sizes"])
        assert len(result.stats["epochs_per_level"]) == result.stats["levels"]
        assert result.metadata["config"] == "fast"
        assert "coarsening" in result.timings and "training" in result.timings

    def test_seed_override_is_deterministic(self, tiny_graph):
        tool = get_tool("gosh-normal", dim=8, epoch_scale=0.02)
        a = tool.embed(tiny_graph, seed=11).embedding
        b = tool.embed(tiny_graph, seed=11).embedding
        c = tool.embed(tiny_graph, seed=12).embedding
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_progress_events_emitted(self, tiny_graph):
        events = []
        get_tool("gosh-fast", dim=8, epoch_scale=0.02).embed(tiny_graph,
                                                             progress=events.append)
        stages = [e.stage for e in events]
        assert stages == ["coarsen", "train", "done"]
        assert all(e.tool == "gosh-fast" and e.graph == tiny_graph.name for e in events)

    def test_prepare_warms_gosh_hierarchy(self, small_power_graph):
        tool = get_tool("gosh-normal", dim=8, epoch_scale=0.02)
        tool.prepare(small_power_graph)
        result = tool.embed(small_power_graph)
        assert result.stats["hierarchy_cache_hit"] is True

    def test_gosh_without_cache_recoarsens_every_run(self, small_power_graph):
        """Caching is opt-in: a bare tool keeps the paper's timing semantics,
        so repeated benchmark runs never skip stage 1 silently."""
        tool = get_tool("gosh-fast", dim=8, epoch_scale=0.02)
        first = tool.embed(small_power_graph)
        second = tool.embed(small_power_graph)
        assert tool.hierarchy_cache is None
        assert first.stats["hierarchy_cache_hit"] is False
        assert second.stats["hierarchy_cache_hit"] is False

    def test_broken_registration_does_not_break_listing(self):
        def broken(**options):
            raise ModuleNotFoundError("No module named 'no_such_module_xyz'")

        register_tool("broken-listing", broken)
        try:
            rows = tool_descriptions(dim=8, epoch_scale=0.02)
            by_name = {r["name"]: r for r in rows}
            assert "unavailable" in by_name["broken-listing"]["description"]
            assert by_name["verse"]["display"] == "Verse"
        finally:
            unregister_tool("broken-listing")

    def test_as_embedder_accepts_all_spellings(self, tiny_graph):
        from_name = as_embedder("gosh-fast")
        from_tool = as_embedder(get_tool("gosh-fast", dim=8, epoch_scale=0.02))
        from_callable = as_embedder(lambda g: np.ones((g.num_vertices, 2)))
        assert from_name(tiny_graph).ndim == 2
        assert from_tool(tiny_graph).shape == (6, 8)
        assert from_callable(tiny_graph).shape == (6, 2)
        with pytest.raises(TypeError):
            as_embedder(42)

    def test_as_embedder_forwards_seed_to_the_embedding(self, tiny_graph):
        """A pipeline seed must reach the embedding for name spellings too —
        not just the split/classifier."""
        a = as_embedder("gosh-fast", seed=11)(tiny_graph)
        b = as_embedder("gosh-fast", seed=11)(tiny_graph)
        c = as_embedder("gosh-fast", seed=12)(tiny_graph)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
