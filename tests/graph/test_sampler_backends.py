"""Positive-sampler suite: golden parity with the oracle, distribution pins.

The parity tests are the contract of the sampler: ``sample_rows`` over the
filtered sub-CSR (``"vectorized"``) and the test-side per-vertex loop
(``"reference"``, :func:`oracles.reference_sample_rows`) must draw
*identical* ``(rows, dst)`` arrays from equally seeded Generators, because
both consume one row of ``B`` float64 uniforms per eligible vertex.  The
distributional tests pin the paper's "almost equivalent to B×K epochs"
semantics on both: every dst lands in the partner part, eligible vertices
contribute exactly ``B`` pairs, and isolated / partner-less vertices
contribute none.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import build_filtered_adjacency, reference_sample_rows, two_way_partition
from repro.graph import (
    CSRGraph,
    contiguous_partition,
    powerlaw_cluster,
    ring,
    social_community,
    star,
)
from repro.large.sample_pool import (
    FilteredAdjacencyCache,
    build_filtered_adjacencies,
    pick_indices,
    sample_rows,
)

#: The oracle loop and the production sampler.
SAMPLERS = ("reference", "vectorized")


def _pair_draw(graph, part_vertices, partner_mask, B, sampler, seed=123):
    """Flat ``(src, dst)`` pairs drawn by the oracle or by ``sample_rows``."""
    part_vertices = np.asarray(part_vertices, dtype=np.int64)
    rng = np.random.default_rng(seed)
    if sampler == "reference":
        rows, dst = reference_sample_rows(graph, part_vertices, partner_mask, B, rng)
    else:
        filtered = build_filtered_adjacency(graph, part_vertices, partner_mask)
        rows, dst = sample_rows(filtered, B, rng)
    return np.repeat(part_vertices[rows], B), dst


def _assert_parity(graph, partition, pairs, B, seed=123):
    """``sample_rows(cache.get(a, b))`` equals the oracle for every pair, the
    pairs drawn in order from one Generator per side."""
    cache = FilteredAdjacencyCache(graph, partition)
    rng_ref, rng_vec = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = 0
    for a, b in pairs:
        rows, dst = reference_sample_rows(graph, partition.parts[a], partition.mask(b),
                                          B, rng_ref)
        got_rows, got_dst = sample_rows(cache.get(a, b), B, rng_vec)
        assert np.array_equal(got_rows, rows) and np.array_equal(got_dst, dst)
        drawn += dst.shape[0]
    return drawn


class TestFilteredAdjacency:
    def test_rows_equal_masked_neighbour_lists(self, tiny_graph):
        part = np.array([0, 1, 4], dtype=np.int64)
        mask = np.zeros(tiny_graph.num_vertices, dtype=bool)
        mask[[2, 3, 5]] = True
        partition = two_way_partition(mask)
        assert np.array_equal(partition.parts[0], part)
        filt = FilteredAdjacencyCache(tiny_graph, partition).get(0, 1)
        for i, v in enumerate(part):
            expected = tiny_graph.neighbors(int(v))
            expected = expected[mask[expected]]
            row = filt.targets[filt.offsets[i]: filt.offsets[i + 1]]
            assert np.array_equal(row, expected)

    def test_empty_part(self, tiny_graph):
        filt, = build_filtered_adjacencies(tiny_graph, np.zeros(0, dtype=np.int64),
                                           np.zeros(tiny_graph.num_vertices), 1)
        assert filt.offsets.shape == (1,)
        assert filt.targets.shape == (0,)

    def test_part_of_isolated_vertices(self):
        g = CSRGraph.from_edges(5, [(0, 1)])
        filt, = build_filtered_adjacencies(g, np.array([2, 3, 4]), np.zeros(5), 1)
        assert np.array_equal(filt.counts, [0, 0, 0])
        assert filt.targets.shape == (0,)

    def test_cache_reuses_entries(self):
        g = social_community(120, intra_degree=4, seed=1)
        partition = contiguous_partition(g.num_vertices, 3)
        cache = FilteredAdjacencyCache(g, partition)
        first = cache.get(0, 1)
        again = cache.get(0, 1)
        other = cache.get(1, 0)
        assert again is first and other is not first
        stats = cache.stats()
        assert stats["builds"] == 2 and stats["hits"] == 1 and stats["entries"] == 2
        assert stats["nbytes"] > 0

    def test_cached_entry_matches_fresh_build(self):
        g = social_community(120, intra_degree=4, seed=1)
        partition = contiguous_partition(g.num_vertices, 3)
        cache = FilteredAdjacencyCache(g, partition)
        cached = cache.get(2, 0)
        fresh = build_filtered_adjacency(g, partition.parts[2], partition.mask(0))
        assert np.array_equal(cached.offsets, fresh.offsets)
        assert np.array_equal(cached.targets, fresh.targets)


class TestPickIndices:
    def test_in_range_and_floor_semantics(self):
        u = np.array([0.0, 0.49, 0.5, 0.999])
        assert np.array_equal(pick_indices(u, 2), [0, 0, 1, 1])

    def test_scalar_and_column_counts_agree(self):
        rng = np.random.default_rng(0)
        u = rng.random((6, 4))
        counts = np.array([1, 2, 3, 5, 8, 13])
        stacked = np.stack([pick_indices(u[i], int(counts[i])) for i in range(6)])
        assert np.array_equal(pick_indices(u, counts[:, None]), stacked)
        assert (pick_indices(u, counts[:, None]) < counts[:, None]).all()


class TestGoldenParity:
    """sample_rows and the oracle draw identical arrays under a shared seed."""

    @pytest.mark.parametrize("B", [1, 2, 5, 9])
    def test_identical_arrays_on_community_graph(self, B):
        g = social_community(300, intra_degree=5, seed=3)
        partition = contiguous_partition(g.num_vertices, 3)
        assert _assert_parity(g, partition, [(0, 1)], B) > 0

    @pytest.mark.parametrize("graph_factory", [
        lambda: powerlaw_cluster(200, m=3, seed=1),
        lambda: star(40),
        lambda: ring(64),
        lambda: CSRGraph.from_edges(8, [(0, 1), (2, 3)]),   # mostly isolated
        lambda: CSRGraph.empty(12),                          # fully isolated
    ])
    def test_identical_arrays_across_graph_shapes(self, graph_factory):
        g = graph_factory()
        n = g.num_vertices
        partition = two_way_partition(np.arange(n) >= n // 2)
        _assert_parity(g, partition, [(0, 1)], 4, seed=7)

    def test_parity_with_self_pair_mask(self):
        """(V^a, V^a) pools: the partner mask covers the part itself."""
        g = social_community(200, intra_degree=6, seed=0)
        partition = contiguous_partition(g.num_vertices, 4)
        assert _assert_parity(g, partition, [(2, 2)], 3) > 0

    def test_parity_survives_interleaved_calls(self):
        """Pools are drawn from one shared RNG stream across many calls —
        the whole sequence must match, not just a single draw."""
        g = social_community(240, intra_degree=5, seed=2)
        partition = contiguous_partition(g.num_vertices, 4)
        _assert_parity(g, partition, [(a, b) for a in range(4) for b in range(4)], 2,
                       seed=42)


class TestDistribution:
    @pytest.fixture
    def setup(self):
        g = social_community(300, intra_degree=6, seed=4)
        partition = contiguous_partition(g.num_vertices, 3)
        return g, partition

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_src_in_part_a_dst_in_part_b(self, setup, sampler):
        g, partition = setup
        src, dst = _pair_draw(g, partition.parts[0], partition.mask(1), 5, sampler)
        assert np.all(partition.part_of[src] == 0)
        assert np.all(partition.part_of[dst] == 1)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_every_pair_is_an_edge(self, setup, sampler):
        g, partition = setup
        src, dst = _pair_draw(g, partition.parts[2], partition.mask(0), 3, sampler)
        for s, d in zip(src, dst):
            assert g.has_edge(int(s), int(d))

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_eligible_vertices_contribute_exactly_B(self, setup, sampler):
        g, partition = setup
        B = 4
        mask = partition.mask(1)
        src, _ = _pair_draw(g, partition.parts[0], mask, B, sampler)
        counts = np.bincount(src, minlength=g.num_vertices)
        # Every vertex contributes 0 (no partner-part neighbour) or exactly B.
        assert set(np.unique(counts[partition.parts[0]])).issubset({0, B})
        for v in partition.parts[0]:
            nbrs = g.neighbors(int(v))
            eligible = bool(nbrs.shape[0]) and bool(mask[nbrs].any())
            assert counts[v] == (B if eligible else 0)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_isolated_vertices_excluded(self, sampler):
        g = CSRGraph.from_edges(6, [(0, 3), (1, 4)])   # 2 and 5 isolated
        mask = np.zeros(6, dtype=bool)
        mask[3:] = True
        src, dst = _pair_draw(g, np.array([0, 1, 2]), mask, 3, sampler)
        assert 2 not in src
        assert np.array_equal(np.unique(src), [0, 1])

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_vertex_without_partner_neighbours_excluded(self, sampler):
        # 0-1 edge stays inside part_a; only 2-3 crosses into the partner.
        g = CSRGraph.from_edges(4, [(0, 1), (2, 3)])
        mask = np.zeros(4, dtype=bool)
        mask[3] = True
        src, dst = _pair_draw(g, np.array([0, 1, 2]), mask, 2, sampler)
        assert np.array_equal(np.unique(src), [2])
        assert np.all(dst == 3)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_empty_part_returns_empty_int64(self, setup, sampler):
        g, partition = setup
        src, dst = _pair_draw(g, np.zeros(0, dtype=np.int64), partition.mask(0),
                              5, sampler)
        assert src.shape == dst.shape == (0,)
        assert src.dtype == dst.dtype == np.int64

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_empty_mask_returns_empty(self, setup, sampler):
        g, partition = setup
        src, dst = _pair_draw(g, partition.parts[0],
                              np.zeros(g.num_vertices, dtype=bool), 5, sampler)
        assert src.shape == dst.shape == (0,)

    def test_vectorized_covers_all_partner_neighbours(self):
        """Over many draws every partner-part neighbour must appear."""
        g = ring(12)
        mask = np.zeros(12, dtype=bool)
        mask[[1, 11]] = True   # both neighbours of vertex 0
        filtered = build_filtered_adjacency(g, np.array([0]), mask)
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(40):
            _, dst = sample_rows(filtered, 5, rng)
            seen.update(dst.tolist())
        assert seen == {1, 11}
