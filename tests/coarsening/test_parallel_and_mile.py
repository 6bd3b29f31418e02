"""Unit tests for parallel MultiEdgeCollapse and the MILE coarsening baseline."""

from __future__ import annotations

import numpy as np

from oracles import simulated_threaded_collapse
from repro.coarsening import (
    compact_mapping,
    heavy_edge_matching_once,
    mile_coarsen,
    multi_edge_collapse,
    parallel_collapse_once,
    parallel_multi_edge_collapse,
    structural_equivalence_groups,
)
from repro.graph import CSRGraph, powerlaw_cluster, social_community


class TestCompactMapping:
    def test_compacts_to_contiguous(self):
        mapping, k = compact_mapping(np.array([5, 5, 9, 2, 9]))
        assert k == 3
        assert set(mapping.tolist()) == {0, 1, 2}
        # equal raw labels stay equal, different stay different
        assert mapping[0] == mapping[1]
        assert mapping[2] == mapping[4]
        assert mapping[0] != mapping[3]


class TestParallelCollapse:
    def test_valid_mapping(self, small_power_graph):
        mapping, k = parallel_collapse_once(small_power_graph)
        assert mapping.shape[0] == small_power_graph.num_vertices
        assert np.all((mapping >= 0) & (mapping < k))
        assert set(np.unique(mapping).tolist()) == set(range(k))

    def test_shrinks(self, small_power_graph):
        _, k = parallel_collapse_once(small_power_graph)
        assert k < small_power_graph.num_vertices

    def test_cluster_members_adjacent_to_leader(self, small_power_graph):
        """Followers join only through an actual edge (same invariant as sequential)."""
        mapping, k = parallel_collapse_once(small_power_graph)
        for cluster in range(k):
            members = np.flatnonzero(mapping == cluster)
            if members.shape[0] <= 1:
                continue
            found_leader = False
            for candidate in members:
                nbrs = set(small_power_graph.neighbors(int(candidate)).tolist())
                if all(int(m) in nbrs for m in members if m != candidate):
                    found_leader = True
                    break
            assert found_leader

    def test_empty_graph(self):
        mapping, k = parallel_collapse_once(CSRGraph.empty(0))
        assert k == 0
        assert mapping.size == 0

    def test_star_collapses(self, star_graph):
        _, k = parallel_collapse_once(star_graph)
        assert k == 1

    def test_similar_quality_to_sequential(self):
        g = social_community(800, intra_degree=8, seed=2)
        seq = multi_edge_collapse(g, threshold=100)
        par = parallel_multi_edge_collapse(g, threshold=100)
        # same ballpark of levels and comparable final sizes (Table 4 claim)
        assert abs(seq.num_levels - par.num_levels) <= 2
        assert par.graphs[-1].num_vertices <= 4 * max(seq.graphs[-1].num_vertices, 25)

    def test_multilevel_mappings_consistent(self):
        g = powerlaw_cluster(500, m=3, seed=1)
        result = parallel_multi_edge_collapse(g, threshold=50)
        for i, mapping in enumerate(result.mappings):
            assert mapping.shape[0] == result.graphs[i].num_vertices
            assert mapping.max() < result.graphs[i + 1].num_vertices


class TestSimulatedThreadedCollapse:
    def test_valid_and_deterministic(self, small_power_graph):
        m1, k1 = simulated_threaded_collapse(small_power_graph, num_threads=4)
        m2, k2 = simulated_threaded_collapse(small_power_graph, num_threads=4)
        assert k1 == k2
        assert np.array_equal(m1, m2)
        assert np.all((m1 >= 0) & (m1 < k1))

    def test_single_thread_close_to_sequential(self, small_power_graph):
        m_thread, k_thread = simulated_threaded_collapse(small_power_graph, num_threads=1,
                                                         chunk_size=1 << 30)
        from repro.coarsening import collapse_once

        _, k_seq = collapse_once(small_power_graph)
        assert k_thread == k_seq

    def test_more_threads_still_shrink(self, small_power_graph):
        _, k = simulated_threaded_collapse(small_power_graph, num_threads=8)
        assert k < small_power_graph.num_vertices


class TestStructuralEquivalence:
    def test_identical_leaves_grouped(self):
        # two leaves attached to the same vertex have identical neighbourhoods
        g = CSRGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        labels = structural_equivalence_groups(g)
        assert labels[1] == labels[2] == labels[3]

    def test_distinct_neighborhoods_not_grouped(self, ring_graph):
        labels = structural_equivalence_groups(ring_graph)
        assert np.unique(labels).shape[0] == ring_graph.num_vertices


class TestMileCoarsening:
    def test_single_level_valid(self, small_power_graph):
        mapping, k = heavy_edge_matching_once(small_power_graph)
        assert np.all((mapping >= 0) & (mapping < k))
        assert k < small_power_graph.num_vertices

    def test_matching_shrinks_by_at_most_half_plus_sem(self, ring_graph):
        mapping, k = heavy_edge_matching_once(ring_graph, use_sem=False)
        # pairwise matching can at best halve the vertex count
        assert k >= ring_graph.num_vertices // 2

    def test_requested_levels(self):
        g = powerlaw_cluster(400, m=3, seed=0)
        result = mile_coarsen(g, num_levels=4)
        assert result.num_levels <= 5
        sizes = result.level_sizes
        assert all(sizes[i] > sizes[i + 1] for i in range(len(sizes) - 1))

    def test_gosh_coarsening_shrinks_faster_than_mile(self):
        """The Table 5 claim: MultiEdgeCollapse reaches far smaller graphs."""
        g = social_community(800, intra_degree=10, seed=3)
        levels = 4
        mile = mile_coarsen(g, num_levels=levels)
        gosh = multi_edge_collapse(g, threshold=1, max_levels=levels)
        assert gosh.graphs[-1].num_vertices < mile.graphs[-1].num_vertices
