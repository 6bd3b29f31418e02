"""Unit tests for vertex partitioning and graph statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import (
    VertexPartition,
    compute_num_parts,
    compute_stats,
    connected_components,
    contiguous_partition,
    degree_histogram,
    largest_component,
)
from repro.graph.csr import CSRGraph
from repro.graph.partition import partition_degrees


class TestContiguousPartition:
    def test_covers_all_vertices(self):
        p = contiguous_partition(100, 7)
        p.validate()
        assert p.num_parts == 7
        assert sum(len(part) for part in p.parts) == 100

    def test_single_part(self):
        p = contiguous_partition(10, 1)
        assert p.num_parts == 1
        assert len(p.parts[0]) == 10

    def test_more_parts_than_vertices(self):
        p = contiguous_partition(3, 10)
        p.validate()
        assert p.num_parts == 3

    def test_invalid_num_parts(self):
        with pytest.raises(ValueError):
            contiguous_partition(10, 0)

    def test_mask(self):
        p = contiguous_partition(10, 2)
        mask = p.mask(0)
        assert mask.sum() == len(p.parts[0])
        assert np.all(mask[p.parts[0]])

    def test_part_sizes_balanced(self):
        p = contiguous_partition(103, 4)
        sizes = p.part_sizes()
        assert sizes.max() - sizes.min() <= 1

    def test_validate_detects_overlap(self):
        p = contiguous_partition(10, 2)
        broken = VertexPartition(num_vertices=10, part_of=p.part_of,
                                 parts=[p.parts[0], p.parts[0]])
        with pytest.raises(ValueError):
            broken.validate()


class TestComputeNumParts:
    def test_fits_entirely(self):
        # 1000 vertices x 16 dims x 4 bytes = 64 KB, device has 1 MB.
        assert compute_num_parts(1000, 16, 4, 1 << 20) == 1

    def test_partitioning_needed(self):
        k = compute_num_parts(10_000, 64, 4, 256 * 1024, resident_parts=3)
        assert k >= 2
        # three parts of size ceil(n/k) must fit in 85% of the device
        per_part = int(np.ceil(10_000 / k)) * 64 * 4
        assert 3 * per_part <= 256 * 1024 * 0.85 * 1.01

    def test_tiny_device_raises(self):
        with pytest.raises(ValueError):
            compute_num_parts(100, 1024, 8, 1024)

    def test_zero_vertices(self):
        assert compute_num_parts(0, 8, 4, 1 << 20) == 1


class TestStats:
    def test_star_stats(self, star_graph):
        stats = compute_stats(star_graph)
        assert stats.max_degree == star_graph.num_vertices - 1
        assert stats.isolated_vertices == 0
        assert stats.degree_skew > 1.0

    def test_ring_stats(self, ring_graph):
        stats = compute_stats(ring_graph)
        assert stats.max_degree == 2
        assert stats.degree_skew == pytest.approx(0.0)
        assert stats.density == pytest.approx(1.0)

    def test_as_row_keys(self, ring_graph):
        row = compute_stats(ring_graph).as_row()
        assert {"Graph", "|V|", "|E|", "Density"}.issubset(row.keys())

    def test_degree_histogram(self, star_graph):
        hist, edges = degree_histogram(star_graph, bins=8)
        assert hist.sum() == star_graph.num_vertices


class TestComponents:
    def test_single_component(self, ring_graph):
        labels = connected_components(ring_graph)
        assert np.all(labels == labels[0])

    def test_two_components(self):
        g = CSRGraph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        labels = connected_components(g)
        assert labels[0] == labels[2]
        assert labels[3] == labels[5]
        assert labels[0] != labels[3]

    def test_largest_component(self):
        g = CSRGraph.from_edges(7, [(0, 1), (1, 2), (2, 3), (4, 5)])
        sub, original = largest_component(g)
        assert sub.num_vertices == 4
        assert set(original.tolist()) == {0, 1, 2, 3}


class TestPartitionDegrees:
    def test_total_matches(self, star_graph):
        p = contiguous_partition(star_graph.num_vertices, 3)
        per_part = partition_degrees(star_graph, p)
        assert per_part.sum() == star_graph.num_edges
