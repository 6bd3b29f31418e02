"""Unit tests for positive/negative samplers and the alias table."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import expand_pairs
from repro.graph import (
    AliasTable,
    NegativeSampler,
    PositiveSampler,
    contiguous_partition,
    ring,
    sample_negative_batch,
    sample_positive_batch,
)
from repro.large import SamplePoolManager


class TestPositiveBatch:
    def test_samples_are_neighbors(self, tiny_graph, rng):
        sources = np.arange(tiny_graph.num_vertices)
        samples = sample_positive_batch(tiny_graph, sources, rng)
        for v, s in zip(sources, samples):
            assert s in tiny_graph.neighbors(int(v))

    def test_isolated_vertex_returns_minus_one(self, rng):
        from repro.graph import CSRGraph

        g = CSRGraph.from_edges(3, [(0, 1)])
        samples = sample_positive_batch(g, np.array([2]), rng)
        assert samples[0] == -1

    def test_star_leaves_sample_center(self, star_graph, rng):
        leaves = np.arange(1, star_graph.num_vertices)
        samples = sample_positive_batch(star_graph, leaves, rng)
        assert np.all(samples == 0)

    def test_coverage_of_neighbors(self, ring_graph, rng):
        # Over many draws, both neighbours of a ring vertex must appear.
        draws = sample_positive_batch(ring_graph, np.full(200, 5), rng)
        assert set(np.unique(draws)) == {4, 6}


class TestNegativeBatch:
    def test_range(self, rng):
        samples = sample_negative_batch(100, (50, 3), rng)
        assert samples.shape == (50, 3)
        assert samples.min() >= 0 and samples.max() < 100

    def test_restricted_sampling(self, rng):
        allowed = np.array([7, 9, 11])
        samples = sample_negative_batch(100, 200, rng, restrict_to=allowed)
        assert set(np.unique(samples)).issubset(set(allowed.tolist()))


class TestAliasTable:
    def test_uniform_weights(self, rng):
        table = AliasTable.from_weights(np.ones(10))
        samples = table.sample(5000, rng)
        counts = np.bincount(samples, minlength=10)
        assert counts.min() > 300  # roughly uniform

    def test_skewed_weights(self, rng):
        weights = np.array([100.0, 1.0, 1.0, 1.0])
        table = AliasTable.from_weights(weights)
        samples = table.sample(5000, rng)
        counts = np.bincount(samples, minlength=4)
        assert counts[0] > 0.8 * 5000

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            AliasTable.from_weights(np.array([]))
        with pytest.raises(ValueError):
            AliasTable.from_weights(np.array([-1.0, 2.0]))
        with pytest.raises(ValueError):
            AliasTable.from_weights(np.zeros(3))


class TestSamplerClasses:
    def test_positive_sampler_adjacency(self, tiny_graph):
        sampler = PositiveSampler(tiny_graph, strategy="adjacency", seed=0)
        sources = np.arange(tiny_graph.num_vertices)
        samples = sampler.sample(sources)
        for v, s in zip(sources, samples):
            assert s in tiny_graph.neighbors(int(v))

    def test_positive_sampler_ppr_stays_in_component(self):
        g = ring(10)
        sampler = PositiveSampler(g, strategy="ppr", walk_length=3, seed=0)
        samples = sampler.sample(np.arange(10))
        assert samples.min() >= 0 and samples.max() < 10

    def test_unknown_strategy(self, tiny_graph):
        with pytest.raises(ValueError):
            PositiveSampler(tiny_graph, strategy="bogus")

    def test_negative_sampler_uniform(self):
        sampler = NegativeSampler(50, seed=0)
        samples = sampler.sample((100, 2))
        assert samples.shape == (100, 2)
        assert samples.max() < 50

    def test_negative_sampler_degree_power(self, star_graph):
        sampler = NegativeSampler(star_graph.num_vertices, degrees=star_graph.degrees,
                                  power=0.75, seed=0)
        samples = sampler.sample(2000)
        counts = np.bincount(samples, minlength=star_graph.num_vertices)
        # the hub (vertex 0) has far higher degree, so it must be sampled more
        assert counts[0] > 2 * counts[1:].mean()

    def test_negative_power_requires_degrees(self):
        with pytest.raises(ValueError):
            NegativeSampler(10, power=0.75)

    def test_sample_pairs_for_part(self, tiny_graph):
        """The large-graph pools: part 0's draws land in part 1 along edges."""
        partition = contiguous_partition(tiny_graph.num_vertices, 3)   # {0,1} {2,3} {4,5}
        pool = SamplePoolManager(graph=tiny_graph, partition=partition,
                                 batch_per_vertex=4, seed=0).build_pool(0, 1)
        src, dst = expand_pairs(pool.directions[0])
        assert src.shape == dst.shape == (2 * 4,)   # vertices 0 and 1 both reach part 1
        for s, d in zip(src, dst):
            assert s in (0, 1)
            assert d in (2, 3)
            assert tiny_graph.has_edge(int(s), int(d))
