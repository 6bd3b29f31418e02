"""Unit tests for rotation order, sample pools, and GPUState."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import expand_pairs, reference_sample_rows
from repro.graph import contiguous_partition, social_community
from repro.gpu import DeviceMemoryError, DeviceSpec, SimulatedDevice
from repro.gpu.backends import get_backend
from repro.large import (
    GPUState,
    PipelinedExecutor,
    PoolPreparer,
    SamplePoolManager,
    build_schedule,
    count_switches,
    inside_out_order,
    naive_order,
    pool_rng,
    validate_rotation_cover,
)


class TestInsideOutOrder:
    def test_matches_paper_prefix(self):
        # (0,0), (1,0), (1,1), (2,0), (2,1), (2,2), ...
        order = inside_out_order(3)
        assert order == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_covers_every_pair_once(self, k):
        order = inside_out_order(k)
        assert len(order) == k * (k + 1) // 2
        assert validate_rotation_cover(order, k)

    def test_consecutive_pairs_share_a_part(self):
        # Except when the previous pair was a diagonal (a, a) — the paper's
        # recurrence then restarts at (a + 1, 0) — consecutive pairs keep one
        # part resident, which is what makes the order cheap to stream.
        order = inside_out_order(6)
        for (a1, b1), (a2, b2) in zip(order, order[1:]):
            if a1 == b1:
                continue
            assert {a1, b1} & {a2, b2}, "inside-out order must reuse a resident part"

    def test_invalid_num_parts(self):
        with pytest.raises(ValueError):
            inside_out_order(0)

    def test_fewer_switches_than_naive(self):
        k = 8
        inside = count_switches(inside_out_order(k), resident_slots=3)
        naive = count_switches(naive_order(k), resident_slots=3)
        assert inside <= naive

    def test_count_switches_requires_two_slots(self):
        with pytest.raises(ValueError):
            count_switches(inside_out_order(3), resident_slots=1)

    def test_validate_rejects_duplicates(self):
        assert not validate_rotation_cover([(0, 0), (0, 0)], 1)
        assert not validate_rotation_cover([(0, 0)], 2)


class TestSamplePoolManager:
    @pytest.fixture
    def setup(self):
        graph = social_community(200, intra_degree=6, seed=0)
        partition = contiguous_partition(graph.num_vertices, 4)
        manager = SamplePoolManager(graph=graph, partition=partition,
                                    batch_per_vertex=3, seed=0)
        return graph, partition, manager

    def test_pool_samples_cross_correct_parts(self, setup):
        graph, partition, manager = setup
        pool = manager.build_pool(1, 0)
        assert pool.num_samples > 0
        for s, d in zip(*expand_pairs(pool)):
            assert graph.has_edge(int(s), int(d))
            parts = {int(partition.part_of[s]), int(partition.part_of[d])}
            assert parts.issubset({0, 1})

    def test_self_pair_pool(self, setup):
        graph, partition, manager = setup
        pool = manager.build_pool(2, 2)
        for s, d in zip(*expand_pairs(pool)):
            assert partition.part_of[s] == 2
            assert partition.part_of[d] == 2

    def test_batch_per_vertex_cap(self, setup):
        graph, partition, manager = setup
        pool = manager.build_pool(1, 0)
        counts = np.bincount(expand_pairs(pool)[0], minlength=graph.num_vertices)
        assert counts.max() <= manager.batch_per_vertex


class TestSamplePoolCounters:
    """Production counters and the filtered-adjacency cache."""

    def _manager(self, seed=0):
        graph = social_community(200, intra_degree=6, seed=0)
        partition = contiguous_partition(graph.num_vertices, 4)
        return SamplePoolManager(graph=graph, partition=partition,
                                 batch_per_vertex=3, seed=seed)

    def test_counters_track_production_and_consumption(self):
        """Every pool an executor hands out was built exactly once and
        counted: produced == consumed, samples summed over what was used."""
        manager = self._manager()
        partition = manager.partition
        preparer = PoolPreparer(partition, get_backend("vectorized"),
                                partition.global_to_local(), 2, 0)
        schedule = build_schedule(2, inside_out_order(4))
        with PipelinedExecutor(manager, preparer, schedule, 2) as executor:
            consumed = [executor.next_ready().pool for _ in schedule]
        assert manager.pools_produced == len(consumed) == len(schedule)
        assert manager.samples_produced == sum(p.num_samples for p in consumed) > 0

    def test_stats_shape(self):
        manager = self._manager()
        manager.build_pool(1, 0)
        stats = manager.stats()
        assert set(stats) == {"pools_produced", "samples_produced", "filtered_cache"}
        assert stats["pools_produced"] == 1
        assert stats["samples_produced"] > 0
        # pool (1, 0) samples both directions -> two filtered sub-CSRs built
        assert stats["filtered_cache"]["builds"] == 2
        assert stats["filtered_cache"]["entries"] == 2

    def test_filtered_cache_hits_across_rebuilds(self):
        manager = self._manager()
        manager.build_pool(1, 0)
        manager.build_pool(1, 0)
        cache = manager.stats()["filtered_cache"]
        assert cache["builds"] == 2 and cache["hits"] == 2

    def test_backend_parity_at_pool_level(self):
        """Every pool direction equals the oracle loop's draw from the pool's
        keyed stream, both directions of a pair drawn in order from it."""
        manager = self._manager(seed=11)
        graph, partition, B = manager.graph, manager.partition, manager.batch_per_vertex
        for a in range(4):
            for b in range(a + 1):
                pool = manager.build_pool(a, b)
                rng = pool_rng(11, 0, a, b)
                for d in pool.directions:
                    rows, dst = reference_sample_rows(graph, partition.parts[d.from_part],
                                                      partition.mask(d.to_part), B, rng)
                    assert np.array_equal(d.rows, rows) and np.array_equal(d.dst, dst)


class TestGPUState:
    @pytest.fixture
    def state(self):
        rng = np.random.default_rng(0)
        embedding = rng.random((100, 8)).astype(np.float32)
        partition = contiguous_partition(100, 5)
        device = SimulatedDevice(spec=DeviceSpec(name="small", memory_bytes=100 * 8 * 4))
        return embedding, partition, GPUState(embedding=embedding, parts=partition.parts,
                                              device=device, num_bins=3)

    def test_load_and_residency(self, state):
        _, _, gpu = state
        gpu.load(0)
        gpu.load(1)
        assert gpu.is_resident(0) and gpu.is_resident(1)
        assert gpu.switches == 2

    def test_submatrix_contents(self, state):
        embedding, partition, gpu = state
        gpu.load(2)
        assert np.allclose(gpu.submatrix(2), embedding[partition.parts[2]])

    def test_eviction_writes_back(self, state):
        embedding, partition, gpu = state
        gpu.load(0)
        gpu.submatrix(0)[:] = 7.0
        gpu.evict_part(0)
        assert np.all(embedding[partition.parts[0]] == 7.0)
        assert not gpu.is_resident(0)

    def test_ensure_pair_evicts_unneeded(self, state):
        _, _, gpu = state
        gpu.ensure_pair(0, 1)
        gpu.ensure_pair(2, 3, upcoming=[(4, 3)])
        assert gpu.is_resident(2) and gpu.is_resident(3)
        assert len(gpu.resident_parts) <= 3

    def test_flush_writes_everything_back(self, state):
        embedding, partition, gpu = state
        gpu.ensure_pair(0, 1)
        gpu.submatrix(0)[:] = 3.0
        gpu.submatrix(1)[:] = 4.0
        gpu.flush()
        assert np.all(embedding[partition.parts[0]] == 3.0)
        assert np.all(embedding[partition.parts[1]] == 4.0)
        assert not gpu.resident_parts

    def test_requires_two_bins(self, state):
        embedding, partition, _ = state
        with pytest.raises(ValueError):
            GPUState(embedding=embedding, parts=partition.parts,
                     device=SimulatedDevice(), num_bins=1)

    def test_memory_pressure_raises(self):
        # Device can hold only one sub-matrix: loading a pair must fail.
        embedding = np.zeros((100, 8), dtype=np.float32)
        partition = contiguous_partition(100, 2)
        device = SimulatedDevice(spec=DeviceSpec(name="nano", memory_bytes=50 * 8 * 4))
        gpu = GPUState(embedding=embedding, parts=partition.parts, device=device, num_bins=2)
        gpu.load(0)
        with pytest.raises(DeviceMemoryError):
            gpu.load(1)
