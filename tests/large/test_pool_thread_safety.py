"""Concurrency suite for :class:`~repro.large.sample_pool.SamplePoolManager`.

The pipelined engine drives the manager from a producer thread while the
consumer may still build on ``acquire`` misses, so the bounded buffer, the
produced/consumed/sample counters, and the filtered-adjacency cache must
hold their invariants under concurrent access:

* ``resident_pools`` never exceeds ``max_resident_pools`` — even while
  several threads prefetch at once (in-flight claims count against the cap);
* counter totals are conserved: every produced pool is either consumed or
  still buffered, and ``samples_produced`` equals the sum over built pools;
* no (pair, rotation) pool is ever built twice by racing prefetches.

Every test joins its workers with a hard timeout and fails — rather than
hangs — if a worker deadlocks; ``pytest-timeout`` (active in CI) is a
second line of defence via the module-level ``timeout`` marker.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.graph import contiguous_partition, social_community
from repro.large import SamplePoolManager, inside_out_order

pytestmark = pytest.mark.timeout(60)

JOIN_TIMEOUT = 30.0


def _make_manager(max_resident=3, num_parts=4, seed=0):
    graph = social_community(300, intra_degree=6, seed=0)
    partition = contiguous_partition(graph.num_vertices, num_parts)
    return SamplePoolManager(graph=graph, partition=partition, batch_per_vertex=3,
                             max_resident_pools=max_resident, seed=seed)


def _run_workers(*targets):
    """Run targets on threads; fail the test (not hang) on deadlock/error."""
    errors: list[BaseException] = []

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # re-raised on the test thread
                errors.append(exc)
        return run

    threads = [threading.Thread(target=wrap(t), daemon=True) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=JOIN_TIMEOUT)
    stuck = [t for t in threads if t.is_alive()]
    assert not stuck, f"worker threads deadlocked: {stuck}"
    if errors:
        raise errors[0]


class TestConcurrentPrefetch:
    def test_buffer_never_exceeds_cap(self):
        manager = _make_manager(max_resident=3)
        pairs = inside_out_order(4)
        max_seen = []

        def prefetcher():
            for _ in range(30):
                manager.prefetch(pairs)
                max_seen.append(manager.resident_pools)
                for a, b in pairs[:2]:
                    manager.acquire(a, b)

        _run_workers(prefetcher, prefetcher)
        assert max(max_seen) <= 3
        assert manager.resident_pools <= 3

    def test_racing_prefetches_never_build_a_pair_twice(self):
        manager = _make_manager(max_resident=10)
        pairs = inside_out_order(4)   # 10 pairs, all fit

        _run_workers(lambda: manager.prefetch(pairs),
                     lambda: manager.prefetch(list(reversed(pairs))))
        stats = manager.stats()
        assert stats["pools_produced"] == len(pairs)
        assert manager.resident_pools == len(pairs)
        assert sorted(manager.resident_pool_keys) == sorted(
            (max(p), min(p)) for p in pairs)


class TestConcurrentProduceConsume:
    def test_counter_totals_conserved(self):
        manager = _make_manager(max_resident=4)
        pairs = inside_out_order(4)
        rounds = 25
        consumed_samples = []

        def producer():
            for rotation in range(rounds):
                manager.prefetch(pairs, rotation=rotation)

        def consumer():
            for rotation in range(rounds):
                for a, b in pairs:
                    pool = manager.acquire(a, b, rotation=rotation)
                    consumed_samples.append(pool.num_samples)

        _run_workers(producer, consumer)
        stats = manager.stats()
        assert stats["pools_consumed"] == rounds * len(pairs)
        # conservation: everything produced was consumed or is still buffered
        assert stats["pools_produced"] == stats["pools_consumed"] + stats["resident_pools"]
        assert stats["resident_pools"] <= 4

    def test_sample_counter_matches_built_pools(self):
        manager = _make_manager(max_resident=2)
        pairs = inside_out_order(3)

        def worker():
            for rotation in range(10):
                manager.prefetch(pairs, rotation=rotation)
                for a, b in pairs:
                    manager.acquire(a, b, rotation=rotation)

        _run_workers(worker, worker)
        stats = manager.stats()
        # two workers over 10 rotations each: every acquire was served
        assert stats["pools_consumed"] == 2 * 10 * len(pairs)
        assert stats["pools_produced"] >= stats["pools_consumed"]
        assert stats["samples_produced"] > 0

    def test_concurrent_pools_stay_bit_identical(self):
        """Keyed streams make racing builders return identical pools."""
        results: dict[int, list] = {0: [], 1: []}
        manager = _make_manager(max_resident=0)   # force every acquire to build

        def builder(slot):
            def run():
                for rotation in range(8):
                    for a, b in inside_out_order(3):
                        results[slot].append(
                            manager.acquire(a, b, rotation=rotation))
            return run

        _run_workers(builder(0), builder(1))
        for p0, p1 in zip(results[0], results[1]):
            assert np.array_equal(p0.src, p1.src)
            assert np.array_equal(p0.dst, p1.dst)


class TestFilteredCacheUnderConcurrency:
    def test_cache_entries_bounded_by_directions(self):
        manager = _make_manager(max_resident=10, num_parts=4)
        pairs = inside_out_order(4)

        _run_workers(
            lambda: [manager.build_pool(a, b) for a, b in pairs],
            lambda: [manager.build_pool(a, b) for a, b in reversed(pairs)],
        )
        cache = manager.stats()["filtered_cache"]
        # 4 self-directions + 2 per off-diagonal pair are served by one
        # adjacency pass per part; racing builders must not duplicate passes
        assert len(pairs) == 10
        assert cache["entries"] == 4
        assert cache["builds"] == cache["entries"]
        assert cache["hits"] == 2 * (4 + 2 * (len(pairs) - 4)) - cache["builds"]


class TestRotationKeyedBuffer:
    def test_acquire_never_serves_stale_rotation_pool(self):
        """A pool prefetched for one rotation must not satisfy another."""
        manager = _make_manager(max_resident=4)
        manager.prefetch([(1, 0)], rotation=7)
        pool = manager.acquire(1, 0, rotation=2)        # miss: wrong rotation
        fresh = _make_manager(max_resident=4).build_pool(1, 0, rotation=2)
        assert np.array_equal(pool.src, fresh.src)
        assert np.array_equal(pool.dst, fresh.dst)
        assert manager.resident_pools == 1              # rotation-7 pool kept
        manager.acquire(1, 0, rotation=7)               # served from buffer
        assert manager.stats()["pools_produced"] == 2
        assert manager.resident_pools == 0

    def test_resident_pool_keys_report_pairs(self):
        manager = _make_manager(max_resident=4)
        manager.prefetch([(1, 0), (2, 1)], rotation=3)
        assert manager.resident_pool_keys == [(1, 0), (2, 1)]
