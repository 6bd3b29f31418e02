"""Concurrency suite for :class:`~repro.large.sample_pool.SamplePoolManager`.

The pipelined engine builds pools on a producer thread while other threads
may build too, so ``build_pool``'s produced/sample counters and the
filtered-adjacency cache must hold their invariants under concurrent
access:

* counter totals are conserved: ``pools_produced`` counts every build and
  ``samples_produced`` equals the sum over built pools;
* racing builders of the same (rotation, pair) return byte-equal pools;
* the filtered cache makes one adjacency pass per part, however many
  threads ask for it at once.

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


def _make_manager(num_parts=4, seed=0):
    graph = social_community(300, intra_degree=6, seed=0)
    partition = contiguous_partition(graph.num_vertices, num_parts)
    return SamplePoolManager(graph=graph, partition=partition, batch_per_vertex=3,
                             seed=seed)


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


class TestConcurrentProduceConsume:
    def test_counter_totals_conserved(self):
        manager = _make_manager()
        pairs = inside_out_order(4)
        rounds = 25

        def builder():
            for rotation in range(rounds):
                for a, b in pairs:
                    manager.build_pool(a, b, rotation=rotation)

        _run_workers(builder, builder)
        # no increment lost to a race: two builders, every pool counted
        assert manager.stats()["pools_produced"] == 2 * rounds * len(pairs)

    def test_sample_counter_matches_built_pools(self):
        manager = _make_manager()
        pairs = inside_out_order(3)
        built_samples: list[int] = []

        def builder():
            for rotation in range(10):
                for a, b in pairs:
                    pool = manager.build_pool(a, b, rotation=rotation)
                    built_samples.append(pool.num_samples)

        _run_workers(builder, builder)
        stats = manager.stats()
        assert stats["pools_produced"] == len(built_samples) == 2 * 10 * len(pairs)
        assert stats["samples_produced"] == sum(built_samples) > 0

    def test_concurrent_pools_stay_bit_identical(self):
        """Keyed streams make racing builders return identical pools."""
        results: dict[int, list] = {0: [], 1: []}
        manager = _make_manager()

        def builder(slot):
            def run():
                for rotation in range(8):
                    for a, b in inside_out_order(3):
                        results[slot].append(
                            manager.build_pool(a, b, rotation=rotation))
            return run

        _run_workers(builder(0), builder(1))
        assert len(results[0]) == len(results[1]) == 8 * 6
        for p0, p1 in zip(results[0], results[1]):
            assert np.array_equal(p0.src, p1.src)
            assert np.array_equal(p0.dst, p1.dst)


class TestFilteredCacheUnderConcurrency:
    def test_cache_entries_bounded_by_directions(self):
        manager = _make_manager(num_parts=4)
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


class TestRotationKeyedPools:
    def test_pool_is_keyed_by_rotation(self):
        """A (rotation, pair) pool depends on nothing but its key: byte-equal
        to a fresh manager's build, different from another rotation's."""
        manager = _make_manager()
        other_rotation = manager.build_pool(1, 0, rotation=7)
        pool = manager.build_pool(1, 0, rotation=2)
        fresh = _make_manager().build_pool(1, 0, rotation=2)
        assert np.array_equal(pool.src, fresh.src)
        assert np.array_equal(pool.dst, fresh.dst)
        assert not np.array_equal(pool.dst, other_rotation.dst)
        assert manager.stats()["pools_produced"] == 2
