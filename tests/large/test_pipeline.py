"""Pool-producer suite: golden parity, executor semantics, stats.

The contract of :mod:`repro.large.pipeline` is that the producer thread
changes *scheduling only*: because every pool draw and every kernel
negative stream is keyed by ``(seed, rotation, pair)``, producing pools on
a background thread must yield bit-identical embeddings to producing them
inline.  :class:`InlineExecutor` below is that inline reference; the parity
tests swap it in for the engine's :class:`PipelinedExecutor`.  The suite
also pins the bounded-queue backpressure, producer-error propagation, and
the stall/queue statistics.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from oracles import expand_pairs
from repro.embedding import GoshConfig, init_embedding
from repro.gpu import DeviceSpec, SimulatedDevice
from repro.gpu.backends import get_backend
from repro.graph import contiguous_partition, social_community
from repro.obs import trace
from repro.large import (
    LargeGraphTrainer,
    PipelinedExecutor,
    PipelineStats,
    PoolPreparer,
    SamplePoolManager,
    build_schedule,
    inside_out_order,
    kernel_rng,
)
from repro.large import scheduler

pytestmark = pytest.mark.timeout(120)


def tiny_device(kilobytes: int) -> SimulatedDevice:
    return SimulatedDevice(spec=DeviceSpec(name=f"{kilobytes}kB", memory_bytes=kilobytes * 1024))


class InlineExecutor:
    """Reference executor: build and prepare each pool on the consumer
    thread, right before its kernel, with nothing buffered.

    Same constructor, ``stats`` and ``next_ready`` contract as
    :class:`PipelinedExecutor` (``capacity`` is unused; the stats stay
    zero), so the parity tests can substitute it for the producer thread.
    """

    def __init__(self, manager, preparer, schedule, capacity):
        self.manager = manager
        self.preparer = preparer
        self.stats = PipelineStats()
        self._entries = iter(schedule)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def next_ready(self):
        entry = next(self._entries)
        pool = self.manager.build_pool(*entry.pair, rotation=entry.rotation)
        return self.preparer.ready(entry, pool)


def _train(graph, *, inline=False, seed=0, epochs=20, dim=16, **cfg_kwargs):
    """Train on a 16 kB device; ``inline`` swaps in :class:`InlineExecutor`."""
    device = tiny_device(16)
    emb = init_embedding(graph.num_vertices, dim, 0)
    config = GoshConfig(seed=seed, **cfg_kwargs)
    with pytest.MonkeyPatch.context() as mp:
        if inline:
            mp.setattr(scheduler, "PipelinedExecutor", InlineExecutor)
        stats = LargeGraphTrainer(device, config).train(graph, emb, epochs=epochs)
    return emb, stats


def traced_events(run):
    """Run ``run()`` with tracing on; return its result and the events."""
    trace.enable()
    try:
        result = run()
        return result, trace.drain()
    finally:
        trace.disable()
        trace.drain()


@pytest.fixture(scope="module")
def graph():
    return social_community(400, intra_degree=8, seed=1)


class TestGoldenParity:
    """The producer thread must be bit-identical to inline production."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_embeddings_bit_identical(self, graph, seed):
        emb_inline, _ = _train(graph, inline=True, seed=seed)
        emb_pip, _ = _train(graph, seed=seed)
        assert np.array_equal(emb_inline, emb_pip)

    def test_identical_pool_contents_across_executors(self, graph):
        """Both executors must hand the kernels the *same* ready pools."""
        partition = contiguous_partition(graph.num_vertices, 4)
        schedule = build_schedule(2, inside_out_order(4))
        backend = get_backend("vectorized")
        g2l = partition.global_to_local()
        readies = {}
        for executor in (InlineExecutor, PipelinedExecutor):
            manager = SamplePoolManager(graph=graph, partition=partition,
                                        batch_per_vertex=3, seed=5)
            preparer = PoolPreparer(partition, backend, g2l, 2, 5)
            with executor(manager, preparer, schedule, 4) as ex:
                readies[executor] = [ex.next_ready() for _ in schedule]
        for r_inline, r_pip in zip(readies[InlineExecutor], readies[PipelinedExecutor]):
            assert r_inline.entry == r_pip.entry
            for got, want in zip(expand_pairs(r_pip.pool), expand_pairs(r_inline.pool)):
                assert np.array_equal(got, want)
            assert len(r_inline.directions) == len(r_pip.directions)
            for d_inline, d_pip in zip(r_inline.directions, r_pip.directions):
                assert (d_inline.from_part, d_inline.to_part) == (d_pip.from_part, d_pip.to_part)
                assert np.array_equal(d_inline.samples.rows, d_pip.samples.rows)
                assert np.array_equal(d_pip.plan.neg_targets, d_inline.plan.neg_targets)

    def test_pool_contents_independent_of_build_order(self, graph):
        """The keyed streams, directly: build order must not matter."""
        partition = contiguous_partition(graph.num_vertices, 3)
        forward = SamplePoolManager(graph=graph, partition=partition, seed=3)
        backward = SamplePoolManager(graph=graph, partition=partition, seed=3)
        keys = [(r, a, b) for r in range(2) for a, b in inside_out_order(3)]
        built_fwd = {k: forward.build_pool(k[1], k[2], rotation=k[0]) for k in keys}
        built_bwd = {k: backward.build_pool(k[1], k[2], rotation=k[0])
                     for k in reversed(keys)}
        for k in keys:
            for got, want in zip(expand_pairs(built_fwd[k]), expand_pairs(built_bwd[k])):
                assert np.array_equal(got, want)

    def test_rotations_draw_distinct_pools(self, graph):
        partition = contiguous_partition(graph.num_vertices, 3)
        manager = SamplePoolManager(graph=graph, partition=partition, seed=0)
        p0 = manager.build_pool(1, 0, rotation=0)
        p1 = manager.build_pool(1, 0, rotation=1)
        assert not np.array_equal(expand_pairs(p0)[1], expand_pairs(p1)[1])


class TestPreparedKernelParity:
    """prepare_pair + plan= must be bit-identical to the inline kernel."""

    def test_prepared_equals_unprepared(self, graph):
        partition = contiguous_partition(graph.num_vertices, 2)
        manager = SamplePoolManager(graph=graph, partition=partition, seed=1)
        samples = manager.build_pool(1, 0).directions[0]
        assert (samples.from_part, samples.to_part) == (1, 0)
        src, dst = expand_pairs(samples)
        backend = get_backend("vectorized")
        g2l = partition.global_to_local()
        rng_master = np.random.default_rng(9)
        base = rng_master.random((graph.num_vertices, 8)).astype(np.float32)

        sub_a_inline = base[partition.parts[1]].copy()
        sub_b_inline = base[partition.parts[0]].copy()
        backend.train_pair(partition.parts[1], partition.parts[0],
                           sub_a_inline, sub_b_inline, src, dst, 3, 0.05,
                           kernel_rng(1, 0, 1, 0), index_a=g2l, index_b=g2l)

        plan = backend.prepare_pair(partition.parts[1], partition.parts[0],
                                    samples.rows, samples.B, dst, 3,
                                    kernel_rng(1, 0, 1, 0), index_b=g2l)
        sub_a_plan = base[partition.parts[1]].copy()
        sub_b_plan = base[partition.parts[0]].copy()
        backend.train_pair(partition.parts[1], partition.parts[0],
                           sub_a_plan, sub_b_plan, src, dst, 3, 0.05,
                           kernel_rng(1, 0, 1, 0), index_a=g2l, index_b=g2l,
                           plan=plan)
        assert np.array_equal(sub_a_inline, sub_a_plan)
        assert np.array_equal(sub_b_inline, sub_b_plan)

    def test_plan_reads_no_embedding_state(self, graph):
        """A plan built before training must stay valid (index-only)."""
        partition = contiguous_partition(graph.num_vertices, 2)
        backend = get_backend("vectorized")
        manager = SamplePoolManager(graph=graph, partition=partition, seed=2)
        samples = manager.build_pool(1, 0).directions[0]
        plan = backend.prepare_pair(partition.parts[1], partition.parts[0],
                                    samples.rows, samples.B, samples.dst, 2,
                                    np.random.default_rng(0))
        assert plan.nbytes() > 0
        assert plan.neg_targets.shape[0] == 2


def _executor_inputs(graph, num_parts=4, rotations=2, seed=0):
    partition = contiguous_partition(graph.num_vertices, num_parts)
    manager = SamplePoolManager(graph=graph, partition=partition,
                                batch_per_vertex=3, seed=seed)
    preparer = PoolPreparer(partition, get_backend("vectorized"),
                            partition.global_to_local(), 2, seed)
    schedule = build_schedule(rotations, inside_out_order(num_parts))
    return manager, preparer, schedule


class TestExecutors:
    def test_backpressure_bounds_ready_pools(self, graph):
        """An unconsumed producer must stop at the S_GPU queue bound."""
        capacity = 2
        manager, preparer, schedule = _executor_inputs(graph)
        assert len(schedule) > capacity + 1
        with PipelinedExecutor(manager, preparer, schedule, capacity) as ex:
            deadline = time.monotonic() + 5.0
            while manager.stats()["pools_produced"] < capacity and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)   # give an unbounded producer time to overshoot
            # capacity pools queued plus at most one blocked in hand-over.
            assert manager.stats()["pools_produced"] <= capacity + 1
            assert ex.stats.max_queue_depth <= capacity
        # close() must have stopped the producer without consuming the rest
        assert manager.stats()["pools_produced"] < len(schedule)

    def test_pipelined_delivers_in_schedule_order(self, graph):
        manager, preparer, schedule = _executor_inputs(graph)
        with PipelinedExecutor(manager, preparer, schedule, 3) as ex:
            for entry in schedule:
                ready = ex.next_ready()
                assert ready.entry == entry
        assert manager.stats()["pools_produced"] == len(schedule)

    def test_producer_error_reaches_consumer(self, graph):
        manager, preparer, schedule = _executor_inputs(graph)

        class Boom(RuntimeError):
            pass

        def explode(*args, **kwargs):
            raise Boom("sampler failure")

        manager.build_pool = explode
        with PipelinedExecutor(manager, preparer, schedule, 3) as ex:
            with pytest.raises(Boom):
                ex.next_ready()

    def test_close_unblocks_producer_midway(self, graph):
        """Consumer abandoning the run must not leave the producer wedged."""
        manager, preparer, schedule = _executor_inputs(graph, rotations=4)
        ex = PipelinedExecutor(manager, preparer, schedule, 1)
        ex.next_ready()          # consume one, then walk away
        ex.close()
        assert not ex._thread.is_alive()

    def test_stats_shapes(self, graph):
        manager, preparer, schedule = _executor_inputs(graph)
        with PipelinedExecutor(manager, preparer, schedule, 3) as ex:
            for _ in schedule:
                ex.next_ready()
        stats = ex.stats
        assert manager.stats()["pools_produced"] == len(schedule)
        assert stats.stall_seconds >= 0.0
        assert stats.produce_seconds > 0.0
        assert stats.max_queue_depth <= 3


class TestBuildCounts:
    """The producer's work, by count: one build and one preparation per
    schedule entry, in schedule order, all on the producer thread."""

    def test_one_build_per_entry_on_the_right_thread(self, graph):
        manager, preparer, schedule = _executor_inputs(graph)
        calls: dict[str, list] = {"build": [], "ready": []}
        build, ready = manager.build_pool, preparer.ready

        def counted_build(a, b, *, rotation=0):
            calls["build"].append(((rotation, (a, b)), threading.current_thread().name))
            return build(a, b, rotation=rotation)

        def counted_ready(entry, pool):
            calls["ready"].append((entry, threading.current_thread().name))
            return ready(entry, pool)

        manager.build_pool, preparer.ready = counted_build, counted_ready
        with PipelinedExecutor(manager, preparer, schedule, 3) as ex:
            for entry in schedule:
                assert ex.next_ready().entry == entry
        assert [key for key, _ in calls["build"]] == [(e.rotation, e.pair) for e in schedule]
        assert [entry for entry, _ in calls["ready"]] == schedule
        assert {name for _, name in calls["build"] + calls["ready"]} == {"gosh-pool-producer"}


class TestSchedulerIntegration:
    def test_stats_carry_pipeline_record(self, graph):
        _, stats = _train(graph)
        # the ready queue never holds more than S_GPU pools
        assert stats.max_ready_pools <= GoshConfig().resident_sample_pools
        assert stats.pool_stall_seconds >= 0.0
        assert stats.pool_produce_seconds > 0.0
        assert stats.max_ready_pools >= 1

    def test_timeline_records_pool_copies(self, graph):
        """The trace is the run's one timeline: a priced pool shipment and
        a kernel span per launch."""
        (_, stats), events = traced_events(lambda: _train(graph))
        copies = [e for e in events if e["name"] == "h2d"]
        kernels = [e for e in events if e["name"] == "kernel"]
        assert len(copies) == stats.kernels          # one pool shipment per pair
        assert len(kernels) == stats.kernels
        # a pair with no cross edges ships an empty pool (zero-cost copy)
        priced = [e["args"]["simulated_s"] for e in copies]
        assert all(s >= 0 for s in priced)
        assert any(s > 0 for s in priced)
        assert sum(e["args"]["nbytes"] for e in copies) > 0


class TestThreadHygiene:
    def test_no_leaked_producer_threads(self, graph):
        before = threading.active_count()
        for _ in range(3):
            _train(graph, epochs=10)
        deadline = time.monotonic() + 5.0
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= before
