"""Pipelined-execution suite: golden parity, executor semantics, stats.

The contract of :mod:`repro.large.pipeline` is that execution mode changes
*scheduling only*: because every pool draw and every kernel negative stream
is keyed by ``(seed, rotation, pair)``, producing pools on a background
thread must yield bit-identical embeddings to producing them inline.  These
tests pin that parity (the tentpole acceptance criterion), the bounded-queue
backpressure, producer-error propagation, and the stall/queue statistics.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.embedding import init_embedding
from repro.gpu import DeviceSpec, SimulatedDevice
from repro.gpu.backends import get_backend
from repro.graph import contiguous_partition, social_community
from repro.large import (
    LargeGraphConfig,
    PipelinedExecutor,
    PoolPreparer,
    SamplePoolManager,
    SequentialExecutor,
    UnknownExecutionModeError,
    build_schedule,
    create_executor,
    inside_out_order,
    kernel_rng,
    train_large_graph,
)

pytestmark = pytest.mark.timeout(120)


def tiny_device(kilobytes: int) -> SimulatedDevice:
    return SimulatedDevice(spec=DeviceSpec(name=f"{kilobytes}kB", memory_bytes=kilobytes * 1024))


def _train(graph, mode, *, seed=0, epochs=20, dim=16, **cfg_kwargs):
    device = tiny_device(16)
    emb = init_embedding(graph.num_vertices, dim, 0)
    stats = train_large_graph(graph, emb, epochs=epochs, device=device,
                              config=LargeGraphConfig(seed=seed, execution_mode=mode,
                                                      **cfg_kwargs))
    return emb, stats


@pytest.fixture(scope="module")
def graph():
    return social_community(400, intra_degree=8, seed=1)


class TestGoldenParity:
    """pipelined must be bit-identical to the sequential oracle."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_embeddings_bit_identical(self, graph, seed):
        emb_seq, _ = _train(graph, "sequential", seed=seed)
        emb_pip, _ = _train(graph, "pipelined", seed=seed)
        assert np.array_equal(emb_seq, emb_pip)

    @pytest.mark.parametrize("kernel_backend", ["reference", "vectorized"])
    def test_parity_across_kernel_backends(self, graph, kernel_backend):
        emb_seq, _ = _train(graph, "sequential", kernel_backend=kernel_backend)
        emb_pip, _ = _train(graph, "pipelined", kernel_backend=kernel_backend)
        assert np.array_equal(emb_seq, emb_pip)

    @pytest.mark.parametrize("sampler_backend",
                             ["reference", "vectorized", "degree_biased"])
    def test_parity_across_sampler_backends(self, graph, sampler_backend):
        emb_seq, _ = _train(graph, "sequential", sampler_backend=sampler_backend)
        emb_pip, _ = _train(graph, "pipelined", sampler_backend=sampler_backend)
        assert np.array_equal(emb_seq, emb_pip)

    def test_identical_pool_contents_across_executors(self, graph):
        """Both executors must hand the kernels the *same* ready pools."""
        partition = contiguous_partition(graph.num_vertices, 4)
        schedule = build_schedule(2, inside_out_order(4))
        backend = get_backend("vectorized")
        g2l = partition.global_to_local()
        readies = {}
        for mode in ("sequential", "pipelined"):
            manager = SamplePoolManager(graph=graph, partition=partition,
                                        batch_per_vertex=3, seed=5)
            preparer = PoolPreparer(partition, backend, g2l, 2, 5)
            with create_executor(mode, manager, preparer, schedule, 4) as ex:
                readies[mode] = [ex.next_ready() for _ in schedule]
        for r_seq, r_pip in zip(readies["sequential"], readies["pipelined"]):
            assert r_seq.entry == r_pip.entry
            assert np.array_equal(r_seq.pool.src, r_pip.pool.src)
            assert np.array_equal(r_seq.pool.dst, r_pip.pool.dst)
            assert len(r_seq.directions) == len(r_pip.directions)
            for d_seq, d_pip in zip(r_seq.directions, r_pip.directions):
                assert (d_seq.from_part, d_seq.to_part) == (d_pip.from_part, d_pip.to_part)
                assert np.array_equal(d_seq.src, d_pip.src)
                assert np.array_equal(d_pip.plan.neg_targets, d_seq.plan.neg_targets)

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
            assert np.array_equal(built_fwd[k].src, built_bwd[k].src)
            assert np.array_equal(built_fwd[k].dst, built_bwd[k].dst)

    def test_rotations_draw_distinct_pools(self, graph):
        partition = contiguous_partition(graph.num_vertices, 3)
        manager = SamplePoolManager(graph=graph, partition=partition, seed=0)
        p0 = manager.build_pool(1, 0, rotation=0)
        p1 = manager.build_pool(1, 0, rotation=1)
        assert not np.array_equal(p0.dst, p1.dst)


class TestPreparedKernelParity:
    """prepare_pair + plan= must be bit-identical to the inline kernel."""

    def test_prepared_equals_unprepared(self, graph):
        partition = contiguous_partition(graph.num_vertices, 2)
        manager = SamplePoolManager(graph=graph, partition=partition, seed=1)
        samples = manager.build_pool(1, 0).directions[0]
        assert (samples.from_part, samples.to_part) == (1, 0)
        src, dst = samples.src, samples.dst
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


class TestExecutors:
    def _setup(self, graph, num_parts=4, rotations=2, capacity=3, seed=0):
        partition = contiguous_partition(graph.num_vertices, num_parts)
        manager = SamplePoolManager(graph=graph, partition=partition,
                                    batch_per_vertex=3,
                                    max_resident_pools=capacity, seed=seed)
        preparer = PoolPreparer(partition, get_backend("vectorized"),
                                partition.global_to_local(), 2, seed)
        schedule = build_schedule(rotations, inside_out_order(num_parts))
        return manager, preparer, schedule

    def test_unknown_mode_raises(self, graph):
        manager, preparer, schedule = self._setup(graph)
        with pytest.raises(UnknownExecutionModeError) as exc:
            create_executor("warp-speed", manager, preparer, schedule, 3)
        assert "pipelined" in str(exc.value)

    def test_create_executor_dispatch(self, graph):
        manager, preparer, schedule = self._setup(graph)
        ex = create_executor("sequential", manager, preparer, schedule, 3)
        assert isinstance(ex, SequentialExecutor)
        ex.close()
        ex = create_executor("PIPELINED", manager, preparer, schedule, 3)
        assert isinstance(ex, PipelinedExecutor)
        ex.close()

    def test_backpressure_bounds_ready_pools(self, graph):
        """An unconsumed producer must stop at the S_GPU queue bound."""
        capacity = 2
        manager, preparer, schedule = self._setup(graph, capacity=capacity)
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
        manager, preparer, schedule = self._setup(graph)
        with PipelinedExecutor(manager, preparer, schedule, 3) as ex:
            for entry in schedule:
                ready = ex.next_ready()
                assert ready.entry == entry
        assert manager.stats()["pools_produced"] == len(schedule)
        assert manager.stats()["pools_consumed"] == len(schedule)

    def test_producer_error_reaches_consumer(self, graph):
        manager, preparer, schedule = self._setup(graph)

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
        manager, preparer, schedule = self._setup(graph, rotations=4, capacity=1)
        ex = PipelinedExecutor(manager, preparer, schedule, 1)
        ex.next_ready()          # consume one, then walk away
        ex.close()
        assert not ex._thread.is_alive()

    def test_stats_shapes(self, graph):
        manager, preparer, schedule = self._setup(graph)
        for mode in ("sequential", "pipelined"):
            m, p, s = self._setup(graph)
            with create_executor(mode, m, p, s, 3) as ex:
                for _ in s:
                    ex.next_ready()
            stats = ex.stats
            assert stats.mode == mode
            assert len(stats.events) == len(s)
            assert stats.stall_seconds >= 0.0
            assert stats.produce_seconds > 0.0
            assert all(e.consumed_at >= e.produced_at - 1e-9 or mode == "sequential"
                       for e in stats.events)
            assert all(e.queue_depth <= 3 for e in stats.events)


class TestSchedulerIntegration:
    def test_stats_carry_pipeline_record(self, graph):
        _, stats = _train(graph, "pipelined")
        assert stats.execution_mode == "pipelined"
        assert stats.pipeline is not None
        assert len(stats.pipeline.events) == stats.kernels
        assert stats.pool_stall_seconds >= 0.0
        assert stats.pool_produce_seconds > 0.0
        assert stats.max_ready_pools >= 1

    def test_timeline_records_pool_copies(self, graph):
        _, stats = _train(graph, "pipelined")
        copies = [e for e in stats.timeline.events if e.kind == "h2d"]
        kernels = [e for e in stats.timeline.events if e.kind == "kernel"]
        assert len(copies) == stats.kernels          # one pool shipment per pair
        assert len(kernels) == stats.kernels
        # a pair with no cross edges ships an empty pool (zero-cost copy)
        assert any(e.duration > 0 for e in copies)
        assert all(e.duration >= 0 for e in copies)
        # transfers now price into the serial makespan
        assert stats.timeline.serial_makespan > sum(e.duration for e in kernels)

    def test_sequential_counts_production_as_stall(self, graph):
        _, stats = _train(graph, "sequential")
        assert stats.execution_mode == "sequential"
        # inline production *is* the stall the pipeline removes
        assert stats.pool_stall_seconds == pytest.approx(stats.pool_produce_seconds)

    def test_invalid_mode_rejected_by_gosh_config(self):
        from repro.embedding.config import NORMAL
        with pytest.raises(ValueError):
            NORMAL.with_(execution_mode="warp-speed").validate()
        NORMAL.with_(execution_mode="sequential").validate()


class TestThreadHygiene:
    def test_no_leaked_producer_threads(self, graph):
        before = threading.active_count()
        for _ in range(3):
            _train(graph, "pipelined", epochs=10)
        deadline = time.monotonic() + 5.0
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= before
