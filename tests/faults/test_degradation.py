"""Graceful degradation under device OOM (LargeGraphTrainer retry path)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import get_tool
from repro.embedding import GoshConfig
from repro.faults import FAULTS
from repro.gpu.device import DeviceMemoryError
from repro.gpu import DeviceSpec, SimulatedDevice
from repro.graph import powerlaw_cluster
from repro.large import LargeGraphTrainer, scheduler


def tiny_device(bytes_: int) -> SimulatedDevice:
    return SimulatedDevice(
        spec=DeviceSpec(name=f"tiny-{bytes_}", memory_bytes=bytes_))


@pytest.fixture(autouse=True)
def clean_registry():
    """Tests share the FAULTS singleton; never leak an armed point."""
    FAULTS.reset()
    yield
    FAULTS.reset()


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster(400, m=3, seed=1)


def make_tool(**overrides):
    kwargs = dict(dim=16, epoch_scale=0.2, device=tiny_device(20_000), seed=0)
    kwargs.update(overrides)
    return get_tool("gosh-normal", **kwargs)


class TestDegradation:
    def test_oom_mid_training_degrades_and_completes(self, graph):
        """The acceptance case: injected OOM mid-run completes bit-exactly."""
        golden = make_tool().embed(graph)
        FAULTS.arm("device-oom", at=3)
        result = make_tool().embed(graph)
        large = result.stats["large_graph"]
        assert large["oom_retries"] == 1
        (record,) = large["degradations"]
        assert record["resident_submatrices"] == 2    # halved from 3, floor 2
        assert record["resident_sample_pools"] == 2   # halved from 4
        assert record["backoff_s"] > 0
        assert "injected device OOM" in record["error"]
        assert np.array_equal(golden.embedding, result.embedding)

    def test_repeated_oom_keeps_halving(self, graph):
        """Two OOMs: the second retry runs at the footprint floor (2, 1)."""
        golden = make_tool().embed(graph)
        FAULTS.arm("device-oom", at=3)
        tool = make_tool()
        # Re-arm from inside the retry: the registry is one-shot, so a second
        # arm is scheduled after the first fires by wrapping the device.
        device = tool.device
        original_allocate = type(device).allocate
        state = {"fired": 0}

        def allocate_then_rearm(self, *args, **kwargs):
            try:
                return original_allocate(self, *args, **kwargs)
            except DeviceMemoryError:
                state["fired"] += 1
                if state["fired"] == 1:
                    FAULTS.arm("device-oom", at=2)
                raise

        type(device).allocate = allocate_then_rearm
        try:
            result = tool.embed(graph)
        finally:
            type(device).allocate = original_allocate
        large = result.stats["large_graph"]
        assert large["oom_retries"] == 2
        assert large["degradations"][-1]["resident_submatrices"] == 2
        assert large["degradations"][-1]["resident_sample_pools"] == 1
        assert np.array_equal(golden.embedding, result.embedding)

    def test_oom_at_floor_reraises(self, graph):
        """With P_GPU/S_GPU already minimal there is nothing left to halve."""
        embedding = np.random.default_rng(0).standard_normal(
            (graph.num_vertices, 16)).astype(np.float32)
        config = GoshConfig(resident_submatrices=2, resident_sample_pools=1)
        FAULTS.arm("device-oom", at=2)
        with pytest.raises(DeviceMemoryError):
            LargeGraphTrainer(tiny_device(50_000), config, min_parts=4).train(
                graph, embedding, epochs=40)

    def test_retry_budget_bounds_attempts(self, graph, monkeypatch):
        """MAX_OOM_RETRIES = 0 turns the retry loop off entirely."""
        monkeypatch.setattr(scheduler, "MAX_OOM_RETRIES", 0)
        embedding = np.random.default_rng(0).standard_normal(
            (graph.num_vertices, 16)).astype(np.float32)
        FAULTS.arm("device-oom", at=2)
        with pytest.raises(DeviceMemoryError):
            LargeGraphTrainer(tiny_device(50_000), min_parts=4).train(
                graph, embedding, epochs=40)

    def test_persistent_oom_exhausts_halving_and_reraises(self, graph):
        """Degradation must not mask a device that keeps failing: the halving
        ladder bottoms out at (2, 1) and the real error propagates."""
        device = tiny_device(50_000)

        def always_oom(*args, **kwargs):
            raise DeviceMemoryError("persistent allocation failure")

        device.allocate = always_oom
        embedding = np.random.default_rng(0).standard_normal(
            (graph.num_vertices, 16)).astype(np.float32)
        with pytest.raises(DeviceMemoryError, match="persistent"):
            LargeGraphTrainer(device, min_parts=4).train(graph, embedding, epochs=40)

    def test_stats_record_degradations_in_summary(self, graph):
        FAULTS.arm("device-oom", at=3)
        result = make_tool().embed(graph)
        large = result.stats["large_graph"]
        assert large["oom_retries"] >= 1
        assert all({"attempt", "error", "resident_submatrices",
                    "resident_sample_pools", "backoff_s"} <= set(d)
                   for d in large["degradations"])
