"""Checkpoint/resume golden tests: recovery must be bit-exact.

The contract under test is the strongest one a checkpointed trainer can
offer: kill a run at a scripted injection point, resume it from the store,
and the final embedding is **bit-identical** (same float32 words, compared
with ``np.array_equal``) to the run that was never interrupted.  This holds
because every random draw in the pipeline is keyed by content — (seed,
stream, rotation, pair) for the partitioned engine, seed+level for the
in-memory trainer — never by call order or wall clock.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api import get_tool
from repro.embedding import CheckpointMismatchError, TrainingInterrupted
from repro.embedding.checkpoint import CHECKPOINT_SUFFIX, latest_checkpoint
from repro.faults import FAULTS, InjectedFault
from repro.graph import powerlaw_cluster
from repro.gpu import DeviceSpec, SimulatedDevice
from repro.store import EmbeddingStore


def tiny_device(bytes_: int) -> SimulatedDevice:
    """A device small enough to force the partitioned large-graph engine."""
    return SimulatedDevice(
        spec=DeviceSpec(name=f"tiny-{bytes_}", memory_bytes=bytes_))


@pytest.fixture(autouse=True)
def clean_registry():
    """Tests share the FAULTS singleton; never leak an armed point."""
    FAULTS.reset()
    yield
    FAULTS.reset()


#: Small enough to run the partitioned engine at K>1 with several rotations,
#: large enough that a mid-level kill point actually lands mid-level.
DEVICE_BYTES = 20_000
DIM = 16
EPOCH_SCALE = 0.2


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster(400, m=3, seed=1)


@pytest.fixture(scope="module")
def golden(graph):
    """The uninterrupted, uncheckpointed run every scenario must match."""
    result = make_tool().embed(graph)
    large = result.stats["large_graph"]
    # Self-check the scenario is non-trivial: partitioned levels with
    # multiple parts and rotations, so kill points land mid-schedule.
    assert large and max(large["parts_per_level"]) > 1
    assert large["rotations"] >= 4
    return result.embedding


def make_tool():
    return get_tool("gosh-normal", dim=DIM, epoch_scale=EPOCH_SCALE,
                    device=tiny_device(DEVICE_BYTES), seed=0)


def checkpointed_tool(store, *, resume=True, every=1, stop_event=None):
    tool = make_tool()
    tool.configure_checkpointing(store, every_rotations=every,
                                 auto_resume=resume, stop_event=stop_event)
    return tool


class TestUninterruptedParity:
    def test_checkpointing_does_not_change_bits(self, graph, golden, tmp_path):
        """Snapshotting (sync_to_host + store writes) must be bit-neutral."""
        store = EmbeddingStore(tmp_path)
        result = checkpointed_tool(store).embed(graph)
        assert result.stats["checkpoints_saved"] > 0
        assert np.array_equal(golden, result.embedding)

    def test_checkpoints_live_in_ckpt_lineage_and_are_never_served(
            self, graph, tmp_path):
        store = EmbeddingStore(tmp_path)
        tool = checkpointed_tool(store)
        tool.embed(graph)
        fp = graph.fingerprint()
        assert store.latest(fp, tool.name) is None  # final result not saved here
        ckpt = store.latest(fp, tool.name + CHECKPOINT_SUFFIX)
        assert ckpt is not None
        assert "checkpoint" in ckpt.manifest["metadata"]

    def test_keep_bounds_checkpoint_versions(self, graph, tmp_path):
        store = EmbeddingStore(tmp_path)
        tool = make_tool()
        tool.configure_checkpointing(store, every_rotations=1, keep=2)
        result = tool.embed(graph)
        assert result.stats["checkpoints_saved"] > 2
        entries = store.list(graph.fingerprint(), tool.name + CHECKPOINT_SUFFIX)
        assert len(entries) <= 2

    def test_sweep_checkpoints_clears_the_lineage(self, graph, tmp_path):
        store = EmbeddingStore(tmp_path)
        tool = checkpointed_tool(store)
        tool.embed(graph)
        assert tool.sweep_checkpoints(graph.fingerprint()) > 0
        assert store.latest(graph.fingerprint(),
                            tool.name + CHECKPOINT_SUFFIX) is None


class TestKillAndResume:
    """The acceptance gate: >= 2 distinct kill points, ids AND bits equal."""

    @pytest.mark.parametrize("spec", [
        "rotation-boundary:2",   # mid-level, partitioned engine
        "rotation-boundary:5",   # later rotation, possibly a later level
        "level-boundary:1",      # right after a level expanded
        "pool-producer:7",       # mid-rotation, producer side
    ])
    def test_resume_is_bit_exact(self, graph, golden, tmp_path, spec):
        store = EmbeddingStore(tmp_path)
        crashed = checkpointed_tool(store)
        with pytest.raises(InjectedFault):
            with FAULTS.armed(spec):
                crashed.embed(graph)
        # A fresh process: new tool instance, same store.
        resumed_result = checkpointed_tool(store).embed(graph)
        assert np.array_equal(golden, resumed_result.embedding), \
            f"resume after kill at {spec} is not bit-exact"

    def test_resume_actually_skips_work(self, graph, tmp_path):
        """Resume must restart from the cursor, not silently recompute."""
        store = EmbeddingStore(tmp_path)
        with pytest.raises(InjectedFault):
            with FAULTS.armed("rotation-boundary:3"):
                checkpointed_tool(store).embed(graph)
        result = checkpointed_tool(store).embed(graph)
        resumed = result.stats["resumed_from"]
        assert resumed is not None and resumed["rotation"] > 0
        # The raw run records the skip: the resumed level starts its schedule
        # at the cursor's rotation instead of 0.
        assert any(s.start_rotation == resumed["rotation"]
                   for s in result.raw.large_graph_stats)

    def test_crash_before_any_checkpoint_restarts_clean(self, graph, golden,
                                                        tmp_path):
        """Dying before the first *committed* snapshot falls back to a fresh
        run.  The first commit itself is the earliest such point: in-memory
        coarse levels checkpoint at their boundaries before any pool exists,
        so ``store-commit:1`` kills the very first save mid-staging."""
        store = EmbeddingStore(tmp_path)
        with pytest.raises(InjectedFault):
            with FAULTS.armed("store-commit:1"):
                checkpointed_tool(store).embed(graph)
        assert latest_checkpoint(
            store, graph.fingerprint(), "gosh-normal",
            metadata=make_tool().config.metadata_echo()) is None
        result = checkpointed_tool(store).embed(graph)
        assert result.stats.get("resumed_from") is None
        assert np.array_equal(golden, result.embedding)

    def test_store_commit_crash_leaves_resumable_older_checkpoint(
            self, graph, golden, tmp_path):
        """Dying *inside* a checkpoint commit must not poison the lineage."""
        store = EmbeddingStore(tmp_path)
        with pytest.raises(InjectedFault):
            with FAULTS.armed("store-commit:3"):
                checkpointed_tool(store).embed(graph)
        # The third commit died mid-staging: its .tmp-* debris is ignored,
        # the second checkpoint resumes the run.
        result = checkpointed_tool(store).embed(graph)
        assert result.stats["resumed_from"]["version"] >= 1
        assert np.array_equal(golden, result.embedding)

    def test_resume_checkpoint_pinned_to_config_hash(self, graph, tmp_path):
        """A checkpoint from different settings must never be resumed."""
        store = EmbeddingStore(tmp_path)
        with pytest.raises(InjectedFault):
            with FAULTS.armed("rotation-boundary:2"):
                checkpointed_tool(store).embed(graph)
        other = get_tool("gosh-normal", dim=DIM, epoch_scale=EPOCH_SCALE,
                         device=tiny_device(DEVICE_BYTES), seed=99)
        assert latest_checkpoint(
            store, graph.fingerprint(), other.name,
            metadata=other.config.metadata_echo()) is None


class TestGracefulStop:
    def test_stop_event_checkpoints_and_interrupts(self, graph, golden,
                                                   tmp_path):
        """The SIGTERM path: stop at the next boundary, then resume bit-exact."""
        store = EmbeddingStore(tmp_path)
        stop = threading.Event()
        stop.set()  # request the stop before training: first boundary wins
        tool = checkpointed_tool(store, stop_event=stop)
        with pytest.raises(TrainingInterrupted) as err:
            tool.embed(graph)
        assert err.value.entry is not None
        resumed = checkpointed_tool(store).embed(graph)
        assert resumed.stats["resumed_from"] is not None
        assert np.array_equal(golden, resumed.embedding)


class TestMismatchGuards:
    def test_in_memory_level_rejects_rotation_cursor(self, graph, tmp_path):
        """A cursor inside a partitioned level cannot resume on a big device."""
        store = EmbeddingStore(tmp_path)
        with pytest.raises(InjectedFault):
            with FAULTS.armed("rotation-boundary:2"):
                checkpointed_tool(store).embed(graph)
        fp = graph.fingerprint()
        small = make_tool()
        resume = latest_checkpoint(store, fp, small.name,
                                   metadata=small.config.metadata_echo())
        assert resume is not None and resume.rotation > 0
        # Same config hash, roomy device: the resumed level now fits in
        # memory, which would change the draw schedule — must refuse.
        from repro.embedding import GoshEmbedder
        from repro.gpu import SimulatedDevice

        embedder = GoshEmbedder(small.config, device=SimulatedDevice())
        with pytest.raises(CheckpointMismatchError):
            embedder.embed(graph, resume=resume)
