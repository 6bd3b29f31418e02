"""Perf smoke test: pipelined vs sequential large-graph execution.

Asserts the tentpole claim of the pipelined engine on a generated ~50k-edge
graph (12.5k vertices, m = 4 power-law): running Algorithm 5 with pool
production on a background producer thread (``execution_mode="pipelined"``)
is **≥ 1.3×** faster end-to-end than the single-threaded oracle
(``"sequential"``), at **bit-identical** output.

The workload is chosen so production carries a realistic share of the work
— ``degree_biased`` sampling (weighted searchsorted draws), B = 20 positive
samples per vertex, small-dimension embeddings — mirroring the paper's
regime where host-side sampling is substantial next to device kernels.  On
this workload the producer (pool build + scatter-plan preparation +
negative pre-draws) accounts for ~40-50% of sequential wall-clock, an
ideal overlap ceiling of ~1.7-2×; the floor leaves headroom
for imperfect overlap on a busy runner.

Thread overlap needs a second core: the test skips (rather than fails) on
single-CPU machines, where the measured print-out still reports the
producer/consumer split.  Marked ``perf`` so the tier-1 job skips it
(``-m "not perf"``); the CI perf-smoke job runs it non-blockingly.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np
import pytest

from repro.embedding import GoshConfig, init_embedding
from repro.gpu import DeviceSpec, SimulatedDevice
from repro.graph import powerlaw_cluster
from repro.large import LargeGraphTrainer

from conftest import record_perf_json

pytestmark = pytest.mark.perf

#: Floor deliberately below the ideal-overlap ceiling (~1.7x on this
#: workload) so imperfect overlap on a noisy CI runner does not flake.
PIPELINE_SPEEDUP_FLOOR = 1.3
REPS = 3
NUM_PARTS = 4
B = 20
DIM = 8
NS = 1
ROTATIONS = 3


def _cpus() -> int:
    """CPUs actually usable by this process (affinity-aware, conservative)."""
    cpu_count = os.cpu_count() or 1
    try:
        return min(len(os.sched_getaffinity(0)), cpu_count)
    except AttributeError:  # pragma: no cover - non-Linux
        return cpu_count


@pytest.fixture(scope="module")
def graph_50k():
    g = powerlaw_cluster(12_500, m=4, seed=0)
    assert g.num_undirected_edges >= 49_000
    return g


def _run(graph, mode: str) -> tuple[float, np.ndarray, object]:
    emb = init_embedding(graph.num_vertices, DIM, 0)
    matrix_bytes = graph.num_vertices * DIM * 4
    device = SimulatedDevice(spec=DeviceSpec(
        name="bench", memory_bytes=max(int(matrix_bytes * 0.9),
                                       3 * (matrix_bytes // NUM_PARTS) + 4096)))
    cfg = GoshConfig(positive_batch_per_vertex=B, negative_samples=NS,
                     sampler_backend="degree_biased", execution_mode=mode)
    t0 = perf_counter()
    stats = LargeGraphTrainer(device, cfg, min_parts=NUM_PARTS).train(
        graph, emb, epochs=B * NUM_PARTS * ROTATIONS)
    return perf_counter() - t0, emb, stats


class TestPipelineSpeedup:
    def test_pipelined_1_3x_on_50k_edges(self, graph_50k):
        g = graph_50k
        times: dict[str, float] = {}
        embeddings: dict[str, np.ndarray] = {}
        stats: dict[str, object] = {}
        for mode in ("sequential", "pipelined"):
            best = float("inf")
            for _ in range(REPS):
                seconds, emb, st = _run(g, mode)
                best = min(best, seconds)
            times[mode], embeddings[mode], stats[mode] = best, emb, st

        produce = stats["sequential"].pool_produce_seconds
        print(f"\n[perf] pipelined engine on |V|={g.num_vertices}, "
              f"|E|={g.num_undirected_edges} (K={NUM_PARTS}, B={B}, dim={DIM}, "
              f"ns={NS}, {ROTATIONS} rotations, cpus={_cpus()}): "
              f"sequential={times['sequential'] * 1e3:.0f}ms "
              f"(produce={produce * 1e3:.0f}ms) "
              f"pipelined={times['pipelined'] * 1e3:.0f}ms "
              f"stall={stats['pipelined'].pool_stall_seconds * 1e3:.0f}ms "
              f"max_ready={stats['pipelined'].max_ready_pools} "
              f"speedup={times['sequential'] / times['pipelined']:.2f}x")

        # Scheduling must never change the result.
        assert np.array_equal(embeddings["sequential"], embeddings["pipelined"])
        assert stats["pipelined"].max_ready_pools <= 4   # S_GPU bound held

        # Record the CPU budget alongside the measurement: a 0.975x "speedup"
        # from a 1-CPU box is a fact about the runner, not the engine, and
        # the artifact must say so (PR-4 caveat follow-up).
        record_perf_json("pipeline_perf", {
            "vertices": g.num_vertices, "edges": g.num_undirected_edges,
            "parts": NUM_PARTS, "cpus": _cpus(),
            "cpu_count": os.cpu_count() or 1,
            "floor_engaged": _cpus() >= 2,
            "sequential_ms": round(times["sequential"] * 1e3, 1),
            "pipelined_ms": round(times["pipelined"] * 1e3, 1),
            "produce_ms": round(produce * 1e3, 1),
            "stall_ms": round(stats["pipelined"].pool_stall_seconds * 1e3, 1),
            "speedup": round(times["sequential"] / times["pipelined"], 3),
            "floor": PIPELINE_SPEEDUP_FLOOR,
        })

        if (os.cpu_count() or 1) < 2 or _cpus() < 2:
            pytest.skip(
                f"pipelined-overlap speedup floor needs >= 2 CPUs "
                f"(os.cpu_count()={os.cpu_count()}, usable={_cpus()}); "
                "parity and S_GPU bounds verified, floor skipped")
        speedup = times["sequential"] / times["pipelined"]
        assert speedup >= PIPELINE_SPEEDUP_FLOOR, (
            f"pipelined execution is only {speedup:.2f}x faster "
            f"(required: {PIPELINE_SPEEDUP_FLOOR}x)")
