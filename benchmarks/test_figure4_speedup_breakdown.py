"""Figure 4 — speedup breakdown across intermediate GOSH versions.

The paper compares four versions against a 16-thread CPU baseline:

1. *Naive GPU* — no memory optimisations, no coarsening (slower than the CPU),
2. *Optimized GPU* — shared-memory staging + coalescing, no coarsening,
3. *Sequential coarsening* — optimized kernel + multilevel training,
4. *Parallel coarsening* — the final GOSH.

On this substrate the CPU baseline is the per-vertex Python VERSE loop (the
scalar reference) and the naive/optimized kernels are the two NumPy kernel
variants.  Two complementary metrics are reported, because the naive kernel's
penalty on a real GPU is *memory traffic*, which host wall-clock cannot see:

* ``Host time`` — wall-clock of the run, printed,
* ``Sim device time`` — the simulated device's cost model (compute at the
  measured lane efficiency plus transfers), which is where the
  naive-vs-optimized gap lives.

Asserted shape: naive costs more device time than optimized; adding
coarsening cuts device time; parallel coarsening does not lose those gains;
and the batched kernels beat the scalar CPU loop outright.  The coarsening
orderings are asserted on the cost model because it is deterministic: host
times a few tenths of a second apart swap places under outside load.
"""

from __future__ import annotations

from time import perf_counter

import pytest

from repro.embedding import FAST, GoshEmbedder, LevelTrainer, VerseConfig, init_embedding, verse_embed
from repro.gpu import SimulatedDevice
from repro.harness import load_dataset, print_table

from conftest import BENCH_DIM

GRAPH = "com-amazon"
EPOCHS = 20   # shared budget for every version; the CPU loop bounds this


def _device_seconds(device: SimulatedDevice) -> float:
    return device.simulated_compute_seconds + device.simulated_transfer_seconds


@pytest.fixture(scope="module")
def breakdown():
    graph = load_dataset(GRAPH, seed=0)
    rows = []
    measurements: dict[str, tuple[float, float]] = {}

    # CPU baseline: scalar per-vertex loop (single core stands in for 16 threads).
    t0 = perf_counter()
    verse_embed(graph, VerseConfig(dim=BENCH_DIM, epochs=EPOCHS, mode="loop", seed=0))
    cpu_seconds = perf_counter() - t0
    rows.append({"Version": "CPU (loop baseline)", "Host time (s)": round(cpu_seconds, 3),
                 "Sim device time (s)": "-", "Speedup (host)": "1.00x"})
    measurements["cpu"] = (cpu_seconds, 0.0)

    def add(key: str, version: str, host: float, device: float) -> None:
        rows.append({
            "Version": version,
            "Host time (s)": round(host, 3),
            "Sim device time (s)": f"{device:.3e}",
            "Speedup (host)": f"{cpu_seconds / max(host, 1e-9):.2f}x",
        })
        measurements[key] = (host, device)

    # Naive GPU kernel, no coarsening.
    device = SimulatedDevice()
    emb = init_embedding(graph.num_vertices, BENCH_DIM, 0)
    t0 = perf_counter()
    LevelTrainer(kernel="naive", learning_rate=0.05,
                 seed=0, device=device).train(graph, emb, EPOCHS)
    add("naive", "Naive GPU (no coarsening)", perf_counter() - t0, _device_seconds(device))

    # Optimized GPU kernel, no coarsening.
    device = SimulatedDevice()
    emb = init_embedding(graph.num_vertices, BENCH_DIM, 0)
    t0 = perf_counter()
    LevelTrainer(kernel="optimized", learning_rate=0.05,
                 seed=0, device=device).train(graph, emb, EPOCHS)
    add("optimized", "Optimized GPU (no coarsening)", perf_counter() - t0, _device_seconds(device))

    # Optimized kernel + sequential coarsening (multilevel).
    device = SimulatedDevice()
    cfg_seq = FAST.scaled(1.0, dim=BENCH_DIM).with_(epochs=EPOCHS, use_parallel_coarsening=False)
    t0 = perf_counter()
    GoshEmbedder(cfg_seq, device=device).embed(graph)
    add("seq", "Optimized GPU + sequential coarsening", perf_counter() - t0, _device_seconds(device))

    # Final GOSH: optimized kernel + parallel coarsening.
    device = SimulatedDevice()
    cfg_par = FAST.scaled(1.0, dim=BENCH_DIM).with_(epochs=EPOCHS, use_parallel_coarsening=True)
    t0 = perf_counter()
    GoshEmbedder(cfg_par, device=device).embed(graph)
    add("par", "Optimized GPU + parallel coarsening (GOSH)", perf_counter() - t0, _device_seconds(device))

    return rows, measurements


def test_figure4_speedup_breakdown(breakdown):
    rows, m = breakdown
    print_table(rows, title=f"Figure 4 — speedup breakdown on {GRAPH} ({EPOCHS} epochs)")
    cpu_host, _ = m["cpu"]
    # Memory-traffic claim: the naive kernel costs more simulated device time.
    assert m["naive"][1] > m["optimized"][1]
    # The batched (GPU-style) kernels beat the scalar CPU loop in host time.
    assert m["optimized"][0] < cpu_host
    # Coarsening cuts device time further, parallel coarsening keeps the gains.
    assert m["seq"][1] < m["optimized"][1]
    assert m["par"][1] <= m["seq"][1] * 1.15


def test_figure4_optimized_kernel_benchmark(benchmark):
    graph = load_dataset(GRAPH, seed=0)
    emb = init_embedding(graph.num_vertices, BENCH_DIM, 0)
    trainer = LevelTrainer(kernel="optimized", seed=0)
    benchmark.pedantic(lambda: trainer.train(graph, emb, 5), rounds=3, iterations=1)


def test_figure4_naive_kernel_benchmark(benchmark):
    graph = load_dataset(GRAPH, seed=0)
    emb = init_embedding(graph.num_vertices, BENCH_DIM, 0)
    trainer = LevelTrainer(kernel="naive", seed=0)
    benchmark.pedantic(lambda: trainer.train(graph, emb, 5), rounds=3, iterations=1)
