"""Figure 3 — effect of the positive batch size B on large-graph embedding.

The paper sweeps B for hyperlink2012 and shows the trade-off: larger B means
fewer rotations (faster) but more isolated updates per sub-matrix pair (lower
AUCROC).  The bench reproduces the sweep on the hyperlink twin with the
memory-constrained device and asserts both directions of the trade-off.
"""

from __future__ import annotations

from time import perf_counter

import pytest

from repro.embedding import NORMAL, GoshEmbedder
from repro.eval import evaluate_embedding, train_test_split
from repro.gpu import DeviceSpec, SimulatedDevice
from repro.harness import load_dataset, print_table

from conftest import BENCH_DIM, BENCH_SCALE

B_VALUES = (1, 3, 5, 10, 20)


@pytest.fixture(scope="module")
def figure3_rows():
    graph = load_dataset("hyperlink2012", seed=0)
    split = train_test_split(graph, seed=0)
    matrix_bytes = graph.num_vertices * BENCH_DIM * 4
    rows = []
    for B in B_VALUES:
        device = SimulatedDevice(spec=DeviceSpec(name="constrained",
                                                 memory_bytes=max(matrix_bytes // 3, 64 * 1024)))
        cfg = NORMAL.scaled(BENCH_SCALE, dim=BENCH_DIM).with_(positive_batch_per_vertex=B)
        t0 = perf_counter()
        result = GoshEmbedder(cfg, device=device).embed(split.train_graph)
        seconds = perf_counter() - t0
        quality = evaluate_embedding(result.embedding, split, classifier="sgd", seed=0)
        stats = result.large_graph_stats[0] if result.large_graph_stats else None
        rows.append({
            "B": B,
            "Time (s)": round(seconds, 3),
            "Device (ms)": round(1e3 * (device.simulated_compute_seconds
                                        + device.simulated_transfer_seconds), 3),
            "AUCROC (%)": round(100 * quality.auc, 2),
            "rotations": stats.rotations if stats else "-",
            "kernels": stats.kernels if stats else "-",
        })
    return rows


def test_figure3_batch_size_tradeoff(figure3_rows):
    print_table(figure3_rows, title="Figure 3 — batch size B vs time and AUCROC (hyperlink twin)")
    by_b = {r["B"]: r for r in figure3_rows}
    # Larger B => fewer rotations (the mechanism behind the paper's speedup).
    assert by_b[20]["rotations"] <= by_b[1]["rotations"]
    assert by_b[5]["rotations"] <= by_b[1]["rotations"]
    # Larger B => fewer rotation sweeps => lower or comparable embedding time,
    # on each B's own simulated device (the host time is printed, not gated).
    assert by_b[5]["Device (ms)"] <= by_b[1]["Device (ms)"] * 1.25
    # Quality stays in a usable band across the sweep.  Note: at twin scale
    # the rotation count is quantised (ceil(e / (B*K)) reaches 1 quickly), so
    # the paper's accuracy *degradation* at large B is muted here; the bench
    # verifies the speed mechanism and prints the AUCROC series rather than
    # asserting the degradation direction.
    aucs = [r["AUCROC (%)"] for r in figure3_rows]
    assert all(a > 55.0 for a in aucs)
    assert max(aucs) - min(aucs) < 20.0


def test_figure3_single_point_benchmark(benchmark):
    graph = load_dataset("hyperlink2012", seed=0)
    matrix_bytes = graph.num_vertices * BENCH_DIM * 4
    cfg = NORMAL.scaled(BENCH_SCALE, dim=BENCH_DIM).with_(positive_batch_per_vertex=5)

    def run():
        device = SimulatedDevice(spec=DeviceSpec(name="constrained",
                                                 memory_bytes=max(matrix_bytes // 3, 64 * 1024)))
        return GoshEmbedder(cfg, device=device).embed(graph)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.embedding.shape[0] == graph.num_vertices
