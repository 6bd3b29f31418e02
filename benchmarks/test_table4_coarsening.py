"""Table 4 — sequential vs parallel coarsening on the large-scale twins.

The paper reports, per large graph: coarsening time for τ=1 and τ=32, the
speedup, the number of levels D, and the last-level size |V_{D-1}|.  Here the
"parallel" algorithm is the vectorised implementation (see
:mod:`repro.coarsening.parallel_collapse`), so the speedup column measures
vectorised-vs-scalar on the same machine; the shape claim (parallel much
faster, same level structure) is what is verified.
"""

from __future__ import annotations

import pytest

from repro.coarsening import multi_edge_collapse, parallel_multi_edge_collapse
from repro.harness import LARGE_DATASETS, load_dataset, print_table


@pytest.fixture(scope="module")
def table4_rows():
    rows = []
    for spec in LARGE_DATASETS:
        graph = load_dataset(spec.name, seed=0)
        seq = multi_edge_collapse(graph, threshold=100)
        par = parallel_multi_edge_collapse(graph, threshold=100)
        speedup = seq.total_time() / max(par.total_time(), 1e-9)
        rows.append({
            "Graph": spec.name,
            "seq time (s)": round(seq.total_time(), 4),
            "par time (s)": round(par.total_time(), 4),
            "Speedup": f"{speedup:.2f}x",
            "D (seq)": seq.num_levels,
            "D (par)": par.num_levels,
            "|V_D-1| (seq)": seq.graphs[-1].num_vertices,
            "|V_D-1| (par)": par.graphs[-1].num_vertices,
        })
    return rows


def test_table4_parallel_coarsening_speedup(table4_rows):
    print_table(table4_rows, title="Table 4 — sequential vs parallel coarsening")
    for row in table4_rows:
        # the parallel algorithm must win on every large twin
        assert float(row["Speedup"].rstrip("x")) > 1.0
        # and produce a comparable hierarchy (levels within 2, similar shrink)
        assert abs(row["D (seq)"] - row["D (par)"]) <= 2


def test_table4_sequential_coarsening_benchmark(benchmark):
    graph = load_dataset("soc-sinaweibo", seed=0)
    result = benchmark.pedantic(lambda: multi_edge_collapse(graph, threshold=100),
                                rounds=1, iterations=1)
    assert result.num_levels >= 2


def test_table4_parallel_coarsening_benchmark(benchmark):
    graph = load_dataset("soc-sinaweibo", seed=0)
    result = benchmark.pedantic(lambda: parallel_multi_edge_collapse(graph, threshold=100),
                                rounds=3, iterations=1)
    assert result.num_levels >= 2
