"""Ablations on the coarsening design choices (paper Section 3.2).

Two of MultiEdgeCollapse's ingredients are ablated:

* the hub-collision rule (``|Γ(u)|, |Γ(v)| ≤ δ`` check) — disabling it lets
  giant super vertices form, which hurts coarsening *balance*;
* the decreasing-degree processing order — an arbitrary order lets small
  vertices lock hubs, which hurts coarsening *efficiency* (shrink rate).
"""

from __future__ import annotations

import pytest

from repro.coarsening import (
    collapse_once,
    multi_edge_collapse,
    summarize,
    super_vertex_balance,
)
from repro.harness import load_dataset, print_table


@pytest.fixture(scope="module")
def graph():
    return load_dataset("com-orkut", seed=0)


def test_ablation_hub_rule(graph):
    import numpy as np

    with_rule, k_with = collapse_once(graph, hub_rule=True)
    without_rule, k_without = collapse_once(graph, hub_rule=False)
    max_with = int(np.bincount(with_rule).max())
    max_without = int(np.bincount(without_rule).max())
    rows = [
        {"variant": "hub rule ON", "clusters": k_with, "largest cluster": max_with,
         "max/mean cluster size": round(super_vertex_balance(with_rule), 2)},
        {"variant": "hub rule OFF", "clusters": k_without, "largest cluster": max_without,
         "max/mean cluster size": round(super_vertex_balance(without_rule), 2)},
    ]
    print_table(rows, title="Ablation — hub-collision rule (com-orkut twin)")
    # Without the rule, hubs merge into each other and the largest super
    # vertex grows (the "giant vertex sets" the paper's rule avoids).
    assert max_without >= max_with


def test_ablation_degree_ordering(graph):
    ordered = multi_edge_collapse(graph, threshold=100, use_degree_order=True)
    arbitrary = multi_edge_collapse(graph, threshold=100, use_degree_order=False)
    rows = [
        {"variant": "degree order", **summarize(ordered).as_row()},
        {"variant": "natural order", **summarize(arbitrary).as_row()},
    ]
    print_table(rows, title="Ablation — vertex processing order (com-orkut twin)")
    # Degree ordering must not shrink more slowly than the arbitrary order
    # (paper: it substantially increases coarsening efficiency).
    assert summarize(ordered).mean_shrink_rate >= summarize(arbitrary).mean_shrink_rate * 0.9


def test_ablation_hub_rule_benchmark(benchmark, graph):
    benchmark.pedantic(lambda: collapse_once(graph, hub_rule=True), rounds=2, iterations=1)
