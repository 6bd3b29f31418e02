"""Coarsening quality metrics.

Section 3.2 defines two notions:

* **efficiency** at level i — the shrink rate ``(|V_{i-1}| - |V_i|) / |V_{i-1}|``,
* **effectiveness** — how well the coarse hierarchy preserves the structure
  that embedding needs.  The paper measures effectiveness indirectly through
  downstream AUCROC; here we additionally expose cheap structural proxies
  (edge retention, hub-merge counts, super-vertex balance) that the ablation
  benches report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph
from .multi_edge_collapse import CoarseningResult

__all__ = [
    "shrink_rates",
    "edge_retention",
    "hub_merge_count",
    "super_vertex_balance",
    "CoarseningReport",
    "summarize",
]


def shrink_rates(result: CoarseningResult) -> list[float]:
    """Per-level coarsening efficiency: (|V_{i-1}| - |V_i|) / |V_{i-1}|."""
    sizes = result.level_sizes
    return [
        (sizes[i - 1] - sizes[i]) / sizes[i - 1] if sizes[i - 1] > 0 else 0.0
        for i in range(1, len(sizes))
    ]


def edge_retention(result: CoarseningResult) -> list[float]:
    """Fraction of (coarse) edges surviving at each level relative to level 0."""
    base = max(result.graphs[0].num_edges, 1)
    return [g.num_edges / base for g in result.graphs]


def hub_merge_count(graph: CSRGraph, mapping: np.ndarray) -> int:
    """Number of clusters containing two or more hub vertices.

    A *hub* is a vertex with degree above the graph density δ = |E|/|V|.
    The hub-collision rule is designed to keep this number at zero when two
    hubs are adjacent; hubs may still share a cluster only if a third vertex
    pulled them together, which the sequential algorithm forbids.
    """
    delta = graph.num_edges / max(graph.num_vertices, 1)
    is_hub = graph.degrees > delta
    if not np.any(is_hub):
        return 0
    num_clusters = int(mapping.max()) + 1 if mapping.size else 0
    hubs_per_cluster = np.bincount(mapping[is_hub], minlength=num_clusters)
    return int(np.sum(hubs_per_cluster >= 2))


def super_vertex_balance(mapping: np.ndarray) -> float:
    """Max cluster size divided by mean cluster size (1.0 == perfectly balanced).

    Giant super vertices are precisely what the hub rule tries to avoid.
    """
    if mapping.size == 0:
        return 1.0
    counts = np.bincount(mapping)
    counts = counts[counts > 0]
    return float(counts.max() / counts.mean())


@dataclass
class CoarseningReport:
    """Aggregate report for a coarsening run (used by the coarsening benchmarks)."""

    num_levels: int
    level_sizes: list[int]
    shrink_rates: list[float]
    total_time: float
    last_level_size: int
    mean_shrink_rate: float

    def as_row(self) -> dict[str, object]:
        return {
            "D": self.num_levels,
            "|V_{D-1}|": self.last_level_size,
            "time_s": round(self.total_time, 4),
            "mean_shrink": round(self.mean_shrink_rate, 3),
            "sizes": self.level_sizes,
        }


def summarize(result: CoarseningResult) -> CoarseningReport:
    rates = shrink_rates(result)
    return CoarseningReport(
        num_levels=result.num_levels,
        level_sizes=result.level_sizes,
        shrink_rates=rates,
        total_time=result.total_time(),
        last_level_size=result.graphs[-1].num_vertices,
        mean_shrink_rate=float(np.mean(rates)) if rates else 0.0,
    )
