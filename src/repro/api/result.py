"""Canonical embedding result — the one output type every tool adapts into.

Each backend in this repository historically returned its own result object
(:class:`~repro.embedding.gosh.GoshResult`,
:class:`~repro.embedding.verse.VerseResult`,
:class:`~repro.baselines.mile.MileResult`,
:class:`~repro.baselines.graphvite_like.GraphViteResult`) with incompatible
fields.  :class:`EmbeddingResult` is the uniform envelope the
:class:`~repro.api.protocol.EmbeddingTool` protocol returns: the embedding
matrix plus a ``timings`` dict (stage name -> seconds), a ``stats`` dict of
per-stage counters, and tool ``metadata``.  The native result object stays
reachable through ``raw`` for callers that need backend-specific detail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..large.scheduler import LargeGraphStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..baselines.graphvite_like import GraphViteResult
    from ..baselines.mile import MileResult
    from ..embedding.gosh import GoshResult
    from ..embedding.verse import VerseResult

__all__ = ["EmbeddingResult", "summarize_large_graph_stats"]


def summarize_large_graph_stats(stats: list[LargeGraphStats]) -> dict[str, object]:
    """Aggregate partitioned-engine stats across every level that used it.

    Returns an empty dict when the engine never ran, otherwise totals over all
    levels plus the per-level partition counts (the ``K`` column of Table 9).
    """
    if not stats:
        return {}
    return {
        "levels": len(stats),
        "parts_per_level": [s.num_parts for s in stats],
        "rotations": sum(s.rotations for s in stats),
        "kernels": sum(s.kernels for s in stats),
        "positive_samples": sum(s.positive_samples for s in stats),
        "submatrix_switches": sum(s.submatrix_switches for s in stats),
        "seconds": round(sum(s.seconds for s in stats), 4),
        "pool_stall_s": round(sum(s.pool_stall_seconds for s in stats), 4),
        "pool_produce_s": round(sum(s.pool_produce_seconds for s in stats), 4),
        "max_ready_pools": max(s.max_ready_pools for s in stats),
        "oom_retries": sum(s.oom_retries for s in stats),
        "degradations": [d for s in stats for d in s.degradations],
    }


@dataclass
class EmbeddingResult:
    """Uniform output of any :class:`~repro.api.protocol.EmbeddingTool`.

    Attributes
    ----------
    embedding:
        The ``(|V|, d)`` embedding matrix.
    tool:
        Registry name of the tool that produced it (``"gosh-fast"``, …).
    graph:
        Name of the embedded graph.
    seconds:
        End-to-end wall-clock of the ``embed`` call.
    timings:
        Stage name -> seconds (e.g. ``coarsening``, ``training``).
    stats:
        Per-stage counters: coarsening level sizes, epochs per level,
        aggregated partitioned-engine totals, hierarchy-cache hit flag, …
    metadata:
        Tool configuration echo (config name, dim, seed, epochs, …).
    raw:
        The backend-native result object, for backend-specific callers.
    """

    embedding: np.ndarray
    tool: str
    graph: str
    seconds: float
    timings: dict[str, float] = field(default_factory=dict)
    stats: dict[str, object] = field(default_factory=dict)
    metadata: dict[str, object] = field(default_factory=dict)
    raw: object | None = None

    @property
    def num_vertices(self) -> int:
        return int(self.embedding.shape[0])

    @property
    def dim(self) -> int:
        return int(self.embedding.shape[1])

    def summary(self) -> dict[str, object]:
        """A flat row for table printing."""
        row: dict[str, object] = {
            "tool": self.tool,
            "graph": self.graph,
            "shape": f"{self.num_vertices}x{self.dim}",
            "seconds": round(self.seconds, 4),
        }
        row.update({f"{k}_s": round(v, 4) for k, v in self.timings.items()})
        return row

    # ------------------------------------------------------------------ #
    # Adapters from the backend-native result objects
    # ------------------------------------------------------------------ #
    @classmethod
    def from_gosh(cls, result: "GoshResult", *, tool: str, graph: str,
                  seconds: float | None = None,
                  hierarchy_cache_hit: bool | None = None) -> "EmbeddingResult":
        """Adapt a :class:`GoshResult`."""
        stats: dict[str, object] = {
            "levels": result.num_levels,
            "level_sizes": result.hierarchy.level_sizes(),
            "epochs_per_level": list(result.epochs_per_level),
            "in_memory_levels": len(result.level_stats),
            "large_graph": summarize_large_graph_stats(result.large_graph_stats),
        }
        if hierarchy_cache_hit is not None:
            stats["hierarchy_cache_hit"] = hierarchy_cache_hit
        if result.checkpoints_saved:
            stats["checkpoints_saved"] = result.checkpoints_saved
        if result.resumed_from is not None:
            stats["resumed_from"] = dict(result.resumed_from)
        return cls(
            embedding=result.embedding,
            tool=tool,
            graph=graph,
            seconds=result.total_seconds if seconds is None else seconds,
            timings={"coarsening": result.coarsening_seconds,
                     "training": result.training_seconds},
            stats=stats,
            metadata=result.config.metadata_echo(),
            raw=result,
        )

    @classmethod
    def from_verse(cls, result: "VerseResult", *, tool: str, graph: str,
                   seconds: float | None = None,
                   metadata: dict[str, object] | None = None) -> "EmbeddingResult":
        return cls(
            embedding=result.embedding,
            tool=tool,
            graph=graph,
            seconds=result.seconds if seconds is None else seconds,
            timings={"training": result.seconds},
            stats={"epochs": result.epochs},
            metadata=metadata or {},
            raw=result,
        )

    @classmethod
    def from_mile(cls, result: "MileResult", *, tool: str, graph: str,
                  seconds: float | None = None,
                  metadata: dict[str, object] | None = None) -> "EmbeddingResult":
        return cls(
            embedding=result.embedding,
            tool=tool,
            graph=graph,
            seconds=result.total_seconds if seconds is None else seconds,
            timings={
                "coarsening": result.coarsening_seconds,
                "training": result.training_seconds,
                "refinement": result.refinement_seconds,
            },
            stats={
                "levels": result.hierarchy.num_levels,
                "level_sizes": result.hierarchy.level_sizes(),
            },
            metadata=metadata or {},
            raw=result,
        )

    @classmethod
    def from_graphvite(cls, result: "GraphViteResult", *, tool: str, graph: str,
                       seconds: float | None = None,
                       metadata: dict[str, object] | None = None) -> "EmbeddingResult":
        return cls(
            embedding=result.embedding,
            tool=tool,
            graph=graph,
            seconds=result.seconds if seconds is None else seconds,
            timings={"training": result.seconds},
            stats={"episodes": result.episodes},
            metadata=metadata or {},
            raw=result,
        )
