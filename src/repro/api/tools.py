"""Built-in :class:`~repro.api.protocol.EmbeddingTool` wrappers.

One wrapper per backend — GOSH (parameterised by its Table 3 configuration),
VERSE, MILE, and the GraphVite-like trainer — each adapting the backend's
native config/result pair into the uniform protocol.  All wrappers accept the
same construction options so the registry can build any of them uniformly:

* ``dim`` — embedding dimension (``None`` keeps the backend default).
* ``epoch_scale`` — multiplies the epoch budget, the harness's twin-scale
  knob (relative tool comparisons stay fair while wall-clock stays small).
* ``device`` — simulated device; ignored by the CPU-only baselines.
* ``seed`` — RNG seed (``None`` keeps the backend default).

The GOSH tools also take the three layer options of
:class:`~repro.embedding.config.GoshConfig` — ``kernel_backend``,
``sampler_backend`` and ``execution_mode`` (``None`` keeps the config's
value).  The baselines have their own training loops and no partitioned
engine, so they do not take them: passing one raises ``TypeError``.

Importing this module registers the seven built-in tools with
:data:`~repro.api.registry.TOOLS`, in the presentation order of the Table 6
suite.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from time import perf_counter

import numpy as np

from ..baselines.graphvite_like import GraphViteConfig, graphvite_embed
from ..baselines.mile import MileConfig, mile_embed
from ..embedding.checkpoint import CHECKPOINT_SUFFIX, CheckpointPolicy, latest_checkpoint
from ..embedding.config import GoshConfig, get_config
from ..embedding.gosh import GoshEmbedder
from ..embedding.verse import VerseConfig, verse_embed
from ..gpu.backends import KERNEL_BACKENDS
from ..gpu.device import SimulatedDevice
from ..graph.csr import CSRGraph
from ..graph.sampler_backends import DEFAULT_SAMPLER_BACKEND, SAMPLER_BACKENDS
from ..large.pipeline import DEFAULT_EXECUTION_MODE, EXECUTION_MODES
from .cache import HierarchyCache
from .protocol import ProgressCallback, ProgressEvent
from .registry import register_tool
from .result import EmbeddingResult

__all__ = [
    "BaseEmbeddingTool",
    "GoshTool",
    "VerseTool",
    "MileTool",
    "GraphViteTool",
]


class BaseEmbeddingTool:
    """Shared plumbing for the built-in tools.

    Subclasses set ``name``/``display_name`` and implement :meth:`embed`;
    this base provides the no-op :meth:`prepare`, the bare-callable
    compatibility shim, and progress-event emission.
    """

    name: str = "tool"
    display_name: str = "Tool"

    def describe(self) -> str:  # pragma: no cover - overridden by subclasses
        return self.__class__.__doc__.splitlines()[0] if self.__class__.__doc__ else self.name

    def prepare(self, graph: CSRGraph) -> None:
        """Warm-up hook; stateless tools have nothing to do."""

    def embed(self, graph: CSRGraph, *, device: SimulatedDevice | None = None,
              seed: int | None = None,
              progress: ProgressCallback | None = None) -> EmbeddingResult:
        raise NotImplementedError

    def __call__(self, graph: CSRGraph) -> np.ndarray:
        return self.embed(graph).embedding

    def _emit(self, progress: ProgressCallback | None, stage: str,
              graph: CSRGraph, **detail: object) -> None:
        if progress is not None:
            progress(ProgressEvent(tool=self.name, stage=stage, graph=graph.name,
                                   detail=detail))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.__class__.__name__}(name={self.name!r})"


# --------------------------------------------------------------------------- #
# GOSH
# --------------------------------------------------------------------------- #
#: Registry-name suffix for each Table 3 configuration name.
_GOSH_SUFFIX = {"fast": "fast", "normal": "normal", "slow": "slow",
                "no-coarsening": "nocoarse"}
_GOSH_DISPLAY = {"fast": "Gosh-fast", "normal": "Gosh-normal", "slow": "Gosh-slow",
                 "no-coarsening": "Gosh-NoCoarse"}


class GoshTool(BaseEmbeddingTool):
    """GOSH (Algorithm 2) in one of its Table 3 configurations.

    When a :class:`~repro.api.cache.HierarchyCache` is attached (directly or
    by the :class:`~repro.api.service.EmbeddingService`), stage 1 is skipped
    for graphs whose hierarchy is already cached.
    """

    def __init__(self, config: str | GoshConfig = "normal", *,
                 dim: int | None = None, epoch_scale: float = 1.0,
                 device: SimulatedDevice | None = None, seed: int | None = None,
                 kernel_backend: str | None = None,
                 sampler_backend: str | None = None,
                 execution_mode: str | None = None,
                 hierarchy_cache: HierarchyCache | None = None):
        cfg = get_config(config) if isinstance(config, str) else config
        overrides = {"seed": seed, "kernel_backend": kernel_backend,
                     "sampler_backend": sampler_backend,
                     "execution_mode": execution_mode}
        cfg = cfg.scaled(epoch_scale, dim=dim).with_(
            **{k: v for k, v in overrides.items() if v is not None})
        cfg.validate()
        self.config = cfg
        self.device = device
        self.hierarchy_cache = hierarchy_cache
        suffix = _GOSH_SUFFIX.get(cfg.name, cfg.name)
        self.name = f"gosh-{suffix}"
        self.display_name = _GOSH_DISPLAY.get(cfg.name, f"Gosh-{cfg.name}")
        # Checkpointing is opt-in via configure_checkpointing (wired by the
        # EmbeddingService or the embed CLI); None means embed() runs bare.
        self._ckpt_store = None
        self._ckpt_every_rotations: int | None = None
        self._ckpt_keep = 2
        self._ckpt_auto_resume = True
        self._ckpt_stop_event = None

    # ------------------------------------------------------------------ #
    def configure_checkpointing(self, store, *, every_rotations: int | None = None,
                                keep: int = 2, auto_resume: bool = True,
                                stop_event=None) -> None:
        """Attach an :class:`~repro.store.EmbeddingStore` for crash safety.

        ``every_rotations`` adds rotation-cadence checkpoints on partitioned
        levels (``None``/0 = level boundaries only); ``keep`` bounds the
        checkpoint versions retained; ``auto_resume`` makes the next
        :meth:`embed` restart from the newest compatible checkpoint;
        ``stop_event`` requests a graceful stop at the next boundary.
        """
        self._ckpt_store = store
        self._ckpt_every_rotations = every_rotations
        self._ckpt_keep = keep
        self._ckpt_auto_resume = auto_resume
        self._ckpt_stop_event = stop_event

    def sweep_checkpoints(self, fingerprint: str) -> int:
        """Drop this tool's checkpoint lineage for ``fingerprint`` (run done)."""
        if self._ckpt_store is None:
            return 0
        removed = self._ckpt_store.gc(0, fingerprint=fingerprint,
                                      tool=self.name + CHECKPOINT_SUFFIX)
        return len(removed)

    def describe(self) -> str:
        cfg = self.config
        coarse = ("MultiEdgeCollapse" if cfg.use_coarsening else "no coarsening")
        backend = f", {KERNEL_BACKENDS.canonical(cfg.kernel_backend)} kernels"
        sampler = SAMPLER_BACKENDS.canonical(cfg.sampler_backend)
        sampler = "" if sampler == DEFAULT_SAMPLER_BACKEND else f", {sampler} sampler"
        mode = EXECUTION_MODES.canonical(cfg.execution_mode)
        mode = "" if mode == DEFAULT_EXECUTION_MODE else f", {mode} execution"
        # Serving observability: when a hierarchy cache is attached (directly
        # or by the EmbeddingService), its behaviour shows up in `tools` /
        # query output instead of being invisible state.
        cache = ""
        if self.hierarchy_cache is not None:
            s = self.hierarchy_cache.stats()
            cache = (f"; hierarchy cache: {s['entries']} entries, "
                     f"{s['hits']} hits, {s['misses']} misses")
        return (f"GOSH {cfg.name}: p={cfg.smoothing_ratio}, lr={cfg.learning_rate}, "
                f"e={cfg.epochs}, {coarse}{backend}{sampler}{mode} (GPU, multilevel)"
                f"{cache}")

    def prepare(self, graph: CSRGraph) -> None:
        """Pre-build (and cache) the coarsening hierarchy for ``graph``.

        Calling ``prepare`` is the explicit opt-in to caching: it attaches a
        private :class:`HierarchyCache` when none is wired in yet.
        """
        if self.hierarchy_cache is None:
            self.hierarchy_cache = HierarchyCache()
        embedder = GoshEmbedder(self.config, device=self.device)
        self.hierarchy_cache.get_or_build(graph, self.config,
                                          lambda: embedder.coarsen(graph))

    def embed(self, graph: CSRGraph, *, device: SimulatedDevice | None = None,
              seed: int | None = None,
              progress: ProgressCallback | None = None) -> EmbeddingResult:
        cfg = self.config if seed is None else self.config.with_(seed=seed)
        embedder = GoshEmbedder(cfg, device=device or self.device)
        t0 = perf_counter()

        self._emit(progress, "coarsen", graph, threshold=cfg.coarsening_threshold)
        # Without an attached cache every run coarsens from scratch, keeping
        # the paper's timing semantics; caching is opt-in via prepare(), the
        # constructor, or the EmbeddingService.
        if self.hierarchy_cache is not None:
            hierarchy, coarsen_seconds, cache_hit = self.hierarchy_cache.get_or_build(
                graph, cfg, lambda: embedder.coarsen(graph))
        else:
            hierarchy, coarsen_seconds = embedder.coarsen(graph)
            cache_hit = False
        self._emit(progress, "train", graph, levels=hierarchy.num_levels,
                   hierarchy_cache_hit=cache_hit)
        checkpoint = resume = None
        if self._ckpt_store is not None:
            fp = graph.fingerprint()
            meta = cfg.metadata_echo()
            # Write checkpoints only when asked for a cadence or when a stop
            # event needs a boundary snapshot to land on; a store configured
            # purely for auto-resume (the service default) must not turn
            # every embed into extra store writes.
            if (self._ckpt_every_rotations is not None
                    or self._ckpt_stop_event is not None):
                checkpoint = CheckpointPolicy(
                    store=self._ckpt_store, fingerprint=fp, tool=self.name,
                    metadata=meta, graph_name=graph.name,
                    every_rotations=self._ckpt_every_rotations or None,
                    keep=self._ckpt_keep, stop_event=self._ckpt_stop_event)
            if self._ckpt_auto_resume:
                resume = latest_checkpoint(self._ckpt_store, fp, self.name,
                                           metadata=meta)
                if resume is not None:
                    self._emit(progress, "resume", graph,
                               level=resume.level, rotation=resume.rotation,
                               version=resume.entry.version)
        result = embedder.embed(graph, hierarchy=hierarchy,
                                checkpoint=checkpoint, resume=resume)
        # The embedder saw a pre-built hierarchy and reports coarsening as
        # free; patch the native result so `raw` tells the same story as the
        # envelope (build time on a miss, ~lookup time on a hit).
        result.coarsening_seconds = coarsen_seconds
        result.total_seconds += coarsen_seconds
        seconds = perf_counter() - t0
        self._emit(progress, "done", graph, seconds=round(seconds, 4))
        return EmbeddingResult.from_gosh(
            result, tool=self.name, graph=graph.name, seconds=seconds,
            hierarchy_cache_hit=cache_hit)


# --------------------------------------------------------------------------- #
# Baselines
# --------------------------------------------------------------------------- #
class VerseTool(BaseEmbeddingTool):
    """VERSE — the CPU single-level baseline and Table 6/7 speed reference.

    Defaults follow the harness's twin-scale convention (adjacency
    similarity, lr matched to the other tools); pass
    ``similarity="ppr", learning_rate=0.0025`` for the paper's full-size
    settings.
    """

    name = "verse"
    display_name = "Verse"

    def __init__(self, *, dim: int | None = None, epoch_scale: float = 1.0,
                 device: SimulatedDevice | None = None, seed: int | None = None,
                 epochs: int = 600, learning_rate: float = 0.045,
                 similarity: str = "adjacency", **config_overrides):
        del device  # CPU-only tool; accepted for registry uniformity.
        self.config = VerseConfig(
            dim=dim if dim is not None else VerseConfig.dim,
            epochs=max(1, int(epochs * epoch_scale)),
            learning_rate=learning_rate,
            similarity=similarity,
            seed=seed if seed is not None else VerseConfig.seed,
            **config_overrides,
        )

    def describe(self) -> str:
        cfg = self.config
        return (f"VERSE: single-level CPU baseline, {cfg.similarity} similarity, "
                f"lr={cfg.learning_rate}, e={cfg.epochs}")

    def embed(self, graph: CSRGraph, *, device: SimulatedDevice | None = None,
              seed: int | None = None,
              progress: ProgressCallback | None = None) -> EmbeddingResult:
        cfg = self.config if seed is None else replace(self.config, seed=seed)
        self._emit(progress, "train", graph, epochs=cfg.epochs)
        t0 = perf_counter()
        result = verse_embed(graph, cfg)
        seconds = perf_counter() - t0
        self._emit(progress, "done", graph, seconds=round(seconds, 4))
        return EmbeddingResult.from_verse(
            result, tool=self.name, graph=graph.name, seconds=seconds,
            metadata={"dim": cfg.dim, "similarity": cfg.similarity,
                      "learning_rate": cfg.learning_rate, "seed": cfg.seed})


class MileTool(BaseEmbeddingTool):
    """MILE — coarsen, embed only the coarsest graph, refine upward."""

    name = "mile"
    display_name = "Mile"

    def __init__(self, *, dim: int | None = None, epoch_scale: float = 1.0,
                 device: SimulatedDevice | None = None, seed: int | None = None,
                 base_epochs: int = 200, **config_overrides):
        del device  # CPU-only tool; accepted for registry uniformity.
        self.config = MileConfig(
            dim=dim if dim is not None else MileConfig.dim,
            base_epochs=max(1, int(base_epochs * epoch_scale)),
            seed=seed if seed is not None else MileConfig.seed,
            **config_overrides,
        )

    def describe(self) -> str:
        cfg = self.config
        return (f"MILE: {cfg.coarsening_levels}-level coarsening, coarsest-only "
                f"training (e={cfg.base_epochs}), GCN-style refinement")

    def embed(self, graph: CSRGraph, *, device: SimulatedDevice | None = None,
              seed: int | None = None,
              progress: ProgressCallback | None = None) -> EmbeddingResult:
        cfg = self.config if seed is None else replace(self.config, seed=seed)
        self._emit(progress, "train", graph, levels=cfg.coarsening_levels)
        t0 = perf_counter()
        result = mile_embed(graph, cfg)
        seconds = perf_counter() - t0
        self._emit(progress, "done", graph, seconds=round(seconds, 4))
        return EmbeddingResult.from_mile(
            result, tool=self.name, graph=graph.name, seconds=seconds,
            metadata={"dim": cfg.dim, "base_epochs": cfg.base_epochs, "seed": cfg.seed})


class GraphViteTool(BaseEmbeddingTool):
    """GraphVite-like — episodic GPU training, fails when the matrix doesn't fit."""

    name = "graphvite"
    display_name = "Graphvite"

    def __init__(self, *, dim: int | None = None, epoch_scale: float = 1.0,
                 device: SimulatedDevice | None = None, seed: int | None = None,
                 epochs: int = 600, learning_rate: float = 0.05, **config_overrides):
        self.device = device
        self.config = GraphViteConfig(
            dim=dim if dim is not None else GraphViteConfig.dim,
            epochs=max(1, int(epochs * epoch_scale)),
            learning_rate=learning_rate,
            seed=seed if seed is not None else GraphViteConfig.seed,
            **config_overrides,
        )

    def describe(self) -> str:
        cfg = self.config
        return (f"GraphVite-like: episodic single-level GPU training, "
                f"deg^{cfg.negative_power} negatives, e={cfg.epochs}; "
                "raises DeviceMemoryError when the embedding does not fit")

    def embed(self, graph: CSRGraph, *, device: SimulatedDevice | None = None,
              seed: int | None = None,
              progress: ProgressCallback | None = None) -> EmbeddingResult:
        cfg = self.config if seed is None else replace(self.config, seed=seed)
        self._emit(progress, "train", graph, epochs=cfg.epochs)
        t0 = perf_counter()
        result = graphvite_embed(graph, cfg, device=device or self.device)
        seconds = perf_counter() - t0
        self._emit(progress, "done", graph, seconds=round(seconds, 4))
        return EmbeddingResult.from_graphvite(
            result, tool=self.name, graph=graph.name, seconds=seconds,
            metadata={"dim": cfg.dim, "epochs": cfg.epochs, "seed": cfg.seed})


# Built-ins, in the presentation order of the Table 6 suite.
register_tool("verse", VerseTool)
register_tool("mile", MileTool)
register_tool("graphvite", GraphViteTool)
register_tool("gosh-fast", partial(GoshTool, "fast"))
register_tool("gosh-normal", partial(GoshTool, "normal"), aliases=("gosh",))
register_tool("gosh-slow", partial(GoshTool, "slow"))
register_tool("gosh-nocoarse", partial(GoshTool, "no-coarsening"),
              aliases=("gosh-no-coarsening",))
