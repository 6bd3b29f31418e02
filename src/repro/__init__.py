"""repro — a reproduction of "GOSH: Embedding Big Graphs on Small Hardware" (ICPP 2020).

The package is organised around the paper's own structure:

* :mod:`repro.graph` — CSR graph substrate, synthetic dataset generators,
  samplers, IO and partitioning.
* :mod:`repro.coarsening` — MultiEdgeCollapse (sequential and parallel), the
  MILE coarsening baseline, and the coarsening hierarchy with embedding
  projection.
* :mod:`repro.gpu` — the simulated GPU: device-memory accounting, the warp /
  small-dimension execution model, and the vectorised embedding kernels.
* :mod:`repro.embedding` — the GOSH pipeline (Algorithm 2), level trainer
  (Algorithm 3), epoch distribution, configurations (Table 3) and the VERSE
  baseline.
* :mod:`repro.large` — the out-of-memory engine (Algorithm 5): partitioning,
  inside-out rotations, sample pools, GPUState.
* :mod:`repro.eval` — the link-prediction pipeline, logistic-regression
  classifiers, and AUCROC.
* :mod:`repro.baselines` — VERSE, MILE and GraphVite-like comparators.
* :mod:`repro.api` — the unified tool layer: the ``EmbeddingTool`` protocol,
  the canonical ``EmbeddingResult``, the global tool registry, and the
  serving-oriented ``EmbeddingService`` facade.
* :mod:`repro.store` — the versioned on-disk embedding store: ``.npy``
  shards plus JSON manifests keyed by (graph fingerprint, config hash,
  tool, version), with memory-mapped loads and version GC.
* :mod:`repro.query` — k-NN similarity serving over stored embeddings:
  ``QueryEngine`` serving one blocked top-k path, with the ``exact``
  brute-force oracle behind it for tests.
* :mod:`repro.faults` — deterministic fault injection: named crossing
  points inside the training/store paths, armable by tests and the
  ``embed --inject-fault`` CLI for crash-recovery drills.
* :mod:`repro.harness` — dataset registry (Table 2 twins), experiment
  runner (registry-backed), and table formatting used by the benchmarks.

Quickstart — every backend behind one interface::

    from repro import api, graph

    g = graph.powerlaw_cluster(2000, m=3, seed=1)

    # One-off: resolve a tool from the registry and embed.
    result = api.get_tool("gosh-normal", dim=32, epoch_scale=0.05).embed(g)
    print(result.embedding.shape, result.timings)

    # Serving: the service shares coarsening hierarchies across GOSH runs.
    service = api.EmbeddingService(dim=32, epoch_scale=0.05)
    for tool in ("gosh-fast", "gosh-normal", "gosh-slow"):
        print(tool, service.embed(tool, g).seconds)   # coarsens only once
    print(api.available_tools())
"""

from . import api, baselines, coarsening, embedding, eval, faults, gpu, graph, harness, large, query, store
from .api import EmbeddingResult, EmbeddingService, available_tools, get_tool
from .embedding import FAST, NO_COARSE, NORMAL, SLOW, GoshConfig, GoshEmbedder, GoshResult, embed
from .graph import CSRGraph
from .query import QueryEngine
from .store import EmbeddingStore

__version__ = "1.6.0"

__all__ = [
    "api",
    "baselines",
    "coarsening",
    "embedding",
    "eval",
    "faults",
    "gpu",
    "graph",
    "harness",
    "large",
    "query",
    "store",
    "QueryEngine",
    "EmbeddingStore",
    "EmbeddingResult",
    "EmbeddingService",
    "available_tools",
    "get_tool",
    "FAST",
    "NO_COARSE",
    "NORMAL",
    "SLOW",
    "GoshConfig",
    "GoshEmbedder",
    "GoshResult",
    "embed",
    "CSRGraph",
    "__version__",
]
