"""repro.api — one interface over every embedding backend.

The subsystem has four pieces:

* :mod:`repro.api.protocol` — the :class:`EmbeddingTool` protocol
  (``name``, ``describe()``, ``prepare(graph)``, ``embed(graph, ...)``) and
  structured :class:`ProgressEvent` callbacks.
* :mod:`repro.api.result` — the canonical :class:`EmbeddingResult` envelope
  every backend's native result adapts into.
* :mod:`repro.api.registry` — the global name -> tool registry
  (:func:`get_tool`, :func:`available_tools`, :func:`register_tool`), one
  instance of the shared :class:`repro.registry.Registry`.
* :mod:`repro.api.service` — :class:`EmbeddingService`, the serving-oriented
  facade: batched requests, a shared coarsening-hierarchy cache, progress
  reporting, and serving counters.

Quickstart::

    from repro.api import available_tools, get_tool

    tool = get_tool("gosh-normal", dim=32, epoch_scale=0.1)
    result = tool.embed(graph)
    print(result.summary(), available_tools())
"""

from .cache import HierarchyCache, hierarchy_cache_key
from .protocol import EmbeddingTool, ProgressCallback, ProgressEvent, as_embedder
from .registry import (
    UnknownToolError,
    available_tools,
    get_tool,
    register_tool,
    tool_descriptions,
    unregister_tool,
)
from .result import EmbeddingResult, summarize_large_graph_stats
from .service import (
    BatchFailure,
    EmbedRequest,
    EmbeddingService,
    QueryRequest,
    QueryResponse,
)
from .tools import (
    BaseEmbeddingTool,
    GoshTool,
    GraphViteTool,
    MileTool,
    VerseTool,
)

__all__ = [
    "HierarchyCache",
    "hierarchy_cache_key",
    "EmbeddingTool",
    "ProgressCallback",
    "ProgressEvent",
    "as_embedder",
    "UnknownToolError",
    "available_tools",
    "get_tool",
    "register_tool",
    "tool_descriptions",
    "unregister_tool",
    "EmbeddingResult",
    "summarize_large_graph_stats",
    "EmbedRequest",
    "BatchFailure",
    "QueryRequest",
    "QueryResponse",
    "EmbeddingService",
    "BaseEmbeddingTool",
    "GoshTool",
    "GraphViteTool",
    "MileTool",
    "VerseTool",
]
