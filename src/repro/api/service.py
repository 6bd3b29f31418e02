"""`EmbeddingService` — the serving-oriented entry point over the registry.

The service is what a request-handling deployment of this system would sit
behind: callers submit embed (or embed-and-evaluate) requests by tool *name*,
and the service

* resolves tools through the global registry, memoising one configured
  instance per name,
* shares one :class:`~repro.api.cache.HierarchyCache` across every GOSH
  variant, so repeated runs on the same graph — a fast/normal/slow sweep, or
  the same graph arriving in many requests — pay for MultiEdgeCollapse once,
* processes batches of :class:`EmbedRequest` objects sequentially while
  reporting structured progress through callbacks,
* serves k-NN queries through :meth:`EmbeddingService.query` — the
  embed-if-missing facade over the :class:`~repro.store.EmbeddingStore` and
  :class:`~repro.query.QueryEngine` — microbatching concurrent
  :class:`QueryRequest` batches that hit the same engine,
* keeps serving counters (requests served, cache hit rate, store and query
  stats) for observability.

Example::

    from repro.api import EmbeddingService

    service = EmbeddingService(dim=32, epoch_scale=0.05, store="embeddings/")
    first = service.embed("gosh-normal", graph)      # coarsens
    second = service.embed("gosh-fast", graph)       # reuses the hierarchy
    assert second.stats["hierarchy_cache_hit"]
    answer = service.query("gosh-fast", graph, vertices=[0, 7], k=5)
    assert answer.store_hit                          # served off the store
"""

from __future__ import annotations

import ctypes
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..graph.csr import CSRGraph
from .cache import HierarchyCache
from .protocol import EmbeddingTool, ProgressCallback
from .registry import get_tool
from .result import EmbeddingResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..eval.link_prediction import LinkPredictionResult
    from ..gpu.device import SimulatedDevice
    from ..query.engine import QueryEngine, QueryResult
    from ..store.store import EmbeddingStore, StoreEntry

__all__ = ["EmbedRequest", "BatchFailure", "QueryRequest", "QueryResponse",
           "EmbeddingService"]


def _release_freed_heap() -> None:
    """Return the heap an embed freed to the OS (glibc; a no-op elsewhere).

    glibc keeps freed heap pages mapped unless they sit at the top of the
    heap, so how much of an embed's temporaries a resident process keeps
    depends on allocation layout alone: after a 100k x 32 embed, 25 or 52
    MB, switched by the checkout's path or by code the embed never runs.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim(0)


@dataclass
class EmbedRequest:
    """One unit of service work: embed ``graph`` with the named tool.

    ``evaluate=True`` additionally runs the link-prediction pipeline on the
    result (the embedding is then trained on the 80% split, as in the paper).
    """

    tool: str | EmbeddingTool
    graph: CSRGraph
    seed: int | None = None
    evaluate: bool = False
    classifier: str = "logistic"


@dataclass
class BatchFailure:
    """Recorded in place of a result when one request of a batch fails.

    Batches are isolated per request: a failing request (e.g. GraphVite's
    expected :class:`~repro.gpu.device.DeviceMemoryError` on a graph that
    does not fit the device) must not abort the batch or discard the results
    that already completed.  ``error`` is the exception the tool raised.
    Detect failures with ``isinstance(entry, BatchFailure)``.
    """

    request: EmbedRequest
    error: Exception

    @property
    def tool(self) -> str:
        name = self.request.tool
        return name if isinstance(name, str) else name.name


@dataclass
class QueryRequest:
    """One k-NN unit of service work against the named tool's embedding.

    Exactly one of ``vertices`` (ids into the stored matrix; ``exclude_self``
    applies) or ``vectors`` (raw ``(d,)``/``(Q, d)`` query vectors) must be
    set.  ``metric``/``backend`` of ``None`` inherit the service defaults.
    ``vertex_range`` restricts candidate rows to ``[lo, hi)`` — the sharded
    serving tier's routing primitive; score bits for surviving rows match an
    unranged run exactly.
    """

    tool: str | EmbeddingTool
    graph: CSRGraph
    vertices: "np.ndarray | list[int] | int | None" = None
    vectors: "np.ndarray | None" = None
    k: int = 10
    metric: str | None = None
    backend: str | None = None
    exclude_self: bool = True
    config_hash: str | None = None    # pin a specific store lineage
    vertex_range: "tuple[int, int] | None" = None
    # Optional tracing context ({"id", "parent"[, "span"]}): carried for
    # observability only, never consulted by the query path itself.
    trace: "dict[str, str] | None" = None

    def __post_init__(self) -> None:
        if (self.vertices is None) == (self.vectors is None):
            raise ValueError("set exactly one of vertices= or vectors=")
        if self.vertex_range is not None:
            lo, hi = int(self.vertex_range[0]), int(self.vertex_range[1])
            if not 0 <= lo < hi:
                raise ValueError(
                    f"vertex_range [{lo}, {hi}) must satisfy 0 <= lo < hi")
            self.vertex_range = (lo, hi)

    @property
    def num_queries(self) -> int:
        if self.vectors is not None:
            return int(np.atleast_2d(np.asarray(self.vectors)).shape[0])
        return int(np.atleast_1d(np.asarray(self.vertices)).shape[0])


@dataclass
class QueryResponse:
    """A :class:`~repro.query.engine.QueryResult` plus its serving provenance.

    ``store_hit`` is False when the request triggered the embed-if-missing
    path (the graph had no stored embedding for the tool, so the service
    embedded and saved it first); ``entry`` is the store version that
    answered.
    """

    result: "QueryResult"
    entry: "StoreEntry"
    store_hit: bool

    # Convenience pass-throughs so callers can treat the response as a result.
    @property
    def ids(self) -> np.ndarray:
        return self.result.ids

    @property
    def scores(self) -> np.ndarray:
        return self.result.scores


@dataclass(frozen=True)
class _EngineKey:
    """Identity of a memoised QueryEngine: store version x query settings."""

    path: str
    metric: str
    backend: str | None = field(default=None)


class EmbeddingService:
    """Batched, cached, registry-backed facade over every embedding tool."""

    def __init__(self, *, dim: int | None = None, epoch_scale: float = 1.0,
                 device: "SimulatedDevice | None" = None, seed: int = 0,
                 cache_entries: int = 8,
                 progress: ProgressCallback | None = None,
                 store: "EmbeddingStore | str | os.PathLike | None" = None,
                 metric: str = "cosine",
                 query_backend: str | None = None,
                 query_block_rows: int = 4096,
                 engine_cache_entries: int = 8,
                 checkpoint_every_rotations: int | None = None,
                 auto_resume: bool = True):
        self.dim = dim
        self.epoch_scale = epoch_scale
        self.device = device
        self.seed = seed
        self.progress = progress
        self.hierarchy_cache = HierarchyCache(max_entries=cache_entries)
        self.requests_served = 0
        self.requests_failed = 0
        self.queries_served = 0
        self.microbatches = 0
        self.metric = metric
        self.query_backend = query_backend
        self.query_block_rows = query_block_rows
        # Validate the query knobs eagerly: discovering a bad block size or
        # metric only after an embed-if-missing has spent minutes training
        # would waste the whole run.
        from ..query.backends import METRICS

        if engine_cache_entries < 1:
            raise ValueError("engine_cache_entries must be >= 1")
        if query_block_rows < 1:
            raise ValueError("query_block_rows must be >= 1")
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; options: {', '.join(METRICS)}")
        self.engine_cache_entries = engine_cache_entries
        self.store = self._coerce_store(store)
        self._tools: dict[str, EmbeddingTool] = {}
        # LRU-bounded like the hierarchy cache: engines hold mmaps open, and
        # an unbounded memo would pin shard files of versions gc() removed.
        self._engines: "OrderedDict[_EngineKey, QueryEngine]" = OrderedDict()
        # (fingerprint, tool, pinned config hash) -> resolved store entry, so
        # serving does not re-scan manifests on every request of a batch.
        # LRU-bounded like the engine cache (entries pin their manifests).
        self._entries: "OrderedDict[tuple[str, str, str | None], StoreEntry]" = OrderedDict()
        # Counters of engines that aged out of the LRU, so stats() stays
        # cumulative instead of shrinking on eviction.
        self._evicted_batches = 0
        self._evicted_rows_scored = 0
        self._evicted_query_seconds = 0.0
        self.engine_cache_hits = 0
        self.engine_cache_misses = 0
        self.engine_cache_evictions = 0
        # The resident server calls query_batch from a worker thread while
        # its stats verb reads the snapshot from the event loop; one lock
        # makes both entries safe without callers coordinating.
        self._serving_lock = threading.RLock()
        # Crash safety for store-backed embeds: when a store is attached,
        # service-resolved GOSH tools checkpoint into it and auto-resume
        # (see GoshTool.configure_checkpointing).
        self.checkpoint_every_rotations = checkpoint_every_rotations
        self.auto_resume = auto_resume
        # Single-flight embed-on-miss: concurrent queries that miss the same
        # (graph, tool) lineage must not each train an embedding.  One caller
        # owns the miss; the rest wait on a per-lineage latch and re-resolve.
        self._miss_lock = threading.Lock()
        self._inflight_embeds: dict[tuple[str, str], threading.Event] = {}
        self.embeds_deduped = 0

    @staticmethod
    def _coerce_store(store: "EmbeddingStore | str | os.PathLike | None",
                      ) -> "EmbeddingStore | None":
        if store is None:
            return None
        from ..store.store import EmbeddingStore

        if isinstance(store, EmbeddingStore):
            return store
        return EmbeddingStore(store)

    # ------------------------------------------------------------------ #
    # Tool resolution
    # ------------------------------------------------------------------ #
    def tool(self, name: str | EmbeddingTool) -> EmbeddingTool:
        """Resolve (and memoise) a configured tool, wiring in the shared cache.

        Caller-supplied tool instances are used as-is — their cache state
        (pre-warmed or deliberately absent) belongs to the caller; only tools
        the service resolves itself join the shared hierarchy cache.
        """
        if not isinstance(name, str):
            return name
        key = name.strip().lower()
        if key not in self._tools:
            tool = get_tool(key, dim=self.dim, epoch_scale=self.epoch_scale,
                            device=self.device, seed=self.seed)
            # GOSH variants expose `hierarchy_cache`; all of them share ours
            # so a hierarchy built for one configuration serves every other
            # one with the same coarsening knobs.
            if hasattr(tool, "hierarchy_cache") and tool.hierarchy_cache is None:
                tool.hierarchy_cache = self.hierarchy_cache
            # Store-backed services get crash-safe embeds: GOSH tools
            # checkpoint into the same store and resume interrupted runs.
            if self.store is not None and hasattr(tool, "configure_checkpointing"):
                tool.configure_checkpointing(
                    self.store,
                    every_rotations=self.checkpoint_every_rotations,
                    auto_resume=self.auto_resume)
            self._tools[key] = tool
        return self._tools[key]

    def prepare(self, name: str | EmbeddingTool, graph: CSRGraph) -> None:
        """Warm the tool (and the shared hierarchy cache) for ``graph``."""
        self.tool(name).prepare(graph)

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def embed(self, name: str | EmbeddingTool, graph: CSRGraph, *,
              seed: int | None = None,
              progress: ProgressCallback | None = None) -> EmbeddingResult:
        """Embed one graph with the named tool.

        The result is stamped with ``metadata["graph_fingerprint"]`` so it can
        be handed to an :class:`~repro.store.EmbeddingStore` without carrying
        the graph alongside it.
        """
        tool = self.tool(name)
        result = tool.embed(graph, seed=seed, progress=progress or self.progress)
        result.metadata.setdefault("graph_fingerprint", graph.fingerprint())
        self.requests_served += 1
        return result

    def evaluate(self, name: str | EmbeddingTool, graph: CSRGraph, *,
                 seed: int | None = None, classifier: str = "logistic",
                 ) -> "LinkPredictionResult":
        """Run the link-prediction pipeline around the named tool."""
        from ..eval.link_prediction import run_link_prediction

        tool = self.tool(name)
        # run_link_prediction forwards its seed to the tool's embed call, so
        # a per-request seed governs the embedding as well as the split.
        result = run_link_prediction(graph, tool, classifier=classifier,
                                     seed=self.seed if seed is None else seed)
        self.requests_served += 1
        return result

    def embed_batch(self, requests: Iterable[EmbedRequest],
                    ) -> list[EmbeddingResult | "LinkPredictionResult | BatchFailure"]:
        """Process a batch of requests in order, isolating failures.

        Requests on the same graph share cached hierarchies, so a batch that
        sweeps GOSH configurations over one graph coarsens it exactly once.

        Each request is error-isolated: a failing request (e.g. GraphVite's
        expected ``DeviceMemoryError`` on an over-budget graph) contributes a
        :class:`BatchFailure` entry at its position and the batch continues —
        completed results are never discarded.  Tool *resolution* stays
        outside the isolation: an unknown tool name or invalid backend option
        is a programming error in the batch itself and still raises.
        """
        results: list[EmbeddingResult | LinkPredictionResult | BatchFailure] = []
        for request in requests:
            tool = self.tool(request.tool)
            try:
                if request.evaluate:
                    results.append(self.evaluate(tool, request.graph,
                                                 seed=request.seed,
                                                 classifier=request.classifier))
                else:
                    results.append(self.embed(tool, request.graph,
                                              seed=request.seed))
            except Exception as exc:
                self.requests_failed += 1
                results.append(BatchFailure(request=request, error=exc))
        return results

    # ------------------------------------------------------------------ #
    # Query serving (embed-if-missing -> store -> query)
    # ------------------------------------------------------------------ #
    def _require_store(self) -> "EmbeddingStore":
        if self.store is None:
            raise ValueError(
                "query serving is store-backed: construct the service with "
                "store=<dir or EmbeddingStore> to enable EmbeddingService.query")
        return self.store

    def ensure_stored(self, name: str | EmbeddingTool, graph: CSRGraph, *,
                      config_hash: str | None = None,
                      ) -> "tuple[StoreEntry, bool]":
        """Return ``(entry, store_hit)`` for the tool/graph pair.

        On a miss the graph is embedded and the result saved as the lineage's
        next version — the "embed-if-missing" half of :meth:`query`.  A store
        entry only counts as a hit when it is *servable* under this service's
        configuration (matching embedding dimension): an entry trained with
        different settings is treated as missing rather than silently served.
        A pinned ``config_hash`` means "serve exactly this validated
        lineage": when no such lineage exists the call *raises* — embedding
        under the service's own configuration would hand back a different
        lineage than the one pinned.  Resolved entries are memoised per
        (graph, tool, pin) and re-validated against the version directory,
        so batches do not re-scan manifests but a gc'd version is noticed
        and re-resolved instead of served blind.

        Misses are **single-flight**: concurrent callers missing the same
        (graph, tool) lineage elect one owner to embed; the rest wait on a
        per-lineage latch (counted in ``embeds_deduped``) and serve the
        owner's saved entry.  If the owner fails, a waiter claims ownership
        and retries, so a transient failure does not strand the queue.
        """
        from ..store.store import StoreError

        store = self._require_store()
        tool = self.tool(name)
        fingerprint = graph.fingerprint()
        key = (fingerprint, tool.name, config_hash)
        flight = (fingerprint, tool.name)
        while True:
            with self._serving_lock:
                entry = self._resolve_entry_locked(store, tool, fingerprint,
                                                   config_hash)
            if entry is not None:
                return entry, True
            if config_hash is not None:
                raise StoreError(
                    f"no servable entry for pinned config {config_hash!r} "
                    f"(graph {fingerprint[:12]}…, tool {tool.name!r}); drop the pin "
                    "to embed-if-missing under the service configuration")
            with self._miss_lock:
                latch = self._inflight_embeds.get(flight)
                if latch is None:
                    self._inflight_embeds[flight] = threading.Event()
                else:
                    self.embeds_deduped += 1
            if latch is not None:
                # Another thread owns this miss: wait it out, then loop to
                # re-resolve (or claim ownership if the owner failed).
                latch.wait()
                continue
            try:
                result = self.embed(tool, graph)
                saved = store.save(result, fingerprint=fingerprint)
                del result
                _release_freed_heap()
                with self._serving_lock:
                    self._entries[key] = saved
                    self._trim_entry_memo()
                # The run landed durably; its checkpoint lineage is spent.
                if hasattr(tool, "sweep_checkpoints"):
                    tool.sweep_checkpoints(fingerprint)
                return saved, False
            finally:
                with self._miss_lock:
                    done = self._inflight_embeds.pop(flight, None)
                if done is not None:
                    done.set()

    def _resolve_entry_locked(self, store: "EmbeddingStore", tool: EmbeddingTool,
                              fingerprint: str, config_hash: str | None,
                              ) -> "StoreEntry | None":
        """Memoised store lookup (no embed); call under the serving lock."""
        key = (fingerprint, tool.name, config_hash)
        cached = self._entries.get(key)
        if cached is not None:
            if cached.path.is_dir():
                self._entries.move_to_end(key)
                return cached
            # The version vanished underneath us (gc or external cleanup):
            # drop it and any engines still mmapping its shards.
            del self._entries[key]
            for stale in [k for k in self._engines if k.path == str(cached.path)]:
                self._drop_engine(stale)
        entry = store.latest(
            fingerprint, tool.name, config_hash=config_hash,
            # Filter before picking newest: a newer entry from an
            # incompatible lineage must not mask an older servable one
            # (that would re-embed on every alternation between services).
            where=lambda e: self.dim is None or e.shape[1] == self.dim)
        if entry is not None:
            self._entries[key] = entry
            self._trim_entry_memo()
        return entry

    #: Resolved-entry memo bound; entries are small (one manifest each) but
    #: a long-lived service over many graphs must not grow without limit.
    _ENTRY_MEMO_MAX = 256

    def _trim_entry_memo(self) -> None:
        while len(self._entries) > self._ENTRY_MEMO_MAX:
            self._entries.popitem(last=False)

    def _engine_for(self, entry: "StoreEntry", *, metric: str | None,
                    backend: str | None) -> "QueryEngine":
        """Memoise one engine per (store version, metric, backend).

        The matrix is loaded memory-mapped, so engines over large stored
        embeddings cost address space, not resident copies.
        """
        from ..query.engine import QueryEngine

        store = self._require_store()
        key = _EngineKey(path=str(entry.path), metric=metric or self.metric,
                         backend=backend or self.query_backend)
        if key not in self._engines:
            self.engine_cache_misses += 1
            loaded = store.load_entry(entry, mmap=True)
            self._engines[key] = QueryEngine(
                loaded.embedding, metric=key.metric, backend=key.backend,
                block_rows=self.query_block_rows)
        else:
            self.engine_cache_hits += 1
            self._engines.move_to_end(key)
        return self._engines[key]

    def _drop_engine(self, key: _EngineKey) -> None:
        """Evict an engine, folding its counters into the cumulative totals."""
        engine = self._engines.pop(key)
        self.engine_cache_evictions += 1
        self._evicted_batches += engine.batches_served
        self._evicted_rows_scored += engine.rows_scored
        self._evicted_query_seconds += engine.query_seconds

    def _enforce_engine_cap(self) -> None:
        """LRU-evict down to ``engine_cache_entries``.

        Runs after a batch finishes serving (not inside :meth:`_engine_for`):
        evicting mid-batch would fold an engine's counters while the batch
        still holds a reference and serves through it, losing those
        increments from :meth:`stats`.
        """
        while len(self._engines) > self.engine_cache_entries:
            self._drop_engine(next(iter(self._engines)))

    def query(self, name: str | EmbeddingTool, graph: CSRGraph, *,
              vertices: "np.ndarray | list[int] | int | None" = None,
              vectors: "np.ndarray | None" = None,
              k: int = 10, metric: str | None = None,
              backend: str | None = None,
              exclude_self: bool = True,
              config_hash: str | None = None,
              vertex_range: "tuple[int, int] | None" = None) -> QueryResponse:
        """Answer a k-NN request against the tool's embedding of ``graph``.

        Embed-if-missing: when the store has no entry for the (graph, tool)
        pair the service embeds and saves it first, then serves the query
        from the stored (memory-mapped) matrix like every later request.
        """
        responses = self.query_batch([QueryRequest(
            tool=name, graph=graph, vertices=vertices, vectors=vectors, k=k,
            metric=metric, backend=backend, exclude_self=exclude_self,
            config_hash=config_hash, vertex_range=vertex_range)])
        return responses[0]

    def query_batch(self, requests: Iterable[QueryRequest]) -> list[QueryResponse]:
        """Serve many k-NN requests, microbatching per engine.

        Concurrent requests that resolve to the same engine and settings
        (same graph, tool, metric, backend, k, query kind) are stacked into
        one backend call — one pass over the matrix answers all of them —
        and the answers are scattered back in request order.  Each response's
        ``result.seconds`` is the *shared* wall-clock of its microbatch (the
        requests were answered together; the time is not apportioned).

        Thread-safe entry point: store resolution (including a possible
        embed-on-miss, which single-flights per lineage) runs *before* the
        serving lock is taken, so a slow embed does not block concurrent
        queries or :meth:`stats`; only the scoring runs under the lock.
        """
        requests = list(requests)
        resolved = [self.ensure_stored(r.tool, r.graph, config_hash=r.config_hash)
                    for r in requests]
        with self._serving_lock:
            return self._query_batch_locked(requests, resolved)

    def _query_batch_locked(self, requests: list[QueryRequest],
                            resolved: "list[tuple[StoreEntry, bool]]",
                            ) -> list[QueryResponse]:
        from ..query.engine import QueryResult

        responses: list[QueryResponse | None] = [None] * len(requests)
        groups: dict[object, list[int]] = {}
        prepared: list[tuple["StoreEntry", bool, "QueryEngine"]] = []
        for i, request in enumerate(requests):
            entry, store_hit = resolved[i]
            engine = self._engine_for(entry, metric=request.metric,
                                      backend=request.backend)
            prepared.append((entry, store_hit, engine))
            by_vertex = request.vertices is not None
            group_key = (id(engine), request.k, by_vertex,
                         request.exclude_self if by_vertex else None,
                         request.vertex_range)
            groups.setdefault(group_key, []).append(i)
        for (engine_id, k, by_vertex, exclude_self, vertex_range), members in groups.items():
            engine = prepared[members[0]][2]
            if by_vertex:
                stacked = np.concatenate([
                    np.atleast_1d(np.asarray(requests[i].vertices, dtype=np.int64))
                    for i in members])
                merged = engine.nearest(stacked, k, exclude_self=bool(exclude_self),
                                        vertex_range=vertex_range)
            else:
                stacked = np.concatenate([
                    np.atleast_2d(np.asarray(requests[i].vectors, dtype=np.float32))
                    for i in members])
                merged = engine.query(stacked, k, vertex_range=vertex_range)
            self.microbatches += 1
            offset = 0
            for i in members:
                count = requests[i].num_queries
                result = QueryResult(
                    ids=merged.ids[offset:offset + count],
                    scores=merged.scores[offset:offset + count],
                    metric=merged.metric, backend=merged.backend,
                    seconds=merged.seconds)
                entry, store_hit, _ = prepared[i]
                responses[i] = QueryResponse(result=result, entry=entry,
                                             store_hit=store_hit)
                offset += count
                self.queries_served += count
        self._enforce_engine_cap()
        return responses  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, object]:
        """One coherent serving snapshot across every subsystem the service
        touches: embed counters, the shared hierarchy cache, the store, the
        engine LRU (hits/misses/evictions), and the cumulative query-backend
        work.  This is the single read the resident server's ``stats`` verb
        reports — callers never have to poke the store, engines, and caches
        separately.  Taken under the serving lock, so it is consistent with
        concurrent :meth:`query_batch` calls from other threads.
        """
        with self._serving_lock:
            stats: dict[str, object] = {
                "requests_served": self.requests_served,
                "requests_failed": self.requests_failed,
                "tools_resolved": sorted(self._tools),
                "hierarchy_cache": self.hierarchy_cache.stats(),
                "queries_served": self.queries_served,
                "microbatches": self.microbatches,
                "embeds_deduped": self.embeds_deduped,
                "query_engines": len(self._engines),
                "engine_cache": {
                    "entries": len(self._engines),
                    "hits": self.engine_cache_hits,
                    "misses": self.engine_cache_misses,
                    "evictions": self.engine_cache_evictions,
                },
            }
            if self.store is not None:
                stats["store"] = self.store.stats()
            if self._engines or self._evicted_batches:
                stats["query"] = {
                    "batches": self._evicted_batches + sum(
                        e.batches_served for e in self._engines.values()),
                    "rows_scored": self._evicted_rows_scored + sum(
                        e.rows_scored for e in self._engines.values()),
                    "seconds": round(self._evicted_query_seconds + sum(
                        e.query_seconds for e in self._engines.values()), 4),
                }
            return stats
