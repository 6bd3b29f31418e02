"""`QueryServer` — the resident asyncio serving process over `EmbeddingService`.

This is the piece that turns the library into a service: graphs are loaded
and embeddings warmed **once**, then a long-lived process answers k-NN
queries over the newline-delimited-JSON protocol (:mod:`repro.serve.protocol`)
on a TCP or Unix socket.  The design goals, in order:

* **Bounded under overload.**  Admission control gates every query: at most
  ``max_inflight`` requests may be admitted-but-unanswered, and at most
  ``queue_depth`` of those may be waiting in the admission queue.  A request
  past either bound gets an immediate ``"code": "overloaded"`` reply — the
  server never buffers unboundedly and never makes a client infer overload
  from a timeout.
* **Concurrency feeds the microbatcher.**  Admitted requests carry a future
  and are drained — up to ``max_batch`` at a time — by a single batching
  loop into one :meth:`EmbeddingService.query_batch` call, so concurrent
  clients genuinely stack into shared backend scans (PR 5's microbatching)
  instead of serialising one-by-one.  The service call runs in a worker
  thread; the event loop keeps accepting and parsing frames meanwhile.
* **Every request is timestamped.**  Monotonic stamps at receive, admission
  into a batch, and answer give each reply a ``queue_wait_s`` / ``service_s``
  / ``total_s`` breakdown, and feed the server's bounded
  :class:`~repro.obs.metrics.LatencyHistogram`\\ s (surfaced by the
  ``stats`` verb alongside the admission counters and the service's own
  snapshot).
* **Graceful drain.**  :meth:`stop` closes the listener, stops admitting
  (``"shutting-down"`` replies), waits for every admitted request to be
  answered, then tears the loops down — in-flight work is never dropped.

Misbehaving clients cannot take the process down: malformed frames get
``bad-frame`` replies on a live connection, a client that disconnects
mid-request just has its reply dropped (the batch it joined still
completes), and a request the service raises on is retried individually so
one poisoned request cannot fail its batchmates.

For synchronous callers (CLI, tests, the load-generator benchmark)
:class:`ServerThread` runs the event loop on a daemon thread and exposes
blocking ``start()``/``stop()``.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from time import monotonic
from typing import TYPE_CHECKING, Any, Mapping

from ..faults import FAULTS
from ..obs import trace
from ..obs.export import METRICS_CONTENT_TYPE, render_stats_metrics
from ..obs.metrics import LatencyHistogram
from .protocol import (
    MAX_FRAME_BYTES,
    FrameError,
    decode_frame,
    encode_frame,
    error_reply,
    parse_query_request,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api import QueryRequest

__all__ = ["QueryServer", "ServerThread"]


@dataclass
class _Pending:
    """One admitted query: the parsed request, its stamps, and its future."""

    request: "QueryRequest"
    request_id: Any
    created: float | None            # client's own stamp, echoed back opaque
    received: float                  # server monotonic at frame receipt
    future: "asyncio.Future[dict[str, Any]]"
    tool: str = ""                   # tool name, for per-tool quota retirement
    admitted: float = 0.0            # server monotonic at batch admission


@dataclass
class _Deferred:
    """An accepted non-query verb answered off the loop thread.

    The ``stats``/``metrics`` verbs look synchronous but must not be:
    :meth:`EmbeddingService.stats` takes the serving lock, which an
    executor-side ``query_batch`` (or an embed-on-miss) can hold for
    minutes — answering on the loop thread would freeze *every*
    connection exactly when observability matters most.  Like
    :class:`_Pending`, the reply arrives via ``future``.
    """

    future: "asyncio.Future[dict[str, Any]]"


@dataclass(eq=False)       # identity semantics: connections live in a set
class _Connection:
    """Per-connection state: serialized writes + liveness for reply drops."""

    writer: asyncio.StreamWriter
    out: "asyncio.Queue[bytes | None]" = field(default_factory=asyncio.Queue)
    writer_task: "asyncio.Task | None" = None
    closed: bool = False


class QueryServer:
    """Resident NDJSON k-NN server over an :class:`EmbeddingService`.

    ``service`` needs only ``query_batch(requests)`` and ``stats()`` — the
    production object is :class:`repro.api.EmbeddingService`, tests inject
    stubs.  ``graphs`` maps request-visible names to loaded graphs;
    ``default_graph``/``default_tool`` fill in omitted frame fields (the
    single-graph, single-tool deployment needs no per-request naming).
    """

    def __init__(self, service, graphs: Mapping[str, Any], *,
                 host: str = "127.0.0.1", port: int = 0,
                 socket_path: "str | None" = None,
                 default_graph: "str | None" = None,
                 default_tool: "str | None" = None,
                 max_inflight: int = 64, queue_depth: int = 128,
                 max_batch: int = 32,
                 max_inflight_per_tool: "int | None" = None,
                 stats_timeout_s: float = 2.0):
        if not graphs:
            raise ValueError("serve at least one graph")
        if max_inflight < 1 or queue_depth < 1 or max_batch < 1:
            raise ValueError("max_inflight, queue_depth and max_batch must be >= 1")
        if max_inflight_per_tool is not None and max_inflight_per_tool < 1:
            raise ValueError("max_inflight_per_tool must be >= 1 (or None)")
        if default_graph is None and len(graphs) == 1:
            default_graph = next(iter(graphs))
        if default_graph is not None and default_graph not in graphs:
            raise ValueError(f"default_graph {default_graph!r} is not a served graph")
        self.service = service
        self.graphs = dict(graphs)
        self.host, self.port, self.socket_path = host, port, socket_path
        self.default_graph, self.default_tool = default_graph, default_tool
        self.max_inflight, self.queue_depth, self.max_batch = (
            max_inflight, queue_depth, max_batch)
        self.max_inflight_per_tool = max_inflight_per_tool
        self._inflight_by_tool: dict[str, int] = {}
        if stats_timeout_s <= 0:
            raise ValueError("stats_timeout_s must be > 0")
        self.stats_timeout_s = stats_timeout_s
        # Last good EmbeddingService.stats() snapshot, served (marked
        # "stale": true) when a fresh one cannot be taken in time.
        self._service_stats_cache: "dict[str, Any] | None" = None
        self._service_stats_task: "asyncio.Task | None" = None

        # Admission + lifecycle state (all touched only on the event loop).
        self._queue: "asyncio.Queue[_Pending]" = asyncio.Queue()
        self._inflight = 0
        self._stopping = False
        self._server: "asyncio.base_events.Server | None" = None
        self._batch_task: "asyncio.Task | None" = None
        self._drained: "asyncio.Event | None" = None
        self._connections: set[_Connection] = set()
        # Set by an attached repro.serve.http.HttpFront; surfaced in stats.
        self.http_front = None

        # Serving counters (read by the stats verb).
        self.connections_total = 0
        self.frames_received = 0
        self.queries_admitted = 0
        self.queries_answered = 0
        self.query_errors = 0
        self.rejected_overload = 0
        self.rejected_tool_quota = 0
        self.rejected_shutdown = 0
        self.malformed_frames = 0
        self.batch_failures = 0
        self.batch_length_mismatches = 0
        self.replies_dropped = 0
        self.microbatches = 0
        self.max_batch_seen = 0
        self.stats_stale_served = 0
        self.queue_wait = LatencyHistogram()
        self.service_time = LatencyHistogram()
        self.total_time = LatencyHistogram()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> str:
        """Connectable address string: ``host:port`` or ``unix:<path>``."""
        if self.socket_path is not None:
            return f"unix:{self.socket_path}"
        return f"{self.host}:{self.port}"

    async def start(self) -> str:
        """Bind, spawn the batching loop, and return the bound address."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._drained = asyncio.Event()
        self._drained.set()
        self._batch_task = asyncio.get_running_loop().create_task(self._batch_loop())
        if self.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._on_connect, path=self.socket_path, limit=MAX_FRAME_BYTES)
        else:
            self._server = await asyncio.start_server(
                self._on_connect, self.host, self.port, limit=MAX_FRAME_BYTES)
            self.port = self._server.sockets[0].getsockname()[1]
        return self.address

    async def stop(self) -> None:
        """Graceful drain: stop admitting, answer everything admitted, close.

        Safe to call more than once; later calls just wait for the first
        drain to finish.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._drained is not None:
            await self._drained.wait()            # every admitted query answered
        if self._batch_task is not None:
            self._batch_task.cancel()
            try:
                await self._batch_task
            except asyncio.CancelledError:
                pass
            self._batch_task = None
        for conn in list(self._connections):
            await self._close_connection(conn)

    def abort(self) -> None:
        """Hard stop for an abandoned drain (call on the loop): close the
        listener and abort every open connection's transport, dropping any
        reply not yet written."""
        if self._server is not None:
            self._server.close()
        for conn in list(self._connections):
            conn.closed = True
            conn.writer.transport.abort()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _on_connect(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer=writer)
        self._connections.add(conn)
        self.connections_total += 1
        conn.writer_task = asyncio.get_running_loop().create_task(self._write_loop(conn))
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, ValueError, asyncio.LimitOverrunError,
                        asyncio.IncompleteReadError):
                    # Reset, or a line past the frame limit: drop the client.
                    break
                if not line:
                    break
                if line.strip() == b"":
                    continue
                self.frames_received += 1
                await self._handle_frame(line, conn)
        finally:
            await self._close_connection(conn)

    async def _write_loop(self, conn: _Connection) -> None:
        """Single writer per connection: replies come from the reader task
        (immediate verbs) *and* from batch-completion forwarders, so all
        writes funnel through one queue to keep frames unmangled."""
        while True:
            payload = await conn.out.get()
            if payload is None:
                break
            try:
                conn.writer.write(payload)
                await conn.writer.drain()
            except (ConnectionError, RuntimeError):
                conn.closed = True
                break

    async def _close_connection(self, conn: _Connection) -> None:
        self._connections.discard(conn)
        # Mark the connection dead *before* enqueueing the writer sentinel:
        # a _send racing this close must see closed=True and count the reply
        # as dropped — a payload queued after the sentinel would vanish
        # without ever incrementing replies_dropped.
        conn.closed = True
        if conn.writer_task is not None:
            # Flush replies already queued (drain-on-shutdown must not race
            # the final writes), then stop the writer.
            conn.out.put_nowait(None)
            await conn.writer_task
        try:
            conn.writer.close()
            await conn.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    def _send(self, conn: _Connection, reply: Mapping[str, Any]) -> None:
        if conn.closed:
            self.replies_dropped += 1
            return
        conn.out.put_nowait(encode_frame(reply))

    # ------------------------------------------------------------------ #
    # Frame dispatch + admission control
    # ------------------------------------------------------------------ #
    async def _handle_frame(self, line: bytes, conn: _Connection) -> None:
        try:
            frame = decode_frame(line)
        except FrameError as exc:
            self.malformed_frames += 1
            self._send(conn, error_reply(exc.code, str(exc)))
            return
        outcome = self.dispatch_frame(frame)
        if isinstance(outcome, (_Pending, _Deferred)):
            asyncio.get_running_loop().create_task(self._forward_reply(outcome, conn))
        else:
            self._send(conn, outcome)

    def dispatch_frame(self, frame: Mapping[str, Any],
                       ) -> "dict[str, Any] | _Pending | _Deferred":
        """Serve one decoded frame, transport-independently.

        Returns an immediate reply dict (ping, errors, admission
        rejections), an admitted :class:`_Pending` whose future resolves to
        the reply once its batch is answered, or a :class:`_Deferred` for
        the observability verbs (answered off-loop; see
        :meth:`_answer_observability`).  Both the NDJSON connection handler
        and the HTTP front go through here, so every transport shares the
        same verbs, error codes, and admission gate.  Must run on the
        event loop.
        """
        request_id = frame.get("id")
        verb = frame.get("verb", "query")
        if verb == "ping":
            return {"ok": True, "verb": "ping", "id": request_id}
        if verb in ("stats", "metrics"):
            # Observability must work *especially* under overload, so these
            # bypass admission and the batch queue entirely — and never
            # touch the serving lock on the loop thread (the service
            # snapshot runs in an executor with a stale-cache fallback).
            deferred = _Deferred(
                future=asyncio.get_running_loop().create_future())
            asyncio.get_running_loop().create_task(
                self._answer_observability(verb, request_id, deferred.future))
            return deferred
        if verb != "query":
            return error_reply(
                "unknown-verb",
                f"unknown verb {verb!r}; expected query/stats/metrics/ping",
                request_id=request_id)
        try:
            request = parse_query_request(
                frame, graphs=self.graphs, default_graph=self.default_graph,
                default_tool=self.default_tool)
        except FrameError as exc:
            self.malformed_frames += 1
            return error_reply(exc.code, str(exc), request_id=request_id)
        # --- admission gate -------------------------------------------- #
        if self._stopping:
            self.rejected_shutdown += 1
            return error_reply(
                "shutting-down", "server is draining; retry elsewhere",
                request_id=request_id)
        if self._inflight >= self.max_inflight or self._queue.qsize() >= self.queue_depth:
            self.rejected_overload += 1
            return error_reply(
                "overloaded",
                f"admission rejected: {self._inflight} in flight "
                f"(max {self.max_inflight}), {self._queue.qsize()} queued "
                f"(depth {self.queue_depth})",
                request_id=request_id)
        tool = (request.tool if isinstance(request.tool, str)
                else request.tool.name)
        if (self.max_inflight_per_tool is not None
                and self._inflight_by_tool.get(tool, 0) >= self.max_inflight_per_tool):
            # One hot tool saturating its quota must not read as global
            # overload to everyone else — same code, typed detail.
            self.rejected_tool_quota += 1
            return error_reply(
                "overloaded",
                f"tool {tool!r} is at its admission quota "
                f"({self.max_inflight_per_tool} in flight); other tools "
                f"are still admitted",
                request_id=request_id,
                detail={"tool": tool,
                        "max_inflight_per_tool": self.max_inflight_per_tool})
        if trace.enabled and request.trace is not None:
            # This hop's own span id: recorded on the request's server span
            # and forwarded to downstream shards as their parent.
            request.trace["span"] = trace.new_span_id()
        pending = _Pending(request=request, request_id=request_id,
                           created=frame.get("created"), received=monotonic(),
                           future=asyncio.get_running_loop().create_future(),
                           tool=tool)
        self._admit(pending)
        return pending

    async def submit_frame(self, frame: Mapping[str, Any]) -> dict[str, Any]:
        """Answer one decoded frame end-to-end (the HTTP front's entry).

        Counts the frame, dispatches it, and — when it was admitted or
        deferred — awaits the answer.  Returns the reply dict.
        """
        self.frames_received += 1
        outcome = self.dispatch_frame(frame)
        if isinstance(outcome, (_Pending, _Deferred)):
            return await outcome.future
        return outcome

    def _admit(self, pending: _Pending) -> None:
        self._inflight += 1
        self._inflight_by_tool[pending.tool] = (
            self._inflight_by_tool.get(pending.tool, 0) + 1)
        self.queries_admitted += 1
        assert self._drained is not None
        self._drained.clear()
        self._queue.put_nowait(pending)

    def _retire(self, batch: "list[_Pending]") -> None:
        self._inflight -= len(batch)
        for p in batch:
            remaining = self._inflight_by_tool.get(p.tool, 0) - 1
            if remaining > 0:
                self._inflight_by_tool[p.tool] = remaining
            else:
                self._inflight_by_tool.pop(p.tool, None)
        if self._inflight == 0:
            assert self._drained is not None
            self._drained.set()

    async def _forward_reply(self, pending: "_Pending | _Deferred",
                             conn: _Connection) -> None:
        reply = await pending.future
        self._send(conn, reply)

    # ------------------------------------------------------------------ #
    # The batching loop: admission queue -> EmbeddingService.query_batch
    # ------------------------------------------------------------------ #
    async def _batch_loop(self) -> None:
        while True:
            first = await self._queue.get()
            batch = [first]
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            await self._serve_batch(batch)

    async def _serve_batch(self, batch: list[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        now = monotonic()
        for p in batch:
            p.admitted = now
        self.microbatches += 1
        self.max_batch_seen = max(self.max_batch_seen, len(batch))
        requests = [p.request for p in batch]
        try:
            responses: list[Any] = list(await loop.run_in_executor(
                None, self.service.query_batch, requests))
        except Exception:
            # One poisoned request must not fail its batchmates: fall back
            # to per-request isolation and report the failure individually.
            self.batch_failures += 1
            responses = []
            for request in requests:
                try:
                    responses.append((await loop.run_in_executor(
                        None, self.service.query_batch, [request]))[0])
                except Exception as exc:
                    responses.append(exc)
        if len(responses) != len(batch):
            # A misbehaving service must not strand futures: zip would
            # silently drop the unmatched pendings, their _forward_reply
            # tasks would hang forever, and _retire(len(batch)) would drift
            # _inflight.  Fail every position past the shorter list instead.
            self.batch_length_mismatches += 1
            exc = RuntimeError(
                f"service returned {len(responses)} responses for "
                f"{len(batch)} requests")
            responses = responses[:len(batch)]
            responses.extend([exc] * (len(batch) - len(responses)))
        answered = monotonic()
        for p, response in zip(batch, responses):
            self._finish(p, response, answered)
        self._retire(batch)

    def _finish(self, p: _Pending, response: Any, answered: float) -> None:
        queue_wait = p.admitted - p.received
        service_s = answered - p.admitted
        total = answered - p.received
        self.queue_wait.observe(queue_wait)
        self.service_time.observe(service_s)
        self.total_time.observe(total)
        timing = {"queue_wait_s": round(queue_wait, 6),
                  "service_s": round(service_s, 6),
                  "total_s": round(total, 6)}
        if isinstance(response, Exception):
            self.query_errors += 1
            reply = error_reply("error", f"{type(response).__name__}: {response}",
                                request_id=p.request_id)
            reply["timing"] = timing
        else:
            self.queries_answered += 1
            reply = {
                "ok": True, "verb": "query", "id": p.request_id,
                "ids": response.ids.tolist(),
                "scores": response.scores.tolist(),
                "store_hit": bool(response.store_hit),
                "version": int(response.entry.version),
                "timing": timing,
            }
        if p.created is not None:
            reply["created"] = p.created
        if trace.enabled:
            # Back-date from the stamps already taken — the server span
            # costs nothing on the untraced fast path.
            args: dict[str, Any] = {
                "address": self.address, "tool": p.tool,
                "queue_wait_s": timing["queue_wait_s"],
                "service_s": timing["service_s"],
                "ok": not isinstance(response, Exception),
            }
            tctx = getattr(p.request, "trace", None)
            if tctx:
                # Context keys are id/parent/span; exported span args use
                # "trace" for the id so every hop's events key the same way.
                args.update({("trace" if k == "id" else k): v
                             for k, v in tctx.items() if v})
            trace.add_complete("server.query", total, **args)
        p.future.set_result(reply)

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        """One coherent snapshot: admission, latency, and service counters.

        Blocking form (takes the service's serving lock); the wire verbs go
        through :meth:`_answer_observability` instead, which fetches the
        service part off-loop with a stale-snapshot fallback.
        """
        return self._assemble_stats(self.service.stats())

    async def _answer_observability(self, verb: str, request_id: Any,
                                    future: "asyncio.Future[dict[str, Any]]",
                                    ) -> None:
        """Answer a ``stats``/``metrics`` frame without blocking the loop.

        The server-side counters are read synchronously (loop-owned, always
        fresh); only the service snapshot — the part that takes the serving
        lock — runs in the executor, bounded by ``stats_timeout_s``.  On
        timeout the last good snapshot is served with ``"stale": true`` so
        observability keeps answering while the service is wedged (the
        satellite bug this replaces: a stats poll during a minutes-long
        ``query_batch`` froze every connection).
        """
        service_stats = await self._service_stats_snapshot()
        stats = self._assemble_stats(service_stats)
        if verb == "stats":
            reply = {"ok": True, "verb": "stats", "id": request_id,
                     "stats": stats}
        else:
            reply = {"ok": True, "verb": "metrics", "id": request_id,
                     "content_type": METRICS_CONTENT_TYPE,
                     "text": render_stats_metrics(stats)}
        if not future.done():
            future.set_result(reply)

    async def _service_stats_snapshot(self) -> dict[str, Any]:
        """``service.stats()`` in the executor, single-flight + bounded.

        Concurrent polls share one in-flight snapshot (shield + await); a
        poll the deadline expires on falls back to the cached snapshot
        marked ``"stale": true`` — the underlying task keeps running and
        refreshes the cache for the next poll when the lock frees up.
        """
        task = self._service_stats_task
        if task is None or task.done():
            task = asyncio.get_running_loop().create_task(
                self._fetch_service_stats())
            # Retrieve a late failure so an abandoned (timed-out) fetch
            # never logs "exception was never retrieved".
            task.add_done_callback(
                lambda t: t.exception() if not t.cancelled() else None)
            self._service_stats_task = task
        try:
            return await asyncio.wait_for(asyncio.shield(task),
                                          self.stats_timeout_s)
        except asyncio.TimeoutError:
            self.stats_stale_served += 1
            stale: dict[str, Any] = dict(self._service_stats_cache or {})
            stale["stale"] = True
            return stale
        except Exception as exc:   # a misbehaving service must not kill stats
            return {"error": f"{type(exc).__name__}: {exc}"}

    async def _fetch_service_stats(self) -> dict[str, Any]:
        snapshot = await asyncio.get_running_loop().run_in_executor(
            None, self.service.stats)
        self._service_stats_cache = snapshot
        return snapshot

    def _assemble_stats(self, service_stats: Any) -> dict[str, Any]:
        stats: dict[str, Any] = {
            "server": {
                "address": self.address,
                "graphs": sorted(self.graphs),
                "default_graph": self.default_graph,
                "default_tool": self.default_tool,
                "max_inflight": self.max_inflight,
                "queue_depth": self.queue_depth,
                "max_batch": self.max_batch,
                "max_inflight_per_tool": self.max_inflight_per_tool,
                "inflight": self._inflight,
                "inflight_by_tool": dict(self._inflight_by_tool),
                "queued": self._queue.qsize(),
                "connections_total": self.connections_total,
                "connections_open": len(self._connections),
                "frames_received": self.frames_received,
                "queries_admitted": self.queries_admitted,
                "queries_answered": self.queries_answered,
                "query_errors": self.query_errors,
                "rejected_overload": self.rejected_overload,
                "rejected_tool_quota": self.rejected_tool_quota,
                "rejected_shutdown": self.rejected_shutdown,
                "malformed_frames": self.malformed_frames,
                "batch_failures": self.batch_failures,
                "batch_length_mismatches": self.batch_length_mismatches,
                "replies_dropped": self.replies_dropped,
                "microbatches": self.microbatches,
                "max_batch_seen": self.max_batch_seen,
                "stats_stale_served": self.stats_stale_served,
            },
            "latency": {
                "queue_wait": self.queue_wait.summary(),
                "service": self.service_time.summary(),
                "total": self.total_time.summary(),
                # Full bucket payloads: the router merges these across
                # shards into fleet-wide percentiles, and the Prometheus
                # renderer re-expands them into _bucket series.
                "histograms": {
                    "queue_wait": self.queue_wait.to_dict(),
                    "service": self.service_time.to_dict(),
                    "total": self.total_time.to_dict(),
                },
            },
            "service": service_stats,
            "faults": FAULTS.snapshot(),
        }
        if self.http_front is not None:
            stats["http"] = self.http_front.stats()
        return stats


class ServerThread:
    """Run a :class:`QueryServer` on a daemon event-loop thread.

    The blocking facade for synchronous callers::

        with ServerThread(server) as address:
            client = ServeClient(address)
            ...

    ``http_port`` additionally binds a :class:`repro.serve.http.HttpFront`
    to the same server on the same loop (``http_address`` after start).

    ``stop()`` performs the server's graceful drain before the loop exits.
    A drain that outlives ``timeout_s`` raises :class:`TimeoutError` — but
    still aborts the listeners and connections it left open, stops the
    event loop and joins the thread, so a wedged drain leaks neither the
    daemon loop thread nor a socket.
    """

    #: Bound on the wait for cancelled tasks to unwind after an abandoned drain.
    ABORT_GRACE_S = 1.0

    def __init__(self, server: QueryServer, *, start_timeout_s: float = 30.0,
                 http_port: "int | None" = None, http_host: str = "127.0.0.1"):
        self.server = server
        self.start_timeout_s = start_timeout_s
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: "threading.Thread | None" = None
        self.address: "str | None" = None
        self.http_address: "str | None" = None
        self._http = None
        if http_port is not None:
            from .http import HttpFront
            self._http = HttpFront(server, host=http_host, port=http_port)

    def start(self) -> str:
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._loop = loop = asyncio.new_event_loop()
        ready = threading.Event()

        def _run() -> None:
            # Bind the loop locally: stop() nulls self._loop before joining.
            asyncio.set_event_loop(loop)
            ready.set()
            loop.run_forever()
            # Drain loop-internal cleanup after run_forever is stopped.
            loop.close()

        self._thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
        self._thread.start()
        ready.wait(self.start_timeout_s)
        future = asyncio.run_coroutine_threadsafe(self.server.start(), self._loop)
        self.address = future.result(self.start_timeout_s)
        if self._http is not None:
            future = asyncio.run_coroutine_threadsafe(self._http.start(), self._loop)
            self.http_address = future.result(self.start_timeout_s)
        return self.address

    async def _shutdown(self) -> None:
        await self.server.stop()
        if self._http is not None:
            await self._http.stop()

    def stop(self, *, timeout_s: float = 30.0) -> None:
        if self._loop is None or self._thread is None:
            return
        loop, thread = self._loop, self._thread
        self._loop, self._thread = None, None
        future = asyncio.run_coroutine_threadsafe(self._shutdown(), loop)
        stop = loop.stop
        try:
            future.result(timeout_s)
        except FutureTimeoutError:
            # The drain is wedged (e.g. the service is stuck in a worker
            # thread).  Don't leak the daemon loop thread or the open
            # sockets on top of that: abandon the drain, abort what it left
            # open, stop the loop, and surface the timeout.
            future.cancel()
            stop = self._abort_then_stop
            raise TimeoutError(
                f"server drain did not finish within {timeout_s}s; event "
                f"loop stopped, in-flight replies abandoned") from None
        finally:
            loop.call_soon_threadsafe(stop)
            thread.join(timeout_s)

    def _abort_then_stop(self) -> None:
        """Abort the open listeners and connections, cancel every task the
        abandoned drain left pending, and stop the loop once they have
        unwound (or after ``ABORT_GRACE_S``).  Meanwhile the aborted
        transports' ``connection_lost`` callbacks close their sockets, and
        no coroutine is left half-run for ``loop.close()`` to drop; a
        cancelled executor wait also ignores its worker finishing later."""
        self.server.abort()
        if self._http is not None:
            self._http.abort()
        loop = asyncio.get_running_loop()
        tasks = asyncio.all_tasks(loop)
        for task in tasks:
            task.cancel()

        async def stop_when_unwound() -> None:
            if tasks:
                await asyncio.wait(tasks, timeout=self.ABORT_GRACE_S)
            loop.stop()

        loop.create_task(stop_when_unwound())

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
