"""Stdlib-only HTTP/1.1 front for the resident query server.

Ordinary clients (curl, browsers, any language's HTTP stack) should not
need the NDJSON socket protocol to ask for neighbours.  :class:`HttpFront`
binds a second listener on the *same* event loop as an attached
:class:`~repro.serve.server.QueryServer` and maps three routes onto the
existing frame schema:

* ``POST /query`` — body is exactly a query frame's JSON (``vertices`` /
  ``vectors``, ``k``, optional ``tool``/``graph``/``metric``/``backend``/
  ``exclude_self``/``range``); the reply body is the reply frame.
* ``GET /stats`` — the ``stats`` verb's snapshot.
* ``GET /metrics`` — the same snapshot rendered in Prometheus text
  exposition format (``repro_``-prefixed series; see the README's
  "Observability" taxonomy) — point a Prometheus scrape job here.
* ``GET /ping`` — liveness.

Nothing is re-implemented: every request funnels through
:meth:`QueryServer.submit_frame`, so HTTP clients get the *same* typed
error codes (``bad-frame``/``bad-request``/``overloaded``/…), the same
admission control, the same microbatching, and the same drain semantics as
NDJSON clients — just carried on HTTP status codes (``overloaded`` and
``shutting-down`` map to 503 with ``Retry-After``, ``bad-*`` to 400,
``unknown-verb`` to 404, ``error`` to 500).

The parser is deliberately small: HTTP/1.0-and-1.1, keep-alive,
``Content-Length`` bodies only (no chunked uploads), headers capped at 16
KiB and bodies at the frame limit — the same bounded-allocation stance as
the NDJSON listener.  It is stdlib-only by design (the container bakes no
HTTP framework), asyncio streams + hand-rolled request lines.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from .protocol import MAX_FRAME_BYTES, FrameError, decode_frame

__all__ = ["HttpFront", "STATUS_BY_CODE"]

#: Map the protocol's typed error codes onto HTTP status codes.
STATUS_BY_CODE = {
    "bad-frame": 400,
    "bad-request": 400,
    "unknown-verb": 404,
    "overloaded": 503,
    "shutting-down": 503,
    "error": 500,
}

#: Upper bound on one request's header block (request line included).
MAX_HEADER_BYTES = 16 * 1024


class _BadRequest(Exception):
    """An HTTP-level (not frame-level) parse failure: status + message."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class HttpFront:
    """HTTP/1.1 adapter in front of one :class:`QueryServer`.

    Runs on the server's event loop; start/stop from that loop (or let
    :class:`~repro.serve.server.ServerThread` manage it via ``http_port``).
    """

    def __init__(self, server, *, host: str = "127.0.0.1", port: int = 0):
        self.server = server
        self.host, self.port = host, port
        self._listener: "asyncio.base_events.Server | None" = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._handlers: set[asyncio.Task] = set()
        # Counters (surfaced under "http" in the server's stats verb).
        self.connections_total = 0
        self.requests_total = 0
        self.responses_by_status: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    async def start(self) -> str:
        if self._listener is not None:
            raise RuntimeError("HTTP front already started")
        self._listener = await asyncio.start_server(
            self._on_connect, self.host, self.port, limit=MAX_HEADER_BYTES)
        self.port = self._listener.sockets[0].getsockname()[1]
        self.server.http_front = self
        return self.address

    async def stop(self) -> None:
        """Close the listener and every open connection, then reap handlers."""
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None
        for writer in list(self._writers):
            try:
                writer.close()
            except (ConnectionError, OSError, RuntimeError):
                pass
        if self._handlers:
            _, stragglers = await asyncio.wait(self._handlers, timeout=5.0)
            for task in stragglers:
                task.cancel()
        if self.server.http_front is self:
            self.server.http_front = None

    def abort(self) -> None:
        """Hard stop for an abandoned drain (call on the loop): close the
        listener and abort every open connection's transport."""
        if self._listener is not None:
            self._listener.close()
        for writer in list(self._writers):
            writer.transport.abort()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _on_connect(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        self.connections_total += 1
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            while True:
                try:
                    keep_alive = await self._serve_one(reader, writer)
                except _BadRequest as exc:
                    await self._respond(
                        writer, exc.status,
                        {"ok": False, "code": "bad-frame", "error": str(exc)},
                        keep_alive=False)
                    break
                except (ConnectionError, asyncio.IncompleteReadError,
                        asyncio.LimitOverrunError, ValueError):
                    break
                if not keep_alive:
                    break
        finally:
            self._writers.discard(writer)
            if task is not None:
                self._handlers.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_one(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> bool:
        """Parse one request, answer it; return whether to keep the
        connection alive.  Raises on connection teardown."""
        request_line = await reader.readline()
        if not request_line:
            raise ConnectionError("client closed")
        try:
            method, target, version = request_line.decode("ascii").split()
        except (UnicodeDecodeError, ValueError) as exc:
            raise _BadRequest(400, f"malformed request line: {exc}") from exc
        headers: dict[str, str] = {}
        header_bytes = len(request_line)
        while True:
            line = await reader.readline()
            header_bytes += len(line)
            if header_bytes > MAX_HEADER_BYTES:
                raise _BadRequest(431, "header block too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        keep_alive = (headers.get("connection", "").lower() != "close"
                      and version != "HTTP/1.0")
        body = b""
        if headers.get("content-length"):
            try:
                length = int(headers["content-length"])
            except ValueError as exc:
                raise _BadRequest(400, "bad Content-Length") from exc
            if length < 0:
                # Before this check a negative length reached readexactly(),
                # whose ValueError tore the connection down with no reply.
                raise _BadRequest(400, "bad Content-Length")
            if length > MAX_FRAME_BYTES:
                raise _BadRequest(413, f"body exceeds {MAX_FRAME_BYTES} bytes")
            body = await reader.readexactly(length)
        self.requests_total += 1

        path = target.split("?", 1)[0]
        if path == "/ping":
            if method != "GET":
                return await self._method_not_allowed(writer, "GET", keep_alive)
            reply = await self.server.submit_frame({"verb": "ping"})
        elif path == "/stats":
            if method != "GET":
                return await self._method_not_allowed(writer, "GET", keep_alive)
            reply = await self.server.submit_frame({"verb": "stats"})
        elif path == "/metrics":
            if method != "GET":
                return await self._method_not_allowed(writer, "GET", keep_alive)
            reply = await self.server.submit_frame({"verb": "metrics"})
            if reply.get("ok"):
                # Prometheus scrapers want the text exposition format, not
                # a JSON envelope around it.
                await self._respond(
                    writer, 200, None, keep_alive=keep_alive,
                    raw_body=reply["text"].encode("utf-8"),
                    content_type=reply.get("content_type", "text/plain"))
                return keep_alive
        elif path == "/query":
            if method != "POST":
                return await self._method_not_allowed(writer, "POST", keep_alive)
            try:
                frame = decode_frame(body)
            except FrameError as exc:
                # A body that does not decode means the framing cannot be
                # trusted (e.g. a Content-Length that undercut the real
                # body leaves its tail in the buffer, to be misparsed as
                # the next request line).  Close instead of keeping a
                # desynced connection alive.
                self.server.malformed_frames += 1
                await self._respond(
                    writer, STATUS_BY_CODE[exc.code],
                    {"ok": False, "code": exc.code, "error": str(exc)},
                    keep_alive=False)
                return False
            frame["verb"] = "query"   # the route names the verb
            reply = await self.server.submit_frame(frame)
        else:
            await self._respond(
                writer, 404,
                {"ok": False, "code": "unknown-verb",
                 "error": f"no route {path!r}; routes: "
                          f"POST /query, GET /stats, GET /metrics, GET /ping"},
                keep_alive=keep_alive)
            return keep_alive

        status = 200 if reply.get("ok") else STATUS_BY_CODE.get(
            reply.get("code", "error"), 500)
        await self._respond(writer, status, reply, keep_alive=keep_alive)
        return keep_alive

    async def _method_not_allowed(self, writer: asyncio.StreamWriter,
                                  allowed: str, keep_alive: bool) -> bool:
        await self._respond(
            writer, 405,
            {"ok": False, "code": "bad-request",
             "error": f"method not allowed; use {allowed}"},
            keep_alive=keep_alive, extra_headers=[("Allow", allowed)])
        return keep_alive

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: "dict[str, Any] | None", *, keep_alive: bool,
                       extra_headers: "list[tuple[str, str]] | None" = None,
                       raw_body: "bytes | None" = None,
                       content_type: str = "application/json",
                       ) -> None:
        self.responses_by_status[status] = self.responses_by_status.get(status, 0) + 1
        if raw_body is not None:
            body = raw_body
        else:
            body = json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 413: "Payload Too Large",
                  431: "Request Header Fields Too Large",
                  500: "Internal Server Error",
                  503: "Service Unavailable"}.get(status, "Error")
        headers = [
            ("Content-Type", content_type),
            ("Content-Length", str(len(body))),
            ("Connection", "keep-alive" if keep_alive else "close"),
        ]
        if status == 503:
            headers.append(("Retry-After", "1"))
        headers.extend(extra_headers or [])
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                + "".join(f"{k}: {v}\r\n" for k, v in headers)
                + "\r\n").encode("ascii")
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        return {
            "address": self.address,
            "connections_total": self.connections_total,
            "connections_open": len(self._writers),
            "requests_total": self.requests_total,
            "responses_by_status": {
                str(k): v for k, v in sorted(self.responses_by_status.items())},
        }
