"""Blocking client for the NDJSON query server.

The synchronous counterpart of :class:`~repro.serve.server.QueryServer`
for scripts, tests, the CLI, and the shard router's links: one socket,
line-framed JSON both ways, every exchange under one wall-clock deadline.
Replies are matched to requests by wire id, never by arrival order, so a
duplicate or late reply is dropped instead of answering the next request;
a failed request (timeout, closed connection, bad reply) closes the
connection, and later calls raise :class:`ConnectionError`.  The load
generator keeps many requests in flight and does its own asyncio I/O.
"""

from __future__ import annotations

import socket
from time import monotonic
from typing import Any

from ..obs import trace
from .protocol import MAX_FRAME_BYTES, decode_frame, encode_frame

__all__ = ["ServeClient", "parse_address"]


def parse_address(address: str) -> "tuple[str, Any]":
    """``host:port`` -> ("tcp", (host, port)); ``unix:<path>`` -> ("unix", path).

    IPv6 hosts use the standard bracket form ``[::1]:8080`` (the brackets
    are stripped before connecting — ``socket.create_connection`` wants the
    bare address).  A bracketless multi-colon string like ``::1`` is
    rejected rather than mis-split into host ``:`` + port ``1``.
    """
    if address.startswith("unix:"):
        return "unix", address[len("unix:"):]
    if address.startswith("["):
        # Bracketed IPv6: [host]:port
        host, sep, rest = address[1:].partition("]")
        if not sep or not rest.startswith(":") or not rest[1:].isdigit():
            raise ValueError(
                f"bad server address {address!r}; expected [ipv6-host]:port")
        return "tcp", (host, int(rest[1:]))
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"bad server address {address!r}; expected host:port, "
            f"[ipv6-host]:port, or unix:<path>")
    if ":" in host:
        raise ValueError(
            f"bad server address {address!r}; IPv6 hosts need brackets "
            f"and an explicit port, e.g. [::1]:8080")
    return "tcp", (host or "127.0.0.1", int(port))


class ServeClient:
    """Blocking client over one server connection, replies matched by wire id.

    ``timeout_s`` is a per-request **wall-clock deadline**, not merely a
    per-socket-operation timeout: every send and read inside one
    :meth:`exchange` shares the deadline, so a server that accepts the
    connection and then blackholes (reads nothing, replies nothing) fails
    the request with :class:`TimeoutError` within ``timeout_s`` instead of
    resetting the clock on every partial write.
    """

    def __init__(self, address: str, *, timeout_s: float = 30.0):
        if timeout_s <= 0:
            raise ValueError("timeout_s must be > 0")
        self.address = address
        self.timeout_s = timeout_s
        self.duplicate_replies = 0   # unmatched reply lines dropped so far
        self._exchanges = 0
        kind, target = parse_address(address)
        if kind == "unix":
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                self._sock.settimeout(timeout_s)
                self._sock.connect(target)
            except OSError:
                self._sock.close()
                raise
        else:
            self._sock = socket.create_connection(target, timeout=timeout_s)
        self._file = self._sock.makefile("rb")

    # ------------------------------------------------------------------ #
    def exchange(self, frames: "list[dict[str, Any]]", *,
                 budget_s: "float | None" = None) -> dict[Any, dict[str, Any]]:
        """Send every frame, read one reply per frame; return ``{id: reply}``.

        Frames go out in one write; replies are matched by id, not order.
        Wire ids are rewritten to tokens unique to this exchange and mapped
        back on receipt, so lines matching no outstanding token (duplicate
        or stale replies) are counted in :attr:`duplicate_replies` and
        dropped, up to a bounded amount of noise.  Every socket operation
        runs under one ``budget_s`` wall-clock budget (default
        :attr:`timeout_s`).  A failed exchange closes the connection.
        """
        if self._file is None:
            raise ConnectionError(
                f"connection to {self.address} is closed after a failed "
                f"request")
        budget = self.timeout_s if budget_s is None else budget_s
        deadline = monotonic() + budget
        self._exchanges += 1
        tokens = {f"x{self._exchanges}.{j}": j for j in range(len(frames))}
        payload = b"".join(encode_frame({**frame, "id": token})
                           for token, frame in zip(tokens, frames))
        replies: dict[Any, dict[str, Any]] = {}
        try:
            self._arm(deadline)
            self._sock.sendall(payload)
            # Tolerate bounded noise (duplicate/unsolicited replies from a
            # misbehaving server) without reading this connection forever.
            noise_left = 2 * len(frames) + 8
            while tokens:
                if noise_left <= 0:
                    raise ConnectionError(
                        f"{self.address} flooded the connection with "
                        f"unmatched replies")
                noise_left -= 1
                self._arm(deadline)
                line = self._file.readline(MAX_FRAME_BYTES + 1)
                if not line:
                    raise ConnectionError(
                        f"{self.address} closed the connection")
                reply = decode_frame(line)
                token = reply.get("id")
                j = tokens.pop(token, None) if isinstance(token, str) else None
                if j is None:
                    self.duplicate_replies += 1
                    continue
                reply["id"] = frames[j].get("id")
                replies[reply["id"]] = reply
        except TimeoutError as exc:
            self.close()
            raise TimeoutError(
                f"request to {self.address} exceeded the {budget:g}s "
                f"deadline") from exc
        except BaseException:
            self.close()
            raise
        return replies

    def _arm(self, deadline: float) -> None:
        """Bound the next socket operation by the exchange deadline."""
        remaining = deadline - monotonic()
        if remaining <= 0:
            raise TimeoutError("deadline exhausted")
        self._sock.settimeout(remaining)

    def request(self, frame: dict[str, Any]) -> dict[str, Any]:
        """Send one frame and block for its reply (deadline-bounded)."""
        return self.exchange([frame])[frame.get("id")]

    def query(self, *, vertices: "list[int] | int | None" = None,
              vectors: "list[list[float]] | None" = None, k: int = 10,
              tool: "str | None" = None, graph: "str | None" = None,
              metric: "str | None" = None,
              exclude_self: "bool | None" = None,
              vertex_range: "tuple[int, int] | None" = None,
              request_id: Any = None,
              trace_id: "str | None" = None) -> dict[str, Any]:
        frame: dict[str, Any] = {"verb": "query", "k": k, "created": monotonic()}
        if vertex_range is not None:
            frame["range"] = [int(vertex_range[0]), int(vertex_range[1])]
        for key, value in (("id", request_id), ("vertices", vertices),
                           ("vectors", vectors), ("tool", tool),
                           ("graph", graph), ("metric", metric),
                           ("exclude_self", exclude_self)):
            if value is not None:
                frame[key] = value
        if trace_id is None and trace.enabled:
            # Mint the request-scoped trace id here — the client is where a
            # user query is born, so this is the one id every downstream
            # hop (router, shards) shares.
            trace_id = trace.new_trace_id()
        if trace_id is not None:
            span_id = trace.new_span_id() if trace.enabled else None
            frame["trace"] = ({"id": trace_id, "span": span_id}
                              if span_id else {"id": trace_id})
            with trace.span("client.query", trace=trace_id,
                            span=span_id or "", address=self.address):
                return self.request(frame)
        return self.request(frame)

    def stats(self) -> dict[str, Any]:
        reply = self.request({"verb": "stats"})
        return reply["stats"]

    def metrics(self) -> str:
        """The server's stats snapshot as Prometheus text (``metrics`` verb).

        Raises :class:`ValueError` on servers predating the verb — callers
        (the ``stats --metrics`` CLI) can fall back to rendering the
        ``stats`` snapshot locally.
        """
        reply = self.request({"verb": "metrics"})
        if not reply.get("ok"):
            raise ValueError(reply.get("error", "metrics verb failed"))
        return reply["text"]

    def ping(self) -> bool:
        return bool(self.request({"verb": "ping"}).get("ok"))

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close the connection; idempotent."""
        if self._file is not None:
            try:
                self._file.close()
            finally:
                self._sock.close()
                self._file = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
