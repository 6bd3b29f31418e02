"""Wire protocol of the resident query server: newline-delimited JSON.

One frame per line, UTF-8 JSON objects in both directions — trivially
debuggable with ``nc``/``socat`` and language-agnostic for clients.  A
request frame names a verb plus its arguments::

    {"id": 7, "verb": "query", "vertices": [0, 12], "k": 5}
    {"id": 8, "verb": "query", "vectors": [[0.1, 0.2, ...]], "k": 3}
    {"id": 9, "verb": "query", "vertices": [3], "k": 5, "range": [0, 150]}
    {"verb": "stats"}
    {"verb": "metrics"}
    {"verb": "ping"}

A query's optional ``"range": [lo, hi)`` restricts the candidate rows — the
primitive the shard router uses to make each backend answer only for the
vertex range it owns (score bits are unchanged vs. an unranged run).

A query may also carry an optional ``"trace": {"id": ..., "span": ...}``
context (see :func:`parse_trace_context`): ``id`` is the request-scoped
trace id minted once at the client, ``span`` the *sender's* span id, which
becomes the receiver's parent.  The router forwards the context to its
shards, so one user query yields a single cross-process trace.  The
``metrics`` verb returns the stats snapshot rendered as Prometheus text
(``{"ok": true, "verb": "metrics", "text": ..., "content_type": ...}``).

and every reply echoes the request's ``id`` (when one was given) with
``"ok": true`` plus the answer, or ``"ok": false`` with a machine-readable
``code`` (see :data:`ERROR_CODES`) and a human-readable ``error``.  Query
replies additionally carry the server-side ``timing`` breakdown
(``queue_wait_s`` / ``service_s`` / ``total_s``, from monotonic stamps taken
at receive, admission into a batch, and answer) so load generators can
attribute latency to queueing vs. service without clock synchronisation,
and echo a client-supplied ``created`` stamp back untouched for the
client's own delay accounting (delay = receive − create, the WSN-testbed
idiom).

The module owns frame encode/decode plus the translation of a ``query``
frame into an :class:`repro.api.QueryRequest`; the server itself never
parses JSON fields directly.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

import numpy as np

from ..api import QueryRequest

__all__ = ["FrameError", "MAX_FRAME_BYTES", "ERROR_CODES",
           "encode_frame", "decode_frame", "parse_query_request",
           "parse_trace_context", "error_reply"]

#: Upper bound on one encoded frame (requests *and* replies).  A resident
#: server must not let one client allocate unbounded buffers; vector-query
#: frames comfortably fit (a 1024-dim float vector is ~12 kB of JSON).
MAX_FRAME_BYTES = 1 << 20

#: Machine-readable failure codes carried in ``"ok": false`` replies.
ERROR_CODES = (
    "bad-frame",       # not valid JSON / not an object / oversized
    "bad-request",     # well-formed JSON but invalid query arguments
    "unknown-verb",    # verb not one of query/stats/metrics/ping
    "overloaded",      # admission control rejected (queue/inflight full)
    "shutting-down",   # server is draining; no new work admitted
    "error",           # the service raised while answering this request
)


class FrameError(ValueError):
    """A frame the server cannot serve, tagged with its reply ``code``."""

    def __init__(self, code: str, message: str):
        assert code in ERROR_CODES, code
        super().__init__(message)
        self.code = code


def encode_frame(obj: Mapping[str, Any]) -> bytes:
    """One JSON object, compact separators, newline-terminated."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> dict[str, Any]:
    """Parse one wire line into a frame dict (raises :class:`FrameError`)."""
    if len(line) > MAX_FRAME_BYTES:
        raise FrameError("bad-frame", f"frame exceeds {MAX_FRAME_BYTES} bytes")
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError("bad-frame", f"invalid JSON frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise FrameError("bad-frame", "frame must be a JSON object")
    return obj


def error_reply(code: str, message: str, *, request_id: Any = None,
                detail: "Mapping[str, Any] | None" = None) -> dict[str, Any]:
    """The canonical ``"ok": false`` reply frame.

    ``detail`` attaches a machine-readable payload when the ``code`` alone
    is ambiguous — e.g. an ``overloaded`` rejection carries
    ``{"tool": ..., "max_inflight_per_tool": ...}`` when it came from a
    per-tool quota rather than the global admission gate.
    """
    reply: dict[str, Any] = {"ok": False, "code": code, "error": message}
    if request_id is not None:
        reply["id"] = request_id
    if detail is not None:
        reply["detail"] = dict(detail)
    return reply


def parse_query_request(frame: Mapping[str, Any], *,
                        graphs: Mapping[str, Any],
                        default_graph: str | None,
                        default_tool: str | None) -> QueryRequest:
    """Translate a ``query`` frame into a :class:`~repro.api.QueryRequest`.

    ``graphs`` maps the names the server loaded at startup to graph objects;
    a frame may omit ``graph``/``tool`` when the server has defaults.  All
    validation failures raise :class:`FrameError` with code ``bad-request``
    so the connection handler can reply instead of dying.  Fields this
    function does not read are ignored.
    """
    tool = frame.get("tool", default_tool)
    if not isinstance(tool, str) or not tool:
        raise FrameError("bad-request",
                         "frame needs a 'tool' (server has no default tool)")
    graph_name = frame.get("graph", default_graph)
    if not isinstance(graph_name, str) or graph_name not in graphs:
        raise FrameError(
            "bad-request",
            f"unknown graph {graph_name!r}; served graphs: {', '.join(sorted(graphs))}")
    k = frame.get("k", 10)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise FrameError("bad-request", f"'k' must be a positive integer, got {k!r}")
    vertices = frame.get("vertices")
    vectors = frame.get("vectors")
    if vectors is not None:
        try:
            vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        except (TypeError, ValueError) as exc:
            raise FrameError("bad-request", f"'vectors' is not numeric: {exc}") from exc
        if vectors.ndim != 2 or not np.isfinite(vectors).all():
            raise FrameError("bad-request",
                             "'vectors' must be a finite (Q, d) number matrix")
    if vertices is not None:
        try:
            vertices = np.atleast_1d(np.asarray(vertices, dtype=np.int64))
        except (TypeError, ValueError, OverflowError) as exc:
            raise FrameError("bad-request", f"'vertices' is not integral: {exc}") from exc
        if vertices.ndim != 1 or vertices.size == 0:
            raise FrameError("bad-request",
                             "'vertices' must be one id or a non-empty id list")
    metric = frame.get("metric")
    exclude_self = frame.get("exclude_self", True)
    if not isinstance(exclude_self, bool):
        raise FrameError("bad-request", "'exclude_self' must be a boolean")
    trace_ctx = parse_trace_context(frame)
    vertex_range = frame.get("range")
    if vertex_range is not None:
        ok = (isinstance(vertex_range, (list, tuple)) and len(vertex_range) == 2
              and all(isinstance(b, int) and not isinstance(b, bool)
                      for b in vertex_range)
              and 0 <= vertex_range[0] < vertex_range[1])
        if not ok:
            raise FrameError(
                "bad-request",
                f"'range' must be [lo, hi] with 0 <= lo < hi, got {vertex_range!r}")
        vertex_range = (int(vertex_range[0]), int(vertex_range[1]))
    try:
        return QueryRequest(tool=tool, graph=graphs[graph_name],
                            vertices=vertices, vectors=vectors, k=k,
                            metric=metric, exclude_self=exclude_self,
                            vertex_range=vertex_range,
                            trace=trace_ctx)
    except ValueError as exc:   # e.g. neither/both of vertices and vectors
        raise FrameError("bad-request", str(exc)) from exc


def parse_trace_context(frame: Mapping[str, Any]) -> "dict[str, str] | None":
    """The optional ``"trace"`` field as a ``{"id", "parent"}`` context.

    The sender stamps ``{"id": <trace id>, "span": <its own span id>}``;
    on receipt the sender's span becomes this hop's ``parent``.  Soft
    validation by design: tracing must never fail a query, so anything
    that is not a well-formed context is treated as absent.
    """
    raw = frame.get("trace")
    if not isinstance(raw, Mapping):
        return None
    trace_id = raw.get("id")
    if not isinstance(trace_id, str) or not trace_id:
        return None
    ctx = {"id": trace_id}
    parent = raw.get("span")
    if isinstance(parent, str) and parent:
        ctx["parent"] = parent
    return ctx
