"""Low-overhead tracing with Chrome trace-event export.

One tracer per process records **spans** — named intervals with arbitrary
key/value args — and exports them as Chrome trace-event JSON that loads
directly in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.

Two recording styles:

* ``with trace.span("kernel", level=i, rotation=r): ...`` for code the
  tracer brackets itself, and
* ``trace.add_complete("pool-produce", elapsed_s, rotation=r)`` for
  durations something else already measured on ``perf_counter`` (the
  pipeline's pool production times, the server's per-request latency
  stamps) — the event is back-dated so it
  lands where it actually happened on the shared clock.  This is how the
  pre-existing timing surfaces are *absorbed* rather than re-measured.

Cross-process traces: a **trace id** is minted once at the client
(:func:`new_trace_id`) and carried in the optional ``"trace"`` field of
the wire frames; every hop stamps its own **span id**
(:func:`new_span_id`) and forwards it as the downstream ``parent``.  The
ids travel in span ``args`` (``trace`` / ``span`` / ``parent``), so one
user query through a router and N shards renders as a single correlated
trace even when the processes export separate files.

Overhead contract (pinned by ``tests/obs/test_trace_overhead.py``; the
enabled cost is perfbench's ``trace.overhead_pct``): when tracing is
disabled — the default — a span site costs one module-attribute read plus
returning a shared no-op singleton, a few tens of nanoseconds and **zero
allocation**.  Hot loops can skip even that with an explicit
``if trace.enabled:`` guard.
"""

from __future__ import annotations

import json
import os
import threading
import uuid
from time import perf_counter
from typing import Any

__all__ = [
    "enabled", "enable", "disable", "is_enabled", "span", "add_complete",
    "add_instant", "new_trace_id", "new_span_id", "export", "drain",
    "event_count",
]

#: Module-level fast-path flag.  Read it as ``trace.enabled`` (attribute
#: access on the module), never ``from ... import enabled`` — a from-import
#: copies the value and goes stale.
enabled = False

_lock = threading.Lock()
_events: list[dict[str, Any]] = []
_epoch = 0.0                       # perf_counter() at enable() time
_tids: dict[int, int] = {}         # threading.get_ident() -> small tid
_span_counter = 0


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NOOP = _NoopSpan()


def _tid() -> int:
    ident = threading.get_ident()
    tid = _tids.get(ident)
    if tid is None:
        # Raced registration is harmless: both writers compute the same
        # mapping under the lock.
        with _lock:
            tid = _tids.setdefault(ident, len(_tids) + 1)
            name = threading.current_thread().name
            _events.append({
                "name": "thread_name", "ph": "M", "pid": os.getpid(),
                "tid": tid, "args": {"name": name},
            })
    return tid


class _Span:
    """A live span: records a complete ``"X"`` event on exit."""

    __slots__ = ("name", "args", "_start")

    def __init__(self, name: str, args: dict[str, Any]):
        self.name = name
        self.args = args
        self._start = perf_counter()

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        end = perf_counter()
        if not enabled:          # disabled mid-span: drop silently
            return
        if exc_type is not None:
            self.args["error"] = getattr(exc_type, "__name__", str(exc_type))
        event = {
            "name": self.name, "ph": "X", "pid": os.getpid(), "tid": _tid(),
            "ts": (self._start - _epoch) * 1e6,
            "dur": (end - self._start) * 1e6,
            "args": self.args,
        }
        with _lock:
            _events.append(event)


def span(name: str, **args: Any) -> "_Span | _NoopSpan":
    """A context manager bracketing ``name``; no-op singleton when disabled."""
    if not enabled:
        return _NOOP
    return _Span(name, args)


def add_complete(name: str, duration_s: float, **args: Any) -> None:
    """Record an already-measured interval that *ended just now*.

    ``duration_s`` must come from ``perf_counter`` differences — the event
    is back-dated by that amount so it aligns with live spans on the same
    clock.
    """
    if not enabled:
        return
    end = perf_counter()
    event = {
        "name": name, "ph": "X", "pid": os.getpid(), "tid": _tid(),
        "ts": (end - _epoch - duration_s) * 1e6,
        "dur": duration_s * 1e6,
        "args": args,
    }
    with _lock:
        _events.append(event)


def add_instant(name: str, **args: Any) -> None:
    """Record a zero-duration marker (simulated transfers, boundaries)."""
    if not enabled:
        return
    event = {
        "name": name, "ph": "X", "pid": os.getpid(), "tid": _tid(),
        "ts": (perf_counter() - _epoch) * 1e6, "dur": 0.0,
        "args": args,
    }
    with _lock:
        _events.append(event)


# --------------------------------------------------------------------------- #
# Ids
# --------------------------------------------------------------------------- #
def new_trace_id() -> str:
    """A fresh request-scoped trace id (minted once, at the client)."""
    return uuid.uuid4().hex[:16]


def new_span_id() -> str:
    """A process-unique span id, cheap and ordered within the process."""
    global _span_counter
    with _lock:
        _span_counter += 1
        return f"{os.getpid():x}.{_span_counter}"


# --------------------------------------------------------------------------- #
# Lifecycle + export
# --------------------------------------------------------------------------- #
def enable() -> None:
    """Turn recording on; resets the event buffer and the clock epoch."""
    global enabled, _epoch
    with _lock:
        _events.clear()
        _tids.clear()
    _epoch = perf_counter()
    enabled = True


def disable() -> None:
    global enabled
    enabled = False


def is_enabled() -> bool:
    return enabled


def event_count() -> int:
    with _lock:
        return len(_events)


def drain() -> list[dict[str, Any]]:
    """Remove and return all buffered events (metadata events included)."""
    with _lock:
        out = list(_events)
        _events.clear()
        _tids.clear()
    return out


def export(path: "str | os.PathLike[str]", *, drain_events: bool = True) -> int:
    """Write buffered events as Chrome trace-event JSON; returns the count.

    The file is the ``{"traceEvents": [...]}`` envelope Perfetto expects,
    events sorted by ``ts`` (metadata first).
    """
    if drain_events:
        events = drain()
    else:
        with _lock:
            events = list(_events)
    events.sort(key=lambda e: (e.get("ph") != "M", e.get("ts", 0.0)))
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    tmp = f"{os.fspath(path)}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, os.fspath(path))
    return sum(1 for e in events if e.get("ph") != "M")
