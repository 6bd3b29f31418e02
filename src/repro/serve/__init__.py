"""Resident serving subsystem: the long-lived process around the library.

``repro.serve`` turns :class:`~repro.api.EmbeddingService` into a network
service: a resident asyncio :class:`QueryServer` speaks newline-delimited
JSON over TCP or a Unix socket, admission-controls every query (bounded
queue + in-flight cap, explicit ``overloaded`` replies), timestamps each
request (queue-wait vs. service-time breakdown in every reply), and drains
the admission queue through :meth:`EmbeddingService.query_batch` so
concurrent clients stack into shared microbatches.  ``stats`` frames read
the admission counters, bounded latency histograms, and the service
snapshot in one verb — assembled off the event loop under a deadline, so a
stats poll answers (possibly from a stale snapshot) even while a
minutes-long embed holds the serving lock; ``metrics`` frames render the
same snapshot as Prometheus text (see :mod:`repro.obs`), which
:class:`HttpFront` also serves on ``GET /metrics``.  :meth:`QueryServer.stop`
drains in-flight work before exiting.

:class:`ServerThread` runs the server on a daemon event-loop thread for
synchronous callers; :class:`ServeClient` is the matching blocking client.

Scale-out lives here too: :class:`HttpFront` (:mod:`repro.serve.http`) is a
stdlib-only HTTP/1.1 adapter mapping ``POST /query`` / ``GET /stats`` /
``GET /metrics`` / ``GET /ping`` onto the same frame schema and admission
gate, and
:class:`ShardRouter` (:mod:`repro.serve.router`) partitions each graph's
vertex ranges across replica sets of shard servers and merges their top-k
bit-exactly (it *is* a ``QueryServer`` whose service fans out).  Each
replica carries a ``healthy → suspect → dead`` :class:`HealthState`
machine with background re-probing, so crashed shards readmit on recovery
and hung shards fail their batches within a deadline.  The traffic-scale
measurement side lives in :mod:`repro.loadgen`.
"""

from ..obs.metrics import LatencyHistogram, StateClock
from .client import ServeClient, parse_address
from .http import HttpFront
from .protocol import (
    ERROR_CODES,
    MAX_FRAME_BYTES,
    FrameError,
    decode_frame,
    encode_frame,
    error_reply,
    parse_query_request,
)
from .router import (
    HEALTH_DEAD,
    HEALTH_HEALTHY,
    HEALTH_SUSPECT,
    HealthState,
    ShardedBackendService,
    ShardError,
    ShardRouter,
    partition_ranges,
)
from .server import QueryServer, ServerThread

__all__ = [
    "QueryServer", "ServerThread", "ServeClient", "parse_address",
    "LatencyHistogram", "StateClock", "FrameError", "ERROR_CODES",
    "MAX_FRAME_BYTES", "encode_frame", "decode_frame", "error_reply",
    "parse_query_request", "HttpFront", "ShardRouter",
    "ShardedBackendService", "ShardError", "HealthState", "partition_ranges",
    "HEALTH_HEALTHY", "HEALTH_SUSPECT", "HEALTH_DEAD",
]
