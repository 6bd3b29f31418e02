"""`ShardRouter` — horizontal scale-out for the resident serving tier.

One :class:`~repro.serve.server.QueryServer` process is the ceiling on
serving throughput; the router removes it the way the paper's multi-worker
partitioning removes the training ceiling: **partition the vertex space,
fan out, merge**.  Each graph's rows are split into N contiguous ranges
(:func:`partition_ranges`); shard *s* is an ordinary ``QueryServer`` that
answers every query with ``"range": [lo_s, hi_s)`` — the routing primitive
added to the query stack — so it only proposes candidates from the rows it
owns.  The router concatenates the shards' candidates per query row and
re-ranks with the *same* shared rule every backend uses
(:func:`repro.query.backends.topk_by_score`: descending score, ascending id
on ties).

**The merge is bit-exact.**  Ranged scoring walks the same canonical block
grid as an unranged run and only masks selection (see
``resolve_vertex_range``), so every shard candidate's float32 score bits
equal the single-server oracle's bits for that row; JSON transport is
exact for float32 (shortest-repr round-trip); and a shard returns its full
local top-k — a global top-k winner is necessarily a local top-k winner in
the shard that owns it.  The parity suite in ``tests/serve/test_router.py``
pins merged ids *and* score bits against a single-process run.

**Failure is recoverable, never permanent.**  Every shard range is served
by a *replica set* of one or more addresses; each replica carries an
explicit health state machine (:class:`HealthState`:
``healthy → suspect → dead``) driven by exchange outcomes.  Routing prefers
the healthiest, least-loaded replica and **fails over within the request**
when the primary errors (replicas serve identical store versions — the
merge-time version-skew refusal covers cross-replica skew too).  A replica
marked dead is not routed to — requests fail fast instead of paying
connect timeouts — but it is never abandoned: a background prober re-pings
it on an exponential-backoff schedule (``probe_interval_s`` doubling up to
``probe_backoff_max_s``) and readmits it the moment a ping succeeds, so a
shard that crashes and restarts rejoins the fleet automatically.  Every
socket operation in a fan-out runs under a per-shard wall-clock deadline
(``timeout_s``), so a *hung* shard — accepted connection, no replies —
fails its own batch with :class:`ShardError` inside the deadline instead
of wedging the router's fan-out; other ranges keep serving.

**The router is itself a ``QueryServer``.**  :class:`ShardedBackendService`
duck-types the one interface the server needs (``query_batch`` /
``stats``), so the router inherits the whole serving tier for free:
NDJSON protocol, admission control with typed ``overloaded`` rejections,
per-tool admission quotas, microbatching of concurrent client queries into
shared fan-outs, the ``stats`` verb, graceful drain, the blocking
:class:`ServerThread` facade, and the HTTP front (``http_port``).

``exclude_self`` never reaches the shards: the router asks each shard for
``k + 1`` *including* self (self-exclusion is not range-local — the self
row lives in exactly one shard) and drops the query's own id at merge
time, reproducing the engine's ask-one-extra idiom across the cluster.
"""

from __future__ import annotations

import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from time import monotonic
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from ..obs.metrics import LatencyHistogram, StateClock
from ..query.backends import topk_by_score
from .client import ServeClient, parse_address
from .protocol import MAX_FRAME_BYTES, decode_frame, encode_frame
from .server import QueryServer, ServerThread

__all__ = ["ShardRouter", "ShardedBackendService", "ShardError",
           "HealthState", "partition_ranges",
           "HEALTH_HEALTHY", "HEALTH_SUSPECT", "HEALTH_DEAD"]

#: Replica health states, in escalation order.  ``healthy`` is routable and
#: preferred; ``suspect`` (one recent failure) is routable as a fallback;
#: ``dead`` (repeated failures) is only touched by probes — or as a
#: last-ditch candidate once its probe backoff has elapsed.
HEALTH_HEALTHY = "healthy"
HEALTH_SUSPECT = "suspect"
HEALTH_DEAD = "dead"

_HEALTH_RANK = {HEALTH_HEALTHY: 0, HEALTH_SUSPECT: 1, HEALTH_DEAD: 2}


def partition_ranges(num_vertices: int, shards: int) -> list[tuple[int, int]]:
    """Split ``[0, num_vertices)`` into ``shards`` contiguous near-even ranges.

    The first ``num_vertices % shards`` ranges get one extra row.  With more
    shards than rows the tail ranges are empty ``(x, x)`` — callers must
    skip those when fanning out (a ranged query requires ``lo < hi``).
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if num_vertices < 0:
        raise ValueError("num_vertices must be >= 0")
    base, extra = divmod(num_vertices, shards)
    ranges, lo = [], 0
    for s in range(shards):
        hi = lo + base + (1 if s < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


class ShardError(RuntimeError):
    """A shard failed a fanned-out request (error reply, version skew,
    timeout, or connection failure).  Carried per-request so one shard's
    trouble fails only the queries that needed it."""


class HealthState:
    """``healthy → suspect → dead`` state machine for one shard replica.

    Driven by exchange/probe outcomes: the first failure demotes a healthy
    replica to ``suspect`` (still routable, deprioritized), the second to
    ``dead`` (not routed to; fail fast).  Every failure schedules the next
    probe with exponential backoff — ``probe_interval_s`` doubling per
    consecutive failure beyond the one that killed it, capped at
    ``probe_backoff_max_s`` — and any success snaps the replica back to
    ``healthy`` (a *readmission* when it was not healthy before).  The
    clock is injectable so the schedule is unit-testable without sleeping.
    """

    def __init__(self, *, probe_interval_s: float = 1.0,
                 probe_backoff_max_s: float = 30.0,
                 clock: Callable[[], float] = monotonic):
        if probe_interval_s <= 0 or probe_backoff_max_s < probe_interval_s:
            raise ValueError("need 0 < probe_interval_s <= probe_backoff_max_s")
        self.probe_interval_s = probe_interval_s
        self.probe_backoff_max_s = probe_backoff_max_s
        self._clock = clock
        self.state = HEALTH_HEALTHY
        self.consecutive_failures = 0
        self.next_probe_at = 0.0
        self.readmissions = 0
        self.dwell = StateClock(HEALTH_HEALTHY, clock=clock)

    def backoff_s(self) -> float:
        """Wait before the next probe, from the current failure count."""
        doublings = max(self.consecutive_failures - 2, 0)
        return min(self.probe_interval_s * (2.0 ** doublings),
                   self.probe_backoff_max_s)

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        state = (HEALTH_SUSPECT if self.consecutive_failures < 2
                 else HEALTH_DEAD)
        if state != self.state:
            self.state = state
            self.dwell.transition(state)
        self.next_probe_at = self._clock() + self.backoff_s()

    def record_success(self) -> bool:
        """Snap back to healthy; True when this was a readmission."""
        readmitted = self.state != HEALTH_HEALTHY
        self.consecutive_failures = 0
        self.next_probe_at = 0.0
        if readmitted:
            self.state = HEALTH_HEALTHY
            self.dwell.transition(HEALTH_HEALTHY)
            self.readmissions += 1
        return readmitted

    def probe_due(self) -> bool:
        return (self.state != HEALTH_HEALTHY
                and self._clock() >= self.next_probe_at)

    def routable(self) -> bool:
        """May traffic be sent here?  Dead replicas only once probe-due."""
        return self.state != HEALTH_DEAD or self.probe_due()


class _RoutedEntry:
    """The ``entry`` facet of a routed response: just the store version the
    shards agreed on (the router holds no store of its own)."""

    __slots__ = ("version",)

    def __init__(self, version: int):
        self.version = version


class _RoutedResponse:
    """Duck-types the response surface ``QueryServer._finish`` reads:
    ``ids`` / ``scores`` / ``store_hit`` / ``entry.version``."""

    __slots__ = ("ids", "scores", "store_hit", "entry")

    def __init__(self, ids: np.ndarray, scores: np.ndarray, store_hit: bool,
                 version: int):
        self.ids = ids
        self.scores = scores
        self.store_hit = store_hit
        self.entry = _RoutedEntry(version)


class _ShardLink:
    """One persistent NDJSON connection to a shard replica, with pipelined
    batches, a per-exchange wall-clock deadline, and health tracking.

    ``exchange`` writes every frame before reading any reply, then matches
    replies to frames by id (a server answers admission rejections
    immediately but batched queries later, so reply order is not request
    order).  Wire ids are rewritten to per-exchange-unique tokens and
    mapped back on receipt, so a resend can never be satisfied by a stale
    or duplicate reply — replies that match no outstanding token are
    counted (``duplicate_replies``) and dropped instead of corrupting this
    or any later exchange.  One resend on a fresh connection absorbs a
    shard restart that killed the persistent connection between batches; a
    failure on a *fresh* connection, or any deadline expiry, raises
    :class:`ShardError` immediately (retrying a hung shard would double
    the hang, and the replica set is the real retry mechanism).
    """

    def __init__(self, address: str, *, timeout_s: float = 30.0,
                 probe_timeout_s: "float | None" = None,
                 health: "HealthState | None" = None,
                 clock: Callable[[], float] = monotonic):
        self.address = address
        self.timeout_s = timeout_s
        self.probe_timeout_s = (min(timeout_s, 5.0) if probe_timeout_s is None
                                else probe_timeout_s)
        self._clock = clock
        self.health = health if health is not None else HealthState(clock=clock)
        self._sock: "socket.socket | None" = None
        self._file = None
        self._lock = threading.Lock()
        self._epoch = 0
        # Link stats (read by routing heuristics + the stats verb).
        self.inflight = 0           # frames currently being exchanged here
        self.routed = 0             # frames attempted (resends/failovers count)
        self.frames_ok = 0          # frames answered by a completed exchange
        self.exchange_failures = 0
        self.duplicate_replies = 0
        self.probes_sent = 0
        self.probes_ok = 0

    # ------------------------------------------------------------------ #
    def _connect(self, deadline: float) -> None:
        remaining = deadline - self._clock()
        if remaining <= 0:
            raise TimeoutError("deadline exhausted before connect")
        kind, target = parse_address(self.address)
        if kind == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(remaining)
            sock.connect(target)
        else:
            sock = socket.create_connection(target, timeout=remaining)
        self._sock, self._file = sock, sock.makefile("rb")

    def close(self) -> None:
        with self._lock:
            self._teardown()

    def _teardown(self) -> None:
        for obj in (self._file, self._sock):
            if obj is not None:
                try:
                    obj.close()
                except OSError:
                    pass
        self._sock = self._file = None

    # ------------------------------------------------------------------ #
    def exchange(self, frames: "list[dict[str, Any]]") -> dict[Any, dict[str, Any]]:
        """Send every frame, read one reply per frame; return ``{id: reply}``.

        The whole exchange — connect included — runs under one
        ``timeout_s`` wall-clock deadline.  Success/failure is recorded on
        :attr:`health`.
        """
        if not frames:
            return {}
        self.inflight += len(frames)
        try:
            with self._lock:
                return self._exchange_locked(frames)
        finally:
            self.inflight -= len(frames)

    def _exchange_locked(self, frames: "list[dict[str, Any]]",
                         ) -> dict[Any, dict[str, Any]]:
        deadline = self._clock() + self.timeout_s
        reused = self._sock is not None
        while True:
            self.routed += len(frames)
            try:
                if self._sock is None:
                    self._connect(deadline)
                replies = self._exchange_once(frames, deadline)
            except (ConnectionError, OSError, ValueError) as exc:
                self._teardown()
                self.exchange_failures += 1
                timed_out = isinstance(exc, TimeoutError)
                if reused and not timed_out:
                    # The persistent connection went stale (e.g. the shard
                    # restarted between batches): one resend, fresh socket.
                    reused = False
                    continue
                self.health.record_failure()
                what = "timed out" if timed_out else "unreachable"
                raise ShardError(
                    f"shard {self.address} {what}: {exc}") from exc
            self.frames_ok += len(frames)
            self.health.record_success()
            return replies

    def _exchange_once(self, frames: "list[dict[str, Any]]", deadline: float,
                       ) -> dict[Any, dict[str, Any]]:
        self._epoch += 1
        tokens: dict[str, Any] = {}
        payload: list[bytes] = []
        for j, frame in enumerate(frames):
            # Per-exchange-unique wire ids: a resent batch can only be
            # answered by replies to *this* incarnation, and duplicates
            # dedupe instead of bleeding into the next exchange.
            token = f"x{self._epoch}.{j}"
            tokens[token] = frame.get("id")
            payload.append(encode_frame({**frame, "id": token}))
        assert self._sock is not None and self._file is not None
        self._arm(deadline)
        self._sock.sendall(b"".join(payload))
        replies: dict[Any, dict[str, Any]] = {}
        pending = set(tokens)
        # Tolerate bounded noise (duplicate/unsolicited replies from a
        # misbehaving shard) without reading this connection forever.
        budget = 2 * len(frames) + 8
        while pending:
            if budget <= 0:
                raise ConnectionError("shard flooded the link with "
                                      "unmatched replies")
            budget -= 1
            self._arm(deadline)
            line = self._file.readline(MAX_FRAME_BYTES + 1)
            if not line:
                raise ConnectionError("shard closed the connection mid-batch")
            reply = decode_frame(line)
            token = reply.get("id")
            if token in pending:
                pending.discard(token)
                reply["id"] = tokens[token]
                replies[tokens[token]] = reply
            else:
                self.duplicate_replies += 1
        return replies

    def _arm(self, deadline: float) -> None:
        """Bound the next socket operation by the exchange deadline."""
        remaining = deadline - self._clock()
        if remaining <= 0:
            raise TimeoutError(
                f"shard exchange deadline ({self.timeout_s}s) exhausted")
        assert self._sock is not None
        self._sock.settimeout(remaining)

    # ------------------------------------------------------------------ #
    def probe(self) -> bool:
        """Ping the replica on a fresh connection; drive the health machine.

        Used by the background prober to readmit recovered shards.  Runs
        under :attr:`probe_timeout_s` so probing a blackholed address can't
        wedge the prober thread for the full exchange timeout.
        """
        self.probes_sent += 1
        with self._lock:
            deadline = self._clock() + self.probe_timeout_s
            try:
                self._teardown()
                self._connect(deadline)
                replies = self._exchange_once(
                    [{"id": "probe", "verb": "ping"}], deadline)
                ok = bool(replies.get("probe", {}).get("ok"))
            except (ConnectionError, OSError, ValueError):
                ok = False
            if not ok:
                self._teardown()
                self.health.record_failure()
                return False
            self.probes_ok += 1
            self.health.record_success()
            return True

    def stats_row(self) -> dict[str, Any]:
        return {
            "address": self.address,
            "state": self.health.state,
            "consecutive_failures": self.health.consecutive_failures,
            "inflight": self.inflight,
            "routed": self.routed,
            "frames_ok": self.frames_ok,
            "exchange_failures": self.exchange_failures,
            "duplicate_replies": self.duplicate_replies,
            "probes_sent": self.probes_sent,
            "probes_ok": self.probes_ok,
            "readmissions": self.health.readmissions,
            "dwell": self.health.dwell.summary(),
        }


class _ShardGroup:
    """The replica set serving one vertex range: pick, exchange, fail over.

    Candidates are ranked healthiest-first (healthy < suspect <
    probe-due-dead) and, within a rank, least-loaded first (the link
    ``inflight`` heuristic).  When the chosen replica's exchange raises,
    the same frames are resent to the next candidate — failover *within*
    the request; queries are idempotent and per-exchange wire ids make the
    resend safe.  Only when every candidate fails (or every replica is
    dead and none is probe-due yet) does the whole group fail the batch.
    """

    def __init__(self, index: int, addresses: Sequence[str], *,
                 timeout_s: float, probe_interval_s: float,
                 probe_backoff_max_s: float,
                 clock: Callable[[], float] = monotonic):
        self.index = index
        self._clock = clock
        self.links = [
            _ShardLink(address, timeout_s=timeout_s, clock=clock,
                       health=HealthState(
                           probe_interval_s=probe_interval_s,
                           probe_backoff_max_s=probe_backoff_max_s,
                           clock=clock))
            for address in addresses]
        self.frames = 0          # frames offered to this group
        self.frames_failed = 0   # frames no replica could answer
        self.failovers = 0       # secondary replica attempts

    @property
    def addresses(self) -> list[str]:
        return [link.address for link in self.links]

    def candidates(self) -> "list[_ShardLink]":
        ranked = sorted(
            ((_HEALTH_RANK[link.health.state], link.inflight, i)
             for i, link in enumerate(self.links) if link.health.routable()))
        return [self.links[i] for _, _, i in ranked]

    def exchange(self, frames: "list[dict[str, Any]]") -> dict[Any, dict[str, Any]]:
        self.frames += len(frames)
        links = self.candidates()
        if not links:
            self.frames_failed += len(frames)
            wait = min(link.health.next_probe_at for link in self.links)
            raise ShardError(
                f"shard {self.index}: all {len(self.links)} replica(s) are "
                f"dead; next probe in {max(wait - self._clock(), 0.0):.2f}s")
        last_error: "ShardError | None" = None
        for attempt, link in enumerate(links):
            if attempt:
                self.failovers += 1
            try:
                replies = link.exchange(frames)
            except ShardError as exc:
                last_error = exc
                continue
            if any(not r.get("ok") and r.get("code") == "shutting-down"
                   for r in replies.values()):
                # A draining replica answers transport-fine but refuses the
                # work ("retry elsewhere" is the reply's own advice): mark
                # it and re-ask the next replica — queries are idempotent,
                # so resending already-answered frames is safe.
                link.health.record_failure()
                last_error = ShardError(
                    f"shard {link.address} is shutting down")
                continue
            return replies
        self.frames_failed += len(frames)
        assert last_error is not None
        raise last_error

    def close(self) -> None:
        for link in self.links:
            link.close()

    def stats_rows(self) -> dict[str, Any]:
        return {
            "range_index": self.index,
            "frames": self.frames,
            "frames_failed": self.frames_failed,
            "failovers": self.failovers,
            "replicas": [link.stats_row() for link in self.links],
        }


class ShardedBackendService:
    """``EmbeddingService``-shaped facade that answers by shard fan-out.

    Implements exactly the protocol :class:`QueryServer` requires of its
    service — ``query_batch(requests) -> responses`` and ``stats()`` — so a
    server wrapping this object *is* the shard router.  Per batch it builds
    one ranged frame list per shard range (only the ranges intersecting a
    request's allowed rows participate), pipelines them concurrently over
    the ranges' replica sets, and merges per request.  A failed request
    comes back as a :class:`ShardError` *instance* in the response list —
    the server already maps exception responses to typed ``error`` replies,
    so one bad shard fails only its own queries, never the batch.

    ``addresses`` is either a flat list of address strings — grouped into
    consecutive ``replicas``-sized replica sets — or a list of per-range
    replica lists.  A background prober thread re-pings unhealthy replicas
    on their backoff schedule (see :class:`HealthState`) so recovered
    shards readmit without any traffic having to pay for the discovery.
    """

    def __init__(self, addresses: Iterable[Any], graphs: Mapping[str, Any], *,
                 timeout_s: float = 30.0, replicas: int = 1,
                 probe_interval_s: float = 1.0,
                 probe_backoff_max_s: float = 30.0):
        if timeout_s <= 0:
            raise ValueError("timeout_s must be > 0")
        grouped = self._group_addresses(list(addresses), replicas)
        self.graphs = dict(graphs)
        self._graph_names = {id(g): name for name, g in self.graphs.items()}
        self.probe_interval_s = probe_interval_s
        self.groups = [
            _ShardGroup(i, group, timeout_s=timeout_s,
                        probe_interval_s=probe_interval_s,
                        probe_backoff_max_s=probe_backoff_max_s)
            for i, group in enumerate(grouped)]
        #: Every backend address, group-major (back-compat flat view).
        self.addresses = [a for group in grouped for a in group]
        self._ranges = {name: partition_ranges(g.num_vertices, len(self.groups))
                        for name, g in self.graphs.items()}
        self._pool = ThreadPoolExecutor(
            max_workers=len(self.groups),
            thread_name_prefix="repro-route")
        # Router-level counters (folded into the stats verb).
        self.fanouts = 0
        self.shard_queries = 0
        self.shard_errors = 0    # requests failed by shard trouble
        self.plan_errors = 0     # requests failed before any fan-out
        self.requests_ok = 0
        self.requests_failed = 0
        self._prober_stop = threading.Event()
        self._prober = threading.Thread(
            target=self._probe_loop, name="repro-route-probe", daemon=True)
        self._prober.start()

    @staticmethod
    def _group_addresses(addresses: "list[Any]", replicas: int,
                         ) -> "list[list[str]]":
        if not addresses:
            raise ValueError("need at least one shard address")
        if all(isinstance(a, str) for a in addresses):
            if replicas < 1:
                raise ValueError("replicas must be >= 1")
            if len(addresses) % replicas:
                raise ValueError(
                    f"{len(addresses)} address(es) do not divide into "
                    f"replica sets of {replicas}")
            return [addresses[i:i + replicas]
                    for i in range(0, len(addresses), replicas)]
        if replicas != 1:
            raise ValueError("pass nested replica lists OR replicas=, not both")
        grouped = [[a] if isinstance(a, str) else list(a) for a in addresses]
        for group in grouped:
            if not group or not all(isinstance(a, str) and a for a in group):
                raise ValueError("every replica set needs at least one "
                                 "non-empty address string")
        return grouped

    # ------------------------------------------------------------------ #
    # Health probing
    # ------------------------------------------------------------------ #
    def _probe_loop(self) -> None:
        """Re-ping unhealthy replicas whose backoff has elapsed."""
        period = max(0.02, min(self.probe_interval_s / 2.0, 0.25))
        while not self._prober_stop.wait(period):
            for group in self.groups:
                for link in group.links:
                    if self._prober_stop.is_set():
                        return
                    if link.health.state != HEALTH_HEALTHY and link.health.probe_due():
                        link.probe()

    def probe_now(self) -> int:
        """Probe every probe-due unhealthy replica once; returns successes.

        The deterministic entry the prober thread loops over — tests (and
        impatient operators) can call it directly instead of sleeping
        through the probe interval.
        """
        readmitted = 0
        for group in self.groups:
            for link in group.links:
                if link.health.state != HEALTH_HEALTHY and link.health.probe_due():
                    readmitted += bool(link.probe())
        return readmitted

    # ------------------------------------------------------------------ #
    # The service protocol
    # ------------------------------------------------------------------ #
    def query_batch(self, requests: Iterable[Any]) -> list[Any]:
        requests = list(requests)
        plans = [self._plan(j, request) for j, request in enumerate(requests)]
        per_shard: dict[int, list[dict[str, Any]]] = {}
        for plan in plans:
            for s, frame in plan["frames"].items():
                per_shard.setdefault(s, []).append(frame)
        self.fanouts += 1
        self.shard_queries += sum(len(v) for v in per_shard.values())
        futures = {s: self._pool.submit(self.groups[s].exchange, frames)
                   for s, frames in per_shard.items()}
        replies: dict[int, "dict[Any, dict[str, Any]] | ShardError"] = {}
        for s, future in futures.items():
            try:
                replies[s] = future.result()
            except ShardError as exc:
                replies[s] = exc
        responses = []
        for plan in plans:
            response = self._merge(plan, requests[plan["index"]], replies)
            if isinstance(response, ShardError):
                self.requests_failed += 1
            else:
                self.requests_ok += 1
            responses.append(response)
        return responses

    def stats(self) -> dict[str, Any]:
        """Router counters, per-replica health, and shard snapshots.

        Per-shard latency histograms (when the shard reports them) are
        merged bucket-wise into fleet-wide percentiles under
        ``fleet_latency`` — the aggregate a dashboard actually wants,
        impossible to recover from per-shard p99s alone.
        """
        shards: list[dict[str, Any]] = []
        fleet: dict[str, LatencyHistogram] = {}
        shards_reporting = 0
        for group in self.groups:
            for link in group.links:
                if link.health.state != HEALTH_HEALTHY:
                    # Don't pay a connect timeout (or a blackhole stall) to
                    # snapshot a replica the health machine already marked.
                    shards.append({"address": link.address,
                                   "state": link.health.state,
                                   "error": "replica is not healthy; "
                                            "snapshot skipped"})
                    continue
                try:
                    with ServeClient(link.address, timeout_s=2.0) as client:
                        shard_stats = client.stats()
                    shards.append({"address": link.address,
                                   "state": link.health.state,
                                   "server": shard_stats.get("server", {})})
                except (ConnectionError, OSError, ValueError) as exc:
                    shards.append({"address": link.address,
                                   "state": link.health.state,
                                   "error": str(exc)})
                    continue
                histograms = (shard_stats.get("latency") or {}).get("histograms")
                if isinstance(histograms, dict):
                    shards_reporting += self._merge_fleet(fleet, histograms)
        result = {
            "router": {
                "shards": len(self.groups),
                "replicas_per_shard": [len(g.links) for g in self.groups],
                "fanouts": self.fanouts,
                "shard_queries": self.shard_queries,
                "shard_errors": self.shard_errors,
                "plan_errors": self.plan_errors,
                "requests_ok": self.requests_ok,
                "requests_failed": self.requests_failed,
                "failovers": sum(g.failovers for g in self.groups),
                "probes_sent": sum(l.probes_sent for g in self.groups
                                   for l in g.links),
                "probes_ok": sum(l.probes_ok for g in self.groups
                                 for l in g.links),
                "readmissions": sum(l.health.readmissions
                                    for g in self.groups for l in g.links),
                "probe_interval_s": self.probe_interval_s,
            },
            "health": [group.stats_rows() for group in self.groups],
            "shards": shards,
        }
        if fleet:
            result["fleet_latency"] = {
                stage: hist.summary() for stage, hist in sorted(fleet.items())}
            result["fleet_latency"]["shards_reporting"] = shards_reporting
        return result

    @staticmethod
    def _merge_fleet(fleet: "dict[str, LatencyHistogram]",
                     histograms: "dict[str, Any]") -> int:
        """Fold one shard's stage histograms into the fleet aggregate.

        Returns 1 when anything merged.  Unparseable payloads (version
        skew, stub shards) are skipped — fleet latency is best-effort and
        must never fail the stats verb.
        """
        merged_any = 0
        for stage, payload in histograms.items():
            try:
                hist = LatencyHistogram.from_dict(payload)
            except (ValueError, KeyError, TypeError):
                continue
            if stage in fleet:
                try:
                    fleet[stage].merge(hist)
                except ValueError:      # different bucket layout
                    continue
            else:
                fleet[stage] = hist
            merged_any = 1
        return merged_any

    def close(self) -> None:
        self._prober_stop.set()
        self._prober.join(timeout=5.0)
        for group in self.groups:
            group.close()
        self._pool.shutdown(wait=False)

    # ------------------------------------------------------------------ #
    # Fan-out planning + merge
    # ------------------------------------------------------------------ #
    def _plan(self, j: int, request: Any) -> dict[str, Any]:
        """Which shard ranges serve request ``j``, and with what frames."""
        graph_name = self._graph_names.get(id(request.graph))
        if graph_name is None:
            return {"index": j, "frames": {},
                    "error": ShardError("request names a graph the router does "
                                        "not serve")}
        tool = request.tool if isinstance(request.tool, str) else request.tool.name
        num_vertices = self.graphs[graph_name].num_vertices
        lo_all, hi_all = request.vertex_range or (0, num_vertices)
        hi_all = min(hi_all, num_vertices)
        by_vertex = request.vertices is not None
        exclude = bool(request.exclude_self) and by_vertex
        # Ask one extra per shard when the self row must be dropped at
        # merge time — the engine's own k+1 idiom, lifted over the fan-out.
        shard_k = request.k + 1 if exclude else request.k
        frames: dict[int, dict[str, Any]] = {}
        for s, (lo, hi) in enumerate(self._ranges[graph_name]):
            lo, hi = max(lo, lo_all), min(hi, hi_all)
            if lo >= hi:
                continue
            frame: dict[str, Any] = {
                "id": j, "verb": "query", "tool": tool, "graph": graph_name,
                "k": min(shard_k, hi - lo), "range": [lo, hi],
            }
            if by_vertex:
                frame["vertices"] = np.atleast_1d(
                    np.asarray(request.vertices, dtype=np.int64)).tolist()
                frame["exclude_self"] = False
            else:
                frame["vectors"] = np.atleast_2d(
                    np.asarray(request.vectors, dtype=np.float32)).tolist()
            if request.metric is not None:
                frame["metric"] = request.metric
            if request.backend is not None:
                frame["backend"] = request.backend
            tctx = getattr(request, "trace", None)
            if tctx is not None:
                # Forward the trace id; the parent this hop hands down is
                # its own span when one was minted (tracing enabled here),
                # else the upstream sender's — shard spans always attach to
                # the nearest recorded ancestor.
                sender = tctx.get("span") or tctx.get("parent")
                frame["trace"] = ({"id": tctx["id"], "span": sender}
                                  if sender else {"id": tctx["id"]})
            frames[s] = frame
        plan = {"index": j, "frames": frames,
                "size": hi_all - lo_all, "exclude": exclude}
        if not frames:
            plan["error"] = ShardError(
                f"request range [{lo_all}, {hi_all}) selects no rows")
        return plan

    def _merge(self, plan: dict[str, Any], request: Any,
               replies: Mapping[int, Any]) -> Any:
        if "error" in plan:
            self.plan_errors += 1
            return plan["error"]
        parts: list[dict[str, Any]] = []
        for s in plan["frames"]:
            shard_replies = replies.get(s)
            if isinstance(shard_replies, ShardError):
                self.shard_errors += 1
                return shard_replies
            reply = (shard_replies or {}).get(plan["index"])
            if reply is None:
                self.shard_errors += 1
                return ShardError(
                    f"shard {s} returned no reply for the request")
            if not reply.get("ok"):
                self.shard_errors += 1
                return ShardError(
                    f"shard {s} failed the request: "
                    f"{reply.get('code', 'error')}: {reply.get('error', '')}")
            parts.append(reply)
        versions = {int(p["version"]) for p in parts}
        if len(versions) > 1:
            # Version skew refusal spans replicas too: whichever replica
            # served each range, merged parts must agree on the lineage.
            self.shard_errors += 1
            return ShardError(
                f"shards disagree on the store version ({sorted(versions)}); "
                f"refusing to merge across lineages")
        num_queries = len(parts[0]["ids"])
        exclude = plan["exclude"]
        size = plan["size"]
        want = min(request.k, max(size - 1, 0)) if exclude else min(request.k, size)
        out_ids = np.empty((num_queries, want), dtype=np.int64)
        out_scores = np.empty((num_queries, want), dtype=np.float32)
        vertices = (np.atleast_1d(np.asarray(request.vertices, dtype=np.int64))
                    if exclude else None)
        for row in range(num_queries):
            ids = np.concatenate([
                np.asarray(p["ids"][row], dtype=np.int64) for p in parts])
            # float32 -> JSON -> float32 is bit-exact (shortest-repr floats),
            # so merged score bits equal the shards' — and the oracle's.
            scores = np.concatenate([
                np.asarray(p["scores"][row], dtype=np.float32) for p in parts])
            if exclude:
                keep = ids != vertices[row]
                ids, scores = ids[keep], scores[keep]
            out_ids[row], out_scores[row] = topk_by_score(ids, scores, want)
        return _RoutedResponse(
            ids=out_ids, scores=out_scores,
            store_hit=all(bool(p.get("store_hit")) for p in parts),
            version=versions.pop())


class ShardRouter:
    """The deployable router: a :class:`QueryServer` whose service is a
    :class:`ShardedBackendService`, run on a :class:`ServerThread`.

    Two construction shapes:

    * ``ShardRouter(graphs, addresses)`` — route over externally managed
      shard servers (e.g. separate processes started with ``repro-gosh
      serve``).  ``replicas=R`` groups a flat address list into consecutive
      R-sized replica sets; nested lists give per-range replica sets
      directly.
    * ``ShardRouter.spawn(service_or_factory, graphs, shard_count=N,
      replicas=R)`` — spawn ``N × R`` in-process shard servers first (each
      on its own event-loop thread, port 0), then route over them;
      ``stop()`` tears them down.  Pass a zero-argument *factory* to give
      every shard its own ``EmbeddingService`` (same store directory,
      independent serving locks) so shard fan-outs genuinely run in
      parallel.
    """

    def __init__(self, graphs: Mapping[str, Any], addresses: Iterable[Any], *,
                 default_graph: "str | None" = None,
                 default_tool: "str | None" = None,
                 host: str = "127.0.0.1", port: int = 0,
                 socket_path: "str | None" = None,
                 max_inflight: int = 64, queue_depth: int = 128,
                 max_batch: int = 32,
                 max_inflight_per_tool: "int | None" = None,
                 replicas: int = 1, shard_timeout_s: float = 30.0,
                 probe_interval_s: float = 1.0,
                 probe_backoff_max_s: float = 30.0,
                 http_port: "int | None" = None, http_host: str = "127.0.0.1",
                 owned: "list[ServerThread] | None" = None):
        self.backend = ShardedBackendService(
            addresses, graphs, timeout_s=shard_timeout_s, replicas=replicas,
            probe_interval_s=probe_interval_s,
            probe_backoff_max_s=probe_backoff_max_s)
        self.server = QueryServer(
            self.backend, graphs, host=host, port=port,
            socket_path=socket_path, default_graph=default_graph,
            default_tool=default_tool, max_inflight=max_inflight,
            queue_depth=queue_depth, max_batch=max_batch,
            max_inflight_per_tool=max_inflight_per_tool)
        self.handle = ServerThread(self.server, http_port=http_port,
                                   http_host=http_host)
        self._owned = list(owned or [])
        self.address: "str | None" = None
        self.http_address: "str | None" = None

    @classmethod
    def spawn(cls, service_or_factory: Any, graphs: Mapping[str, Any], *,
              shard_count: int, replicas: int = 1,
              shard_host: str = "127.0.0.1",
              shard_max_inflight: int = 64, shard_queue_depth: int = 128,
              shard_max_batch: int = 32,
              **router_kwargs: Any) -> "ShardRouter":
        """Spawn ``shard_count × replicas`` in-process shard servers, then
        route over them (replica set ``r`` of range ``s`` is server
        ``s * replicas + r``).  ``service_or_factory`` is a service instance
        shared by every shard, or a zero-argument factory called once per
        shard server."""
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        owned: list[ServerThread] = []
        addresses: list[str] = []
        try:
            for _ in range(shard_count * replicas):
                service = (service_or_factory() if callable(service_or_factory)
                           else service_or_factory)
                shard = QueryServer(
                    service, graphs, host=shard_host, port=0,
                    max_inflight=shard_max_inflight,
                    queue_depth=shard_queue_depth, max_batch=shard_max_batch)
                handle = ServerThread(shard)
                addresses.append(handle.start())
                owned.append(handle)
        except BaseException:
            for handle in owned:
                try:
                    handle.stop()
                except Exception:
                    pass
            raise
        return cls(graphs, addresses, owned=owned, replicas=replicas,
                   **router_kwargs)

    # ------------------------------------------------------------------ #
    def start(self) -> str:
        self.address = self.handle.start()
        self.http_address = self.handle.http_address
        return self.address

    def stop(self, *, timeout_s: float = 30.0) -> None:
        try:
            self.handle.stop(timeout_s=timeout_s)
        finally:
            self.backend.close()
            for handle in self._owned:
                try:
                    handle.stop(timeout_s=timeout_s)
                except Exception:
                    pass

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
