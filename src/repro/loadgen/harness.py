"""Traffic-scale load harness for the resident query server.

Methodology follows the scalability-testbed idiom from the related WSN work
(PAPERS.md): **stamp every request at creation, measure delay as
receive − create on one clock, and characterize the latency distribution
and throughput as the concurrent-client count grows.**  The generator and
its clients share the process's monotonic clock, so end-to-end latency
needs no clock synchronisation; the server's per-reply ``timing`` breakdown
(queue-wait vs. service time, stamped on the server's clock) attributes
where that latency went.

Two canonical modes:

* **closed loop** — each of N clients keeps exactly one request in flight
  (send → await reply → send).  Throughput is demand-limited by N; this is
  the classic "N concurrent users" scaling curve.
* **open loop** — each client fires requests on a fixed schedule
  (``rate_per_client``/s) regardless of completions, the arrival pattern of
  independent internet users.  Under overload an open-loop run keeps
  offering load, so admission-control rejections become visible instead of
  being absorbed by client back-pressure.

:class:`LoadGenerator` holds every sample (it is a harness, not a resident
process) and reports exact percentiles; :meth:`LoadReport.as_json` renders
the report as a JSON-ready dict (the ``load`` CLI prints it).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from time import monotonic
from typing import Any

import numpy as np

from ..serve.client import parse_address
from ..serve.protocol import MAX_FRAME_BYTES, encode_frame

__all__ = ["LoadConfig", "LoadReport", "LoadGenerator"]


@dataclass
class LoadConfig:
    """One load-generation run against one or more running servers.

    ``address`` is a single ``"host:port"`` / ``"unix:<path>"`` string or a
    sequence of them; with several, clients are assigned round-robin and the
    run produces one merged report with a per-address breakdown — the shape
    needed to drive a sharded deployment (router + shards, or several
    routers) as one traffic source.
    """

    address: "str | tuple[str, ...] | list[str]"
    clients: int = 4
    mode: str = "closed"              # "closed" | "open"
    duration_s: float = 2.0
    requests_per_client: "int | None" = None   # closed loop: stop after N sends
    rate_per_client: float = 50.0     # open loop: arrivals per second per client
    k: int = 10
    num_vertices: int = 100           # query ids drawn uniformly from [0, this)
    tool: "str | None" = None         # None: rely on the server defaults
    graph: "str | None" = None
    seed: int = 0
    timeout_s: float = 30.0           # per-reply wait bound (closed loop)
    drain_grace_s: float = 5.0        # open loop: wait for stragglers after sending
    reject_backoff_s: float = 0.002   # closed loop: pause after an overload reply

    def __post_init__(self) -> None:
        if isinstance(self.address, str):
            self.address = (self.address,)
        else:
            self.address = tuple(self.address)
        if not self.address or not all(isinstance(a, str) and a for a in self.address):
            raise ValueError("address must be one or more non-empty address strings")
        if self.mode not in ("closed", "open"):
            raise ValueError(f"mode must be 'closed' or 'open', got {self.mode!r}")
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be > 0")
        if self.mode == "open" and self.rate_per_client <= 0:
            raise ValueError("open-loop mode needs rate_per_client > 0")
        if self.num_vertices < 1:
            raise ValueError("num_vertices must be >= 1")


@dataclass
class LoadReport:
    """Aggregated result of one run: counts, throughput, latency quantiles.

    With several target addresses the top-level numbers are the *merged*
    view (all clients, one clock), and ``per_address`` breaks the same
    counters + latency quantiles down by target.
    """

    mode: str
    clients: int
    elapsed_s: float
    sent: int
    answered: int
    rejected: int
    errors: int
    timeouts: int
    disconnects: int
    queries_per_s: float
    rejection_rate: float             # rejected / replies received
    latency_ms: dict[str, float]      # create -> reply receipt, client clock
    queue_wait_ms: dict[str, float]   # server-stamped admission wait
    service_ms: dict[str, float]      # server-stamped batch service time
    queue_wait_share: float           # sum(queue_wait) / sum(server total)
    addresses: list[str] = field(default_factory=list)
    per_address: dict[str, dict[str, Any]] = field(default_factory=dict)

    def as_json(self) -> dict[str, Any]:
        return {
            "mode": self.mode, "clients": self.clients,
            "elapsed_s": round(self.elapsed_s, 3),
            "sent": self.sent, "answered": self.answered,
            "rejected": self.rejected, "errors": self.errors,
            "timeouts": self.timeouts, "disconnects": self.disconnects,
            "queries_per_s": round(self.queries_per_s, 1),
            "rejection_rate": round(self.rejection_rate, 4),
            "latency_ms": self.latency_ms,
            "queue_wait_ms": self.queue_wait_ms,
            "service_ms": self.service_ms,
            "queue_wait_share": round(self.queue_wait_share, 4),
            "addresses": list(self.addresses),
            "per_address": self.per_address,
        }

    def summary_lines(self) -> list[str]:
        lat, qw = self.latency_ms, self.queue_wait_ms
        lines = [
            f"{self.mode}-loop, {self.clients} client(s), {self.elapsed_s:.2f}s: "
            f"{self.sent} sent, {self.answered} answered, {self.rejected} rejected, "
            f"{self.errors} errors, {self.timeouts} timeouts",
            f"throughput: {self.queries_per_s:,.1f} queries/s "
            f"(rejection rate {100 * self.rejection_rate:.2f}%)",
            f"latency: p50={lat.get('p50', 0):.2f}ms p95={lat.get('p95', 0):.2f}ms "
            f"p99={lat.get('p99', 0):.2f}ms max={lat.get('max', 0):.2f}ms",
            f"queue wait: p50={qw.get('p50', 0):.2f}ms p99={qw.get('p99', 0):.2f}ms "
            f"({100 * self.queue_wait_share:.1f}% of server time)",
        ]
        if len(self.addresses) > 1:
            for address in self.addresses:
                sub = self.per_address.get(address, {})
                sub_lat = sub.get("latency_ms", {})
                lines.append(
                    f"  {address}: {sub.get('answered', 0)} answered, "
                    f"{sub.get('queries_per_s', 0):,.1f} q/s, "
                    f"p99={sub_lat.get('p99', 0):.2f}ms")
        return lines


def _quantiles(samples_s: list[float]) -> dict[str, float]:
    """Exact client-side percentiles, reported in milliseconds."""
    if not samples_s:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
                "max": 0.0}
    arr = np.asarray(samples_s, dtype=np.float64) * 1e3
    p50, p95, p99 = (float(v) for v in np.percentile(arr, [50, 95, 99]))
    return {"count": int(arr.size), "mean": round(float(arr.mean()), 3),
            "p50": round(p50, 3), "p95": round(p95, 3), "p99": round(p99, 3),
            "max": round(float(arr.max()), 3)}


@dataclass
class _Tally:
    """Mutable per-run accumulator shared by the client coroutines."""

    sent: int = 0
    rejected: int = 0
    errors: int = 0
    timeouts: int = 0
    disconnects: int = 0
    latencies: list[float] = field(default_factory=list)
    queue_waits: list[float] = field(default_factory=list)
    services: list[float] = field(default_factory=list)
    server_totals: list[float] = field(default_factory=list)

    def record_reply(self, reply: dict[str, Any], latency_s: float) -> None:
        if reply.get("ok"):
            self.latencies.append(latency_s)
            timing = reply.get("timing") or {}
            if "queue_wait_s" in timing:
                self.queue_waits.append(float(timing["queue_wait_s"]))
                self.services.append(float(timing["service_s"]))
                self.server_totals.append(float(timing["total_s"]))
        elif reply.get("code") in ("overloaded", "shutting-down"):
            self.rejected += 1
        else:
            self.errors += 1


class LoadGenerator:
    """Spawn N concurrent clients against a server and measure the answers."""

    def __init__(self, config: LoadConfig):
        self.config = config

    # ------------------------------------------------------------------ #
    def run(self) -> LoadReport:
        """Execute the configured run (blocking; owns its event loop)."""
        return asyncio.run(self._run())

    async def _run(self) -> LoadReport:
        cfg = self.config
        addresses = list(cfg.address)
        # One tally per target: clients are assigned round-robin, so the
        # per-address breakdown shows whether a sharded deployment's load
        # lands evenly.  The merged view sums them on the shared clock.
        tallies = {address: _Tally() for address in addresses}
        start = monotonic()
        deadline = start + cfg.duration_s
        client = (self._closed_client if cfg.mode == "closed"
                  else self._open_client)
        await asyncio.gather(*(
            client(i, deadline, tallies[addresses[i % len(addresses)]],
                   addresses[i % len(addresses)])
            for i in range(cfg.clients)))
        elapsed = monotonic() - start
        merged = _Tally()
        per_address: dict[str, dict[str, Any]] = {}
        for address in addresses:
            tally = tallies[address]
            merged.sent += tally.sent
            merged.rejected += tally.rejected
            merged.errors += tally.errors
            merged.timeouts += tally.timeouts
            merged.disconnects += tally.disconnects
            merged.latencies.extend(tally.latencies)
            merged.queue_waits.extend(tally.queue_waits)
            merged.services.extend(tally.services)
            merged.server_totals.extend(tally.server_totals)
            sub_replies = len(tally.latencies) + tally.rejected + tally.errors
            per_address[address] = {
                "sent": tally.sent, "answered": len(tally.latencies),
                "rejected": tally.rejected, "errors": tally.errors,
                "timeouts": tally.timeouts, "disconnects": tally.disconnects,
                "queries_per_s": round(
                    len(tally.latencies) / elapsed if elapsed > 0 else 0.0, 1),
                "rejection_rate": round(
                    tally.rejected / sub_replies if sub_replies else 0.0, 4),
                "latency_ms": _quantiles(tally.latencies),
            }
        replies = len(merged.latencies) + merged.rejected + merged.errors
        total_server = sum(merged.server_totals)
        return LoadReport(
            mode=cfg.mode, clients=cfg.clients, elapsed_s=elapsed,
            sent=merged.sent, answered=len(merged.latencies),
            rejected=merged.rejected, errors=merged.errors,
            timeouts=merged.timeouts, disconnects=merged.disconnects,
            queries_per_s=len(merged.latencies) / elapsed if elapsed > 0 else 0.0,
            rejection_rate=merged.rejected / replies if replies else 0.0,
            latency_ms=_quantiles(merged.latencies),
            queue_wait_ms=_quantiles(merged.queue_waits),
            service_ms=_quantiles(merged.services),
            queue_wait_share=(sum(merged.queue_waits) / total_server
                              if total_server > 0 else 0.0),
            addresses=addresses,
            per_address=per_address,
        )

    # ------------------------------------------------------------------ #
    async def _connect(self, address: str,
                       ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        # Connect establishment shares the per-request timeout discipline: a
        # blackholed address must fail the client within timeout_s, not hang
        # the whole run on an unbounded open_connection.
        kind, target = parse_address(address)
        if kind == "unix":
            opening = asyncio.open_unix_connection(target, limit=MAX_FRAME_BYTES)
        else:
            host, port = target
            opening = asyncio.open_connection(host, port, limit=MAX_FRAME_BYTES)
        return await asyncio.wait_for(opening, timeout=self.config.timeout_s)

    def _frame(self, rng: np.random.Generator, request_id: str,
               created: float) -> bytes:
        cfg = self.config
        frame: dict[str, Any] = {
            "id": request_id, "verb": "query", "k": cfg.k, "created": created,
            "vertices": [int(rng.integers(cfg.num_vertices))],
        }
        if cfg.tool is not None:
            frame["tool"] = cfg.tool
        if cfg.graph is not None:
            frame["graph"] = cfg.graph
        return encode_frame(frame)

    async def _closed_client(self, index: int, deadline: float,
                             tally: _Tally, address: str) -> None:
        """One request in flight at a time until the deadline/request cap.

        ``timeout_s`` is a wall-clock deadline per request: the write drain
        *and* the reply wait share one budget starting at ``created``, so a
        server that accepts the connection and then blackholes (never reads,
        never replies) fails the request as a timeout within ``timeout_s``
        instead of hanging the client on an unbounded ``drain()``.
        """
        cfg = self.config
        rng = np.random.default_rng((cfg.seed, index))
        try:
            reader, writer = await self._connect(address)
        except (asyncio.TimeoutError, TimeoutError):
            tally.timeouts += 1
            return
        sent = 0
        try:
            while monotonic() < deadline and (
                    cfg.requests_per_client is None
                    or sent < cfg.requests_per_client):
                created = monotonic()
                request_deadline = created + cfg.timeout_s
                writer.write(self._frame(rng, f"c{index}-{sent}", created))
                sent += 1
                tally.sent += 1
                try:
                    await asyncio.wait_for(writer.drain(),
                                           timeout=request_deadline - monotonic())
                    line = await asyncio.wait_for(
                        reader.readline(),
                        timeout=max(request_deadline - monotonic(), 0.0))
                except (asyncio.TimeoutError, TimeoutError):
                    tally.timeouts += 1
                    break
                if not line:
                    tally.disconnects += 1
                    break
                reply = json.loads(line)
                tally.record_reply(reply, monotonic() - created)
                if not reply.get("ok") and cfg.reject_backoff_s > 0:
                    # Don't hot-spin a saturated server with instant retries.
                    await asyncio.sleep(cfg.reject_backoff_s)
        finally:
            writer.close()

    async def _open_client(self, index: int, deadline: float,
                           tally: _Tally, address: str) -> None:
        """Fixed-rate arrivals regardless of completions (pipelined sends)."""
        cfg = self.config
        rng = np.random.default_rng((cfg.seed, index))
        try:
            reader, writer = await self._connect(address)
        except (asyncio.TimeoutError, TimeoutError):
            tally.timeouts += 1
            return
        pending: dict[str, float] = {}
        done_sending = asyncio.Event()

        async def _receive() -> None:
            while pending or not done_sending.is_set():
                try:
                    line = await asyncio.wait_for(reader.readline(), timeout=0.25)
                except asyncio.TimeoutError:
                    continue
                if not line:
                    tally.disconnects += 1
                    pending.clear()
                    break
                reply = json.loads(line)
                created = pending.pop(str(reply.get("id")), None)
                if created is None:
                    continue
                tally.record_reply(reply, monotonic() - created)

        receiver = asyncio.get_running_loop().create_task(_receive())
        period = 1.0 / cfg.rate_per_client
        next_send = monotonic()
        sent = 0
        try:
            while True:
                now = monotonic()
                if now >= deadline:
                    break
                if now < next_send:
                    await asyncio.sleep(min(next_send - now, deadline - now))
                    continue
                request_id = f"o{index}-{sent}"
                created = monotonic()
                pending[request_id] = created
                writer.write(self._frame(rng, request_id, created))
                try:
                    await asyncio.wait_for(writer.drain(), timeout=cfg.timeout_s)
                except (asyncio.TimeoutError, TimeoutError):
                    # The socket buffer to a wedged server is full; stop
                    # offering load and let the drain grace settle the tally.
                    del pending[request_id]
                    tally.timeouts += 1
                    break
                sent += 1
                tally.sent += 1
                next_send += period
            done_sending.set()
            # Give stragglers a bounded grace period, then count them lost.
            try:
                await asyncio.wait_for(receiver, timeout=cfg.drain_grace_s)
            except asyncio.TimeoutError:
                receiver.cancel()
                tally.timeouts += len(pending)
        finally:
            done_sending.set()
            if not receiver.done():
                receiver.cancel()
            writer.close()
