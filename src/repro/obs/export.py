"""Snapshot adapters: the existing ``stats()`` dicts as Prometheus series.

The tentpole constraint of the observability layer is *no test churn*:
every subsystem's ``stats()`` dict keeps its exact shape, and exposition
is a **pure function over those snapshots**.  That buys two things:

* One renderer serves every surface — ``GET /metrics`` on the HTTP front,
  the ``metrics`` NDJSON verb, and ``repro-gosh stats --metrics`` all call
  :func:`render_stats_metrics` on whatever ``QueryServer.stats()`` (or a
  remote server's stats reply) returned.
* There is no process-global registry of live objects, so tests that
  spawn many servers in one process never collide on series names.

Naming follows the taxonomy in the README's "Observability" section:
every series is ``repro_``-prefixed; the subsystem is the second path
component (``repro_server_…``, ``repro_router_…``, ``repro_service_…``,
``repro_store_…``, ``repro_http_…``, ``repro_fault_…``).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from .metrics import (
    LatencyHistogram,
    Sample,
    counter_sample,
    gauge_sample,
    histogram_sample,
    render_samples,
)

__all__ = ["samples_from_stats", "render_stats_metrics"]

#: Prometheus content type for the classic text exposition format.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

# (stats key, series suffix, help) for the server's scalar counters.
_SERVER_COUNTERS = [
    ("connections_total", "connections_total", "NDJSON connections accepted"),
    ("frames_received", "frames_total", "wire frames received"),
    ("queries_admitted", "queries_admitted_total", "queries past admission"),
    ("queries_answered", "queries_answered_total", "queries answered ok"),
    ("query_errors", "query_errors_total", "queries answered with an error"),
    ("malformed_frames", "malformed_frames_total", "frames rejected as malformed"),
    ("batch_failures", "batch_failures_total",
     "microbatches that fell back to per-request isolation"),
    ("batch_length_mismatches", "batch_length_mismatches_total",
     "service replies shorter than their batch"),
    ("replies_dropped", "replies_dropped_total",
     "replies dropped on dead connections"),
    ("microbatches", "microbatches_total", "microbatches served"),
]

_SERVER_GAUGES = [
    ("inflight", "inflight", "admitted-but-unanswered queries"),
    ("queued", "queued", "queries waiting in the admission queue"),
    ("connections_open", "connections_open", "open NDJSON connections"),
    ("max_inflight", "max_inflight", "admission bound on in-flight queries"),
    ("queue_depth", "queue_depth", "admission bound on queued queries"),
    ("max_batch", "max_batch", "microbatch size bound"),
    ("max_batch_seen", "max_batch_seen", "largest microbatch served"),
    ("stats_stale_served", "stats_stale_served", "stats replies served from "
     "a stale cache because the service snapshot timed out"),
]

_ROUTER_COUNTERS = [
    ("fanouts", "fanouts_total", "query batches fanned out to shards"),
    ("shard_queries", "shard_queries_total", "per-shard frames sent"),
    ("shard_errors", "shard_errors_total", "requests failed by shard trouble"),
    ("plan_errors", "plan_errors_total", "requests failed before fan-out"),
    ("requests_ok", "requests_ok_total", "requests merged successfully"),
    ("requests_failed", "requests_failed_total", "requests failed"),
    ("failovers", "failovers_total", "within-request replica failovers"),
    ("probes_sent", "probes_total", "health probes sent"),
    ("probes_ok", "probes_ok_total", "health probes that succeeded"),
    ("readmissions", "readmissions_total", "replicas readmitted after recovery"),
]

_SERVICE_COUNTERS = [
    ("requests_served", "requests_total", "embed requests served"),
    ("requests_failed", "requests_failed_total", "embed requests failed"),
    ("queries_served", "queries_total", "k-NN queries served"),
    ("microbatches", "microbatches_total", "service-side microbatches"),
    ("embeds_deduped", "embeds_deduped_total",
     "embed-on-miss calls coalesced by single-flight"),
]

_STORE_COUNTERS = [
    ("saves", "saves_total", "embedding versions saved"),
    ("loads", "loads_total", "embedding versions loaded"),
    ("gc_removed", "gc_removed_total", "versions removed by GC"),
    ("staging_swept", "staging_swept_total", "crash-debris staging dirs swept"),
]

_STORE_GAUGES = [
    ("entries", "entries", "stored embedding versions"),
    ("lineages", "lineages", "stored lineages"),
    ("bytes", "bytes", "bytes of stored embedding shards"),
    ("staging_dirs", "staging_dirs", "staging dirs present"),
    ("stale_staging_dirs", "stale_staging_dirs", "staging dirs past the grace period"),
]


def _num(value: Any) -> "float | None":
    return float(value) if isinstance(value, (int, float)) \
        and not isinstance(value, bool) else None


def _scalars(stats: Mapping[str, Any], prefix: str,
             counters: "list[tuple[str, str, str]]",
             gauges: "list[tuple[str, str, str]]" = (),
             labels: "Mapping[str, Any]" = (),
             ) -> "list[Sample]":
    out: list[Sample] = []
    for key, suffix, help_text in counters:
        v = _num(stats.get(key))
        if v is not None:
            out.append(counter_sample(f"{prefix}_{suffix}", help_text, v, labels))
    for key, suffix, help_text in gauges:
        v = _num(stats.get(key))
        if v is not None:
            out.append(gauge_sample(f"{prefix}_{suffix}", help_text, v, labels))
    return out


def _server_samples(server: Mapping[str, Any]) -> "list[Sample]":
    samples = _scalars(server, "repro_server", _SERVER_COUNTERS, _SERVER_GAUGES)
    # The three rejection counters fold into one labelled series.
    for key, reason in (("rejected_overload", "overloaded"),
                        ("rejected_tool_quota", "tool-quota"),
                        ("rejected_shutdown", "shutting-down")):
        v = _num(server.get(key))
        if v is not None:
            samples.append(counter_sample(
                "repro_server_rejected_total", "queries rejected at admission",
                v, {"reason": reason}))
    by_tool = server.get("inflight_by_tool")
    if isinstance(by_tool, Mapping):
        for tool, n in sorted(by_tool.items()):
            v = _num(n)
            if v is not None:
                samples.append(gauge_sample(
                    "repro_server_inflight_by_tool",
                    "in-flight queries per tool", v, {"tool": tool}))
    return samples


def _histogram_sample(hist: LatencyHistogram, name: str, help_text: str,
                      labels: Mapping[str, Any]) -> Sample:
    """``hist`` with its bucket layout preserved (finite upper edges,
    cumulative counts), so a scrape sees the very resolution the ``stats``
    verb summarises; the overflow bucket is the implied ``+Inf``."""
    cum = np.cumsum(hist.counts[:-1])
    return histogram_sample(
        name, help_text,
        buckets=[(float(e), int(c)) for e, c in zip(hist.edges, cum)],
        sum_value=hist.total, count=hist.count, labels=labels)


def _latency_samples(latency: Mapping[str, Any]) -> "list[Sample]":
    histograms = latency.get("histograms")
    if not isinstance(histograms, Mapping):
        return []
    samples: list[Sample] = []
    for stage, payload in sorted(histograms.items()):
        try:
            hist = LatencyHistogram.from_dict(payload)
        except (ValueError, KeyError, TypeError):
            continue
        samples.append(_histogram_sample(
            hist, "repro_server_latency_seconds",
            "request latency by stage (queue_wait/service/total)",
            {"stage": str(stage)}))
    return samples


def _http_samples(http: Mapping[str, Any]) -> "list[Sample]":
    samples = _scalars(
        http, "repro_http",
        [("connections_total", "connections_total", "HTTP connections accepted"),
         ("requests_total", "requests_total", "HTTP requests served")],
        [("connections_open", "connections_open", "open HTTP connections")])
    by_status = http.get("responses_by_status")
    if isinstance(by_status, Mapping):
        for status, n in sorted(by_status.items()):
            v = _num(n)
            if v is not None:
                samples.append(counter_sample(
                    "repro_http_responses_total", "HTTP responses by status",
                    v, {"status": str(status)}))
    return samples


def _dwell_samples(summary: Mapping[str, Any], name: str, help_text: str,
                   labels: Mapping[str, Any]) -> "list[Sample]":
    """A ``StateClock.summary()`` dict as one seconds-counter per state."""
    seconds = summary.get("seconds")
    if not isinstance(seconds, dict):
        return []
    return [
        counter_sample(name, help_text, float(secs),
                       {**labels, "state": str(state)})
        for state, secs in sorted(seconds.items())
    ]


def _router_samples(service: Mapping[str, Any]) -> "list[Sample]":
    router = service.get("router")
    if not isinstance(router, Mapping):
        return []
    samples = _scalars(router, "repro_router", _ROUTER_COUNTERS,
                       [("shards", "shards", "shard ranges routed")])
    for group in service.get("health") or []:
        if not isinstance(group, Mapping):
            continue
        shard = str(group.get("range_index", "?"))
        for key, suffix, help_text in (
                ("frames", "frames_total", "frames offered to the shard group"),
                ("frames_failed", "frames_failed_total",
                 "frames no replica could answer"),
                ("failovers", "failovers_total", "failover attempts")):
            v = _num(group.get(key))
            if v is not None:
                samples.append(counter_sample(
                    f"repro_router_shard_{suffix}", help_text, v,
                    {"shard": shard}))
        for row in group.get("replicas") or []:
            if not isinstance(row, Mapping):
                continue
            labels = {"shard": shard, "replica": str(row.get("address", "?"))}
            samples.append(gauge_sample(
                "repro_router_replica_healthy",
                "1 when the health machine marks the replica healthy",
                1.0 if row.get("state") == "healthy" else 0.0, labels))
            for key, suffix, help_text in (
                    ("routed", "routed_total", "frames routed to the replica"),
                    ("frames_ok", "frames_ok_total", "frames answered ok"),
                    ("exchange_failures", "exchange_failures_total",
                     "failed exchanges"),
                    ("probes_sent", "probes_total", "probes sent"),
                    ("probes_ok", "probes_ok_total", "probes succeeded"),
                    ("readmissions", "readmissions_total",
                     "readmissions after recovery")):
                v = _num(row.get(key))
                if v is not None:
                    samples.append(counter_sample(
                        f"repro_router_replica_{suffix}", help_text, v, labels))
            dwell = row.get("dwell")
            if isinstance(dwell, Mapping):
                samples.extend(_dwell_samples(
                    dwell, "repro_router_replica_state_seconds_total",
                    "seconds the replica spent in each health state", labels))
    fleet = service.get("fleet_latency")
    if isinstance(fleet, Mapping):
        for stage, summary in sorted(fleet.items()):
            if not isinstance(summary, Mapping):
                continue
            for q in ("p50_ms", "p95_ms", "p99_ms", "mean_ms", "max_ms"):
                v = _num(summary.get(q))
                if v is not None:
                    samples.append(gauge_sample(
                        "repro_router_fleet_latency_ms",
                        "fleet-wide latency aggregated across shard histograms",
                        v, {"stage": str(stage), "quantile": q[:-3]}))
            v = _num(summary.get("count"))
            if v is not None:
                samples.append(counter_sample(
                    "repro_router_fleet_latency_requests_total",
                    "requests in the fleet-wide latency aggregate", v,
                    {"stage": str(stage)}))
    return samples


def _cache_samples(name: str, cache: Mapping[str, Any]) -> "list[Sample]":
    return _scalars(
        cache, f"repro_service_{name}_cache",
        [("hits", "hits_total", f"{name} cache hits"),
         ("misses", "misses_total", f"{name} cache misses"),
         ("evictions", "evictions_total", f"{name} cache evictions")],
        [("entries", "entries", f"{name} cache entries")])


def _service_samples(service: Mapping[str, Any]) -> "list[Sample]":
    samples = _scalars(service, "repro_service", _SERVICE_COUNTERS)
    for key, name in (("hierarchy_cache", "hierarchy"),
                      ("engine_cache", "engine")):
        cache = service.get(key)
        if isinstance(cache, Mapping):
            samples.extend(_cache_samples(name, cache))
    store = service.get("store")
    if isinstance(store, Mapping):
        samples.extend(_scalars(store, "repro_store",
                                _STORE_COUNTERS, _STORE_GAUGES))
    query = service.get("query")
    if isinstance(query, Mapping):
        samples.extend(_scalars(
            query, "repro_service_query",
            [("batches", "batches_total", "query-engine batches"),
             ("rows_scored", "rows_scored_total", "candidate rows scored"),
             ("seconds", "seconds_total", "seconds in query engines")]))
    return samples


def samples_from_stats(stats: Mapping[str, Any]) -> "list[Sample]":
    """Adapt one ``QueryServer.stats()``-shaped snapshot into samples.

    Tolerant by construction: every lookup is a defensive ``.get``, so a
    stub service (whose ``stats()`` returns anything) simply contributes no
    series rather than failing the scrape.
    """
    samples: list[Sample] = []
    server = stats.get("server")
    if isinstance(server, Mapping):
        samples.extend(_server_samples(server))
    latency = stats.get("latency")
    if isinstance(latency, Mapping):
        samples.extend(_latency_samples(latency))
    http = stats.get("http")
    if isinstance(http, Mapping):
        samples.extend(_http_samples(http))
    service = stats.get("service")
    if isinstance(service, Mapping):
        if isinstance(service.get("router"), Mapping):
            samples.extend(_router_samples(service))
        else:
            samples.extend(_service_samples(service))
    faults = stats.get("faults")
    if isinstance(faults, Mapping):
        samples.extend(_fault_samples(faults))
    return samples


def _fault_samples(snapshot: Mapping[str, Any]) -> "list[Sample]":
    samples: list[Sample] = []
    crossings = snapshot.get("crossings")
    if isinstance(crossings, Mapping):
        for point, n in sorted(crossings.items()):
            v = _num(n)
            if v is not None:
                samples.append(counter_sample(
                    "repro_fault_crossings_total",
                    "lifetime crossings of each fault-injection point",
                    v, {"point": str(point)}))
    armed = snapshot.get("armed")
    if isinstance(armed, Mapping):
        for point, remaining in sorted(armed.items()):
            v = _num(remaining)
            if v is not None:
                samples.append(gauge_sample(
                    "repro_fault_armed",
                    "crossings remaining before an armed point fires",
                    v, {"point": str(point)}))
    return samples


def render_stats_metrics(stats: Mapping[str, Any]) -> str:
    """Prometheus text for one stats snapshot."""
    return render_samples(samples_from_stats(stats))
