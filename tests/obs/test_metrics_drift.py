"""Drift guard: every numeric ``stats()`` leaf is on ``/metrics`` or excused.

``render_stats_metrics`` maps the ``stats()`` dicts onto Prometheus series
through hand-kept tables, so a counter added to a ``stats()`` dict can
silently miss the exposition.  This guard takes one live snapshot from a
``QueryServer`` and from a 2-shard ``ShardRouter``, adds 1 to each numeric
leaf in turn, and checks that the rendered text changes.  A leaf whose
change does not show must match an entry of the exclusion table below,
each with its reason — and every entry must still excuse some leaf, so the
table cannot go stale once a series is added.

The ``latency.histograms`` wire payloads are skipped: they are exported
whole as the ``repro_server_latency_seconds`` histogram, not leaf by leaf.
"""

from __future__ import annotations

import copy
from fnmatch import fnmatchcase

import pytest

from repro.api import EmbeddingService
from repro.graph import powerlaw_cluster
from repro.obs.export import render_stats_metrics
from repro.serve import QueryServer, ServeClient, ServerThread, ShardRouter

pytestmark = pytest.mark.timeout(120)

TIMEOUT = 10.0

#: Leaves every ``QueryServer`` snapshot carries but does not export.
FRONT_EXCLUDED = {
    "server.max_inflight_per_tool":
        "per-tool quota bound; only the per-tool in-flight gauge is exported",
    "latency.*":
        "ms summaries derived from the repro_server_latency_seconds histogram",
}

#: ... plus those of a server over an ``EmbeddingService``.
SERVER_EXCLUDED = {
    **FRONT_EXCLUDED,
    "service.query_engines":
        "same number as repro_service_engine_cache_entries",
}

#: ... plus those of a router over a ``ShardedBackendService``.
ROUTER_EXCLUDED = {
    **FRONT_EXCLUDED,
    "service.router.replicas_per_shard.*":
        "topology echo; replica series carry shard and replica labels",
    "service.router.probe_interval_s":
        "probe configuration, not a measurement",
    "service.health.*.replicas.*.consecutive_failures":
        "health-machine input; its outcome is repro_router_replica_healthy",
    "service.health.*.replicas.*.inflight":
        "per-replica in-flight frames are not exported yet",
    "service.health.*.replicas.*.duplicate_replies":
        "duplicate replies per replica are not exported yet",
    "service.health.*.replicas.*.dwell.transitions":
        "transition count; dwell is exported as seconds per state",
    "service.health.*.replicas.*.dwell.in_state_s":
        "current dwell, already inside the per-state seconds counters",
    "service.shards.*.server.*":
        "each shard exports its own server series on its own /metrics",
    "service.fleet_latency.shards_reporting":
        "aggregation coverage of the fleet latency gauges, not exported yet",
}


def numeric_leaves(node, path=()):
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from numeric_leaves(value, path + (key,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def bumped(stats, path):
    out = copy.deepcopy(stats)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += 1
    return out


def unexported_leaves(stats) -> "list[str]":
    baseline = render_stats_metrics(stats)
    leaves = [p for p in numeric_leaves(stats)
              if p[:2] != ("latency", "histograms")]
    assert len(leaves) > 20
    return [".".join(map(str, p)) for p in leaves
            if render_stats_metrics(bumped(stats, p)) == baseline]


def check_drift(stats, excluded: "dict[str, str]") -> None:
    silent = unexported_leaves(stats)
    unexcused = [leaf for leaf in silent
                 if not any(fnmatchcase(leaf, pat) for pat in excluded)]
    assert unexcused == [], "stats() leaves missing from /metrics"
    stale = [pat for pat in excluded
             if not any(fnmatchcase(leaf, pat) for leaf in silent)]
    assert stale == [], "exclusions that no longer excuse any leaf"


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster(300, m=3, p_triangle=0.5, seed=7)


@pytest.fixture(scope="module")
def service(graph, tmp_path_factory):
    service = EmbeddingService(dim=8, epoch_scale=0.02,
                               store=tmp_path_factory.mktemp("store"))
    service.ensure_stored("gosh-fast", graph)
    return service


def test_server_stats_are_exported_or_excluded(service, graph):
    server = QueryServer(service, {"pl300": graph}, default_tool="gosh-fast",
                         max_inflight_per_tool=8)
    handle = ServerThread(server, http_port=0)
    handle.start()
    try:
        with ServeClient(server.address, timeout_s=TIMEOUT) as client:
            assert client.query(vertices=[1], k=3)["ok"]
        stats = server.stats()
    finally:
        handle.stop()
    assert "http" in stats
    check_drift(stats, SERVER_EXCLUDED)


def test_router_stats_are_exported_or_excluded(service, graph):
    router = ShardRouter.spawn(service, {"pl300": graph}, shard_count=2,
                               default_tool="gosh-fast", http_port=0,
                               max_inflight_per_tool=8)
    address = router.start()
    try:
        with ServeClient(address, timeout_s=TIMEOUT) as client:
            assert client.query(vertices=[1], k=3)["ok"]
        stats = router.server.stats()
    finally:
        router.stop()
    assert len(stats["service"]["health"]) == 2
    check_drift(stats, ROUTER_EXCLUDED)
