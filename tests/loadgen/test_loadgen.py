"""Tests for the load-generation harness (closed/open loop, rejection math)."""

from __future__ import annotations

import json
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import EmbeddingService
from repro.graph import powerlaw_cluster
from repro.loadgen import LoadConfig, LoadGenerator
from repro.serve import QueryServer, ServerThread, ShardRouter

pytestmark = pytest.mark.timeout(120)


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    graph = powerlaw_cluster(300, m=3, p_triangle=0.5, seed=7)
    service = EmbeddingService(dim=8, epoch_scale=0.02,
                               store=tmp_path_factory.mktemp("store"))
    service.ensure_stored("gosh-fast", graph)
    return service, graph


@pytest.fixture(scope="module")
def served(stored):
    service, graph = stored
    server = QueryServer(service, {"g": graph}, default_tool="gosh-fast")
    handle = ServerThread(server)
    address = handle.start()
    yield address, server
    handle.stop()


class TestClosedLoop:
    def test_fixed_request_count_is_deterministic(self, served):
        address, _ = served
        report = LoadGenerator(LoadConfig(
            address=address, clients=2, mode="closed", duration_s=60.0,
            requests_per_client=5, num_vertices=300, seed=1)).run()
        assert report.sent == 10
        assert report.answered == 10
        assert report.rejected == 0 and report.errors == 0
        assert report.timeouts == 0 and report.disconnects == 0

    def test_report_statistics_are_coherent(self, served):
        address, _ = served
        report = LoadGenerator(LoadConfig(
            address=address, clients=3, mode="closed", duration_s=0.5,
            num_vertices=300)).run()
        assert report.answered > 0
        assert report.queries_per_s > 0
        lat = report.latency_ms
        assert lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        assert report.rejection_rate == 0.0
        assert 0.0 <= report.queue_wait_share <= 1.0
        # Server-side breakdown was captured for every answered request.
        assert report.queue_wait_ms["count"] == report.answered
        # The report renders as JSON (`load --json` writes it).
        payload = json.loads(json.dumps(report.as_json()))
        assert payload["answered"] == report.answered
        assert set(payload["latency_ms"]) == {"count", "mean", "p50", "p95",
                                              "p99", "max"}


class TestRoutedClosedLoop:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_routed_run_is_clean_on_every_shard(self, stored, shards):
        service, graph = stored
        router = ShardRouter.spawn(service, {"g": graph}, shard_count=shards,
                                   default_tool="gosh-fast")
        with router as address:
            report = LoadGenerator(LoadConfig(
                address=address, clients=4, mode="closed", duration_s=60.0,
                requests_per_client=5, num_vertices=300, seed=shards)).run()
            backend = router.backend
            assert report.sent == report.answered == 20
            assert report.errors == 0
            assert report.timeouts == 0 and report.disconnects == 0
            assert backend.shard_errors == 0
            assert backend.shard_queries == report.sent * shards


class TestOpenLoop:
    def test_open_loop_offers_rate_limited_load(self, served):
        address, _ = served
        report = LoadGenerator(LoadConfig(
            address=address, clients=2, mode="open", duration_s=0.5,
            rate_per_client=40.0, num_vertices=300)).run()
        # 2 clients x 40/s x 0.5s = 40 offered; allow scheduling slack.
        assert 20 <= report.sent <= 44
        assert report.answered == report.sent     # healthy server keeps up
        assert report.timeouts == 0


class TestOverloadAccounting:
    def test_rejections_and_timeouts_are_counted(self):
        """Against a saturated server (blocked service, inflight cap 1) the
        closed-loop harness must report rejections, not hang or crash."""
        release = threading.Event()

        class Blocked:
            def query_batch(self, requests):
                assert release.wait(timeout=30)
                return [SimpleNamespace(
                    ids=np.zeros((r.num_queries, r.k), dtype=np.int64),
                    scores=np.zeros((r.num_queries, r.k), dtype=np.float32),
                    store_hit=True, entry=SimpleNamespace(version=1))
                    for r in requests]

            def stats(self):
                return {}

        server = QueryServer(Blocked(), {"g": object()}, default_tool="stub",
                             max_inflight=1, queue_depth=1)
        handle = ServerThread(server)
        address = handle.start()
        try:
            report = LoadGenerator(LoadConfig(
                address=address, clients=3, mode="closed", duration_s=0.3,
                timeout_s=1.0, num_vertices=10)).run()
        finally:
            release.set()
            handle.stop()
        # One client's request is stuck in service (-> timeout), the others
        # are refused at admission.
        assert report.rejected > 0
        assert report.rejection_rate > 0
        assert report.timeouts >= 1
        assert report.answered == 0


class TestDeadlines:
    @pytest.fixture()
    def blackhole(self):
        """A server that accepts connections and reads, but never replies."""
        import socket

        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.1)
        address = f"127.0.0.1:{listener.getsockname()[1]}"
        stop = threading.Event()

        def swallow(conn):
            with conn:
                try:
                    while conn.recv(65536):
                        pass
                except OSError:
                    pass

        def accept_loop():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    return
                threading.Thread(target=swallow, args=(conn,),
                                 daemon=True).start()

        thread = threading.Thread(target=accept_loop, daemon=True)
        thread.start()
        yield address
        stop.set()
        thread.join(timeout=10.0)
        listener.close()

    def test_blackholed_address_counts_timeouts_within_the_deadline(
            self, blackhole):
        """A server that accepts and then goes silent must not hang the
        closed loop past ``timeout_s``: every await inside a request shares
        the wall-clock deadline and the miss is tallied as a timeout."""
        import time

        start = time.monotonic()
        report = LoadGenerator(LoadConfig(
            address=blackhole, clients=2, mode="closed", duration_s=5.0,
            timeout_s=0.4, num_vertices=10)).run()
        elapsed = time.monotonic() - start
        assert report.timeouts == 2              # one per client, then stop
        assert report.answered == 0
        assert elapsed < 4.0                     # bounded by deadlines, not
                                                 # by duration_s
    @pytest.fixture(scope="class")
    def second_served(self, tmp_path_factory):
        graph = powerlaw_cluster(300, m=3, p_triangle=0.5, seed=7)
        service = EmbeddingService(dim=8, epoch_scale=0.02,
                                   store=tmp_path_factory.mktemp("store2"))
        service.ensure_stored("gosh-fast", graph)
        server = QueryServer(service, {"g": graph}, default_tool="gosh-fast")
        handle = ServerThread(server)
        address = handle.start()
        yield address, server
        handle.stop()

    def test_clients_round_robin_over_addresses(self, served, second_served):
        addr1, server1 = served
        addr2, server2 = second_served
        before1, before2 = server1.queries_answered, server2.queries_answered
        report = LoadGenerator(LoadConfig(
            address=[addr1, addr2], clients=4, mode="closed", duration_s=60.0,
            requests_per_client=5, num_vertices=300, seed=3)).run()
        # 4 clients round-robin over 2 addresses: 2 clients x 5 each per server.
        assert report.sent == 20 and report.answered == 20
        assert report.addresses == [addr1, addr2]
        assert server1.queries_answered - before1 == 10
        assert server2.queries_answered - before2 == 10
        # The per-address breakdown partitions the merged totals exactly.
        assert set(report.per_address) == {addr1, addr2}
        for side in report.per_address.values():
            assert side["answered"] == 10
            assert side["rejected"] == side["errors"] == side["timeouts"] == 0
            assert side["latency_ms"]["count"] == 10
        assert sum(s["sent"] for s in report.per_address.values()) == report.sent
        payload = report.as_json()
        assert payload["addresses"] == [addr1, addr2]
        assert set(payload["per_address"]) == {addr1, addr2}
        # The human summary gains per-address lines only in multi-address runs.
        assert any(addr2 in line for line in report.summary_lines())

    def test_single_address_string_still_works(self, served):
        address, _ = served
        config = LoadConfig(address=address, clients=1, mode="closed",
                            duration_s=60.0, requests_per_client=2,
                            num_vertices=300)
        assert config.address == (address,)
        report = LoadGenerator(config).run()
        assert report.answered == 2
        assert report.addresses == [address]
        # Single-address reports keep the compact summary (no per-line spam).
        assert not any("per-address" in line for line in report.summary_lines())


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"mode": "sideways"},
        {"clients": 0},
        {"duration_s": 0},
        {"mode": "open", "rate_per_client": 0},
        {"num_vertices": 0},
    ])
    def test_bad_configs_raise(self, kwargs):
        with pytest.raises(ValueError):
            LoadConfig(address="127.0.0.1:1", **kwargs)

    @pytest.mark.parametrize("address", [[], [""], ["ok:1", ""]])
    def test_bad_address_lists_raise(self, address):
        with pytest.raises(ValueError):
            LoadConfig(address=address)
