"""End-to-end serving over the real EmbeddingService: wire answers == library
answers, timing stamps present, defaults applied, errors isolated."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api import EmbeddingService
from repro.graph import powerlaw_cluster
from repro.serve import QueryServer, ServeClient, ServerThread

pytestmark = pytest.mark.timeout(120)


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster(300, m=3, p_triangle=0.5, seed=7)


@pytest.fixture(scope="module")
def served(graph, tmp_path_factory):
    """One warmed server per module: embedding is paid exactly once."""
    service = EmbeddingService(dim=8, epoch_scale=0.02,
                               store=tmp_path_factory.mktemp("store"))
    service.ensure_stored("gosh-fast", graph)
    server = QueryServer(service, {"pl300": graph}, default_tool="gosh-fast",
                         max_batch=16)
    handle = ServerThread(server)
    address = handle.start()
    yield address, server, service
    handle.stop()


class TestWireAnswers:
    def test_vertex_query_matches_library_answer(self, served, graph):
        address, _, service = served
        expected = service.query("gosh-fast", graph, vertices=[0, 5], k=4)
        with ServeClient(address) as client:
            reply = client.query(vertices=[0, 5], k=4)
        assert reply["ok"] is True
        assert reply["ids"] == expected.ids.tolist()
        assert np.allclose(reply["scores"], expected.scores, rtol=1e-6)
        assert reply["store_hit"] is True
        assert reply["version"] == 1

    def test_vector_query_round_trips(self, served):
        address, _, service = served
        vector = [0.25] * 8
        with ServeClient(address) as client:
            reply = client.query(vectors=[vector], k=3)
        assert reply["ok"] is True
        assert len(reply["ids"][0]) == 3

    def test_reply_carries_timing_breakdown_and_created_echo(self, served):
        address, _, _ = served
        with ServeClient(address) as client:
            reply = client.query(vertices=[1], k=2)
        timing = reply["timing"]
        assert set(timing) == {"queue_wait_s", "service_s", "total_s"}
        assert timing["queue_wait_s"] >= 0 and timing["service_s"] >= 0
        assert timing["total_s"] == pytest.approx(
            timing["queue_wait_s"] + timing["service_s"], abs=5e-6)
        assert "created" in reply   # the client's own stamp, echoed opaque

    def test_named_graph_and_tool_accepted(self, served):
        address, _, _ = served
        with ServeClient(address) as client:
            reply = client.query(vertices=[2], k=2, graph="pl300",
                                 tool="gosh-fast")
        assert reply["ok"] is True

    def test_exclude_self_false_returns_self_first(self, served):
        address, _, _ = served
        with ServeClient(address) as client:
            reply = client.query(vertices=[4], k=3, exclude_self=False,
                                 metric="cosine")
        assert reply["ids"][0][0] == 4

    def test_a_backend_field_is_ignored_like_any_unknown_field(self, served):
        """Serving has one top-k path, so a frame's ``backend`` key selects
        nothing: the reply is the same ids and score bits as without it."""
        address, _, _ = served
        frame = {"verb": "query", "vertices": [0, 5], "k": 4}
        with ServeClient(address) as client:
            plain = client.request({**frame, "id": 1})
            named = client.request({**frame, "id": 2, "backend": "faiss"})
        assert plain["ok"] is True and named["ok"] is True
        assert named["ids"] == plain["ids"]
        bits = [np.asarray(r["scores"], dtype=np.float32).view(np.int32)
                for r in (plain, named)]
        assert (bits[0] == bits[1]).all()


class TestErrorIsolation:
    def test_out_of_range_vertex_is_an_error_reply_not_a_crash(self, served):
        address, server, _ = served
        with ServeClient(address) as client:
            bad = client.query(vertices=[10 ** 6], k=2)
            assert bad["ok"] is False and bad["code"] == "error"
            assert "vertex ids" in bad["error"]
            # Same connection, same server: next request is fine.
            assert client.query(vertices=[3], k=2)["ok"] is True
        assert server.query_errors >= 1


class TestConcurrentClients:
    def test_concurrent_clients_all_answered_and_microbatched(self, served):
        address, server, service = served
        answered_before = server.queries_answered
        batches_before = service.stats()["microbatches"]
        errors = []

        def worker(index: int) -> None:
            try:
                with ServeClient(address) as client:
                    for i in range(10):
                        reply = client.query(vertices=[(index * 31 + i) % 300],
                                             k=3, request_id=f"{index}-{i}")
                        assert reply["ok"] is True, reply
            except Exception as exc:   # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert server.queries_answered - answered_before == 60
        # Concurrency must go *through* the microbatcher: strictly fewer
        # backend batches than requests (else clients serialised 1:1).
        assert service.stats()["microbatches"] - batches_before <= 60


class TestUnixSocket:
    def test_unix_socket_serving(self, graph, tmp_path):
        service = EmbeddingService(dim=8, epoch_scale=0.02,
                                   store=tmp_path / "store")
        service.ensure_stored("gosh-fast", graph)
        server = QueryServer(service, {"g": graph}, default_tool="gosh-fast",
                             socket_path=str(tmp_path / "serve.sock"))
        with ServerThread(server) as address:
            assert address.startswith("unix:")
            with ServeClient(address) as client:
                assert client.ping() is True
                assert client.query(vertices=[0], k=2)["ok"] is True


class TestConstruction:
    def test_rejects_empty_graphs_and_bad_defaults(self):
        service = object()
        with pytest.raises(ValueError, match="at least one graph"):
            QueryServer(service, {})
        with pytest.raises(ValueError, match="default_graph"):
            QueryServer(service, {"g": object()}, default_graph="other")
        with pytest.raises(ValueError, match=">= 1"):
            QueryServer(service, {"g": object()}, max_inflight=0)

    def test_single_graph_becomes_default(self):
        server = QueryServer(object(), {"only": object()})
        assert server.default_graph == "only"
