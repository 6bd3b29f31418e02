"""Server lifecycle edge cases: overload, drain, disconnects, bad frames.

These tests replace the real :class:`EmbeddingService` with a stub whose
``query_batch`` blocks on an event, so saturation is *deterministic*: the
test controls exactly when the (single) batching loop is busy, then
releases it.  The admission gate's contract under test:

* with ``max_inflight`` admitted-but-unanswered requests, the next query is
  rejected with ``code == "overloaded"`` — no unbounded buffering;
* with the admission queue at ``queue_depth``, same;
* ``stop()`` stops admitting (``shutting-down``) but answers every admitted
  request before returning — shutdown drains, never drops;
* malformed frames and mid-request disconnects hurt only their own
  connection, never the server.
"""

from __future__ import annotations

import asyncio
import gc
import json
import socket
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.serve import QueryServer, ServeClient, ServerThread, encode_frame
from repro.serve.server import _Connection

pytestmark = pytest.mark.timeout(60)

TIMEOUT = 10.0


class BlockingStubService:
    """query_batch blocks until released; stats is a cheap snapshot."""

    def __init__(self):
        self.started = threading.Event()   # set when a batch enters service
        self.release = threading.Event()   # test opens the gate
        self.batch_sizes: list[int] = []

    def query_batch(self, requests):
        self.batch_sizes.append(len(requests))
        self.started.set()
        assert self.release.wait(timeout=TIMEOUT), "test never released the stub"
        return [self._answer(r) for r in requests]

    @staticmethod
    def _answer(request):
        k, n = request.k, request.num_queries
        return SimpleNamespace(ids=np.zeros((n, k), dtype=np.int64),
                               scores=np.zeros((n, k), dtype=np.float32),
                               store_hit=True,
                               entry=SimpleNamespace(version=1))

    def stats(self):
        return {"stub_batches": len(self.batch_sizes)}


class MiscountingStubService(BlockingStubService):
    """Breaks the service contract: returns ``len(requests) + extra`` responses."""

    def __init__(self, extra: int):
        super().__init__()
        self.extra = extra

    def query_batch(self, requests):
        responses = super().query_batch(requests)
        if self.extra < 0:
            return responses[:self.extra]
        return responses + [self._answer(requests[-1])] * self.extra


class FakeWriter:
    """StreamWriter stand-in: captures payloads, every transport op succeeds."""

    def __init__(self):
        self.payloads: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.payloads.append(data)

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


@pytest.fixture
def stub():
    return BlockingStubService()


def make_server(stub, **kwargs):
    kwargs.setdefault("max_inflight", 64)
    kwargs.setdefault("queue_depth", 128)
    return QueryServer(stub, {"g": object()}, default_tool="stub", **kwargs)


def send(client: ServeClient, frame: dict) -> None:
    """Fire-and-forget a frame (the blocking client would await the reply)."""
    client._sock.sendall(encode_frame(frame))


def read(client: ServeClient) -> dict:
    line = client._file.readline()
    assert line, "server closed the connection unexpectedly"
    return json.loads(line)


class TestAdmissionControl:
    def test_inflight_saturation_is_rejected_deterministically(self, stub):
        server = make_server(stub, max_inflight=2, queue_depth=8)
        with ServerThread(server) as addr, ServeClient(addr, timeout_s=TIMEOUT) as c:
            send(c, {"id": "r1", "verb": "query", "vertices": [0]})
            assert stub.started.wait(TIMEOUT)      # r1 is *in* service
            send(c, {"id": "r2", "verb": "query", "vertices": [1]})  # queued
            send(c, {"id": "r3", "verb": "query", "vertices": [2]})  # over cap
            reply = read(c)                        # rejection arrives first
            assert reply == {"ok": False, "code": "overloaded",
                             "error": reply["error"], "id": "r3"}
            assert "2 in flight" in reply["error"]
            stub.release.set()
            answered = {read(c)["id"], read(c)["id"]}
            assert answered == {"r1", "r2"}
        assert server.rejected_overload == 1
        assert server.queries_answered == 2

    def test_queue_depth_saturation_is_rejected(self, stub):
        server = make_server(stub, max_inflight=8, queue_depth=1)
        with ServerThread(server) as addr, ServeClient(addr, timeout_s=TIMEOUT) as c:
            send(c, {"id": "r1", "verb": "query", "vertices": [0]})
            assert stub.started.wait(TIMEOUT)      # queue drained into service
            send(c, {"id": "r2", "verb": "query", "vertices": [1]})  # fills depth-1 queue
            send(c, {"id": "r3", "verb": "query", "vertices": [2]})
            assert read(c)["code"] == "overloaded"
            stub.release.set()
            assert {read(c)["id"], read(c)["id"]} == {"r1", "r2"}
        assert server.rejected_overload == 1

    def test_stats_verb_answers_while_saturated(self, stub):
        server = make_server(stub, max_inflight=1)
        with ServerThread(server) as addr:
            with ServeClient(addr, timeout_s=TIMEOUT) as busy:
                send(busy, {"id": "r1", "verb": "query", "vertices": [0]})
                assert stub.started.wait(TIMEOUT)
                with ServeClient(addr, timeout_s=TIMEOUT) as observer:
                    stats = observer.stats()       # must not queue behind r1
                    assert stats["server"]["inflight"] == 1
                    assert stats["service"] == {"stub_batches": 1}
                stub.release.set()
                assert read(busy)["ok"] is True

    def test_rejection_counters_in_stats(self, stub):
        server = make_server(stub, max_inflight=1)
        with ServerThread(server) as addr, ServeClient(addr, timeout_s=TIMEOUT) as c:
            send(c, {"id": "r1", "verb": "query", "vertices": [0]})
            assert stub.started.wait(TIMEOUT)
            for i in range(3):
                send(c, {"id": f"x{i}", "verb": "query", "vertices": [0]})
            rejected = [read(c) for _ in range(3)]
            assert all(r["code"] == "overloaded" for r in rejected)
            with ServeClient(addr, timeout_s=TIMEOUT) as observer:
                assert observer.stats()["server"]["rejected_overload"] == 3
            stub.release.set()
            assert read(c)["id"] == "r1"


class TestRobustness:
    def test_malformed_frame_gets_error_reply_not_server_death(self, stub):
        stub.release.set()
        server = make_server(stub)
        with ServerThread(server) as addr, ServeClient(addr, timeout_s=TIMEOUT) as c:
            c._sock.sendall(b"this is not json\n")
            assert read(c)["code"] == "bad-frame"
            c._sock.sendall(b'{"unterminated": \n')
            assert read(c)["code"] == "bad-frame"
            # The same connection still serves real work afterwards.
            assert c.query(vertices=[0], request_id="ok")["ok"] is True
        assert server.malformed_frames == 2
        assert server.queries_answered == 1

    def test_bad_request_fields_get_bad_request_reply(self, stub):
        stub.release.set()
        server = make_server(stub)
        with ServerThread(server) as addr, ServeClient(addr, timeout_s=TIMEOUT) as c:
            assert c.request({"verb": "query"})["code"] == "bad-request"
            assert c.request({"verb": "teleport"})["code"] == "unknown-verb"
            assert c.ping() is True

    def test_client_disconnect_mid_request_drops_only_that_reply(self, stub):
        server = make_server(stub)
        with ServerThread(server) as addr:
            doomed = ServeClient(addr, timeout_s=TIMEOUT)
            send(doomed, {"id": "r1", "verb": "query", "vertices": [0]})
            assert stub.started.wait(TIMEOUT)
            doomed.close()
            with ServeClient(addr, timeout_s=TIMEOUT) as witness:
                # Wait until the server has noticed the disconnect ...
                deadline = 100
                while witness.stats()["server"]["connections_open"] > 1:
                    deadline -= 1
                    assert deadline, "server never noticed the disconnect"
                stub.release.set()
                # ... then the batch completes, the reply is dropped, and the
                # server keeps serving everyone else.
                deadline = 1000
                while witness.stats()["server"]["replies_dropped"] == 0:
                    deadline -= 1
                    assert deadline, "dropped reply was never counted"
                assert witness.query(vertices=[1])["ok"] is True
                stats = witness.stats()["server"]
        assert stats["replies_dropped"] == 1
        assert server.queries_answered == 2   # r1 completed despite the drop


class TestShutdownDrain:
    def test_stop_drains_inflight_before_returning(self, stub):
        server = make_server(stub)
        handle = ServerThread(server)
        addr = handle.start()
        c = ServeClient(addr, timeout_s=TIMEOUT)
        try:
            send(c, {"id": "r1", "verb": "query", "vertices": [0]})
            assert stub.started.wait(TIMEOUT)
            send(c, {"id": "r2", "verb": "query", "vertices": [1]})   # queued
            deadline = time.monotonic() + TIMEOUT
            while server.queries_admitted < 2:    # r2 must be admitted pre-stop
                assert time.monotonic() < deadline
                time.sleep(0.002)

            stopper = threading.Thread(target=handle.stop)
            stopper.start()
            stopper.join(timeout=0.3)
            assert stopper.is_alive(), "stop() returned without draining"

            # Draining admits nothing new but still answers the admitted.
            send(c, {"id": "late", "verb": "query", "vertices": [2]})
            assert read(c)["code"] == "shutting-down"
            stub.release.set()
            assert {read(c)["id"], read(c)["id"]} == {"r1", "r2"}
            stopper.join(timeout=TIMEOUT)
            assert not stopper.is_alive()
        finally:
            c.close()
        assert server.queries_answered == 2
        assert server.rejected_shutdown == 1
        assert server._inflight == 0

    def test_stop_with_idle_server_is_immediate(self, stub):
        server = make_server(stub)
        handle = ServerThread(server)
        handle.start()
        handle.stop(timeout_s=TIMEOUT)
        assert server.queries_answered == 0


class TestMisbehavingService:
    """A service that returns the wrong number of responses must not strand
    futures (their _forward_reply tasks would hang forever) or drift the
    _inflight accounting (the admission gate would wedge shut)."""

    def test_short_batch_fails_unmatched_requests_not_the_server(self):
        stub = MiscountingStubService(extra=-1)
        server = make_server(stub)
        with ServerThread(server) as addr, ServeClient(addr, timeout_s=TIMEOUT) as c:
            send(c, {"id": "r1", "verb": "query", "vertices": [0]})
            assert stub.started.wait(TIMEOUT)          # [r1] alone is in service
            send(c, {"id": "r2", "verb": "query", "vertices": [1]})
            send(c, {"id": "r3", "verb": "query", "vertices": [2]})
            deadline = time.monotonic() + TIMEOUT
            while server.queries_admitted < 3:         # r2+r3 queue up together
                assert time.monotonic() < deadline
                time.sleep(0.002)
            stub.release.set()
            replies = {r["id"]: r for r in (read(c), read(c), read(c))}
            # Batch [r1]: 0 responses for 1 request -> r1 gets an error reply.
            assert replies["r1"]["ok"] is False
            assert replies["r1"]["code"] == "error"
            assert "responses for" in replies["r1"]["error"]
            # Batch [r2, r3]: 1 response for 2 requests -> r2 real, r3 error.
            assert replies["r2"]["ok"] is True
            assert replies["r3"]["code"] == "error"
            # No stranded futures, no drifted admission accounting ...
            assert server._inflight == 0
            assert server.batch_length_mismatches == 2
            # ... and the same server keeps serving once the service behaves.
            stub.extra = 0
            assert c.query(vertices=[5], request_id="r4")["ok"] is True
        assert server.queries_answered == 2            # r2 + r4

    def test_long_batch_truncates_extras_and_counts(self):
        stub = MiscountingStubService(extra=1)
        stub.release.set()
        server = make_server(stub)
        with ServerThread(server) as addr, ServeClient(addr, timeout_s=TIMEOUT) as c:
            assert c.query(vertices=[0], request_id="r1")["ok"] is True
        assert server.batch_length_mismatches == 1
        assert server._inflight == 0
        assert server.queries_answered == 1


class TestReplyDropRace:
    def test_send_racing_close_counts_the_drop(self, stub):
        """A reply enqueued between the writer sentinel and the connection
        teardown must be *counted* as dropped, not silently vanish.  The
        server marks ``conn.closed`` before queueing the sentinel, so a
        racing ``_send`` always observes the closed flag."""

        async def scenario():
            server = make_server(stub)
            conn = _Connection(writer=FakeWriter())
            server._connections.add(conn)
            loop = asyncio.get_running_loop()
            conn.writer_task = loop.create_task(server._write_loop(conn))
            closer = loop.create_task(server._close_connection(conn))
            await asyncio.sleep(0)     # close marked conn.closed, queued sentinel
            assert conn.closed is True
            server._send(conn, {"ok": True, "id": "racer"})
            await closer
            return server, conn

        server, conn = asyncio.run(scenario())
        assert server.replies_dropped == 1
        assert all(b"racer" not in payload for payload in conn.writer.payloads)


class TestServerThreadLifecycle:
    def test_stop_before_start_is_a_no_op(self, stub):
        handle = ServerThread(make_server(stub))
        handle.stop()                  # nothing started, nothing raised
        assert handle.address is None

    def test_double_start_raises(self, stub):
        stub.release.set()
        handle = ServerThread(make_server(stub))
        handle.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                handle.start()
        finally:
            handle.stop(timeout_s=TIMEOUT)

    def test_drain_past_timeout_raises_and_still_joins_the_thread(self, stub):
        server = make_server(stub)
        handle = ServerThread(server)
        addr = handle.start()
        c = ServeClient(addr, timeout_s=TIMEOUT)
        try:
            send(c, {"id": "r1", "verb": "query", "vertices": [0]})
            assert stub.started.wait(TIMEOUT)     # service wedged mid-batch
            thread = handle._thread
            with pytest.raises(TimeoutError, match="drain"):
                handle.stop(timeout_s=0.3)
            # The failed drain must not leak the daemon loop thread.
            thread.join(TIMEOUT)
            assert not thread.is_alive()
            assert handle._thread is None
            handle.stop()                         # second stop: clean no-op
        finally:
            stub.release.set()                    # let the worker thread exit
            c.close()
            # Let the released worker finish and collect the server here, so
            # any coroutine the stop left half-run, or an executor callback
            # hitting the closed loop, is reported against this test.
            time.sleep(0.05)
            server._connections.clear()
            del server, handle
            gc.collect()

    def test_drain_past_timeout_aborts_every_open_transport(self, stub):
        """The abandoned drain leaves no socket open behind the stopped
        loop: a transport that outlives its loop can never be closed."""
        server = make_server(stub)
        handle = ServerThread(server, http_port=0)
        addr = handle.start()
        host, port = handle.http_address.rsplit(":", 1)
        busy = ServeClient(addr, timeout_s=TIMEOUT)
        idle = ServeClient(addr, timeout_s=TIMEOUT)
        http = socket.create_connection((host, int(port)), timeout=TIMEOUT)
        try:
            assert idle.ping()                    # accepted and registered
            send(busy, {"id": "r1", "verb": "query", "vertices": [0]})
            assert stub.started.wait(TIMEOUT)     # service wedged mid-batch
            deadline = time.monotonic() + TIMEOUT
            while not handle._http._writers and time.monotonic() < deadline:
                time.sleep(0.01)
            transports = ([conn.writer.transport for conn in server._connections]
                          + [w.transport for w in handle._http._writers])
            assert len(transports) == 3           # two NDJSON, one HTTP
            with pytest.raises(TimeoutError, match="drain"):
                handle.stop(timeout_s=0.3)
            assert all(t.is_closing() for t in transports)
        finally:
            stub.release.set()
            for client in (busy, idle, http):
                client.close()
            time.sleep(0.05)
            server._connections.clear()
            del server, handle
            gc.collect()
