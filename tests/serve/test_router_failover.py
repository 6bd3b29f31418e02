"""Fault injection for the shard router: failure is recoverable, never final.

The contract under test, end to end:

* a replica's :class:`HealthState` escalates ``healthy → suspect → dead``
  on failures and schedules exponential-backoff probes (clock-driven unit
  tests — no sleeping);
* a *hung* shard (accepts, never replies) fails only its own batch, within
  the configured deadline, while the router keeps serving other ranges;
* a killed-then-restarted shard is re-probed by the background prober and
  readmitted, after which its range serves bit-exact results again — the
  "dead shard is dead forever" bug this PR removes;
* with replica sets, the router fails over *within* a request when the
  primary dies, still bit-exact (replicas serve the same store version);
* duplicate or stale replies on a shard link or a ``ServeClient`` are
  deduplicated by per-exchange wire ids instead of poisoning a later
  exchange, and a client that timed out refuses further requests;
* one routed microbatch makes one blocking write per shard (pipelining);
* the failure counters stay coherent: every request is exactly one of
  ``requests_ok`` / ``requests_failed``, and every frame a replica group
  was offered is either answered by some replica or counted failed.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.api import EmbeddingService, QueryRequest
from repro.graph import powerlaw_cluster
from repro.serve import (
    HEALTH_DEAD,
    HEALTH_HEALTHY,
    HEALTH_SUSPECT,
    HealthState,
    QueryServer,
    ServeClient,
    ServerThread,
    ShardError,
    ShardRouter,
    StateClock,
    encode_frame,
)
from repro.serve.router import _ShardGroup, _ShardLink

pytestmark = pytest.mark.timeout(120)

TIMEOUT = 10.0


class FakeClock:
    """Deterministic monotonic clock for state-machine unit tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------------- #
# StateClock
# --------------------------------------------------------------------- #
class TestStateClock:
    def test_accumulates_seconds_per_state(self):
        clk = FakeClock()
        sc = StateClock("healthy", clock=clk)
        clk.advance(2.0)
        assert sc.seconds_in("healthy") == pytest.approx(2.0)
        dwell = sc.transition("dead")
        assert dwell == pytest.approx(2.0)
        clk.advance(3.0)
        sc.transition("healthy")
        clk.advance(1.0)
        assert sc.seconds_in("dead") == pytest.approx(3.0)
        assert sc.seconds_in("healthy") == pytest.approx(3.0)
        assert sc.transitions == 2

    def test_summary_is_json_ready(self):
        clk = FakeClock()
        sc = StateClock("a", clock=clk)
        clk.advance(0.5)
        sc.transition("b")
        summary = json.loads(json.dumps(sc.summary()))
        assert summary["state"] == "b"
        assert summary["transitions"] == 1
        assert summary["seconds"]["a"] == pytest.approx(0.5)


# --------------------------------------------------------------------- #
# HealthState: the clock-driven backoff schedule
# --------------------------------------------------------------------- #
class TestHealthState:
    def test_escalates_suspect_then_dead(self):
        clk = FakeClock()
        h = HealthState(probe_interval_s=1.0, probe_backoff_max_s=30.0,
                        clock=clk)
        assert h.state == HEALTH_HEALTHY and h.routable()
        h.record_failure()
        assert h.state == HEALTH_SUSPECT and h.routable()
        h.record_failure()
        assert h.state == HEALTH_DEAD
        assert not h.routable()               # backoff has not elapsed

    def test_backoff_doubles_per_failure_and_caps(self):
        clk = FakeClock()
        h = HealthState(probe_interval_s=1.0, probe_backoff_max_s=8.0,
                        clock=clk)
        expected = [1.0, 1.0, 2.0, 4.0, 8.0, 8.0]   # capped at the max
        for backoff in expected:
            h.record_failure()
            assert h.backoff_s() == pytest.approx(backoff)
            assert h.next_probe_at == pytest.approx(clk.now + backoff)

    def test_probe_due_only_after_the_backoff_elapses(self):
        clk = FakeClock()
        h = HealthState(probe_interval_s=1.0, probe_backoff_max_s=30.0,
                        clock=clk)
        h.record_failure()
        h.record_failure()
        assert not h.probe_due() and not h.routable()
        clk.advance(0.99)
        assert not h.probe_due()
        clk.advance(0.02)
        assert h.probe_due()
        assert h.routable()                   # probe-due dead = last resort

    def test_success_readmits_and_resets(self):
        clk = FakeClock()
        h = HealthState(clock=clk)
        assert h.record_success() is False    # healthy -> healthy: no-op
        h.record_failure()
        h.record_failure()
        clk.advance(5.0)
        assert h.record_success() is True
        assert h.state == HEALTH_HEALTHY
        assert h.consecutive_failures == 0
        assert h.readmissions == 1
        assert h.dwell.seconds_in(HEALTH_DEAD) == pytest.approx(5.0)

    def test_healthy_never_probes(self):
        h = HealthState(clock=FakeClock())
        assert not h.probe_due()

    def test_bad_intervals_rejected(self):
        with pytest.raises(ValueError):
            HealthState(probe_interval_s=0.0)
        with pytest.raises(ValueError):
            HealthState(probe_interval_s=2.0, probe_backoff_max_s=1.0)


# --------------------------------------------------------------------- #
# Scripted shards: raw TCP servers with controlled misbehaviour
# --------------------------------------------------------------------- #
@contextmanager
def scripted_shard(handler):
    """Serve ``handler(conn)`` per accepted connection on a fresh port."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.1)
    address = f"127.0.0.1:{listener.getsockname()[1]}"
    stop = threading.Event()

    def accept_loop():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(target=handler, args=(conn,), daemon=True).start()

    thread = threading.Thread(target=accept_loop, daemon=True)
    thread.start()
    try:
        yield address
    finally:
        stop.set()
        thread.join(timeout=TIMEOUT)
        listener.close()


def duplicating_handler(conn):
    """Answers every frame — twice.  The duplicate must be deduplicated."""
    with conn, conn.makefile("rb") as lines:
        while True:
            line = lines.readline()
            if not line:
                return
            frame = json.loads(line)
            reply = encode_frame({"ok": True, "verb": "ping",
                                  "id": frame.get("id")})
            conn.sendall(reply + reply)


def blackhole_handler(conn):
    """Accepts and reads, never replies: the hung-shard failure mode."""
    with conn:
        try:
            while conn.recv(65536):
                pass
        except OSError:
            pass


#: Both blocking wire clients match replies by per-exchange wire id: the
#: router's shard link and the ServeClient it runs on.
LINK_KINDS = [pytest.param(_ShardLink, id="shard-link"),
              pytest.param(ServeClient, id="serve-client")]


class TestShardLinkDedupe:
    @pytest.mark.parametrize("connect", LINK_KINDS)
    def test_duplicate_replies_are_dropped_not_mismatched(self, connect):
        with scripted_shard(duplicating_handler) as address:
            link = connect(address, timeout_s=TIMEOUT)
            try:
                replies = link.exchange([{"id": 0, "verb": "ping"},
                                         {"id": 1, "verb": "ping"}])
                assert set(replies) == {0, 1}
                assert all(r["ok"] for r in replies.values())
                assert link.duplicate_replies >= 1
            finally:
                link.close()

    @pytest.mark.parametrize("connect", LINK_KINDS)
    def test_stale_reply_does_not_poison_the_next_exchange(self, connect):
        # Exchange 1 leaves a duplicate reply in the connection buffer;
        # exchange 2 uses fresh per-exchange wire ids, so the stale line is
        # recognised as noise and dropped — with batch-index ids it would
        # have been mistaken for exchange 2's own answer.
        with scripted_shard(duplicating_handler) as address:
            link = connect(address, timeout_s=TIMEOUT)
            try:
                first = link.exchange([{"id": 0, "verb": "ping"}])
                assert first[0]["ok"] is True
                second = link.exchange([{"id": 0, "verb": "ping"}])
                assert set(second) == {0} and second[0]["ok"] is True
                assert link.duplicate_replies >= 1   # the stale line, dropped
                if isinstance(link, _ShardLink):
                    assert link.health.state == HEALTH_HEALTHY
            finally:
                link.close()

    def test_link_counts_duplicates_across_reconnects(self):
        with scripted_shard(duplicating_handler) as address:
            link = _ShardLink(address, timeout_s=TIMEOUT)
            try:
                link.exchange([{"id": 0, "verb": "ping"}])
                link.exchange([{"id": 0, "verb": "ping"}])
                before = link.duplicate_replies
                assert before >= 1
                assert link.probe() is True      # drops the old connection
                assert link.duplicate_replies >= before
            finally:
                link.close()


class TestShardLinkDeadline:
    def test_hung_link_raises_within_the_deadline_without_resend(self):
        with scripted_shard(blackhole_handler) as address:
            link = _ShardLink(address, timeout_s=0.3)
            try:
                start = time.monotonic()
                with pytest.raises(ShardError, match="timed out"):
                    link.exchange([{"id": 0, "verb": "ping"}])
                elapsed = time.monotonic() - start
                assert elapsed < 2.0            # one deadline, not a multiple
                assert link.routed == 1          # a timeout is never resent
                assert link.health.state == HEALTH_SUSPECT
            finally:
                link.close()

    def test_unreachable_address_fails_fast_as_unreachable(self):
        # A closed port refuses instantly; the error must say so (not
        # "timed out") and the health machine must record the failure.
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        link = _ShardLink(f"127.0.0.1:{port}", timeout_s=2.0)
        with pytest.raises(ShardError, match="unreachable"):
            link.exchange([{"id": 0, "verb": "ping"}])
        assert link.health.consecutive_failures == 1


class TestServeClientDeadline:
    def test_blackholed_server_times_out_within_the_deadline(self):
        # The client's timeout_s is a per-request wall-clock bound: a
        # server that accepts and then never replies must fail the request
        # as TimeoutError within the deadline, not hang on the read.
        with scripted_shard(blackhole_handler) as address:
            with ServeClient(address, timeout_s=0.3) as client:
                start = time.monotonic()
                with pytest.raises(TimeoutError, match="deadline"):
                    client.request({"verb": "ping"})
                assert time.monotonic() - start < 2.0

    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="timeout_s"):
            ServeClient("127.0.0.1:1", timeout_s=0.0)

    def test_request_after_a_timeout_raises_connection_error(self):
        # The timed-out request's reply may still arrive; reading on would
        # hand it to the next request, so the client closes instead.
        with scripted_shard(blackhole_handler) as address:
            with ServeClient(address, timeout_s=0.2) as client:
                with pytest.raises(TimeoutError):
                    client.request({"id": "first", "verb": "ping"})
                with pytest.raises(ConnectionError):
                    client.request({"id": "second", "verb": "ping"})


class TestServeClientReplyMatching:
    def test_each_request_gets_its_own_reply_despite_duplicates(self):
        with scripted_shard(duplicating_handler) as address:
            with ServeClient(address, timeout_s=TIMEOUT) as client:
                assert client.request({"id": "first", "verb": "ping"})["id"] \
                    == "first"
                assert client.request({"id": "second", "verb": "ping"})["id"] \
                    == "second"
                assert client.duplicate_replies >= 1


class TestShardGroup:
    def _dead_group(self, clk):
        group = _ShardGroup(0, ["127.0.0.1:9", "127.0.0.1:10"], timeout_s=1.0,
                            probe_interval_s=1.0, probe_backoff_max_s=30.0,
                            clock=clk)
        for link in group.links:
            link.health.record_failure()
            link.health.record_failure()
        return group

    def test_all_replicas_dead_fails_fast_without_connecting(self):
        clk = FakeClock()
        group = self._dead_group(clk)
        start = time.monotonic()
        with pytest.raises(ShardError, match="dead"):
            group.exchange([{"id": 0, "verb": "ping"}])
        assert time.monotonic() - start < 0.5    # no connect attempts at all
        assert group.frames == 1 and group.frames_failed == 1

    def test_probe_due_dead_replicas_become_candidates_again(self):
        clk = FakeClock()
        group = self._dead_group(clk)
        assert group.candidates() == []
        clk.advance(60.0)                        # backoff elapsed for both
        assert len(group.candidates()) == 2

    def test_candidates_rank_healthiest_then_least_loaded(self):
        clk = FakeClock()
        group = _ShardGroup(0, ["a:1", "a:2", "a:3"], timeout_s=1.0,
                            probe_interval_s=1.0, probe_backoff_max_s=30.0,
                            clock=clk)
        group.links[0].health.record_failure()   # suspect
        group.links[1].inflight = 4              # healthy but loaded
        ranked = [link.address for link in group.candidates()]
        assert ranked == ["a:3", "a:2", "a:1"]


# --------------------------------------------------------------------- #
# Full-router fault injection (real spawned shards)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster(300, m=3, p_triangle=0.5, seed=7)


@pytest.fixture(scope="module")
def service(graph, tmp_path_factory):
    service = EmbeddingService(dim=8, epoch_scale=0.02,
                               store=tmp_path_factory.mktemp("store"))
    service.ensure_stored("gosh-fast", graph)
    return service


def assert_bit_exact(reply, expected):
    assert reply["ok"] is True, reply
    assert reply["ids"] == expected.ids.tolist()
    got = np.asarray(reply["scores"], dtype=np.float32)
    assert got.tobytes() == expected.scores.tobytes()


def restart_server_at(service, graphs, address) -> ServerThread:
    """Bind a fresh QueryServer on the exact address a dead shard used."""
    host, _, port = address.rpartition(":")
    last_error = None
    for _ in range(40):
        handle = ServerThread(QueryServer(service, graphs, host=host,
                                          port=int(port)))
        try:
            handle.start()
            return handle
        except OSError as exc:                  # port still in teardown
            last_error = exc
            time.sleep(0.05)
    raise AssertionError(f"could not rebind {address}: {last_error}")


class TestHungShard:
    def test_hung_shard_fails_only_its_range_within_the_deadline(
            self, service, graph):
        # Range 0 is a real shard; range 1 blackholes after accept.  A
        # fan-out touching range 1 must fail within the shard deadline,
        # while range-0-only queries keep being served.
        shard = ServerThread(QueryServer(service, {"pl300": graph}))
        shard_address = shard.start()
        try:
            with scripted_shard(blackhole_handler) as hole:
                router = ShardRouter({"pl300": graph}, [shard_address, hole],
                                     default_tool="gosh-fast",
                                     shard_timeout_s=0.5,
                                     probe_interval_s=60.0,
                                     probe_backoff_max_s=60.0)
                with router as address, \
                        ServeClient(address, timeout_s=TIMEOUT) as client:
                    expected = service.query("gosh-fast", graph, vertices=[3],
                                             k=5, vertex_range=(0, 150))
                    assert_bit_exact(
                        client.query(vertices=[3], k=5, vertex_range=(0, 150)),
                        expected)

                    start = time.monotonic()
                    reply = client.query(vertices=[3], k=5)   # spans range 1
                    elapsed = time.monotonic() - start
                    assert reply["ok"] is False
                    assert "timed out" in reply["error"]
                    assert elapsed < 3.0          # deadline, not a hang

                    # Other ranges keep serving after the failure ...
                    assert_bit_exact(
                        client.query(vertices=[3], k=5, vertex_range=(0, 150)),
                        expected)
                    # ... and stats stays responsive: the unhealthy replica
                    # is reported from the health machine, never re-dialled.
                    stats = client.stats()
                    rows = {row["address"]: row
                            for row in stats["service"]["shards"]}
                    assert rows[hole]["state"] == HEALTH_SUSPECT
                    assert "error" in rows[hole]
                    assert "server" in rows[shard_address]
        finally:
            shard.stop()


class TestKillRestartReadmission:
    def test_killed_then_restarted_shard_is_reprobed_and_readmitted(
            self, service, graph):
        router = ShardRouter.spawn(service, {"pl300": graph}, shard_count=2,
                                   default_tool="gosh-fast",
                                   shard_timeout_s=TIMEOUT,
                                   probe_interval_s=0.05,
                                   probe_backoff_max_s=0.2)
        with router as address, \
                ServeClient(address, timeout_s=30.0) as client:
            expected = service.query("gosh-fast", graph,
                                     vertices=[0, 299], k=5)
            assert_bit_exact(client.query(vertices=[0, 299], k=5), expected)

            link = router.backend.groups[1].links[0]
            dead_address = link.address
            router._owned[1].stop()              # kill range 1's only replica

            reply = client.query(vertices=[299], k=3)
            assert reply["ok"] is False
            assert "ShardError" in reply["error"]
            assert link.health.state in (HEALTH_SUSPECT, HEALTH_DEAD)

            replacement = restart_server_at(service, {"pl300": graph},
                                            dead_address)
            try:
                # The background prober must readmit it — no traffic needed.
                deadline = time.monotonic() + 30.0
                while link.health.state != HEALTH_HEALTHY:
                    assert time.monotonic() < deadline, \
                        "restarted shard was never readmitted"
                    time.sleep(0.02)
                assert link.health.readmissions >= 1
                assert link.probes_ok >= 1
                # Readmitted range serves bit-exact results again.
                assert_bit_exact(client.query(vertices=[0, 299], k=5),
                                 expected)
                assert_bit_exact(client.query(vertices=[299], k=3),
                                 service.query("gosh-fast", graph,
                                               vertices=[299], k=3))
            finally:
                replacement.stop()


class TestReplicaFailover:
    def test_failover_within_a_request_stays_bit_exact(self, service, graph):
        router = ShardRouter.spawn(service, {"pl300": graph}, shard_count=2,
                                   replicas=2, default_tool="gosh-fast",
                                   shard_timeout_s=TIMEOUT,
                                   probe_interval_s=60.0,
                                   probe_backoff_max_s=60.0)
        with router as address, \
                ServeClient(address, timeout_s=30.0) as client:
            assert len(router.backend.addresses) == 4
            assert [len(g.links) for g in router.backend.groups] == [2, 2]
            expected = service.query("gosh-fast", graph,
                                     vertices=[10, 200], k=6)
            assert_bit_exact(client.query(vertices=[10, 200], k=6), expected)

            router._owned[0].stop()       # range 0's primary replica dies
            group = router.backend.groups[0]

            # The very next request fails over mid-request: same answer.
            assert_bit_exact(client.query(vertices=[10, 200], k=6), expected)
            assert group.failovers >= 1
            assert group.frames_failed == 0
            assert group.links[0].health.state != HEALTH_HEALTHY

            # Later requests rank the suspect replica last and go straight
            # to the healthy one — no more failovers accrue.
            failovers_before = group.failovers
            assert_bit_exact(client.query(vertices=[10, 200], k=6), expected)
            assert group.failovers == failovers_before
            assert router.backend.requests_failed == 0

    def test_failover_under_concurrent_clients(self, service, graph):
        # Range 0's primary dies once every client holds its first reply
        # (the barrier's action runs before any client moves on); the
        # remaining rounds fail over within their requests, bit-exact.
        # Shards answer one query per matmul: a stacked microbatch rounds
        # scores differently from the single-query oracle.
        clients, rounds = 4, 5
        router = ShardRouter.spawn(service, {"pl300": graph}, shard_count=2,
                                   replicas=2, default_tool="gosh-fast",
                                   shard_max_batch=1,
                                   shard_timeout_s=TIMEOUT,
                                   probe_interval_s=60.0,
                                   probe_backoff_max_s=60.0)
        first_replies = threading.Barrier(clients,
                                          action=router._owned[0].stop)
        replies, errors = [], []

        def run_client(i, address):
            try:
                with ServeClient(address, timeout_s=30.0) as client:
                    for r in range(rounds):
                        vertex = (61 * i + 17 * r) % graph.num_vertices
                        replies.append((vertex, client.query(vertices=[vertex],
                                                             k=5)))
                        if r == 0:
                            first_replies.wait(TIMEOUT)
            except Exception as exc:             # surfaced by the assert below
                errors.append(exc)

        with router as address:
            threads = [threading.Thread(target=run_client, args=(i, address))
                       for i in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(TIMEOUT * 3)
            assert errors == []
            assert router.backend.groups[0].failovers >= 1
            assert router.backend.requests_failed == 0
        assert len(replies) == clients * rounds
        for vertex, reply in replies:
            assert_bit_exact(reply, service.query("gosh-fast", graph,
                                                  vertices=[vertex], k=5))

    def test_draining_replica_triggers_failover_too(self, service, graph):
        # A replica mid-drain still answers the socket but refuses queries
        # with "shutting-down" — its own reply says "retry elsewhere".  The
        # group must treat that as a replica failure, not a served batch.
        router = ShardRouter.spawn(service, {"pl300": graph}, shard_count=2,
                                   replicas=2, default_tool="gosh-fast",
                                   shard_timeout_s=TIMEOUT,
                                   probe_interval_s=60.0,
                                   probe_backoff_max_s=60.0)
        with router as address, \
                ServeClient(address, timeout_s=30.0) as client:
            expected = service.query("gosh-fast", graph, vertices=[20], k=4)
            assert_bit_exact(client.query(vertices=[20], k=4), expected)
            # Flip range 0's primary into drain mode without closing it.
            router._owned[0].server._stopping = True
            assert_bit_exact(client.query(vertices=[20], k=4), expected)
            group = router.backend.groups[0]
            assert group.failovers >= 1
            assert group.links[0].health.state != HEALTH_HEALTHY
            assert router.backend.requests_failed == 0


class TestStatsCoherenceUnderFailure:
    def test_counters_partition_the_request_stream(self, service, graph):
        router = ShardRouter.spawn(service, {"pl300": graph}, shard_count=2,
                                   default_tool="gosh-fast",
                                   shard_timeout_s=TIMEOUT,
                                   probe_interval_s=60.0,
                                   probe_backoff_max_s=60.0)
        with router as address, \
                ServeClient(address, timeout_s=30.0) as client:
            for vertex in (0, 1, 2):             # 3 healthy requests
                assert client.query(vertices=[vertex], k=3)["ok"] is True
            router._owned[1].stop()
            for vertex in (3, 4):                # 2 failed requests
                assert client.query(vertices=[vertex], k=3)["ok"] is False

            backend = router.backend
            total = backend.requests_ok + backend.requests_failed
            assert total == 5
            assert backend.requests_ok == 3
            assert backend.requests_failed == 2
            assert (backend.shard_errors + backend.plan_errors
                    == backend.requests_failed)

            # Every frame offered to a replica group was either answered by
            # some replica or counted failed — across every group.
            for group in backend.groups:
                assert group.frames == total     # all requests span all ranges
                answered = sum(link.frames_ok for link in group.links)
                assert answered + group.frames_failed == group.frames
                for link in group.links:
                    assert link.frames_ok <= link.routed

            stats = backend.stats()["router"]
            assert stats["requests_ok"] + stats["requests_failed"] == total
            assert stats["shard_errors"] == backend.shard_errors
            assert stats["probes_ok"] <= stats["probes_sent"]
            assert stats["failovers"] == 0       # single replica per range


class TestFanOutWork:
    def test_one_microbatch_makes_one_blocking_send_per_shard(
            self, service, graph, monkeypatch):
        # Frames stay pipelined: Q queries over S shard ranges cost exactly
        # S blocking writes, one per shard link.  The shard servers answer
        # through asyncio transports, so only the router's links count.
        shards, queries = 3, 5
        router = ShardRouter.spawn(service, {"pl300": graph},
                                   shard_count=shards,
                                   default_tool="gosh-fast",
                                   shard_timeout_s=TIMEOUT,
                                   probe_interval_s=60.0,
                                   probe_backoff_max_s=60.0)
        with router:
            sends = []
            real_sendall = socket.socket.sendall

            def counting_sendall(sock, data, *args):
                sends.append(len(data))
                return real_sendall(sock, data, *args)

            monkeypatch.setattr(socket.socket, "sendall", counting_sendall)
            responses = router.backend.query_batch([
                QueryRequest("gosh-fast", graph, vertices=[v], k=3)
                for v in range(queries)])
            monkeypatch.undo()
            assert len(sends) == shards
            for v, response in enumerate(responses):
                expected = service.query("gosh-fast", graph, vertices=[v], k=3)
                assert response.ids.tolist() == expected.ids.tolist()
