"""The serving process of the serve workloads (never the load generator's).

    python3 perfbench/serve_child.py --vertices N --shards S --seed X --store DIR

Sets up exactly as a deployment would (generate the graph, embed it into
the store, load the stored entry, start a ``QueryServer`` or a 2-shard
``ShardRouter.spawn``), then prints one JSON "ready" line on stdout and
obeys one-line commands on stdin:

* ``trace_on <epoch>`` — enable ``repro.obs.trace`` and wrap
  ``EmbeddingService.query_batch`` / ``QueryEngine.query`` in spans;
* ``report`` — undo that and print one JSON line with the spans and the
  counters the public objects expose;
* ``quit`` (or end of input) — drain the servers and exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

from common import SRC, SpanLog, make_graph, wrapped

sys.path.insert(0, str(SRC))

from repro.api import EmbeddingService  # noqa: E402
from repro.obs import trace  # noqa: E402
from repro.query.engine import QueryEngine  # noqa: E402
from repro.serve import QueryServer, ServerThread, ShardRouter  # noqa: E402
from repro.store import EmbeddingStore  # noqa: E402

TOOL = "gosh-fast"
GRAPH = "g"


def _say(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


class Deployment:
    """A serving deployment set up from scratch, as ``repro-gosh serve``/``route`` would."""

    def __init__(self, n: int, shards: int, seed: int, store: str):
        t0 = perf_counter()
        graph = make_graph(n, seed)
        t1 = perf_counter()
        self.services: list[EmbeddingService] = []
        entry, _ = self._service(store, seed).ensure_stored(TOOL, graph)
        t2 = perf_counter()
        EmbeddingStore(store).load(graph.fingerprint(), TOOL, mmap=True)
        t3 = perf_counter()
        graphs = {GRAPH: graph}
        if shards:
            self.router = ShardRouter.spawn(
                lambda: self._service(store, seed), graphs, shard_count=shards,
                default_graph=GRAPH, default_tool=TOOL)
            self.address = self.router.start()
            self.server = self.router.server
        else:
            self.router = None
            self.server = QueryServer(self.services[0], graphs, default_graph=GRAPH,
                                      default_tool=TOOL)
            self.handle = ServerThread(self.server)
            self.address = self.handle.start()
        self.ready = {
            "ready": True, "pid": os.getpid(), "address": self.address,
            "fingerprint": graph.fingerprint(), "tool": TOOL, "store": store,
            "vertices": graph.num_vertices, "edges": graph.num_edges // 2,
            "shape": list(entry.shape),
            "generate_s": t1 - t0, "embed_and_write_s": t2 - t1,
            "store_load_s": t3 - t2, "start_s": perf_counter() - t3,
        }

    def _service(self, store: str, seed: int) -> EmbeddingService:
        service = EmbeddingService(dim=32, epoch_scale=0.1, seed=seed, store=store)
        self.services.append(service)
        return service

    def counters(self) -> dict:
        rows = sum(s.stats().get("query", {}).get("rows_scored", 0)
                   for s in self.services)
        out = {"answered": self.server.queries_answered,
               "microbatches": self.server.microbatches, "rows_scored": rows}
        if self.router is not None:
            backend = self.router.backend
            out.update(shard_queries=backend.shard_queries,
                       shard_errors=backend.shard_errors,
                       routed_ok=backend.requests_ok)
        return out

    def trace_on(self, epoch: float) -> None:
        self.epoch, self.before = epoch, self.counters()
        self.log = SpanLog()
        self._wrap = wrapped(self.log, [
            (EmbeddingService, "query_batch", "api.query_batch", None),
            (QueryEngine, "query", "query.engine", None),
        ])
        self._wrap.__enter__()
        self.trace_start = perf_counter()
        trace.enable()

    def report(self) -> dict:
        trace.disable()
        self._wrap.__exit__(None, None, None)
        events = trace.drain()
        after = self.counters()
        # Server-stamped total of every hop, keyed by the client's trace id.
        hops: dict[str, dict[str, float]] = {}
        for event in events:
            args = event.get("args", {})
            if event.get("name") == "server.query" and "trace" in args:
                hops.setdefault(args["trace"], {})[args["address"]] = event["dur"] / 1e6
        shift = (self.trace_start - self.epoch) * 1e6
        chrome = self.log.chrome_events(os.getpid(), self.epoch)
        for event in events:
            if event.get("ph") == "X":
                chrome.append({**event, "ts": event["ts"] + shift,
                               "args": {k: v for k, v in event.get("args", {}).items()
                                        if isinstance(v, (int, float, str))}})
        return {
            "top": self.address, "hops": hops,
            "api_s": self.log.durations("api.query_batch"),
            "engine_s": self.log.durations("query.engine"),
            "delta": {k: after[k] - self.before[k] for k in after},
            "events": chrome,
        }

    def stop(self) -> None:
        if self.router is not None:
            self.router.stop()
        else:
            self.handle.stop()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--vertices", type=int, required=True)
    parser.add_argument("--shards", type=int, default=0)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True)
    args = parser.parse_args()
    deployment = Deployment(args.vertices, args.shards, args.seed, args.store)
    try:
        _say(deployment.ready)
        for line in sys.stdin:
            command = line.split()
            if not command or command[0] == "quit":
                break
            if command[0] == "trace_on":
                deployment.trace_on(float(command[1]))
                _say({"ok": True})
            elif command[0] == "report":
                _say(deployment.report())
    finally:
        deployment.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
