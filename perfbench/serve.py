"""Serve workloads: closed-loop k-NN queries against a server in a child process.

``serve_direct`` drives one ``QueryServer`` over a small embedding (fits in
a core's L2) with two clients, so the wire, event loop, executor hop and
micro-batching dominate.  ``serve_routed`` drives a 2-shard
``ShardRouter.spawn`` over a larger embedding with one client, so the
engine scan and the router's fan-out and merge dominate.  One operation is
one query, timed from its creation to the receipt of its reply on the
client clock.  The server always runs in a child process: in the load
generator's own process the two share one interpreter lock, which made
throughput swing by a third between runs.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from common import (HERE, OUT, PER_LAYER, SETUP_ROUNDS, SpanLog, cpu_seconds,
                    peak_rss_mb, reset_peak_rss, write_trace)

from repro.query.engine import QueryEngine
from repro.store import EmbeddingStore

#: workload -> (vertices, shards, closed-loop clients).  One client on
#: ``serve_routed``: with two, the router and both shards contend for one
#: interpreter lock on two CPUs, latencies spread over 10-50 ms and the
#: median moved by a quarter between runs (see README.md, "Noise").
SHAPES = {"serve_direct": (5_000, 0, 2), "serve_routed": (100_000, 2, 1)}
K = 10
#: Latency kept falling for the first seconds of a fresh server.
WARMUP_S = 4.0
#: The untraced phase is driven in windows of about this length; the
#: end-to-end latency and CPU time are medians over the windows, so a slow
#: stretch of the shared machine shorter than half the run moves them less.
WINDOW_S = 5.0
#: Every SAMPLE_EVERY-th reply of each client is checked against the oracle.
SAMPLE_EVERY = 16
REPLY_TIMEOUT_S = 10.0
NUMPY_PROBES = 200


class Child:
    """One serving process; ``close`` always reaps it."""

    def __init__(self, n: int, shards: int, seed: int, store: Path):
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve_child.py"), "--vertices", str(n),
             "--shards", str(shards), "--seed", str(seed), "--store", str(store)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.ready = self._read()
        self.setup_s = perf_counter() - t0

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"serving process exited (code {self.proc.wait()})")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        try:
            self.proc.communicate("quit\n", timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


# --------------------------------------------------------------------------- #
# Load generator: ``clients`` connections from this one process, closed loop.
# --------------------------------------------------------------------------- #
async def _client(address: str, n: int, rng: np.random.Generator, deadline: float,
                  traced: str | None, records: list, samples: list) -> dict:
    host, port = address.rsplit(":", 1)
    reader, writer = await asyncio.open_connection(host, int(port))
    counts = {"sent": 0, "answered": 0, "rejected": 0, "errors": 0}
    vertices = rng.integers(n, size=4096)
    try:
        while perf_counter() < deadline:
            v = int(vertices[counts["sent"] % vertices.shape[0]])
            frame = {"id": counts["sent"], "verb": "query", "vertices": [v], "k": K}
            if traced is not None:
                frame["trace"] = {"id": f"{traced}-{counts['sent']}"}
            created = perf_counter()
            writer.write(json.dumps(frame, separators=(",", ":")).encode() + b"\n")
            counts["sent"] += 1
            try:
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), REPLY_TIMEOUT_S)
            except (asyncio.TimeoutError, ConnectionError):
                counts["errors"] += 1
                break
            received = perf_counter()
            if not line:
                counts["errors"] += 1
                break
            reply = json.loads(line)
            if not reply.get("ok"):
                counts["rejected" if reply.get("code") in ("overloaded", "shutting-down")
                       else "errors"] += 1
                continue
            counts["answered"] += 1
            timing = reply["timing"]
            records.append((created, received, timing["queue_wait_s"],
                            timing["service_s"], timing["total_s"],
                            frame.get("trace", {}).get("id")))
            if counts["sent"] % SAMPLE_EVERY == 1:
                samples.append((v, reply["ids"], reply["scores"]))
    finally:
        writer.close()
    return counts


def drive(address: str, n: int, seed: int, phase: int, seconds: float,
          clients: int, traced: bool = False) -> dict:
    """Run ``clients`` closed-loop clients for ``seconds``; return what they saw."""
    records: list = []
    samples: list = []

    async def _all():
        deadline = perf_counter() + seconds
        return await asyncio.gather(*(
            _client(address, n, np.random.default_rng((seed, phase, i)), deadline,
                    f"p{phase}c{i}" if traced else None, records, samples)
            for i in range(clients)))

    start = perf_counter()
    per_client = asyncio.run(_all())
    elapsed = perf_counter() - start
    counts = {key: sum(c[key] for c in per_client) for key in per_client[0]}
    return {"elapsed": elapsed, "records": records, "samples": samples, **counts}


def _merge(phases: list[dict]) -> dict:
    """One phase made of consecutive ``drive`` windows."""
    out = {key: sum(p[key] for p in phases)
           for key in phases[0] if key not in ("records", "samples")}
    for key in ("records", "samples"):
        out[key] = [x for p in phases for x in p[key]]
    return out


# --------------------------------------------------------------------------- #
#: Score tolerance of the oracle check: 4 float32 ULPs at 1.0.  Stacking
#: concurrent queries into one matmul (micro-batching) changes how float32
#: dot products round, so a batched answer's scores may differ from the
#: single-query oracle in the last bits; anything beyond that is wrong.
SCORE_TOL = 4 * float(np.spacing(np.float32(1.0)))


def _oracle_check(matrix: np.ndarray, samples: list) -> tuple[int, int, int]:
    """(agreeing, bit_exact, checked) for the sampled answers.

    The oracle is the ``exact`` query backend answering the query alone.  An
    answer agrees when its scores are within ``SCORE_TOL`` of the oracle's
    and every id differing from the oracle's ties (within ``SCORE_TOL``) with
    an oracle candidate; it is bit-exact when ids and score bits are equal.
    """
    engine = QueryEngine(np.asarray(matrix), metric="cosine", backend="exact")
    agreeing = bit_exact = 0
    for v, ids, scores in samples:
        # A one-vertex query's reply holds one (k,) row of ids and scores.
        ids = np.asarray(ids, dtype=np.int64).ravel()
        scores = np.asarray(scores, dtype=np.float32).ravel()
        want = engine.nearest(v, K + 1)
        want_ids, want_scores = want.ids[0], want.scores[0]
        if np.array_equal(ids, want_ids[:K]) and np.array_equal(scores, want_scores[:K]):
            bit_exact += 1
            agreeing += 1
            continue
        close = ids.shape == (K,) and bool(
            np.all(np.abs(scores - want_scores[:K]) <= SCORE_TOL))
        for j in np.flatnonzero(ids != want_ids[:K]) if close else ():
            tied = want_ids[np.abs(want_scores - scores[j]) <= SCORE_TOL]
            close = close and ids[j] in tied
        agreeing += close
    return agreeing, bit_exact, len(samples)


def _numpy_floor_us(matrix: np.ndarray, seed: int) -> float:
    """Bare ``M @ q`` + ``argpartition`` for one query: no serving stack at all."""
    m = np.ascontiguousarray(matrix, dtype=np.float32)
    rng = np.random.default_rng(seed)
    times = []
    for v in rng.integers(m.shape[0], size=NUMPY_PROBES):
        t0 = perf_counter()
        np.argpartition(m @ m[v], -K - 1)[-K - 1:]
        times.append(perf_counter() - t0)
    return median(times) * 1e6


def _latencies(phase: dict) -> list[float]:
    return [(r[1] - r[0]) * 1e3 for r in phase["records"]]


def _layer_values(untraced: dict, traced: dict, report: dict, ready_rounds: list,
                  matrix: np.ndarray, seed: int, routed: bool):
    """Per-layer values and the median self time (ms) of each serving layer."""
    lat = _latencies(traced)
    qwait = [r[2] * 1e3 for r in traced["records"]]
    service = [r[3] * 1e3 for r in traced["records"]]
    outside = [(r[1] - r[0] - r[4]) * 1e3 for r in traced["records"]]
    api, engine = median(report["api_s"]) * 1e3, median(report["engine_s"]) * 1e3
    delta = report["delta"]
    values = {name: 0.0 for name in PER_LAYER}
    values.update({
        "serve.latency_p95_ms": float(np.percentile(_latencies(untraced), 95)),
        "serve.queue_wait_p50_ms": median(qwait),
        "serve.service_p50_ms": median(service),
        "serve.outside_p50_ms": median(outside),
        "serve.batch_mean": delta["answered"] / max(delta["microbatches"], 1),
        "api.query_batch_us": api * 1e3,
        "query.engine_us": engine * 1e3,
        "query.rows_scored_per_query": delta["rows_scored"] / max(delta["answered"], 1),
        "query.numpy_us": _numpy_floor_us(matrix, seed),
        "store.load_s": median([r["store_load_s"] for r in ready_rounds]),
        "loadgen.sent": untraced["sent"] + traced["sent"],
        "loadgen.answered": untraced["answered"] + traced["answered"],
        "loadgen.rejected": untraced["rejected"] + traced["rejected"],
        "loadgen.queries_per_s": untraced["answered"] / untraced["elapsed"],
        "trace.overhead_pct": 100.0 * (median(lat) / median(_latencies(untraced)) - 1.0),
    })
    self_ms = {"outside": median(outside), "server.queue_wait": median(qwait)}
    if routed:
        # Per request: client latency minus the slower shard's server-stamped
        # total (shard spans keyed by the client's trace id).
        hops, shard_totals = [], []
        for r in traced["records"]:
            totals = [s for a, s in report["hops"].get(r[5], {}).items()
                      if a != report["top"]]
            if totals:
                hops.append((r[1] - r[0] - max(totals)) * 1e3)
                shard_totals.append(max(totals) * 1e3)
        values["router.hop_ms"] = median(hops)
        values["router.shard_queries_per_query"] = (
            delta["shard_queries"] / max(delta["routed_ok"], 1))
        values["router.shard_errors"] = delta["shard_errors"]
        self_ms["router"] = median(hops) - self_ms["outside"] - self_ms["server.queue_wait"]
        self_ms["shard.server"] = median(shard_totals) - api
    else:
        self_ms["server.service"] = median(service) - api
    self_ms.update({"api": api - engine, "query.engine": engine})
    # What the sum of the median self times leaves of the median latency.
    self_ms["residual"] = median(lat) - sum(self_ms.values())
    values["serve.residual_ms"] = self_ms["residual"]
    return values, self_ms


def run(workload: str, seed: int, seconds: float, traced: bool, *,
        n: "int | None" = None, setup_rounds: int = SETUP_ROUNDS):
    """Returns ``(provenance extras, correct, attempted, failed, values)``."""
    default_n, shards, clients = SHAPES[workload]
    n = n or default_n
    base = OUT / f"{workload}-seed{seed}-{os.getpid()}"
    base.mkdir(parents=True, exist_ok=True)
    child = None
    try:
        ready_rounds, setup_times = [], []
        for i in range(setup_rounds):
            if child is not None:
                child.close()
            child = Child(n, shards, seed, base / f"store{i}")
            ready_rounds.append(child.ready)
            setup_times.append(child.setup_s)
        ready = child.ready
        reset_peak_rss(ready["pid"])
        drive(ready["address"], n, seed, 0, WARMUP_S, clients)
        if not traced:
            windows, cpu_per_op, window_p50 = [], [], []
            count = max(1, round(seconds / WINDOW_S))
            for w in range(count):
                cpu0 = cpu_seconds(ready["pid"])
                windows.append(drive(ready["address"], n, seed, 1 + w, seconds / count,
                                     clients))
                cpu_per_op.append((cpu_seconds(ready["pid"]) - cpu0)
                                  / max(windows[-1]["answered"], 1) * 1e3)
                if windows[-1]["records"]:
                    window_p50.append(median(_latencies(windows[-1])))
            untraced = _merge(windows)
            phases = [untraced]
        else:
            untraced = drive(ready["address"], n, seed, 1, seconds / 2, clients)
            log = SpanLog()
            epoch = perf_counter()
            child.command(f"trace_on {epoch!r}")
            traced_phase = drive(ready["address"], n, seed, 2, seconds / 2, clients,
                                 traced=True)
            report = child.command("report")
            phases = [untraced, traced_phase]
            for r in traced_phase["records"]:
                log.add("client.query", r[0], r[1], trace=r[5])
            trace_file = write_trace(f"{workload}-seed{seed}",
                                     log.chrome_events(os.getpid(), epoch) + report["events"])
        rss = peak_rss_mb(ready["pid"])
        matrix = EmbeddingStore(ready["store"]).load(
            ready["fingerprint"], ready["tool"]).embedding
    finally:
        if child is not None:
            child.close()
        shutil.rmtree(base, ignore_errors=True)

    samples = [s for p in phases for s in p["samples"]]
    agreeing, bit_exact, checked = _oracle_check(matrix, samples)
    attempted = sum(p["sent"] for p in phases)
    answered = sum(p["answered"] for p in phases)
    failed = attempted - answered
    correct = failed == 0 and checked > 0 and agreeing == checked
    lat = _latencies(untraced)
    extras = {
        "graph_vertices": ready["vertices"], "graph_edges": ready["edges"],
        "matrix_shape": ready["shape"], "shards": shards, "clients": clients,
        "k": K, "latency_samples": len(lat),
        "latency_quantiles_ms": dict(zip(("p10", "p25", "p50", "p75", "p95"),
                                         np.percentile(lat, [10, 25, 50, 75, 95]).tolist())),
        "oracle_checked": checked,
        "oracle_agreeing": agreeing, "oracle_bit_exact": bit_exact,
        "setup_samples": len(setup_times),
        "setup_breakdown_s": {key: median([r[key] for r in ready_rounds])
                              for key in ("generate_s", "embed_and_write_s",
                                          "store_load_s", "start_s")},
    }
    if not traced:
        extras.update(window_latency_p50_ms=window_p50, window_cpu_ms_per_op=cpu_per_op)
        values = {
            "latency_p50_ms": median(window_p50),
            "cpu_ms_per_op": median(cpu_per_op),
            "quality": agreeing / max(checked, 1),
            "success_rate": answered / max(attempted, 1),
            "peak_rss_mb": rss,
            "setup_s": median(setup_times),
        }
    else:
        values, self_ms = _layer_values(untraced, phases[1], report, ready_rounds,
                                        matrix, seed, shards > 0)
        values["query.bit_exact_share"] = bit_exact / max(checked, 1)
        extras.update(traced_latency_samples=len(phases[1]["records"]),
                      api_calls=len(report["api_s"]), engine_calls=len(report["engine_s"]),
                      numpy_probes=NUMPY_PROBES, trace_file=str(trace_file),
                      self_time_ms=self_ms)
    return extras, correct, attempted, failed, values
