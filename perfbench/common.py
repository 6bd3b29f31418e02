"""Shared pieces of the benchmark: metric table, spans, memory, provenance.

Everything here measures the program from outside: spans come from
wrappers the benchmark installs around public calls for the traced run
only, memory comes from ``/proc``, and nothing under ``src/`` is changed.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import threading
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for stores and trace files, inside the checkout and
#: listed in the root .gitignore.
OUT = ROOT / ".perfbench"

#: End-to-end metrics (printed with --trace 0): name -> unit.  Every
#: workload reports every one of them; what the "operation" is depends on
#: the path (one embed for train_*, one query for serve_*), see README.md.
END_TO_END = {
    "latency_p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "quality": "ratio",
    "success_rate": "ratio",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

#: Per-layer metrics (printed with --trace 1): name -> unit.  Layer names
#: are the ``repro`` module names; a layer a workload does not exercise
#: reports 0.
PER_LAYER = {
    "coarsening.busy_s": "s",
    "coarsening.levels": "count",
    "coarsening.shrink_l1": "ratio",
    "coarsening.expand_s": "s",
    "embedding.inmem_s": "s",
    "embedding.updates": "count",
    "embedding.updates_per_s": "1/s",
    "large.train_s": "s",
    "large.rotations": "count",
    "large.kernels": "count",
    "large.positive_samples": "count",
    "large.submatrix_switches": "count",
    "large.oom_retries": "count",
    "large.pool_produce_s": "s",
    "large.pool_stall_s": "s",
    "gpu.kernel_s": "s",
    "gpu.kernel_calls": "count",
    "gpu.h2d_bytes": "bytes",
    "gpu.d2h_bytes": "bytes",
    "train.residual_s": "s",
    "serve.latency_p95_ms": "ms",
    "serve.queue_wait_p50_ms": "ms",
    "serve.service_p50_ms": "ms",
    "serve.outside_p50_ms": "ms",
    "serve.batch_mean": "count",
    "serve.residual_ms": "ms",
    "api.query_batch_us": "us",
    "query.engine_us": "us",
    "query.rows_scored_per_query": "count",
    "query.numpy_us": "us",
    "query.bit_exact_share": "ratio",
    "router.hop_ms": "ms",
    "router.shard_queries_per_query": "count",
    "router.shard_errors": "count",
    "store.load_s": "s",
    "loadgen.sent": "count",
    "loadgen.answered": "count",
    "loadgen.rejected": "count",
    "loadgen.queries_per_s": "1/s",
    "trace.overhead_pct": "%",
}

#: Per-layer metrics that are pure functions of the inputs: two runs with
#: one seed must report them identically (checked by the self-tests).
DETERMINISTIC = (
    "coarsening.levels", "coarsening.shrink_l1", "embedding.updates",
    "large.rotations", "large.kernels", "large.positive_samples",
    "large.submatrix_switches", "large.oom_retries", "gpu.kernel_calls",
    "gpu.h2d_bytes", "gpu.d2h_bytes", "query.rows_scored_per_query",
    "router.shard_queries_per_query", "router.shard_errors",
)

#: Full set-ups per run; setup_s is their median.
SETUP_ROUNDS = 3
#: Hub degree held at 200 as the graph grows (the registry twins' default
#: reach fraction makes hub degree grow linearly with |V|).
HUB_DEGREE = 200


def make_graph(n: int, seed: int):
    """The input graph of every workload, generated from the run's seed."""
    from repro.graph.generators import social_community

    return social_community(n, hub_reach=HUB_DEGREE / n, seed=seed)


# --------------------------------------------------------------------------- #
# Memory: VmHWM of a process, reset after set-up through clear_refs.
# --------------------------------------------------------------------------- #
def reset_peak_rss(pid: "int | str" = "self") -> None:
    """Reset a process's peak RSS to its current RSS (Linux ``clear_refs`` 5)."""
    with open(f"/proc/{pid}/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb(pid: "int | str" = "self") -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of another process, all its threads, in seconds."""
    with open(f"/proc/{pid}/stat") as fh:
        # Fields after the parenthesised command name; utime and stime are
        # the 14th and 15th fields of the whole line.
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #
class SpanLog:
    """In-memory spans with per-thread parent links, written out at the end.

    A span is ``[name, tid, start_s, end_s, parent_index, args]``; a layer's
    self time is its duration minus the part covered by its children.
    """

    def __init__(self):
        self.spans: list[list[Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **args: Any):
        stack = self._local.__dict__.setdefault("stack", [])
        record = [name, threading.get_ident(), perf_counter(), 0.0,
                  stack[-1] if stack else -1, args]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            stack.pop()
            record[3] = perf_counter()

    def add(self, name: str, start: float, end: float, **args: Any) -> None:
        """Record an interval measured elsewhere (no parent)."""
        with self._lock:
            self.spans.append([name, threading.get_ident(), start, end, -1, args])

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Total self time per span name of the spans from index ``first`` on."""
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[4] >= first:
                child_time[s[4] - first] += s[3] - s[2]
        totals: dict[str, float] = {}
        for s, covered in zip(spans, child_time):
            totals[s[0]] = totals.get(s[0], 0.0) + (s[3] - s[2]) - covered
        return totals

    def chrome_events(self, pid: int, epoch: float) -> list[dict[str, Any]]:
        tids: dict[int, int] = {}
        events = []
        for name, ident, start, end, _, args in self.spans:
            tid = tids.setdefault(ident, len(tids) + 1)
            events.append({"name": name, "ph": "X", "pid": pid, "tid": tid,
                           "ts": (start - epoch) * 1e6, "dur": (end - start) * 1e6,
                           "args": {k: v for k, v in args.items()
                                    if isinstance(v, (int, float, str))}})
        return events


@contextmanager
def wrapped(log: SpanLog, targets: "list[tuple[type, str, str, Callable | None]]"):
    """Wrap public methods in spans for the duration of the block.

    ``targets`` holds ``(owner, attribute, span name, after)``; ``after``
    (optional) is called as ``after(record, self, result)`` to copy counters
    the call returned into the span's args.
    """
    originals = []
    for owner, attr, name, after in targets:
        original = owner.__dict__[attr]
        originals.append((owner, attr, original))
        setattr(owner, attr, _span_wrapper(log, original, name, after))
    try:
        yield log
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def _span_wrapper(log: SpanLog, original: Callable, name: str,
                  after: "Callable | None") -> Callable:
    def wrapper(self, *args, **kwargs):
        with log.span(name) as record:
            result = original(self, *args, **kwargs)
        if after is not None:
            after(record, self, result)
        return result
    return wrapper


def write_trace(name: str, events: list[dict[str, Any]]) -> Path:
    """Write Chrome trace-event JSON (opens in Perfetto) under ``OUT``."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{name}.trace.json"
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    return path


# --------------------------------------------------------------------------- #
# Provenance and the result line
# --------------------------------------------------------------------------- #
def _git_commit() -> str:
    """HEAD's commit read from the .git directory; no git process needed."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(workload: str, seed: int, **extra: Any) -> dict[str, Any]:
    import numpy as np

    return {
        "workload": workload, "seed": seed, "commit": _git_commit(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__,
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **extra,
    }


def emit(info: dict[str, Any], correct: bool, attempted: int, failed: int,
         values: dict[str, float], units: dict[str, str]) -> None:
    """Print provenance, then the result object as the last stdout line."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    result = {
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps({"provenance": info}, default=str))
    print(json.dumps(result))
    sys.stdout.flush()
