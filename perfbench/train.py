"""Train workloads: embed one generated graph with GOSH, again and again.

``train_inmem`` trains every level on the default (12 GB) simulated
device; ``train_partitioned`` runs the same graph, split, configuration
and seed on a device that holds about a third of the level-0 matrix, so
the finest levels go through the partitioned engine (``repro.large``).
One operation is one ``GoshEmbedder.embed`` of the training graph,
coarsening included.
"""

from __future__ import annotations

import gc
import hashlib
import os
from statistics import median
from time import perf_counter, process_time

import numpy as np

from common import (PER_LAYER, SETUP_ROUNDS, SpanLog, make_graph, peak_rss_mb,
                    reset_peak_rss, wrapped, write_trace)

from repro.coarsening.hierarchy import CoarseningHierarchy
from repro.embedding.config import FAST
from repro.embedding.gosh import GoshEmbedder
from repro.embedding.trainer import LevelTrainer
from repro.eval.link_prediction import evaluate_embedding
from repro.eval.split import LinkPredictionSplit, train_test_split
from repro.gpu.backends import get_backend
from repro.gpu.device import DeviceSpec, SimulatedDevice
from repro.large.scheduler import LargeGraphTrainer

VERTICES = 100_000
#: Edges sampled for the link-prediction AUCROC (train and test side).
AUC_TRAIN_EDGES, AUC_TEST_EDGES = 20_000, 10_000
#: A trained embedding scores well above this; a broken trainer (random
#: or collapsed vectors) lands near 0.5.
AUC_FLOOR = 0.6

LARGE_STATS = ("rotations", "kernels", "positive_samples",
               "submatrix_switches", "oom_retries")


def make_inputs(n: int, seed: int):
    graph = make_graph(n, seed)
    return graph, train_test_split(graph, seed=seed)


def make_device(workload: str, n: int, dim: int) -> SimulatedDevice:
    if workload == "train_inmem":
        return SimulatedDevice()
    # A third of the level-0 matrix: levels 0 and 1 no longer fit.
    return SimulatedDevice(spec=DeviceSpec(name="third-of-level-0",
                                           memory_bytes=n * dim * 4 // 3))


def sample_auc(embedding: np.ndarray, split: LinkPredictionSplit, seed: int) -> float:
    """Paper protocol (Hadamard + logistic) on a fixed seeded edge sample."""
    rng = np.random.default_rng(seed)
    train = split.train_edges[rng.choice(split.num_train_edges,
                                         min(AUC_TRAIN_EDGES, split.num_train_edges),
                                         replace=False)]
    test = split.test_edges[rng.choice(split.num_test_edges,
                                       min(AUC_TEST_EDGES, split.num_test_edges),
                                       replace=False)]
    sample = LinkPredictionSplit(train_graph=split.train_graph, train_edges=train,
                                 test_edges=test, train_fraction=split.train_fraction)
    return evaluate_embedding(embedding, sample, seed=seed).auc


def _record_stats(record, _self, stats) -> None:
    record[5]["stats"] = stats


def _layer_targets():
    backend = type(get_backend("vectorized"))
    return [
        (GoshEmbedder, "embed", "embed", None),
        (GoshEmbedder, "coarsen", "coarsening", None),
        (CoarseningHierarchy, "expand", "coarsening.expand", None),
        (LevelTrainer, "train", "embedding", _record_stats),
        (LargeGraphTrainer, "train", "large", _record_stats),
        (backend, "train_epoch", "gpu", None),
        (backend, "train_pair", "gpu", None),
    ]


class _Embedder:
    """One embed of the training graph on a fresh simulated device."""

    def __init__(self, workload: str, split, n: int, seed: int):
        self.config = FAST.scaled(0.1, dim=32).with_(seed=seed)
        self.workload, self.graph, self.n = workload, split.train_graph, n
        self.cpu: list[float] = []   # process CPU seconds of every embed

    def __call__(self):
        device = make_device(self.workload, self.n, self.config.dim)
        cpu0, t0 = process_time(), perf_counter()
        result = GoshEmbedder(self.config, device).embed(self.graph)
        seconds = perf_counter() - t0
        self.cpu.append(process_time() - cpu0)
        digest = hashlib.sha256(np.ascontiguousarray(result.embedding)).hexdigest()
        return seconds, digest, result, device


def _layers_of_one_embed(log: SpanLog, first: int, result, device):
    """Per-layer numbers and self times of the embed whose spans start at ``first``."""
    spans = log.spans[first:]
    self_time = log.self_times(first)
    total = lambda name: sum(s[3] - s[2] for s in spans if s[0] == name)  # noqa: E731
    sizes = result.hierarchy.level_sizes()
    inmem = [s[5]["stats"] for s in spans if s[0] == "embedding"]
    large = [s[5]["stats"] for s in spans if s[0] == "large"]
    updates = sum(st.updates for st in inmem)
    values = {
        "coarsening.busy_s": total("coarsening"),
        "coarsening.levels": len(sizes),
        "coarsening.shrink_l1": sizes[1] / sizes[0] if len(sizes) > 1 else 1.0,
        "coarsening.expand_s": total("coarsening.expand"),
        "embedding.inmem_s": total("embedding"),
        "embedding.updates": updates,
        "embedding.updates_per_s": updates / max(total("embedding"), 1e-12),
        "large.train_s": total("large"),
        "large.pool_produce_s": sum(st.pool_produce_seconds for st in large),
        "large.pool_stall_s": sum(st.pool_stall_seconds for st in large),
        "gpu.kernel_s": total("gpu"),
        "gpu.kernel_calls": sum(1 for s in spans if s[0] == "gpu"),
        "gpu.h2d_bytes": device.bytes_transferred_h2d,
        "gpu.d2h_bytes": device.bytes_transferred_d2h,
        # Root self time: the part of the embed no wrapped layer covers.
        "train.residual_s": self_time.get("embed", 0.0),
    }
    for key in LARGE_STATS:
        values[f"large.{key}"] = sum(getattr(st, key) for st in large)
    return values, self_time


def _measure(embed, seconds: float, min_iters: int, log: "SpanLog | None" = None):
    """Embed until ``seconds`` have passed (at least ``min_iters`` times)."""
    times, digests, layers, self_times = [], [], [], []
    start = perf_counter()
    while len(times) < min_iters or perf_counter() - start < seconds:
        if log is None:
            dt, digest, result, device = embed()
        else:
            first = len(log.spans)
            with wrapped(log, _layer_targets()):
                dt, digest, result, device = embed()
            row, self_time = _layers_of_one_embed(log, first, result, device)
            layers.append(row)
            self_times.append(self_time)
        times.append(dt)
        digests.append(digest)
        del device
    return times, digests, result, layers, self_times


def run(workload: str, seed: int, seconds: float, traced: bool, *,
        n: int = VERTICES, setup_rounds: int = SETUP_ROUNDS, min_iters: int = 3):
    """Returns ``(provenance extras, correct, attempted, failed, values)``."""
    setup_times = []
    for _ in range(setup_rounds):
        graph = split = None
        gc.collect()
        t0 = perf_counter()
        graph, split = make_inputs(n, seed)
        setup_times.append(perf_counter() - t0)
    embed = _Embedder(workload, split, n, seed)
    gc.collect()
    reset_peak_rss()

    if not traced:
        times, digests, result, _, _ = _measure(embed, seconds, min_iters)
        traced_times = []
    else:
        # Untraced and traced halves; their medians give the overhead.
        times, digests, result, _, _ = _measure(embed, seconds / 2, 2)
        log = SpanLog()
        epoch = perf_counter()
        traced_times, traced_digests, _, layers, self_times = _measure(
            embed, seconds / 2, 2, log)
        digests += traced_digests
        trace_file = write_trace(f"{workload}-seed{seed}",
                                 log.chrome_events(os.getpid(), epoch))
    rss = peak_rss_mb()

    # Training is bit-exact by design: every embed of one run, traced or
    # not, must produce the same matrix.
    failed = sum(1 for d in digests if d != digests[0])
    auc = sample_auc(result.embedding, split, seed)
    correct = failed == 0 and auc >= AUC_FLOOR
    attempted = len(digests)

    extras = {
        "graph_vertices": graph.num_vertices,
        "graph_edges": graph.num_edges // 2,
        "train_edges": split.num_train_edges,
        "matrix_shape": list(result.embedding.shape),
        "level_sizes": result.hierarchy.level_sizes(),
        "config": "FAST.scaled(0.1, dim=32)",
        "device_bytes": make_device(workload, n, 32).spec.memory_bytes,
        "embed_samples": len(times), "traced_embed_samples": len(traced_times),
        "embed_times_s": times,
        "setup_samples": len(setup_times), "embedding_sha256": digests[0],
        "auc": auc, "auc_floor": AUC_FLOOR,
    }
    if not traced:
        values = {
            "latency_p50_ms": median(times) * 1e3,
            "cpu_ms_per_op": median(embed.cpu) * 1e3,
            "quality": auc,
            "success_rate": (attempted - failed) / attempted,
            "peak_rss_mb": rss,
            "setup_s": median(setup_times),
        }
    else:
        values = {name: 0.0 for name in PER_LAYER}
        for name in layers[0]:
            values[name] = median([row[name] for row in layers])
        values["trace.overhead_pct"] = (
            100.0 * (median(traced_times) - median(times)) / median(times))
        extras["trace_file"] = str(trace_file)
        # Self time per layer span ("embed" is the residual): the seconds
        # each layer spent outside the layers it calls, median per embed.
        extras["self_time_s"] = {name: median([row.get(name, 0.0) for row in self_times])
                                 for name in sorted(self_times[0])}
    return extras, correct, attempted, failed, values
