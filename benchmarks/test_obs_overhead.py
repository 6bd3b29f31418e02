"""Perf smoke test: the observability layer's disabled-path cost.

The tentpole overhead contract (see ``repro/obs/trace.py``): with tracing
*disabled* — the default in every serving and training path — an
instrumented site costs one module-attribute read plus (for ``span``)
returning a shared no-op singleton.  This bench pins that two ways:

* a microbenchmark of the per-site cost in nanoseconds, and
* an end-to-end partitioned training run (the pipeline-perf workload at
  reduced scale, whose hot loop crosses kernel/pool/rotation trace sites
  every iteration).  **The priced disabled path must stay within 2%** of
  the baseline run: every event the enabled run records is one site the
  disabled run crosses, so ``events × site ns`` is what the disabled
  sites cost.  A ``span`` site is the dearer form (hot sites guard with a
  bare ``if trace.enabled:``), so the price is an upper bound.

The wall-clock A/B (baseline vs disabled vs enabled best-of-N) is recorded
in the same artifact but not gated: baseline and disabled runs execute the
*same* code path, so their ratio measures only noise, which on a shared
2-vCPU box exceeds 2% on its own.  Marked ``perf`` so tier-1 skips it;
CI's perf-smoke job runs it and uploads ``bench_results/obs_overhead.json``.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np
import pytest

from repro.embedding import GoshConfig, init_embedding
from repro.gpu import DeviceSpec, SimulatedDevice
from repro.graph import powerlaw_cluster
from repro.large import LargeGraphTrainer
from repro.obs import trace

from conftest import BENCH_JSON_DIR, record_perf_json

pytestmark = pytest.mark.perf

#: Priced disabled-path ceiling, as a fraction of baseline wall-clock.
DISABLED_OVERHEAD_CEILING = 0.02
REPS = 3
NUM_PARTS = 4
B = 20
DIM = 8
NS = 1
ROTATIONS = 3


@pytest.fixture(scope="module")
def graph_12k():
    return powerlaw_cluster(3_000, m=4, seed=0)


def _run(graph) -> tuple[float, np.ndarray]:
    emb = init_embedding(graph.num_vertices, DIM, 0)
    matrix_bytes = graph.num_vertices * DIM * 4
    device = SimulatedDevice(spec=DeviceSpec(
        name="bench", memory_bytes=max(int(matrix_bytes * 0.9),
                                       3 * (matrix_bytes // NUM_PARTS) + 4096)))
    cfg = GoshConfig(positive_batch_per_vertex=B, negative_samples=NS,
                     sampler_backend="degree_biased", execution_mode="sequential")
    t0 = perf_counter()
    LargeGraphTrainer(device, cfg, min_parts=NUM_PARTS).train(
        graph, emb, epochs=B * NUM_PARTS * ROTATIONS)
    return perf_counter() - t0, emb


def _best_of(reps: int, graph) -> tuple[float, np.ndarray]:
    best, kept = float("inf"), None
    for _ in range(reps):
        seconds, emb = _run(graph)
        if seconds < best:
            best, kept = seconds, emb
    return best, kept


def _span_site_ns(iterations: int = 200_000) -> float:
    """Nanoseconds per *disabled* ``trace.span`` call site."""
    assert not trace.is_enabled()
    t0 = perf_counter()
    for _ in range(iterations):
        trace.span("site")
    return (perf_counter() - t0) / iterations * 1e9


class TestObsOverhead:
    def test_disabled_tracing_costs_under_2_percent(self, graph_12k):
        g = graph_12k
        trace.disable()
        trace.drain()
        site_ns = _span_site_ns()

        # Baseline and "disabled" runs execute the identical code path, so
        # their ratio is a noise measurement: recorded, not gated.
        baseline_s, base_emb = _best_of(REPS, g)
        disabled_s, dis_emb = _best_of(REPS, g)

        trace.enable()
        enabled_s, en_emb = _best_of(1, g)
        events = trace.event_count()
        sample_trace = BENCH_JSON_DIR / "obs_overhead_sample.trace.json"
        BENCH_JSON_DIR.mkdir(parents=True, exist_ok=True)
        trace.export(sample_trace)
        trace.disable()

        overhead = disabled_s / baseline_s - 1.0
        enabled_overhead = enabled_s / baseline_s - 1.0
        priced = events * site_ns * 1e-9 / baseline_s
        print(f"\n[perf] obs overhead on |V|={g.num_vertices}, "
              f"|E|={g.num_undirected_edges} (K={NUM_PARTS}, B={B}, dim={DIM}, "
              f"{ROTATIONS} rotations): disabled span site={site_ns:.0f}ns "
              f"priced disabled path={priced * 100:.4f}% "
              f"baseline={baseline_s * 1e3:.0f}ms "
              f"disabled={disabled_s * 1e3:.0f}ms ({overhead * 100:+.2f}%) "
              f"enabled={enabled_s * 1e3:.0f}ms ({enabled_overhead * 100:+.2f}%, "
              f"{events} events)")

        # Tracing must never change training arithmetic.
        assert np.array_equal(base_emb, dis_emb)
        assert np.array_equal(base_emb, en_emb)
        # The enabled run actually recorded the training profile.
        assert events > 0
        payload = json.loads(sample_trace.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"kernel", "pool-produce", "rotation"} <= names

        record_perf_json("obs_overhead", {
            "vertices": g.num_vertices, "edges": g.num_undirected_edges,
            "parts": NUM_PARTS, "rotations": ROTATIONS,
            "span_site_ns": round(site_ns, 1),
            "baseline_ms": round(baseline_s * 1e3, 1),
            "disabled_ms": round(disabled_s * 1e3, 1),
            "enabled_ms": round(enabled_s * 1e3, 1),
            "disabled_overhead_fraction": round(overhead, 4),
            "enabled_overhead_fraction": round(enabled_overhead, 4),
            "enabled_events": events,
            "priced_disabled_fraction": round(priced, 6),
            "ceiling": DISABLED_OVERHEAD_CEILING,
        })

        assert priced <= DISABLED_OVERHEAD_CEILING, (
            f"disabled-path tracing costs {priced * 100:.2f}% of the run "
            f"({events} sites x {site_ns:.0f}ns; allowed: "
            f"{DISABLED_OVERHEAD_CEILING * 100:.0f}%)")
