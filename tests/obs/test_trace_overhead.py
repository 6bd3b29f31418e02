"""Tracing changes nothing it observes, and costs nothing measurable when off.

A small partitioned training run (4 parts, B = 20 positives per vertex per
pool, 3 rotations, pools built on the producer thread):

* the embedding is bit-identical with tracing off and on;
* with tracing off, every site the run crosses is guarded: a proxy put in
  place of every ``repro.*`` module's ``trace`` binding counts the
  ``trace.enabled`` reads (guards) and the ``span``/``add_*`` lookups; the
  guards equal the enabled run's events (per-thread ``M`` metadata aside),
  and no ``span``/``add_*`` is reached;
* that count times the measured cost of a disabled ``span`` site (the
  dearer form of a site, so an upper bound) stays within 2% of the
  baseline run's wall-clock.

The enabled cost is measured by perfbench as ``trace.overhead_pct``.
"""

from __future__ import annotations

import json
import sys
import threading
from time import perf_counter

import numpy as np
import pytest

from repro.embedding import GoshConfig, init_embedding
from repro.gpu import DeviceSpec, SimulatedDevice
from repro.graph import powerlaw_cluster
from repro.large import LargeGraphTrainer
from repro.obs import trace

#: Priced disabled-path ceiling, as a fraction of baseline wall-clock.
DISABLED_OVERHEAD_CEILING = 0.02
NUM_PARTS, B, DIM, NS, ROTATIONS = 4, 20, 8, 1, 3


@pytest.fixture(autouse=True)
def clean_tracer():
    trace.disable()
    trace.drain()
    yield
    trace.disable()
    trace.drain()


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster(400, m=4, seed=0)


def _train(graph) -> tuple[float, np.ndarray]:
    emb = init_embedding(graph.num_vertices, DIM, 0)
    matrix_bytes = graph.num_vertices * DIM * 4
    device = SimulatedDevice(spec=DeviceSpec(
        name="tiny", memory_bytes=max(int(matrix_bytes * 0.9),
                                      3 * (matrix_bytes // NUM_PARTS) + 4096)))
    cfg = GoshConfig(positive_batch_per_vertex=B, negative_samples=NS)
    t0 = perf_counter()
    LargeGraphTrainer(device, cfg, min_parts=NUM_PARTS).train(
        graph, emb, epochs=B * NUM_PARTS * ROTATIONS)
    return perf_counter() - t0, emb


class GuardCounter:
    """Stands in for the ``trace`` module and counts how sites use it."""

    def __init__(self):
        self._lock = threading.Lock()     # the pool producer reads guards too
        self.guards = 0
        self.unguarded = 0

    @property
    def enabled(self) -> bool:
        with self._lock:
            self.guards += 1
        return trace.enabled

    def __getattr__(self, name: str):
        if name == "span" or name.startswith("add_"):
            with self._lock:
                self.unguarded += 1
        return getattr(trace, name)


def _span_site_ns(iterations: int = 100_000) -> float:
    """Nanoseconds per *disabled* ``trace.span`` call site."""
    t0 = perf_counter()
    for _ in range(iterations):
        trace.span("site")
    return (perf_counter() - t0) / iterations * 1e9


def test_tracing_is_inert_and_every_off_site_guarded(graph, tmp_path, monkeypatch):
    baseline_s, base_emb = _train(graph)

    counter = GuardCounter()
    with monkeypatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "trace", None) is trace:
                patch.setattr(module, "trace", counter)
        _, counted_emb = _train(graph)

    trace.enable()
    _, traced_emb = _train(graph)
    trace.disable()
    out = tmp_path / "run.trace.json"
    events = trace.export(out)                    # metadata rows not counted
    names = {e["name"] for e in json.loads(out.read_text())["traceEvents"]}

    assert np.array_equal(base_emb, counted_emb)
    assert np.array_equal(base_emb, traced_emb)
    assert {"kernel", "pool-produce", "rotation"} <= names
    assert counter.guards == events
    assert counter.unguarded == 0
    priced = counter.guards * _span_site_ns() * 1e-9 / baseline_s
    assert priced <= DISABLED_OVERHEAD_CEILING, (
        f"{counter.guards} disabled sites cost {priced * 100:.3f}% of the run")
