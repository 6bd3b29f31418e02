"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at laptop scale.
They print paper-formatted rows (captured in ``bench_output.txt``) and use pytest-benchmark for the timing-sensitive kernels.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — multiplies every epoch budget (default 0.15).  The
  relative comparisons (who is faster, by what factor) are scale-invariant;
  raise it for higher-fidelity AUC numbers.
* ``REPRO_BENCH_DIM``   — embedding dimension used by the quality benches
  (default 32; the paper uses 128).
* ``REPRO_BENCH_JSON_DIR`` — where :func:`record_perf_json` drops one JSON
  file per perf measurement (default ``bench_results/``; CI uploads the
  directory as a workflow artifact so floor regressions stay diagnosable).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.gpu import DeviceSpec, SimulatedDevice

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.15"))
BENCH_DIM = int(os.environ.get("REPRO_BENCH_DIM", "32"))
BENCH_JSON_DIR = Path(os.environ.get("REPRO_BENCH_JSON_DIR", "bench_results"))


def record_perf_json(name: str, payload: dict) -> Path:
    """Persist one perf measurement as ``<REPRO_BENCH_JSON_DIR>/<name>.json``.

    The perf smoke tests print their numbers to the job log *and* record them
    here so the CI artifact carries machine-readable history (speedups,
    floors, sizes) even when a non-blocking floor assertion fails right
    after the recording.
    """
    BENCH_JSON_DIR.mkdir(parents=True, exist_ok=True)
    path = BENCH_JSON_DIR / f"{name}.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path


@pytest.fixture
def device() -> SimulatedDevice:
    """A fresh Titan-X-like simulated device per benchmark."""
    return SimulatedDevice()


def tiny_device(bytes_: int) -> SimulatedDevice:
    """A deliberately small device used to force the partitioned engine."""
    return SimulatedDevice(spec=DeviceSpec(name=f"{bytes_ // 1024}kB", memory_bytes=bytes_))
