"""Shared settings for the paper-table benchmarks.

Every benchmark regenerates one table or figure of the paper at laptop scale.
They print paper-formatted rows (captured in ``bench_output.txt``) and use
pytest-benchmark for the timing-sensitive kernels.  Speed is measured by
``perfbench/`` (see its README), not here.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — multiplies every epoch budget (default 0.15).  The
  relative comparisons (who is faster, by what factor) are scale-invariant;
  raise it for higher-fidelity AUC numbers.
* ``REPRO_BENCH_DIM``   — embedding dimension used by the quality benches
  (default 32; the paper uses 128).
"""

from __future__ import annotations

import os

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.15"))
BENCH_DIM = int(os.environ.get("REPRO_BENCH_DIM", "32"))
