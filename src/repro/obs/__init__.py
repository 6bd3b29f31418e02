"""First-class observability: metrics, tracing, exposition.

``repro.obs`` is the layer every subsystem reports through:

* :mod:`repro.obs.metrics` — the serving tier's live instruments
  (:class:`~repro.obs.metrics.LatencyHistogram`,
  :class:`~repro.obs.metrics.StateClock`) and the stdlib-only Prometheus
  text renderer over read-only :class:`~repro.obs.metrics.Sample` rows.
* :mod:`repro.obs.trace` — low-overhead spans with cross-process trace-id
  propagation over the serve wire protocol, exported as Chrome trace-event
  JSON for Perfetto (``embed --trace``, ``serve/route --trace-dir``).
* :mod:`repro.obs.export` — snapshot adapters turning the existing
  ``stats()`` dicts into ``repro_``-prefixed series, behind ``GET /metrics``,
  the ``metrics`` NDJSON verb, and ``repro-gosh stats --metrics``.

See the README's "Observability" section for the metric taxonomy and the
tracing workflow.
"""

from . import trace
from .export import (
    METRICS_CONTENT_TYPE,
    render_stats_metrics,
    samples_from_stats,
)
from .metrics import (
    Sample,
    counter_sample,
    gauge_sample,
    histogram_sample,
    render_samples,
)

__all__ = [
    "trace",
    "Sample", "counter_sample", "gauge_sample", "histogram_sample",
    "render_samples",
    "METRICS_CONTENT_TYPE", "samples_from_stats", "render_stats_metrics",
]
