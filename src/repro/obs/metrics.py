"""Metrics core: the serving histograms and the Prometheus exposition.

The live numbers of this reproduction sit in the ``stats()`` dicts each
subsystem already keeps (server admission, router health, service, store
and engine caches, fault crossings).  This module holds the two pieces
those snapshots and their exposition share:

* **Live instruments for the serving tier** — :class:`LatencyHistogram`, a
  bounded log-bucketed latency summary that round-trips over the stats wire
  and merges across shards, and :class:`StateClock`, the seconds-per-state
  clock behind the router's replica-health dwell.
* **Prometheus text exposition** — read-only :class:`Sample` rows built by
  :func:`counter_sample` / :func:`gauge_sample` / :func:`histogram_sample`
  and rendered stdlib-only by :func:`render_samples` in the classic
  ``# HELP``/``# TYPE`` text format.  :mod:`repro.obs.export` adapts the
  ``stats()`` snapshots into samples; every series uses the ``repro_``
  prefix (see the README's "Observability" taxonomy table).
"""

from __future__ import annotations

import math
import re
from time import monotonic
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "LatencyHistogram", "StateClock", "Sample", "counter_sample",
    "gauge_sample", "histogram_sample", "render_samples",
]

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

LabelPairs = "tuple[tuple[str, str], ...]"

#: Dict round-trip format tag (bumped if the bucket layout ever changes).
_HIST_FORMAT = "latency-histogram/1"
#: Most buckets a wire payload may ask for (the default layout has ~82).
_MAX_WIRE_BUCKETS = 4096


def _check_metric_name(name: str) -> str:
    if not _METRIC_NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _normalize_labels(labels: "Mapping[str, Any] | Iterable[tuple[str, Any]]",
                      ) -> LabelPairs:
    pairs = labels.items() if isinstance(labels, Mapping) else labels
    return tuple((str(k), str(v)) for k, v in pairs)


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _format_labels(pairs: LabelPairs) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    f = float(value)
    if f != f:
        return "NaN"
    if f in (float("inf"), float("-inf")):
        return "+Inf" if f > 0 else "-Inf"
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


class Sample:
    """One read-only exposition row (or histogram row-group).

    The snapshot adapters in :mod:`repro.obs.export` produce these from the
    existing ``stats()`` dicts.  ``kind`` is
    ``"counter"``/``"gauge"`` with a scalar ``value``, or ``"histogram"``
    with ``buckets`` (finite upper edge → **cumulative** count), ``sum``
    and ``count``.
    """

    __slots__ = ("name", "kind", "help", "labels", "value", "buckets",
                 "sum_value", "count")

    def __init__(self, name: str, kind: str, help_text: str,
                 labels: LabelPairs = (), *, value: float = 0.0,
                 buckets: "Sequence[tuple[float, int]] | None" = None,
                 sum_value: float = 0.0, count: int = 0):
        self.name = _check_metric_name(name)
        self.kind = kind
        self.help = help_text
        self.labels = labels
        self.value = value
        self.buckets = list(buckets) if buckets is not None else None
        self.sum_value = sum_value
        self.count = count


def counter_sample(name: str, help_text: str, value: float,
                   labels: "Mapping[str, Any] | Iterable[tuple[str, Any]]" = (),
                   ) -> Sample:
    return Sample(name, "counter", help_text, _normalize_labels(labels),
                  value=float(value))


def gauge_sample(name: str, help_text: str, value: float,
                 labels: "Mapping[str, Any] | Iterable[tuple[str, Any]]" = (),
                 ) -> Sample:
    return Sample(name, "gauge", help_text, _normalize_labels(labels),
                  value=float(value))


def histogram_sample(name: str, help_text: str, *,
                     buckets: "Sequence[tuple[float, int]]",
                     sum_value: float, count: int,
                     labels: "Mapping[str, Any] | Iterable[tuple[str, Any]]" = (),
                     ) -> Sample:
    """``buckets`` maps finite upper edges to **cumulative** counts; the
    ``+Inf`` bucket is implied by ``count`` and added at render time."""
    return Sample(name, "histogram", help_text, _normalize_labels(labels),
                  buckets=buckets, sum_value=float(sum_value), count=int(count))


def render_samples(samples: Iterable[Sample]) -> str:
    """Prometheus text format: ``# HELP``/``# TYPE`` once per series name
    (first-seen order), then one line per (labels) child — histograms
    expand into ``_bucket``/``_sum``/``_count`` rows."""
    groups: dict[str, list[Sample]] = {}
    order: list[str] = []
    for s in samples:
        if s.name not in groups:
            groups[s.name] = []
            order.append(s.name)
        groups[s.name].append(s)
    lines: list[str] = []
    for name in order:
        rows = groups[name]
        kind = rows[0].kind
        help_text = rows[0].help.replace("\\", "\\\\").replace("\n", "\\n")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for s in rows:
            if s.kind == "histogram":
                assert s.buckets is not None
                for edge, cum in s.buckets:
                    pairs = s.labels + (("le", _format_value(edge)),)
                    lines.append(f"{name}_bucket{_format_labels(pairs)} {cum}")
                pairs = s.labels + (("le", "+Inf"),)
                lines.append(f"{name}_bucket{_format_labels(pairs)} {s.count}")
                lines.append(f"{name}_sum{_format_labels(s.labels)} "
                             f"{_format_value(s.sum_value)}")
                lines.append(f"{name}_count{_format_labels(s.labels)} {s.count}")
            else:
                lines.append(f"{name}{_format_labels(s.labels)} "
                             f"{_format_value(s.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


# --------------------------------------------------------------------------- #
# Live instruments of the serving tier
# --------------------------------------------------------------------------- #
class StateClock:
    """Track which state a component is in, for how long, and how often.

    The router's shard-health machinery needs more than a current-state
    enum: recovery time (how long was a shard dead before readmission?) and
    availability (what share of wall-clock was it healthy?) are the numbers
    a failure post-mortem actually asks for.  ``StateClock`` accumulates
    seconds-per-state across transitions with O(states) memory; the clock
    is injectable so state machines can be unit-tested deterministically.
    """

    def __init__(self, initial: str, *, clock: Callable[[], float] = monotonic):
        self._clock = clock
        self.state = initial
        self.since = clock()
        self.transitions = 0
        self.seconds: dict[str, float] = {initial: 0.0}

    def transition(self, state: str) -> float:
        """Enter ``state``; returns the seconds spent in the previous one."""
        now = self._clock()
        dwell = now - self.since
        self.seconds[self.state] = self.seconds.get(self.state, 0.0) + dwell
        self.state = state
        self.since = now
        self.transitions += 1
        return dwell

    def seconds_in(self, state: str) -> float:
        """Cumulative seconds spent in ``state``, current dwell included."""
        total = self.seconds.get(state, 0.0)
        if state == self.state:
            total += self._clock() - self.since
        return total

    def summary(self) -> dict[str, object]:
        return {
            "state": self.state,
            "transitions": self.transitions,
            "in_state_s": round(self._clock() - self.since, 6),
            "seconds": {name: round(self.seconds_in(name), 6)
                        for name in self.seconds},
        }


class LatencyHistogram:
    """Log-bucketed histogram of non-negative durations (seconds).

    A server meant to stay up cannot keep a raw sample per request the way
    a benchmark harness can; it needs a fixed-size summary that still
    answers p50/p95/p99, mean and max.  Bucket edges are geometric from
    ``min_s`` to ``max_s`` (default 1 µs → 60 s at 1.25× growth — ~82
    buckets, <1 kB), ``observe`` is O(1), and percentiles are read off the
    cumulative counts.

    Quantiles are resolved to a bucket's upper edge, i.e. conservatively
    rounded *up* by at most the growth factor (25%); the exact observed
    ``max`` clamps the top so a histogram never reports a percentile beyond
    what it actually saw.  The load generator, which holds every sample
    anyway, reports exact percentiles — the histogram is the server-side
    view.
    """

    def __init__(self, *, min_s: float = 1e-6, max_s: float = 60.0,
                 growth: float = 1.25):
        if not (0 < min_s < max_s):
            raise ValueError("need 0 < min_s < max_s")
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        num = int(math.ceil(math.log(max_s / min_s) / math.log(growth)))
        self.min_s, self.max_s, self.growth = min_s, max_s, growth
        # Upper edges of the finite buckets; one extra overflow bucket on top.
        self.edges = min_s * growth ** np.arange(1, num + 1)
        self.counts = np.zeros(num + 1, dtype=np.int64)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        s = max(float(seconds), 0.0)
        # First bucket whose upper edge covers s; past the last edge this
        # returns len(edges), the overflow bucket.
        self.counts[int(np.searchsorted(self.edges, s, side="left"))] += 1
        self.count += 1
        self.total += s
        self.min = min(self.min, s)
        self.max = max(self.max, s)

    def percentile(self, q: float) -> float:
        """The q-th percentile (0..100), resolved to a bucket upper edge."""
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if self.count == 0:
            return 0.0
        target = math.ceil(self.count * q / 100.0) or 1
        bucket = int(np.searchsorted(np.cumsum(self.counts), target, side="left"))
        upper = self.edges[bucket] if bucket < len(self.edges) else self.max
        # Never report beyond (or below) what was actually observed.
        return float(min(max(upper, self.min), self.max))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    # ------------------------------------------------------------------ #
    # Aggregation + wire round-trip (fleet-wide percentiles)
    # ------------------------------------------------------------------ #
    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other``'s observations into this histogram (in place).

        Bucket layouts must match — merging is element-wise addition of
        counts, which is exactly why the router can aggregate per-shard
        histograms into fleet-wide p50/p95/p99 without shipping samples.
        """
        if (len(other.edges) != len(self.edges)
                or not np.allclose(other.edges, self.edges)):
            raise ValueError(
                "cannot merge histograms with different bucket layouts "
                f"({other.min_s}/{other.max_s}/{other.growth} vs "
                f"{self.min_s}/{self.max_s}/{self.growth})")
        self.counts += other.counts
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def to_dict(self) -> dict[str, object]:
        """A JSON-safe snapshot that :meth:`from_dict` rebuilds exactly.

        Zero buckets are run-length-elided by storing ``(index, count)``
        pairs — the common sparse case (a few active buckets out of ~82)
        stays small on the stats wire.
        """
        return {
            "format": _HIST_FORMAT,
            "min_s": self.min_s,
            "max_s": self.max_s,
            "growth": self.growth,
            "counts": [[int(i), int(c)] for i, c in enumerate(self.counts) if c],
            "count": self.count,
            "total": self.total,
            "min": None if self.count == 0 else self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, payload: "dict[str, object]") -> "LatencyHistogram":
        """Rebuild a :meth:`to_dict` snapshot.

        Payloads may come from another process, so the layout and every
        bucket entry are checked: a layout of more than
        ``_MAX_WIRE_BUCKETS`` buckets, an index outside the layout or a
        negative count raises ``ValueError`` rather than allocating without
        bound or landing in the wrong bucket.
        """
        if payload.get("format") != _HIST_FORMAT:
            raise ValueError(f"unknown histogram payload {payload.get('format')!r}")
        min_s, max_s, growth = (float(payload[key])  # type: ignore[arg-type]
                                for key in ("min_s", "max_s", "growth"))
        if not (0 < min_s < max_s and growth > 1.0
                and math.log(max_s / min_s) / math.log(growth) <= _MAX_WIRE_BUCKETS):
            raise ValueError(f"bad histogram layout {min_s}/{max_s}/{growth}")
        hist = cls(min_s=min_s, max_s=max_s, growth=growth)
        for i, c in payload.get("counts", []):     # type: ignore[union-attr]
            i, c = int(i), int(c)
            if not 0 <= i < len(hist.counts) or c < 0:
                raise ValueError(f"bad histogram bucket entry {[i, c]!r}")
            hist.counts[i] = c
        hist.count = int(payload.get("count", 0))
        hist.total = float(payload.get("total", 0.0))
        raw_min = payload.get("min")
        hist.min = math.inf if raw_min is None else float(raw_min)
        hist.max = float(payload.get("max", 0.0))
        return hist

    def summary(self) -> dict[str, float | int]:
        """The serving-dashboard view, in milliseconds."""
        ms = 1e3
        return {
            "count": self.count,
            "mean_ms": round(self.mean * ms, 3),
            "p50_ms": round(self.percentile(50) * ms, 3),
            "p95_ms": round(self.percentile(95) * ms, 3),
            "p99_ms": round(self.percentile(99) * ms, 3),
            "max_ms": round((self.max if self.count else 0.0) * ms, 3),
        }
