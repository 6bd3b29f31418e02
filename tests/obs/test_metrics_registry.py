"""Prometheus text exposition: the renderer every ``/metrics`` surface uses.

``render_samples`` emits the classic Prometheus text format — ``# HELP``/
``# TYPE`` once per name, label values escaped, histogram ``_bucket`` rows
cumulative with an implied ``+Inf`` — and ``Sample`` refuses names the
format cannot carry.
"""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    Sample,
    counter_sample,
    gauge_sample,
    histogram_sample,
    render_samples,
)


class TestExposition:
    def test_golden_text_output(self):
        samples = [
            counter_sample("repro_queries_total", "queries served", 3,
                           {"tool": "gosh-fast"}),
            counter_sample("repro_queries_total", "queries served", 1,
                           {"tool": "gosh-normal"}),
            gauge_sample("repro_inflight", "in-flight queries", 2),
            # Observations 0.05, 0.05, 0.5, 5.0 over edges (0.1, 1.0).
            histogram_sample("repro_latency_seconds", "latency",
                             buckets=[(0.1, 2), (1.0, 3)],
                             sum_value=5.6, count=4),
        ]
        assert render_samples(samples) == (
            "# HELP repro_queries_total queries served\n"
            "# TYPE repro_queries_total counter\n"
            'repro_queries_total{tool="gosh-fast"} 3\n'
            'repro_queries_total{tool="gosh-normal"} 1\n'
            "# HELP repro_inflight in-flight queries\n"
            "# TYPE repro_inflight gauge\n"
            "repro_inflight 2\n"
            "# HELP repro_latency_seconds latency\n"
            "# TYPE repro_latency_seconds histogram\n"
            'repro_latency_seconds_bucket{le="0.1"} 2\n'
            'repro_latency_seconds_bucket{le="1"} 3\n'
            'repro_latency_seconds_bucket{le="+Inf"} 4\n'
            "repro_latency_seconds_sum 5.6\n"
            "repro_latency_seconds_count 4\n"
        )

    def test_sample_rejects_invalid_metric_name(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            counter_sample("9starts_with_digit", "t", 1)
        with pytest.raises(ValueError, match="invalid metric name"):
            Sample("repro_bad-dash", "gauge", "t")

    def test_render_samples_groups_help_and_type_once_per_name(self):
        text = render_samples([
            counter_sample("repro_a_total", "a", 1, {"x": "1"}),
            gauge_sample("repro_b", "b", 2),
            counter_sample("repro_a_total", "a", 2, {"x": "2"}),
        ])
        assert text.count("# TYPE repro_a_total counter") == 1
        # Interleaved samples regroup under one header, first-seen order.
        assert text == (
            "# HELP repro_a_total a\n"
            "# TYPE repro_a_total counter\n"
            'repro_a_total{x="1"} 1\n'
            'repro_a_total{x="2"} 2\n'
            "# HELP repro_b b\n"
            "# TYPE repro_b gauge\n"
            "repro_b 2\n"
        )

    def test_label_values_are_escaped(self):
        text = render_samples([
            counter_sample("repro_a_total", "", 1, {"p": 'sl\\ash "q"\nnl'})])
        assert 'p="sl\\\\ash \\"q\\"\\nnl"' in text

    def test_histogram_sample_constructor_round_trips(self):
        sample = histogram_sample(
            "repro_h", "h", buckets=[(0.5, 2), (1.0, 3)],
            sum_value=1.5, count=4, labels={"stage": "total"})
        text = render_samples([sample])
        assert 'repro_h_bucket{stage="total",le="0.5"} 2' in text
        assert 'repro_h_bucket{stage="total",le="+Inf"} 4' in text
        assert 'repro_h_count{stage="total"} 4' in text
