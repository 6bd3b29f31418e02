"""LatencyHistogram aggregation: merge, wire round-trip, exposition samples.

These primitives carry fleet-wide latency: shards serialize their
histograms with ``to_dict`` onto the stats wire, the router rebuilds them
with ``from_dict`` and folds them together with ``merge``, and the
Prometheus adapter (``samples_from_stats``) re-expands any of them.  The
round-trip must be *exact* — percentiles computed on a rebuilt histogram
match the original bucket-for-bucket — and a malformed payload from
another process must be refused, never misfiled.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.obs.export import samples_from_stats
from repro.obs.metrics import LatencyHistogram


def observed(values, **kwargs) -> LatencyHistogram:
    hist = LatencyHistogram(**kwargs)
    for v in values:
        hist.observe(v)
    return hist


class TestRoundTrip:
    def test_to_dict_from_dict_is_exact(self):
        hist = observed([0.0001, 0.002, 0.002, 0.5, 75.0])  # incl. overflow
        rebuilt = LatencyHistogram.from_dict(hist.to_dict())
        assert np.array_equal(rebuilt.counts, hist.counts)
        assert rebuilt.count == hist.count
        assert rebuilt.total == hist.total
        assert rebuilt.min == hist.min and rebuilt.max == hist.max
        for q in (50, 95, 99):
            assert rebuilt.percentile(q) == hist.percentile(q)
        assert rebuilt.summary() == hist.summary()

    def test_payload_is_json_safe_and_sparse(self):
        import json

        hist = observed([0.01, 0.01, 2.0])
        payload = hist.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        # Only the touched buckets ride the wire.
        assert len(payload["counts"]) == 2
        assert sum(c for _, c in payload["counts"]) == 3

    def test_empty_histogram_round_trips(self):
        rebuilt = LatencyHistogram.from_dict(LatencyHistogram().to_dict())
        assert rebuilt.count == 0
        assert rebuilt.min == math.inf            # "no observation yet"
        assert rebuilt.percentile(99) == 0.0

    def test_unknown_format_is_rejected(self):
        with pytest.raises(ValueError, match="unknown histogram payload"):
            LatencyHistogram.from_dict({"format": "bogus/9"})
        with pytest.raises(ValueError, match="unknown histogram payload"):
            LatencyHistogram.from_dict({})

    @pytest.mark.parametrize("index,count", [(None, 1), (10_000, 1), (-1, 1), (3, -2)],
                             ids=["past-overflow", "far-out", "negative-index",
                                  "negative-count"])
    def test_bad_bucket_entries_are_rejected(self, index, count):
        payload = observed([0.01]).to_dict()
        if index is None:                 # one past the overflow bucket
            index = len(LatencyHistogram().counts)
        payload["counts"].append([index, count])
        with pytest.raises(ValueError, match="bad histogram bucket entry"):
            LatencyHistogram.from_dict(payload)

    @pytest.mark.parametrize("layout", [
        {"growth": 1 + 1e-12}, {"max_s": math.inf}, {"min_s": 0.0},
        {"growth": math.nan},
    ], ids=["tiny-growth", "infinite-max", "zero-min", "nan-growth"])
    def test_oversized_or_bad_layouts_are_rejected(self, layout):
        payload = {**observed([0.01]).to_dict(), **layout}
        with pytest.raises(ValueError, match="bad histogram layout"):
            LatencyHistogram.from_dict(payload)


class TestMerge:
    def test_merge_equals_observing_the_union(self):
        left = observed([0.001, 0.1, 0.1])
        right = observed([0.002, 5.0])
        union = observed([0.001, 0.1, 0.1, 0.002, 5.0])
        assert left.merge(right) is left
        assert np.array_equal(left.counts, union.counts)
        assert left.count == union.count
        assert left.total == pytest.approx(union.total)
        assert left.min == union.min and left.max == union.max
        assert left.summary() == union.summary()

    def test_merge_accepts_a_wire_rebuilt_histogram(self):
        local = observed([0.01])
        remote = LatencyHistogram.from_dict(observed([0.5, 0.6]).to_dict())
        assert local.merge(remote).count == 3

    def test_mismatched_layouts_are_rejected(self):
        with pytest.raises(ValueError, match="bucket layouts"):
            observed([0.01]).merge(LatencyHistogram(max_s=10.0))
        with pytest.raises(ValueError, match="bucket layouts"):
            observed([0.01]).merge(LatencyHistogram(growth=2.0))


class TestRegistrySample:
    def test_metric_sample_preserves_the_bucket_layout(self):
        hist = observed([0.0001, 0.002, 80.0])    # under-min, mid, overflow
        (sample,) = samples_from_stats(
            {"latency": {"histograms": {"total": hist.to_dict()}}})
        assert sample.name == "repro_server_latency_seconds"
        assert sample.labels == (("stage", "total"),)
        assert sample.kind == "histogram"
        assert sample.count == 3
        assert sample.sum_value == pytest.approx(hist.total)
        edges = [edge for edge, _ in sample.buckets]
        assert edges == [float(e) for e in hist.edges]
        # Cumulative counts: the overflow observation appears only in +Inf
        # (i.e. sample.count), never in a finite bucket.
        assert sample.buckets[-1][1] == 2
        cums = [c for _, c in sample.buckets]
        assert cums == sorted(cums)

    @pytest.mark.parametrize("corrupt", [
        lambda p: p["counts"].append([10_000, 1]),
        lambda p: p.update(growth=1 + 1e-12),
    ], ids=["bad-bucket", "oversized-layout"])
    def test_a_bad_stage_payload_is_skipped_not_raised(self, corrupt):
        bad = observed([0.01]).to_dict()
        corrupt(bad)
        samples = samples_from_stats({"latency": {"histograms": {
            "service": bad, "total": observed([0.02]).to_dict()}}})
        assert [s.labels for s in samples] == [(("stage", "total"),)]
