"""Unit tests for the warp execution model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu import (
    WarpConfig,
    WarpSchedule,
    vertices_per_warp,
    warp_lane_efficiency,
)


class TestVerticesPerWarp:
    def test_small_dimension_packing(self):
        # Section 3.1.1: d <= 8 -> 4 sources per warp, 8 < d <= 16 -> 2.
        assert vertices_per_warp(8) == 4
        assert vertices_per_warp(4) == 4
        assert vertices_per_warp(16) == 2
        assert vertices_per_warp(9) == 2

    def test_large_dimension_one_per_warp(self):
        assert vertices_per_warp(32) == 1
        assert vertices_per_warp(128) == 1

    def test_disabled_packing(self):
        assert vertices_per_warp(8, small_dim_mode=False) == 1

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            vertices_per_warp(0)


class TestLaneEfficiency:
    def test_full_dim_full_efficiency(self):
        assert warp_lane_efficiency(32) == pytest.approx(1.0)
        assert warp_lane_efficiency(128) == pytest.approx(1.0)

    def test_without_packing_small_d_wastes_lanes(self):
        # Table 8 shape: without SM, d=8 and d=32 cost the same per source,
        # i.e. efficiency scales as d/32.
        assert warp_lane_efficiency(8, small_dim_mode=False) == pytest.approx(8 / 32)
        assert warp_lane_efficiency(16, small_dim_mode=False) == pytest.approx(16 / 32)

    def test_with_packing_efficiency_improves(self):
        assert warp_lane_efficiency(8) > warp_lane_efficiency(8, small_dim_mode=False)
        assert warp_lane_efficiency(8) == pytest.approx(1.0)
        assert warp_lane_efficiency(16) == pytest.approx(1.0)

    def test_packed_speedup_ratios_match_table8_shape(self):
        # With SM the work for d=8 should be ~4x cheaper than d=32,
        # without SM they are equal: this is the Table 8 claim.
        with_sm_8 = warp_lane_efficiency(8, small_dim_mode=True)
        without_sm_8 = warp_lane_efficiency(8, small_dim_mode=False)
        assert with_sm_8 / without_sm_8 == pytest.approx(4.0)


class TestWarpConfigSchedule:
    def test_num_warps(self):
        cfg = WarpConfig(dim=8)
        assert cfg.sources_per_warp == 4
        assert cfg.num_warps(10) == 3
        assert cfg.num_warps(0) == 0

    def test_schedule_unique_sources(self):
        cfg = WarpConfig(dim=16)
        schedule = WarpSchedule.build(np.arange(11), cfg)
        assert schedule.validate_unique_sources()
        assert sum(len(g) for g in schedule.sources_by_warp) == 11

    def test_schedule_group_sizes(self):
        cfg = WarpConfig(dim=64)
        schedule = WarpSchedule.build(np.arange(5), cfg)
        assert all(len(g) == 1 for g in schedule.sources_by_warp)
