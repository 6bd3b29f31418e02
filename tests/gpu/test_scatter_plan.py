"""``ScatterPlan`` — the pair kernel's duplicate-accumulating scatter.

``plan_scatter(idx).apply(target, updates)`` must be bit-identical to
``np.add.at(target, idx, updates)``: every target row receives its
duplicate updates one at a time in sample order.  Values below span twelve
orders of magnitude, so any other summation order (pairwise, segment sums)
changes the rounding and fails ``np.array_equal``.

The work-count invariants pin the plan's shape: at most ``LEVELS`` fancy-add
levels, a logarithmic number of hub tail buckets, and less than 2x padding
— so a regression to per-occurrence loops or unbounded padding fails
deterministically, without a clock.

The source-major scatter (``scatter_rows``, the positive sources' planless
path) is held to the same standard: byte-equal to ``np.add.at`` over
``np.repeat(rows, B)``, signed zeros included.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.backends.vectorized import LEVELS, check_rows, plan_scatter, scatter_rows


def _values(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    """Mixed-sign values over 1e-6..1e6, with a sprinkle of ``±0.0``."""
    values = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-6, 6, size=shape)
    values[rng.random(shape) < 0.1] = -0.0
    values[rng.random(shape) < 0.05] = 0.0
    return values.astype(dtype)


def _assert_matches_add_at(idx, n, row_shape, dtype, seed):
    rng = np.random.default_rng(seed)
    idx = np.asarray(idx, dtype=np.int64)
    target = _values(rng, (n, *row_shape), dtype)
    updates = _values(rng, (idx.size, *row_shape), dtype)
    expected = target.copy()
    np.add.at(expected, idx, updates)
    plan_scatter(idx).apply(target, updates)
    assert np.array_equal(target, expected)
    # array_equal treats -0.0 == 0.0; the sign bits must match too.
    assert np.array_equal(np.signbit(target), np.signbit(expected))


ROW_SHAPES = st.sampled_from([(), (1,), (2,), (3,), (8,)])
DTYPES = st.sampled_from([np.float32, np.float64])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def index_arrays(draw):
    """Random indices into ``n`` rows, optionally with one planted hub."""
    n = draw(st.integers(min_value=1, max_value=40))
    idx = draw(st.lists(st.integers(0, n - 1), max_size=80))
    hub = draw(st.one_of(st.none(), st.integers(min_value=LEVELS - 2, max_value=300)))
    if hub is not None:
        idx += [draw(st.integers(0, n - 1))] * hub
        idx = draw(st.permutations(idx))
    return n, idx


class TestMatchesAddAt:
    @settings(max_examples=150, deadline=None)
    @given(case=index_arrays(), row_shape=ROW_SHAPES, dtype=DTYPES, seed=SEEDS)
    def test_random_indices(self, case, row_shape, dtype, seed):
        n, idx = case
        _assert_matches_add_at(idx, n, row_shape, dtype, seed)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_empty_index(self, dtype):
        _assert_matches_add_at([], 5, (4,), dtype, 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_all_distinct(self, dtype):
        idx = np.random.default_rng(1).permutation(50)
        _assert_matches_add_at(idx, 60, (4,), dtype, 1)

    @pytest.mark.parametrize("hub", [LEVELS, LEVELS + 1, 17, 1000])
    @pytest.mark.parametrize("row_shape", [(), (1,), (16,)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_hub(self, hub, row_shape, dtype):
        rng = np.random.default_rng(hub)
        idx = rng.permutation(np.concatenate([np.full(hub, 3), rng.integers(0, 20, 40)]))
        _assert_matches_add_at(idx, 20, row_shape, dtype, hub)

    def test_zero_signs(self):
        # -0.0 + -0.0 stays -0.0; the padding identity must not flip it.
        idx = np.array([2] * 30 + [0, 0])
        target = np.full((3, 2), -0.0)
        updates = np.full((idx.size, 2), -0.0)
        updates[-1] = 0.0   # row 0 ends +0.0, row 2 stays -0.0
        expected = target.copy()
        np.add.at(expected, idx, updates)
        plan_scatter(idx).apply(target, updates)
        assert np.array_equal(np.signbit(target), np.signbit(expected))
        assert np.signbit(target[2]).all() and not np.signbit(target[0]).any()


def _tail_lengths(idx: np.ndarray) -> np.ndarray:
    counts = np.bincount(idx) if idx.size else np.zeros(0, dtype=np.int64)
    return counts[counts > LEVELS] - LEVELS


class TestWorkCounts:
    @settings(max_examples=100, deadline=None)
    @given(case=index_arrays())
    def test_levels_buckets_and_padding_are_bounded(self, case):
        _, idx = case
        idx = np.asarray(idx, dtype=np.int64)
        plan = plan_scatter(idx)
        tails = _tail_lengths(idx)

        assert len(plan.levels) <= LEVELS
        if tails.size:
            assert len(plan.tails) <= math.ceil(math.log2(tails.max())) + 1
            cells = sum(bucket.rows.size for bucket in plan.tails)
            assert cells < 2 * tails.sum()
        else:
            assert plan.tails == ()

    @settings(max_examples=100, deadline=None)
    @given(case=index_arrays())
    def test_every_occurrence_placed_once(self, case):
        _, idx = case
        idx = np.asarray(idx, dtype=np.int64)
        plan = plan_scatter(idx)
        rows = [r for _, r in plan.levels]
        for heads, _ in plan.levels:
            assert np.unique(heads).size == heads.size   # plain fancy add is safe
        for bucket in plan.tails:
            real = np.ones(bucket.rows.size, dtype=bool)
            real[bucket.pad] = False
            assert np.all(bucket.rows.ravel()[~real] == idx.size)
            rows.append(bucket.rows.ravel()[real])
        placed = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
        assert np.array_equal(np.sort(placed), np.arange(idx.size))

    def test_hub_heavy_pool_stays_logarithmic(self):
        # One row drawn 797 times (the hub depth seen in partitioned runs)
        # among 40k mostly-distinct draws: 8 levels and at most 11 buckets.
        rng = np.random.default_rng(0)
        idx = rng.permutation(np.concatenate([np.full(797, 7), rng.integers(0, 30_000, 40_000)]))
        plan = plan_scatter(idx)
        assert len(plan.levels) == LEVELS
        assert len(plan.tails) <= math.ceil(math.log2(797 - LEVELS)) + 1
        assert sum(b.rows.size for b in plan.tails) < 2 * _tail_lengths(idx).sum()


@st.composite
def source_major_rows(draw):
    """Strictly increasing rows of an ``n``-row target, and ``B`` in 1..7."""
    n = draw(st.integers(min_value=1, max_value=40))
    rows = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    return n, np.asarray(rows, dtype=np.int64), draw(st.integers(min_value=1, max_value=7))


class TestSourceMajorScatter:
    """``scatter_rows`` is ``np.add.at`` over ``np.repeat(rows, B)``, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=source_major_rows(), row_shape=st.sampled_from([(), (32,)]),
           dtype=DTYPES, seed=SEEDS)
    def test_matches_add_at(self, case, row_shape, dtype, seed):
        n, rows, B = case
        rng = np.random.default_rng(seed)
        target = _values(rng, (n, *row_shape), dtype)
        updates = _values(rng, (rows.size * B, *row_shape), dtype)
        expected = target.copy()
        np.add.at(expected, np.repeat(rows, B), updates)
        scatter_rows(target, rows, B, updates)
        assert target.tobytes() == expected.tobytes()   # signed zeros too

    def test_zero_signs(self):
        # -0.0 + -0.0 stays -0.0, and a single +0.0 update flips the row.
        target = np.full((3, 2), -0.0)
        updates = np.full((6, 2), -0.0)
        updates[5] = 0.0
        expected = target.copy()
        np.add.at(expected, np.repeat([0, 2], 3), updates)
        scatter_rows(target, np.array([0, 2]), 3, updates)
        assert target.tobytes() == expected.tobytes()
        assert np.signbit(target[0]).all() and not np.signbit(target[2]).any()

    @pytest.mark.parametrize("rows", [[1, 1], [2, 1], [-1, 0], [0, 5]])
    def test_check_rows_rejects_non_source_major(self, rows):
        with pytest.raises(KeyError):
            check_rows(np.asarray(rows, dtype=np.int64), 5)

    def test_check_rows_accepts_strictly_increasing(self):
        check_rows(np.array([0, 2, 4]), 5)
        check_rows(np.zeros(0, dtype=np.int64), 0)
