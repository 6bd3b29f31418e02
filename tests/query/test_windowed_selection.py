"""Windowed candidate selection in the blocked query backend.

The blocked backend copies the scores of consecutive canonical blocks into
one window buffer of at most ``WINDOW_FLOATS`` floats and selects top-k
candidates once per window.  Two claims are pinned here:

* **Parity** (property test): for any matrix, range, k, query count and
  metric — with duplicate rows, NaN rows, a row that overflows to inf and
  NaN, and NaN queries — the blocked answer equals the exact oracle's bit
  for bit, while a tiny budget makes windows span several blocks and puts
  ties on window edges.
* **Work** (counted through wrappers, never clocks): every overlapping
  canonical block is scored exactly once, the selection partition runs
  once per window, each window holds whole blocks, and the buffer never
  exceeds the budget.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.query import METRICS, BlockedQueryBackend, ExactQueryBackend, PreparedMatrix
from repro.query import backends


@st.composite
def query_cases(draw):
    n = draw(st.integers(1, 300))
    dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):                  # small integers: ties everywhere
        m = rng.integers(-2, 3, size=(n, dim)).astype(np.float32)
    else:
        m = rng.standard_normal((n, dim)).astype(np.float32)
    for _ in range(draw(st.integers(0, 4))):  # duplicate rows
        m[rng.integers(n)] = m[rng.integers(n)]
    for _ in range(draw(st.integers(0, 3))):  # NaN rows
        m[rng.integers(n)] = np.nan
    if draw(st.booleans()):                  # dot overflows: inf, inf - inf = NaN
        m[rng.integers(n)] = rng.choice([-1e38, 1e38], size=dim)
    num_q = draw(st.integers(1, 4))
    if draw(st.booleans()):
        queries = m[rng.integers(n, size=num_q)].copy()
    else:
        queries = rng.standard_normal((num_q, dim)).astype(np.float32)
    if draw(st.booleans()):                  # a NaN query vector
        queries[rng.integers(num_q)] = np.nan
    lo = draw(st.integers(0, n - 1))
    vertex_range = draw(st.none() | st.just((lo, draw(st.integers(lo + 1, n)))))
    return dict(
        matrix=m, queries=queries, vertex_range=vertex_range,
        metric=draw(st.sampled_from(METRICS)),
        k=draw(st.integers(1, n + 2)),
        block_rows=draw(st.integers(1, n + 5)),
        budget=draw(st.integers(1, 64)),
    )


@settings(max_examples=300, deadline=None)
@given(query_cases())
def test_blocked_equals_exact_bit_for_bit(case):
    prepared = PreparedMatrix(case["matrix"], metric=case["metric"])
    args = dict(block_rows=case["block_rows"], vertex_range=case["vertex_range"])
    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as mp:
        mp.setattr(backends, "WINDOW_FLOATS", case["budget"])
        want_ids, want_scores = ExactQueryBackend().topk(
            prepared, case["queries"], case["k"], **args)
        ids, scores = BlockedQueryBackend().topk(
            prepared, case["queries"], case["k"], **args)
        every_ids, every_scores = ExactQueryBackend().topk(
            prepared, case["queries"], len(case["matrix"]),
            block_rows=case["block_rows"])
    assert ids.shape == want_ids.shape and scores.dtype == np.float32
    assert (ids == want_ids).all()
    assert (scores.view(np.int32) == want_scores.view(np.int32)).all()
    # A ranged answer carries each vertex's score bits from the unranged run.
    by_id = np.take_along_axis(every_scores, np.argsort(every_ids, axis=1), 1)
    assert (np.take_along_axis(by_id, ids, 1).view(np.int32)
            == scores.view(np.int32)).all()


# --------------------------------------------------------------------- #
# Work counts
# --------------------------------------------------------------------- #
N, DIM, BLOCK_ROWS = 20_000, 8, 64
LO, HI = 1_000, 19_000                         # unaligned with the grid


@pytest.fixture
def counted(monkeypatch):
    """Run the blocked backend over ``[LO, HI)``, recording its work."""
    record = {"blocks": [], "partitions": 0, "windows": []}
    score_block = backends.PreparedMatrix.score_block
    partition = np.partition
    scored_windows = backends._scored_windows

    def counting_score_block(self, start, stop, q, inv_qnorms):
        record["blocks"].append((start, stop))
        return score_block(self, start, stop, q, inv_qnorms)

    def counting_partition(*args, **kwargs):
        record["partitions"] += 1
        return partition(*args, **kwargs)

    def recording_windows(*args):
        for base, window in scored_windows(*args):
            record["windows"].append((base, len(window), window.base.size))
            yield base, window

    monkeypatch.setattr(backends.PreparedMatrix, "score_block", counting_score_block)
    monkeypatch.setattr(backends.np, "partition", counting_partition)
    monkeypatch.setattr(backends, "_scored_windows", recording_windows)
    m = np.random.default_rng(0).standard_normal((N, DIM)).astype(np.float32)
    prepared = PreparedMatrix(m, metric="cosine")

    def run(num_q):
        queries = m[:num_q]
        BlockedQueryBackend().topk(prepared, queries, 10, block_rows=BLOCK_ROWS,
                                   vertex_range=(LO, HI))
        return record
    return run


def overlapping_blocks():
    return [(s, min(s + BLOCK_ROWS, N)) for s in range(0, N, BLOCK_ROWS)
            if s + BLOCK_ROWS > LO and s < HI]


def test_one_query_scores_each_block_once_and_selects_once(counted):
    record = counted(1)
    assert record["blocks"] == overlapping_blocks()      # 282 blocks
    assert len(record["windows"]) == 1
    assert record["partitions"] == 1


def test_large_microbatch_windows_hold_whole_blocks_within_budget(counted):
    num_q = 200
    record = counted(num_q)
    assert record["blocks"] == overlapping_blocks()
    windows = record["windows"]
    assert len(windows) > 1
    assert record["partitions"] == len(windows)
    edge = LO
    for base, rows, buffer_floats in windows:
        assert base == edge                            # windows tile [LO, HI)
        edge = base + rows
        assert base == LO or base % BLOCK_ROWS == 0     # whole blocks only
        assert edge == HI or edge % BLOCK_ROWS == 0
        assert rows * num_q <= buffer_floats <= backends.WINDOW_FLOATS
    assert edge == HI
