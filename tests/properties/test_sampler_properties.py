"""Property tests for the vectorized part-pair sampler (hypothesis).

Random small graphs and random two-part splits; the invariants are the
paper's sample-pool contract (Section 3.3): sources come from part A,
destinations from part B, every pair is an edge, eligible vertices
contribute exactly ``B`` pairs and ineligible ones none — and ``sample_rows``
over the production cache agrees bit-for-bit with the test-side reference
loop under a shared seed.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_sample_rows, two_way_partition
from repro.graph import CSRGraph
from repro.large.sample_pool import FilteredAdjacencyCache, sample_rows


def _draw(graph, mask_b, B, seed):
    """``sample_rows`` on the production cache's (part A, part B) sub-CSR."""
    filtered = FilteredAdjacencyCache(graph, two_way_partition(mask_b)).get(0, 1)
    return sample_rows(filtered, B, np.random.default_rng(seed))


def _pairs(part_a, rows, dst, B):
    return np.repeat(part_a[rows], B), dst


@st.composite
def graph_and_split(draw):
    """A small undirected graph plus a random (possibly empty) vertex split."""
    n = draw(st.integers(min_value=2, max_value=24))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=0, max_size=60))
    graph = CSRGraph.from_edges(n, edges, undirected=True)
    in_b = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    mask_b = np.array(in_b, dtype=bool)
    part_a = np.flatnonzero(~mask_b).astype(np.int64)
    return graph, part_a, mask_b


@settings(max_examples=60, deadline=None)
@given(data=graph_and_split(),
       B=st.integers(min_value=0, max_value=6),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_membership_and_count_invariants(data, B, seed):
    graph, part_a, mask_b = data
    src, dst = _pairs(part_a, *_draw(graph, mask_b, B, seed), B)

    assert src.shape == dst.shape
    assert src.dtype == dst.dtype == np.int64

    in_a = np.zeros(graph.num_vertices, dtype=bool)
    in_a[part_a] = True
    assert np.all(in_a[src])          # every src is in part A
    assert np.all(mask_b[dst])        # every dst is in part B

    counts = np.bincount(src, minlength=graph.num_vertices)
    for v in part_a:
        nbrs = graph.neighbors(int(v))
        eligible = nbrs.shape[0] > 0 and bool(mask_b[nbrs].any())
        assert counts[v] == (B if eligible else 0)

    for s, d in zip(src, dst):
        assert graph.has_edge(int(s), int(d))


@settings(max_examples=60, deadline=None)
@given(data=graph_and_split(),
       B=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_vectorized_matches_reference_oracle(data, B, seed):
    graph, part_a, mask_b = data
    rows, dst = reference_sample_rows(graph, part_a, mask_b, B, np.random.default_rng(seed))
    got_rows, got_dst = _draw(graph, mask_b, B, seed)
    assert np.array_equal(got_rows, rows)
    assert np.array_equal(got_dst, dst)


@settings(max_examples=40, deadline=None)
@given(B=st.integers(min_value=0, max_value=6),
       n=st.integers(min_value=1, max_value=16),
       seed=st.integers(min_value=0, max_value=2**16))
def test_empty_part_and_edgeless_graph(B, n, seed):
    graph = CSRGraph.empty(n)
    # Edgeless graph: nothing is eligible no matter the split.
    rows, dst = _draw(graph, np.arange(n) % 2 == 1, B, seed)
    assert rows.shape == dst.shape == (0,)
    # Empty part A: no sources to draw for.
    rows, dst = _draw(graph, np.ones(n, dtype=bool), B, seed)
    assert rows.shape == dst.shape == (0,)
    # Empty part B: nothing is eligible.
    rows, dst = _draw(graph, np.zeros(n, dtype=bool), B, seed)
    assert rows.shape == dst.shape == (0,)
