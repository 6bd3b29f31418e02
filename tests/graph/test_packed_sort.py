"""Packed-key sorting against the argsort / lexsort / ``np.unique`` code it replaced.

CSR construction, coarse-level construction, the parallel leader pick, label
compaction and scatter plans each order their data with one ``np.sort`` of
packed int64 keys (or with no sort at all).  The oracles below are the
previous implementations, kept verbatim in spirit: a stable argsort by
source plus a lexsort within rows, ``np.unique`` de-duplication, a lexsort
leader pick and ``np.unique(return_inverse=True)`` compaction.  Every
output must be byte-equal to its oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coarsening import mile_coarsening
from repro.coarsening.mile_coarsening import heavy_edge_matching_once
from repro.coarsening.multi_edge_collapse import coarsen_graph, degree_order
from repro.coarsening.parallel_collapse import compact_mapping, parallel_collapse_once
from repro.gpu.backends.vectorized import LEVELS, plan_scatter
from repro.graph import CSRGraph, coo_to_csr
from repro.graph.csr import pack_keys


# --------------------------------------------------------------------- #
# Oracles: the sort-based code the packed keys replaced
# --------------------------------------------------------------------- #
def oracle_coo_to_csr(n, src, dst, *, sort_neighbors=True):
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    counts = np.bincount(src, minlength=n)
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=xadj[1:])
    order = np.argsort(src, kind="stable")
    adj = dst[order]
    if sort_neighbors and adj.size:
        adj = adj[np.lexsort((adj, src[order]))]
    return xadj, adj


def oracle_from_edges(n, edges, *, undirected=True, dedup=True, drop_self_loops=True):
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    src, dst = arr[:, 0], arr[:, 1]
    if drop_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    if undirected and src.size:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    if dedup and src.size:
        _, unique_idx = np.unique(src * np.int64(n) + dst, return_index=True)
        src, dst = src[unique_idx], dst[unique_idx]
    return oracle_coo_to_csr(n, src, dst)


def oracle_coarsen(graph, mapping, k):
    arcs = graph.edge_array()
    new_src, new_dst = mapping[arcs[:, 0]], mapping[arcs[:, 1]]
    keep = new_src != new_dst
    return oracle_from_edges(k, np.column_stack([new_src[keep], new_dst[keep]]))


def oracle_compact(raw):
    unique_ids, compacted = np.unique(raw, return_inverse=True)
    return compacted.astype(np.int64), int(unique_ids.shape[0])


def oracle_parallel_collapse(graph, *, hub_rule=True):
    n = graph.num_vertices
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0
    degrees = graph.degrees.astype(np.int64)
    delta = graph.num_edges / max(n, 1)
    arcs = graph.edge_array()
    src, dst = arcs[:, 0], arcs[:, 1]
    priority = degrees * np.int64(n) + (np.int64(n) - 1 - np.arange(n, dtype=np.int64))
    if hub_rule:
        eligible = (degrees[dst] <= delta) | (degrees[src] <= delta)
    else:
        eligible = np.ones(src.shape[0], dtype=bool)
    valid = eligible & (priority[dst] > priority[src])
    leader = np.arange(n, dtype=np.int64)
    if np.any(valid):
        vsrc, vdst = src[valid], dst[valid]
        order = np.lexsort((priority[vdst], vsrc))
        vsrc_sorted, vdst_sorted = vsrc[order], vdst[order]
        is_last = np.ones(vsrc_sorted.shape[0], dtype=bool)
        is_last[:-1] = vsrc_sorted[:-1] != vsrc_sorted[1:]
        leader[vsrc_sorted[is_last]] = vdst_sorted[is_last]
    chained = leader[leader] != leader
    leader = np.where(chained, np.arange(n, dtype=np.int64), leader)
    return oracle_compact(leader)


def assert_same_arrays(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        assert g.tobytes() == w.tobytes()


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #
@st.composite
def edge_lists(draw, max_vertices=30, max_edges=90):
    """Small graphs rich in self-loops, duplicate arcs and isolated vertices."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    # Endpoints drawn from a prefix of the ids leave the rest isolated.
    hi = draw(st.integers(min_value=0, max_value=n - 1))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    edges = draw(st.lists(st.tuples(st.integers(0, hi), st.integers(0, hi)),
                          min_size=m, max_size=m))
    return n, np.asarray(edges, dtype=np.int64).reshape(-1, 2)


FIXED_CASES = {
    "empty": (4, np.zeros((0, 2), dtype=np.int64)),
    "one-vertex": (1, np.zeros((0, 2), dtype=np.int64)),
    "one-vertex-self-loop": (1, np.array([[0, 0]])),
    "self-loops": (3, np.array([[0, 0], [1, 1], [0, 1], [2, 2]])),
    "duplicates": (4, np.array([[0, 1], [0, 1], [1, 0], [2, 3], [2, 3], [3, 2]])),
    "isolated": (8, np.array([[5, 1], [1, 3], [3, 5]])),
    "unsorted-rows": (5, np.array([[0, 4], [0, 2], [0, 3], [0, 1], [4, 0], [2, 0]])),
}
FLAGS = [(u, d) for u in (True, False) for d in (True, False)]


# --------------------------------------------------------------------- #
# CSR construction
# --------------------------------------------------------------------- #
class TestCsrMatchesOracle:
    @pytest.mark.parametrize("case", sorted(FIXED_CASES))
    @pytest.mark.parametrize("sort_neighbors", [True, False])
    def test_coo_to_csr_fixed(self, case, sort_neighbors):
        n, edges = FIXED_CASES[case]
        got = coo_to_csr(n, edges[:, 0], edges[:, 1], sort_neighbors=sort_neighbors)
        want = oracle_coo_to_csr(n, edges[:, 0], edges[:, 1], sort_neighbors=sort_neighbors)
        assert_same_arrays(got, want)

    @pytest.mark.parametrize("case", sorted(FIXED_CASES))
    @pytest.mark.parametrize("undirected,dedup", FLAGS)
    @pytest.mark.parametrize("drop_self_loops", [True, False])
    def test_from_edges_fixed(self, case, undirected, dedup, drop_self_loops):
        n, edges = FIXED_CASES[case]
        g = CSRGraph.from_edges(n, edges, undirected=undirected, dedup=dedup,
                                drop_self_loops=drop_self_loops)
        want = oracle_from_edges(n, edges, undirected=undirected, dedup=dedup,
                                 drop_self_loops=drop_self_loops)
        assert_same_arrays((g.xadj, g.adj), want)

    @given(edge_lists(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_coo_to_csr_property(self, data, sort_neighbors):
        n, edges = data
        got = coo_to_csr(n, edges[:, 0], edges[:, 1], sort_neighbors=sort_neighbors)
        want = oracle_coo_to_csr(n, edges[:, 0], edges[:, 1], sort_neighbors=sort_neighbors)
        assert_same_arrays(got, want)

    @given(edge_lists(), st.sampled_from(FLAGS), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_from_edges_property(self, data, flags, drop_self_loops):
        n, edges = data
        undirected, dedup = flags
        g = CSRGraph.from_edges(n, edges, undirected=undirected, dedup=dedup,
                                drop_self_loops=drop_self_loops)
        want = oracle_from_edges(n, edges, undirected=undirected, dedup=dedup,
                                 drop_self_loops=drop_self_loops)
        assert_same_arrays((g.xadj, g.adj), want)


# --------------------------------------------------------------------- #
# Coarsening
# --------------------------------------------------------------------- #
class TestCoarseningMatchesOracle:
    @given(edge_lists(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_parallel_collapse_and_level(self, data, hub_rule):
        n, edges = data
        g = CSRGraph.from_edges(n, edges)
        mapping, k = parallel_collapse_once(g, hub_rule=hub_rule)
        want_mapping, want_k = oracle_parallel_collapse(g, hub_rule=hub_rule)
        assert k == want_k
        assert_same_arrays((mapping,), (want_mapping,))
        coarse = coarsen_graph(g, mapping, k)
        assert_same_arrays((coarse.xadj, coarse.adj), oracle_coarsen(g, mapping, k))

    @given(edge_lists(), st.integers(min_value=1, max_value=6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_coarsen_any_mapping(self, data, k, seed):
        """Arbitrary (not collapse-shaped) mappings, directed inputs included."""
        n, edges = data
        mapping = np.random.default_rng(seed).integers(0, k, size=n)
        for undirected in (True, False):
            g = CSRGraph.from_edges(n, edges, undirected=undirected)
            coarse = coarsen_graph(g, mapping, k)
            assert coarse.undirected
            assert_same_arrays((coarse.xadj, coarse.adj), oracle_coarsen(g, mapping, k))

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_degree_order(self, data):
        n, edges = data
        g = CSRGraph.from_edges(n, edges)
        want = np.argsort(-g.degrees, kind="stable").astype(np.int64)
        assert_same_arrays((degree_order(g),), (want,))

    def test_empty_graph(self):
        mapping, k = parallel_collapse_once(CSRGraph.empty(0))
        assert mapping.size == 0 and k == 0
        g = CSRGraph.empty(5)
        assert_same_arrays(parallel_collapse_once(g)[:1], oracle_parallel_collapse(g)[:1])

    @given(st.lists(st.integers(-5, 40), max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_compact_mapping(self, labels):
        raw = np.asarray(labels, dtype=np.int64)
        mapping, k = compact_mapping(raw)
        want_mapping, want_k = oracle_compact(raw)
        assert k == want_k
        assert_same_arrays((mapping,), (want_mapping,))

    @pytest.mark.parametrize("use_sem", [True, False])
    def test_mile_mapping_unchanged(self, small_power_graph, monkeypatch, use_sem):
        got = heavy_edge_matching_once(small_power_graph, use_sem=use_sem,
                                       rng=np.random.default_rng(3))
        monkeypatch.setattr(mile_coarsening, "compact_mapping", oracle_compact)
        want = heavy_edge_matching_once(small_power_graph, use_sem=use_sem,
                                        rng=np.random.default_rng(3))
        assert got[1] == want[1]
        assert_same_arrays(got[:1], want[:1])


# --------------------------------------------------------------------- #
# Scatter plans
# --------------------------------------------------------------------- #
class TestScatterPlanOrder:
    @given(st.lists(st.integers(0, 12), min_size=1, max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_levels_follow_stable_argsort(self, values):
        idx = np.asarray(values, dtype=np.int64)
        order = np.argsort(idx, kind="stable")
        sorted_idx = idx[order]
        plan = plan_scatter(idx)
        for r, (heads, rows) in enumerate(plan.levels):
            # The r-th occurrence of each head, in sample order.
            want_rows = np.array([order[sorted_idx == h][r] for h in heads])
            assert heads.tolist() == sorted(set(idx[np.bincount(idx)[idx] > r].tolist()))
            assert rows.tolist() == want_rows.tolist()
        assert len(plan.levels) == min(LEVELS, int(np.bincount(idx).max()))


# --------------------------------------------------------------------- #
# Bounds guard
# --------------------------------------------------------------------- #
class TestPackKeysBounds:
    def test_keys_order_like_pairs(self):
        hi = np.array([2, 0, 1, 0])
        lo = np.array([0, 4, 3, 1])
        keys = pack_keys(hi, lo, 3, 5)
        assert keys.dtype == np.int64
        assert np.argsort(keys).tolist() == np.lexsort((lo, hi)).tolist()
        assert [divmod(int(k), 5) for k in keys] == list(zip(hi.tolist(), lo.tolist()))

    def test_largest_vertex_pair_range_fits(self):
        n = 3_037_000_499
        keys = pack_keys(np.array([n - 1]), np.array([n - 1]), n, n)
        assert int(keys[0]) == n * n - 1 <= 2**63 - 1

    def test_vertex_pair_overflow_raises(self):
        n = 3_037_000_500
        with pytest.raises(ValueError, match="3,037,000,499"):
            pack_keys(np.array([0]), np.array([0]), n, n)

    def test_position_keys(self):
        # Ids below 2**31 with 2**32 positions fill int64 exactly.
        keys = pack_keys(np.array([2**31 - 1]), np.array([2**32 - 1]), 2**31, 2**32)
        assert int(keys[0]) == 2**63 - 1
        with pytest.raises(ValueError, match="2\\*\\*63"):
            pack_keys(np.array([0]), np.array([0]), 2**31 + 1, 2**32)

    def test_from_edges_rejects_before_allocating(self):
        # xadj for this many vertices would take ~24 GB; the guard must fire first.
        with pytest.raises(ValueError, match="3,037,000,499"):
            CSRGraph.from_edges(3_037_000_500, np.array([[0, 1]]))
