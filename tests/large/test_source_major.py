"""Source-major sample pools, from sampler to kernel.

The sampler returns a direction as ``(rows, dst)``: strictly increasing
local rows of the eligible sources, and ``B`` partner ids per row.  The
pool keeps that layout, and a prepared pair launch scatters the source side
with ``scatter_rows`` instead of a plan.  These tests pin that the layout
changes no bit: the sampler agrees with the test-side oracle on it, its
expansion equals the flat pairs an independent per-vertex loop draws, and a
prepared launch
(no source plan) trains byte-equal to the unprepared one (source plan) —
on a diagonal pair too, where ``sub_a is sub_b``.  The work counts pin
what the layout saves: no source-side plan per launch, and one adjacency
pass per part per level instead of one per direction.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.gpu.backends.vectorized as vectorized
import repro.large.sample_pool as sample_pool
from oracles import build_filtered_adjacency, expand_pairs, reference_sample_rows
from repro.gpu.backends import get_backend
from repro.graph import contiguous_partition, powerlaw_cluster, social_community, star
from repro.graph.partition import VertexPartition
from repro.large import (
    PoolPreparer,
    SamplePoolManager,
    PipelinedExecutor,
    build_schedule,
    inside_out_order,
    kernel_rng,
)
from repro.large.sample_pool import (
    FilteredAdjacencyCache,
    build_filtered_adjacencies,
    pick_indices,
    sample_rows,
)

pytestmark = pytest.mark.timeout(120)

GRAPHS = {
    "community": lambda: social_community(240, intra_degree=5, seed=2),
    "powerlaw": lambda: powerlaw_cluster(150, m=3, seed=1),
    "star": lambda: star(40),
}


def _shuffled_partition(n: int, k: int, seed: int) -> VertexPartition:
    """A K-way partition whose parts are neither contiguous nor sorted."""
    rng = np.random.default_rng(seed)
    part_of = rng.integers(0, k, size=n).astype(np.int64)
    parts = [rng.permutation(np.flatnonzero(part_of == p)) for p in range(k)]
    return VertexPartition(num_vertices=n, part_of=part_of, parts=parts)


def _flat_pairs_oracle(graph, part, mask, B, rng):
    """The flat ``(src, dst)`` pairs of an independent per-vertex loop."""
    src, dst = [], []
    for v in part:
        nbrs = graph.neighbors(int(v))
        valid = nbrs[mask[nbrs]]
        if valid.size:
            src.append(np.full(B, v, dtype=np.int64))
            dst.append(valid[pick_indices(rng.random(B), valid.size)])
    if not src:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.concatenate(src), np.concatenate(dst)


class TestSamplerLayout:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("B", [1, 3, 7])
    def test_backends_agree_on_rows_and_draws(self, graph_name, B):
        """``sample_rows`` on the cache equals the oracle loop, rows and draws."""
        graph = GRAPHS[graph_name]()
        partition = _shuffled_partition(graph.num_vertices, 3, seed=B)
        a = int(partition.part_of[0])   # vertex 0's part: the star's hub draws
        b = (a + 1) % 3
        part = partition.parts[a]
        rows, dst = reference_sample_rows(graph, part, partition.mask(b), B,
                                          np.random.default_rng(11))
        assert rows.size > 0 and dst.size == rows.size * B
        assert (np.diff(rows) > 0).all() and rows[0] >= 0 and rows[-1] < part.size
        filtered = FilteredAdjacencyCache(graph, partition).get(a, b)
        got_rows, got_dst = sample_rows(filtered, B, np.random.default_rng(11))
        assert np.array_equal(got_rows, rows) and np.array_equal(got_dst, dst)

    @pytest.mark.parametrize("sampler", ["reference", "vectorized"])
    @pytest.mark.parametrize("B", [1, 2, 5])
    def test_expansion_equals_flat_pairs(self, sampler, B):
        """The oracle's and ``sample_rows``' ``(rows, dst)`` expand to the flat
        pairs of a loop that never forms rows."""
        graph = GRAPHS["community"]()
        partition = _shuffled_partition(graph.num_vertices, 4, seed=3)
        cache = FilteredAdjacencyCache(graph, partition)
        for a, b in [(0, 1), (2, 2), (3, 0)]:
            part, mask = partition.parts[a], partition.mask(b)
            rng = np.random.default_rng(5)
            rows, dst = (reference_sample_rows(graph, part, mask, B, rng)
                         if sampler == "reference" else sample_rows(cache.get(a, b), B, rng))
            want = _flat_pairs_oracle(graph, part, mask, B, np.random.default_rng(5))
            assert np.array_equal(np.repeat(part[rows], B), want[0])
            assert np.array_equal(dst, want[1])

    def test_pool_directions_expand_to_pool_pairs(self):
        graph = GRAPHS["community"]()
        partition = contiguous_partition(graph.num_vertices, 3)
        pool = SamplePoolManager(graph=graph, partition=partition, seed=4,
                                 batch_per_vertex=3).build_pool(2, 0)
        ab, ba = pool.directions
        assert (ab.from_part, ab.to_part, ba.from_part, ba.to_part) == (2, 0, 0, 2)
        ab_src, ab_dst = expand_pairs(ab)
        assert np.array_equal(expand_pairs(pool)[0], np.concatenate([ab_src, expand_pairs(ba)[0]]))
        assert np.array_equal(ab_src, np.repeat(partition.parts[2][ab.rows], 3))
        assert (partition.part_of[ab_src] == 2).all() and (partition.part_of[ab_dst] == 0).all()
        assert pool.num_samples == ab.dst.size + ba.dst.size
        # The pool carries rows and destinations, not a repeated source array.
        assert pool.nbytes() == ab.rows.nbytes + ab.dst.nbytes + ba.rows.nbytes + ba.dst.nbytes


class TestOnePassAdjacency:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_every_partner_byte_equal_to_masked_build(self, graph_name, shuffled):
        graph = GRAPHS[graph_name]()
        k = 4
        partition = (_shuffled_partition(graph.num_vertices, k, seed=7) if shuffled
                     else contiguous_partition(graph.num_vertices, k))
        for p in range(k):
            entries = build_filtered_adjacencies(graph, partition.parts[p],
                                                 partition.part_of, k)
            assert len(entries) == k
            for q, entry in enumerate(entries):
                want = build_filtered_adjacency(graph, partition.parts[p], partition.mask(q))
                for field in ("vertices", "offsets", "targets"):
                    got, ref = getattr(entry, field), getattr(want, field)
                    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_empty_part_and_arcless_part(self):
        graph = star(10)
        part_of = np.zeros(10, dtype=np.int64)
        entries = build_filtered_adjacencies(graph, np.zeros(0, dtype=np.int64), part_of, 2)
        assert [e.offsets.tolist() for e in entries] == [[0], [0]]
        leaves = np.arange(1, 10)
        part_of[0] = 1   # every leaf's only neighbour is the hub in part 1
        entries = build_filtered_adjacencies(graph, leaves, part_of, 2)
        assert entries[0].targets.size == 0 and (entries[1].targets == 0).all()
        assert entries[1].offsets.tolist() == list(range(10))


def _pair_inputs(seed: int, n: int, rows: np.ndarray, B: int, n_b: int, dim: int = 8):
    rng = np.random.default_rng(seed)
    dst_local = rng.integers(0, n_b, size=rows.size * B)
    base = rng.standard_normal((n, dim)).astype(np.float32)
    base[rng.random(base.shape) < 0.05] = -0.0
    return dst_local, base


class TestPreparedKernel:
    """Prepared (source-major, no source plan) == unprepared (source plan)."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 30), B=st.integers(1, 7), ns=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_diagonal_pair_byte_equal(self, n, B, ns, seed, data):
        part = np.arange(100, 100 + n, dtype=np.int64)   # one array: part_a is part_b
        rows = np.asarray(sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n))),
                          dtype=np.int64)
        dst_local, base = _pair_inputs(seed, n, rows, B, n)
        g2l = np.full(100 + n, -1, dtype=np.int64)
        g2l[part] = np.arange(n)
        backend = get_backend("vectorized")
        src, dst = np.repeat(part[rows], B), part[dst_local]

        inline = base.copy()
        backend.train_pair(part, part, inline, inline, src, dst, ns, 0.05,
                           kernel_rng(seed, 0, 0, 0), index_a=g2l, index_b=g2l)
        plan = backend.prepare_pair(part, part, rows, B, dst, ns,
                                    kernel_rng(seed, 0, 0, 0), index_b=g2l)
        prepared = base.copy()
        backend.train_pair(part, part, prepared, prepared, None, None, ns, 0.05,
                           kernel_rng(seed, 0, 0, 0), plan=plan)
        assert prepared.tobytes() == inline.tobytes()

    def test_rejects_rows_that_are_not_source_major(self):
        part = np.arange(6, dtype=np.int64)
        backend = get_backend("vectorized")
        with pytest.raises(KeyError):
            backend.prepare_pair(part, part, np.array([2, 2]), 1, np.array([0, 1]), 0,
                                 np.random.default_rng(0))
        with pytest.raises(ValueError):
            backend.prepare_pair(part, part, np.array([1, 2]), 2, np.array([0, 1]), 0,
                                 np.random.default_rng(0))


class TestWorkCounts:
    """Deterministic counts in place of a clock."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"plan_scatter": 0, "gather": 0}
        real_plan, real_gather = vectorized.plan_scatter, sample_pool._gather_rows

        def plan_scatter(idx):
            calls["plan_scatter"] += 1
            return real_plan(idx)

        def gather(graph, vertices):
            calls["gather"] += 1
            return real_gather(graph, vertices)

        monkeypatch.setattr(vectorized, "plan_scatter", plan_scatter)
        monkeypatch.setattr(sample_pool, "_gather_rows", gather)
        return calls

    def test_no_source_plan_and_one_pass_per_part(self, counted):
        graph = social_community(400, intra_degree=8, seed=1)
        k, ns, rotations = 5, 3, 2
        partition = contiguous_partition(graph.num_vertices, k)
        schedule = build_schedule(rotations, inside_out_order(k))
        manager = SamplePoolManager(graph=graph, partition=partition,
                                    batch_per_vertex=4, seed=2)
        preparer = PoolPreparer(partition, get_backend("vectorized"),
                                partition.global_to_local(), ns, 2)
        with PipelinedExecutor(manager, preparer, schedule, 3) as executor:
            readies = [executor.next_ready() for _ in schedule]
        launches = sum(len(r.directions) for r in readies)
        assert launches == rotations * k * k   # K diagonal + 2 per off-diagonal pair
        # One destination plan + ns negative plans per launch; none for sources.
        assert counted["plan_scatter"] == launches * (1 + ns)
        # The level's adjacency is read once per part, not once per direction.
        assert counted["gather"] == k
        cache = manager.stats()["filtered_cache"]
        assert cache["builds"] == cache["entries"] == k
        assert cache["hits"] == rotations * k * k - k
