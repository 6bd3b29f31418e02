"""Kernel-parity golden tests: the vectorized backend against the reference.

The two backends differ in three documented ways:

1. **Sigmoid** — reference evaluates the exact ``float64`` sigmoid; vectorized
   uses a ``float32`` LUT (8192 bins over [-6, 6], max per-round score error
   ``lr * 12 / 8192 / 2``).
2. **Conflict policy** — reference accumulates duplicate-sample updates with
   ``np.add.at``; the vectorized epoch kernels resolve duplicates within a
   round deterministically last-writer-wins (the pair kernel keeps exact
   accumulation: its scatters are bit-identical to ``np.add.at`` in sample
   order).
3. **Chunking** — reference stages sources in 2048-wide chunks; vectorized
   stages the whole epoch at once (identical for graphs below 2048 vertices).

Golden tolerances pinned here (and documented in README.md):

* single epoch, small graph:        ``atol = 5e-3``
* 10 epochs of drift:               ``atol = 2e-2`` and mean cosine ≥ 0.99
* one pair-kernel call:             ``atol = 1e-5``
* duplicate-free samples + exact sigmoid: ``atol = 1e-6`` (the only remaining
  difference is float round-off ordering)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.embedding import init_embedding
from repro.gpu import (
    ReferenceBackend,
    UnknownBackendError,
    VectorizedBackend,
    available_backends,
    get_backend,
    register_backend,
    sigmoid,
)
from repro.graph import social_community
from repro.graph.samplers import NegativeSampler, PositiveSampler

KERNELS = ("optimized", "naive")


def _epoch_samples(graph, rng, ns=3):
    sources = np.arange(graph.num_vertices, dtype=np.int64)
    positives = PositiveSampler(graph, seed=rng).sample(sources)
    negatives = NegativeSampler(graph.num_vertices, seed=rng).sample((sources.shape[0], ns))
    return sources, positives, negatives


class TestBackendRegistry:
    def test_builtins_available(self):
        names = available_backends()
        assert "reference" in names and "vectorized" in names

    def test_get_backend_by_name_is_cached_singleton(self):
        assert get_backend("reference") is get_backend("reference")
        assert get_backend("vectorized") is get_backend("VECTORIZED")

    def test_get_backend_default_and_passthrough(self):
        # The vectorized backend is the default; reference stays the oracle.
        assert get_backend(None).name == "vectorized"
        custom = VectorizedBackend()
        assert get_backend(custom) is custom

    def test_unknown_backend_raises(self):
        with pytest.raises(UnknownBackendError) as exc:
            get_backend("warp-speed")
        assert "warp-speed" in str(exc.value)
        assert "reference" in str(exc.value)

    def test_register_and_replace_guard(self):
        with pytest.raises(ValueError):
            register_backend("reference", ReferenceBackend)
        register_backend("reference", ReferenceBackend, replace=True)
        assert isinstance(get_backend("reference"), ReferenceBackend)

    def test_unknown_epoch_kernel_rejected_by_both(self):
        emb = init_embedding(4, 4, 0)
        srcs = np.arange(4)
        pos = np.zeros(4, dtype=np.int64)
        neg = np.zeros((4, 1), dtype=np.int64)
        for backend in (get_backend("reference"), get_backend("vectorized")):
            with pytest.raises(ValueError):
                backend.train_epoch(emb, srcs, pos, neg, 0.01, kernel="quantum")


class TestEpochKernelParity:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_single_epoch_close(self, kernel):
        """One epoch on a 200-vertex graph: embeddings match to atol=5e-3."""
        g = social_community(200, intra_degree=6, seed=2)
        rng = np.random.default_rng(5)
        sources, positives, negatives = _epoch_samples(g, rng)
        ref = init_embedding(g.num_vertices, 16, 3)
        vec = ref.copy()
        get_backend("reference").train_epoch(ref, sources, positives, negatives,
                                             0.035, kernel=kernel)
        get_backend("vectorized").train_epoch(vec, sources, positives, negatives,
                                              0.035, kernel=kernel)
        np.testing.assert_allclose(vec, ref, atol=5e-3)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_ten_epoch_drift_bounded(self, kernel):
        """Ten epochs of identical samples: atol=2e-2, mean cosine >= 0.99."""
        g = social_community(500, intra_degree=6, seed=2)
        rng = np.random.default_rng(5)
        ref = init_embedding(g.num_vertices, 16, 3)
        vec = ref.copy()
        for _ in range(10):
            sources, positives, negatives = _epoch_samples(g, rng)
            get_backend("reference").train_epoch(ref, sources, positives, negatives,
                                                 0.035, kernel=kernel)
            get_backend("vectorized").train_epoch(vec, sources, positives, negatives,
                                                  0.035, kernel=kernel)
        np.testing.assert_allclose(vec, ref, atol=2e-2)
        cos = np.einsum("ij,ij->i", ref, vec) / (
            np.linalg.norm(ref, axis=1) * np.linalg.norm(vec, axis=1) + 1e-12)
        assert cos.mean() >= 0.99

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_duplicate_free_samples_match_tightly(self, kernel):
        """With permutation samples and the exact sigmoid, the conflict policy
        and the LUT are both out of the picture — parity to atol=1e-6."""
        n, d = 300, 8
        rng = np.random.default_rng(0)
        ref = init_embedding(n, d, 1)
        vec = ref.copy()
        sources = np.arange(n, dtype=np.int64)
        positives = rng.permutation(n).astype(np.int64)
        negatives = np.stack([rng.permutation(n) for _ in range(3)], axis=1)
        exact_vec = VectorizedBackend(sig=sigmoid)
        get_backend("reference").train_epoch(ref, sources, positives, negatives,
                                             0.05, kernel=kernel)
        exact_vec.train_epoch(vec, sources, positives, negatives, 0.05, kernel=kernel)
        np.testing.assert_allclose(vec, ref, atol=1e-6)

    def test_vectorized_requires_unique_sources(self):
        emb = init_embedding(8, 4, 0)
        dup = np.array([0, 1, 1], dtype=np.int64)
        with pytest.raises(ValueError):
            get_backend("vectorized").train_epoch(
                emb, dup, np.zeros(3, dtype=np.int64),
                np.zeros((3, 1), dtype=np.int64), 0.01)

    def test_empty_sources_noop(self):
        emb = init_embedding(8, 4, 0)
        before = emb.copy()
        get_backend("vectorized").train_epoch(
            emb, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.zeros((0, 2), dtype=np.int64), 0.01)
        assert np.array_equal(emb, before)

    def test_sources_with_no_positive_neighbour_skipped(self):
        """positives == -1 must skip the positive round, as in the reference."""
        n = 64
        rng = np.random.default_rng(3)
        ref = init_embedding(n, 8, 2)
        vec = ref.copy()
        sources = np.arange(n, dtype=np.int64)
        positives = rng.integers(0, n, n)
        positives[::4] = -1
        negatives = rng.integers(0, n, (n, 2))
        get_backend("reference").train_epoch(ref, sources, positives, negatives, 0.03)
        get_backend("vectorized").train_epoch(vec, sources, positives, negatives, 0.03)
        np.testing.assert_allclose(vec, ref, atol=5e-3)


class TestPairKernelParity:
    def _pair_setup(self, na=400, nb=400, d=16, B=5, seed=0):
        rng = np.random.default_rng(seed)
        part_a = np.arange(na, dtype=np.int64)
        part_b = np.arange(na, na + nb, dtype=np.int64)
        sub_a = init_embedding(na, d, seed)
        sub_b = init_embedding(nb, d, seed + 1)
        pos_src = np.repeat(part_a, B)
        pos_dst = part_b[rng.integers(0, nb, na * B)]
        return part_a, part_b, sub_a, sub_b, pos_src, pos_dst

    def test_pair_kernel_close(self):
        """One pair call (identical negative draws): parity to atol=1e-5."""
        part_a, part_b, a0, b0, pos_src, pos_dst = self._pair_setup()
        ref_a, ref_b = a0.copy(), b0.copy()
        vec_a, vec_b = a0.copy(), b0.copy()
        get_backend("reference").train_pair(
            part_a, part_b, ref_a, ref_b, pos_src, pos_dst, 3, 0.035,
            np.random.default_rng(7))
        get_backend("vectorized").train_pair(
            part_a, part_b, vec_a, vec_b, pos_src, pos_dst, 3, 0.035,
            np.random.default_rng(7))
        np.testing.assert_allclose(vec_a, ref_a, atol=1e-5)
        np.testing.assert_allclose(vec_b, ref_b, atol=1e-5)

    def test_pair_kernel_with_prebuilt_index_arrays(self):
        part_a, part_b, a0, b0, pos_src, pos_dst = self._pair_setup(na=100, nb=100)
        # One partition-wide lookup serves both parts, the way the scheduler's
        # partition cache builds it: each global id maps to its row within the
        # part that owns it.
        size = int(part_b.max()) + 1
        index = np.full(size, -1, dtype=np.int64)
        index[part_a] = np.arange(part_a.shape[0])
        index[part_b] = np.arange(part_b.shape[0])
        with_idx_a, with_idx_b = a0.copy(), b0.copy()
        without_a, without_b = a0.copy(), b0.copy()
        vec = get_backend("vectorized")
        vec.train_pair(part_a, part_b, with_idx_a, with_idx_b, pos_src, pos_dst,
                       2, 0.03, np.random.default_rng(1), index_a=index, index_b=index)
        vec.train_pair(part_a, part_b, without_a, without_b, pos_src, pos_dst,
                       2, 0.03, np.random.default_rng(1))
        assert np.array_equal(with_idx_a, without_a)
        assert np.array_equal(with_idx_b, without_b)

    def test_pair_kernel_self_pair(self):
        """(V^a, V^a) pairs share storage; both backends must handle aliasing."""
        rng = np.random.default_rng(4)
        part = np.arange(120, dtype=np.int64)
        sub = init_embedding(120, 8, 9)
        ref = sub.copy()
        vec = sub.copy()
        pos_src = np.repeat(part, 2)
        pos_dst = part[rng.integers(0, 120, 240)]
        get_backend("reference").train_pair(
            part, part, ref, ref, pos_src, pos_dst, 2, 0.03, np.random.default_rng(2))
        get_backend("vectorized").train_pair(
            part, part, vec, vec, pos_src, pos_dst, 2, 0.03, np.random.default_rng(2))
        np.testing.assert_allclose(vec, ref, atol=1e-5)

    def test_mismatched_pair_lengths_rejected(self):
        part = np.arange(10, dtype=np.int64)
        sub = init_embedding(10, 4, 0)
        for backend in (get_backend("reference"), get_backend("vectorized")):
            with pytest.raises(ValueError):
                backend.train_pair(part, part, sub, sub,
                                   np.zeros(3, dtype=np.int64),
                                   np.zeros(2, dtype=np.int64),
                                   1, 0.01, np.random.default_rng(0))


class TestDeviceAccountingParity:
    """Swapping backends must not change the *modelled* GPU cost."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_epoch_kernel_records_identical_work(self, kernel):
        from repro.gpu import SimulatedDevice

        g = social_community(100, intra_degree=4, seed=1)
        rng = np.random.default_rng(0)
        sources, positives, negatives = _epoch_samples(g, rng)
        devices = []
        for name in ("reference", "vectorized"):
            emb = init_embedding(g.num_vertices, 16, 0)
            device = SimulatedDevice()
            get_backend(name).train_epoch(emb, sources, positives, negatives,
                                          0.03, kernel=kernel, device=device)
            devices.append(device)
        ref_dev, vec_dev = devices
        assert ref_dev.num_kernel_launches == vec_dev.num_kernel_launches
        assert ref_dev.simulated_compute_seconds == pytest.approx(
            vec_dev.simulated_compute_seconds)
