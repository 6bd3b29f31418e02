"""Recorded SHA-256 digests of partitioned GOSH embeddings.

The parity suites compare two runs of the *current* code against each
other; these digests pin the bytes themselves, so a change anywhere on the
partitioned path (sampler, pool production, preparation, kernels, resume)
that moves a single bit fails here even when both sides of a parity test
moved together.  Inputs match ``test_pipeline.py``: a 400-vertex community
graph on a 16 kB device (six parts).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.embedding import GoshConfig, init_embedding
from repro.gpu import DeviceSpec, SimulatedDevice
from repro.graph import social_community
from repro.large import LargeGraphTrainer

pytestmark = pytest.mark.timeout(120)

#: Keyed by (seed, sampler); every pool is drawn by ``sample_rows``, the
#: vectorized sampler.
GOLDEN = {
    (0, "vectorized"): "a637669b818610675121da2d1a8ea84f64506312eed663f6cadd0615fa835285",
    (7, "vectorized"): "eadd44e92c0dcc7732430baa52daab633e97f67fb9c89999c478dfe3c37989e1",
}
#: Two rotations (60 epochs), seed 0: the uninterrupted run and the run
#: resumed at rotation 1 from its checkpoint.
GOLDEN_TWO_ROTATIONS = "260de2b56954922b012e4382dd9042cb9b46b57d5df1cfbb638cc7d409671fce"


@pytest.fixture(scope="module")
def graph():
    return social_community(400, intra_degree=8, seed=1)


def _train(graph, embedding, *, epochs, seed=0, **kwargs):
    device = SimulatedDevice(spec=DeviceSpec(name="16kB", memory_bytes=16 * 1024))
    config = GoshConfig(seed=seed)
    return LargeGraphTrainer(device, config).train(graph, embedding, epochs=epochs,
                                                   **kwargs)


def _digest(embedding: np.ndarray) -> str:
    return hashlib.sha256(embedding.tobytes()).hexdigest()


@pytest.mark.parametrize("seed, sampler", sorted(GOLDEN))
def test_embedding_digest(graph, seed, sampler):
    emb = init_embedding(graph.num_vertices, 16, 0)
    stats = _train(graph, emb, epochs=20, seed=seed)
    assert stats.num_parts == 6
    assert _digest(emb) == GOLDEN[seed, sampler]


def test_resumed_run_digest(graph):
    checkpoints: dict[int, np.ndarray] = {}
    full = init_embedding(graph.num_vertices, 16, 0)
    stats = _train(graph, full, epochs=60,
                   on_rotation=lambda done: checkpoints.setdefault(done, full.copy()))
    assert stats.rotations == 2
    assert _digest(full) == GOLDEN_TWO_ROTATIONS

    resumed = checkpoints[1].copy()
    stats = _train(graph, resumed, epochs=60, start_rotation=1)
    assert stats.start_rotation == 1
    assert _digest(resumed) == GOLDEN_TWO_ROTATIONS
