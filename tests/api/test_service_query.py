"""Tests for the EmbeddingService k-NN facade (embed-if-missing -> store -> query)."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.api import EmbeddingService, QueryRequest
from repro.store import EmbeddingStore


@pytest.fixture
def service(tmp_path):
    return EmbeddingService(dim=8, epoch_scale=0.02, store=tmp_path / "store")


class TestEmbedIfMissing:
    def test_first_query_embeds_and_stores(self, service, small_power_graph):
        response = service.query("gosh-fast", small_power_graph, vertices=[0, 5], k=4)
        assert response.store_hit is False
        assert response.ids.shape == (2, 4)
        assert response.entry.version == 1
        assert service.store.stats()["saves"] == 1
        assert service.stats()["requests_served"] == 1   # the implicit embed

    def test_second_query_serves_from_store(self, service, small_power_graph):
        first = service.query("gosh-fast", small_power_graph, vertices=0, k=3)
        second = service.query("gosh-fast", small_power_graph, vertices=0, k=3)
        assert (first.store_hit, second.store_hit) == (False, True)
        assert service.stats()["requests_served"] == 1   # no re-embed
        assert (first.ids == second.ids).all()
        assert (first.scores == second.scores).all()

    def test_store_survives_service_restart(self, tmp_path, small_power_graph):
        root = tmp_path / "store"
        EmbeddingService(dim=8, epoch_scale=0.02, store=root).query(
            "gosh-fast", small_power_graph, vertices=0)
        fresh = EmbeddingService(dim=8, epoch_scale=0.02, store=root)
        response = fresh.query("gosh-fast", small_power_graph, vertices=0)
        assert response.store_hit is True
        assert fresh.stats()["requests_served"] == 0

    def test_distinct_tools_get_distinct_lineages(self, service, small_power_graph):
        service.query("gosh-fast", small_power_graph, vertices=0)
        service.query("verse", small_power_graph, vertices=0)
        assert service.store.stats()["lineages"] == 2

    def test_embed_on_miss_releases_freed_heap(self, service, small_power_graph,
                                              monkeypatch):
        """A miss hands the embed's freed temporaries back to the OS once the
        result is stored; a store hit embeds nothing and trims nothing."""
        module = importlib.import_module("repro.api.service")
        release = module._release_freed_heap
        trims = []
        monkeypatch.setattr(module, "_release_freed_heap", lambda: trims.append(1))
        service.query("gosh-fast", small_power_graph, vertices=0)
        service.query("gosh-fast", small_power_graph, vertices=0)
        assert trims == [1]
        release()   # the real call: glibc's malloc_trim, a no-op elsewhere

    def test_embed_stamps_graph_fingerprint(self, service, small_power_graph):
        result = service.embed("verse", small_power_graph)
        assert result.metadata["graph_fingerprint"] == small_power_graph.fingerprint()
        # ... which is exactly what lets the store key it without the graph.
        entry = service.store.save(result)
        assert entry.fingerprint == small_power_graph.fingerprint()

    def test_query_without_store_is_a_clear_error(self, small_power_graph):
        service = EmbeddingService(dim=8, epoch_scale=0.02)
        with pytest.raises(ValueError, match="store"):
            service.query("gosh-fast", small_power_graph, vertices=0)

    def test_store_accepts_instance_or_path(self, tmp_path):
        store = EmbeddingStore(tmp_path)
        assert EmbeddingService(store=store).store is store
        assert EmbeddingService(store=tmp_path).store.root == tmp_path


class TestMicrobatching:
    def test_batch_groups_same_engine_requests(self, service, small_power_graph):
        responses = service.query_batch([
            QueryRequest("gosh-fast", small_power_graph, vertices=[1, 2], k=3),
            QueryRequest("gosh-fast", small_power_graph, vertices=7, k=3),
            QueryRequest("gosh-fast", small_power_graph, vertices=[9], k=3),
        ])
        assert len(responses) == 3
        # One embed, one engine, ONE backend call for all three requests.
        assert service.stats()["microbatches"] == 1
        assert service.stats()["query_engines"] == 1
        assert service.stats()["query"]["batches"] == 1
        assert service.stats()["queries_served"] == 4

    def test_batch_answers_match_individual_queries(self, service, small_power_graph):
        """Stacking requests must not change what each request gets back.

        Ids are pinned exactly; scores to tolerance only, because stacking
        changes the matmul's column count and optimized BLAS may reorder the
        accumulation (the bit-level guarantee is across *backends* on a fixed
        batch, not across batch shapes)."""
        batched = service.query_batch([
            QueryRequest("gosh-fast", small_power_graph, vertices=[1, 2], k=5),
            QueryRequest("gosh-fast", small_power_graph, vertices=[9], k=5),
        ])
        solo_a = service.query("gosh-fast", small_power_graph, vertices=[1, 2], k=5)
        solo_b = service.query("gosh-fast", small_power_graph, vertices=9, k=5)
        assert (batched[0].ids == solo_a.ids).all()
        assert (batched[1].ids == solo_b.ids).all()
        np.testing.assert_allclose(batched[0].scores, solo_a.scores, rtol=1e-5)
        np.testing.assert_allclose(batched[1].scores, solo_b.scores, rtol=1e-5)

    def test_mixed_kinds_split_into_groups_in_order(self, service, small_power_graph):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((2, 8)).astype(np.float32)
        responses = service.query_batch([
            QueryRequest("gosh-fast", small_power_graph, vertices=[1], k=2),
            QueryRequest("gosh-fast", small_power_graph, vectors=vectors, k=2),
            QueryRequest("gosh-fast", small_power_graph, vertices=[2, 3], k=2),
            QueryRequest("gosh-fast", small_power_graph, vectors=vectors[:1], k=4),
        ])
        # vertex k=2 group, vector k=2 group, vector k=4 group.
        assert service.stats()["microbatches"] == 3
        assert [r.ids.shape for r in responses] == [(1, 2), (2, 2), (2, 2), (1, 4)]
        # Responses come back in request order regardless of grouping.
        solo = service.query("gosh-fast", small_power_graph, vertices=[2, 3], k=2)
        assert (responses[2].ids == solo.ids).all()

    def test_exclude_self_splits_vertex_groups(self, service, small_power_graph):
        responses = service.query_batch([
            QueryRequest("gosh-fast", small_power_graph, vertices=5, k=3),
            QueryRequest("gosh-fast", small_power_graph, vertices=5, k=3,
                         exclude_self=False),
        ])
        assert service.stats()["microbatches"] == 2
        assert 5 not in responses[0].ids[0]
        assert responses[1].ids[0, 0] == 5

    def test_request_validation(self, small_power_graph):
        with pytest.raises(ValueError, match="exactly one"):
            QueryRequest("gosh-fast", small_power_graph)
        with pytest.raises(ValueError, match="exactly one"):
            QueryRequest("gosh-fast", small_power_graph, vertices=[1],
                         vectors=np.zeros((1, 8), dtype=np.float32))


class TestServingSafety:
    def test_incompatible_dim_reembeds_instead_of_serving_stale(
            self, tmp_path, small_power_graph):
        """A stored dim-8 embedding must not silently answer a dim-16
        service's queries — that would return vectors from a configuration
        the caller never asked for (and crash vector queries outright)."""
        root = tmp_path / "store"
        EmbeddingService(dim=8, epoch_scale=0.02, store=root).query(
            "gosh-fast", small_power_graph, vertices=0)
        wide = EmbeddingService(dim=16, epoch_scale=0.02, store=root)
        response = wide.query("gosh-fast", small_power_graph, vertices=0)
        assert response.store_hit is False            # re-embedded at dim 16
        assert response.entry.shape[1] == 16
        # Vector queries in the service's dimension now work.
        vec = np.zeros((1, 16), dtype=np.float32)
        assert wide.query("gosh-fast", small_power_graph,
                          vectors=vec).ids.shape == (1, 10)
        # Both configurations coexist as separate lineages.
        assert wide.store.stats()["lineages"] == 2
        # And alternating services each keep hitting their own lineage — the
        # newer dim-16 entry must not mask the servable dim-8 one (which
        # would re-embed and re-save on every alternation).
        narrow = EmbeddingService(dim=8, epoch_scale=0.02, store=root)
        again = narrow.query("gosh-fast", small_power_graph, vertices=0)
        assert again.store_hit is True
        assert again.entry.shape[1] == 8
        assert narrow.store.stats()["entries"] == 2   # nothing new saved

    def test_config_hash_pins_a_lineage(self, tmp_path, small_power_graph):
        root = tmp_path / "store"
        service = EmbeddingService(dim=8, epoch_scale=0.02, store=root)
        first = service.query("gosh-fast", small_power_graph, vertices=0)
        pinned = service.query("gosh-fast", small_power_graph, vertices=0,
                               config_hash=first.entry.config_hash)
        assert pinned.store_hit is True
        assert pinned.entry.config_hash == first.entry.config_hash

    def test_unknown_config_pin_raises_instead_of_reembedding(
            self, service, small_power_graph):
        """A pin means 'serve exactly this validated lineage'; embedding
        under the service's own settings would silently answer from a
        different lineage than the one pinned."""
        from repro.store import StoreError

        with pytest.raises(StoreError, match="deadbeef"):
            service.query("gosh-fast", small_power_graph, vertices=0,
                          config_hash="deadbeef00000000")
        assert service.stats()["requests_served"] == 0    # nothing embedded
        assert service.store.stats()["saves"] == 0

    def test_gcd_version_is_noticed_not_served_blind(self, service,
                                                     small_power_graph):
        """After gc removes the memoised version, the next query must
        re-resolve (re-embedding if needed), not crash on the dead path or
        serve the removed version from a cached mmap."""
        service.query("gosh-fast", small_power_graph, vertices=0)
        service.store.gc(keep_n=0)
        response = service.query("gosh-fast", small_power_graph, vertices=0,
                                 metric="dot")   # would load the dead path
        assert response.store_hit is False       # re-embedded and re-stored
        assert response.entry.path.is_dir()

    def test_stats_stay_cumulative_across_engine_eviction(
            self, tmp_path, small_power_graph):
        service = EmbeddingService(dim=8, epoch_scale=0.02,
                                   store=tmp_path / "store",
                                   engine_cache_entries=1)
        service.query("gosh-fast", small_power_graph, vertices=0)
        before = service.stats()["query"]["rows_scored"]
        service.query("gosh-fast", small_power_graph, vertices=0, metric="dot")
        after = service.stats()["query"]
        assert after["rows_scored"] == before + small_power_graph.num_vertices
        assert after["batches"] == 2              # evicted engine still counted

    def test_stats_survive_eviction_within_one_batch(
            self, tmp_path, small_power_graph):
        """A batch whose requests need more engines than the cache holds must
        not lose counters: eviction waits until the batch finished serving."""
        service = EmbeddingService(dim=8, epoch_scale=0.02,
                                   store=tmp_path / "store",
                                   engine_cache_entries=1)
        service.query_batch([
            QueryRequest("gosh-fast", small_power_graph, vertices=[0], k=2),
            QueryRequest("gosh-fast", small_power_graph, vertices=[1], k=2,
                         metric="dot"),
        ])
        stats = service.stats()
        assert stats["query_engines"] == 1        # cap enforced after the batch
        assert stats["query"]["batches"] == 2
        assert stats["query"]["rows_scored"] == 2 * small_power_graph.num_vertices

    def test_engine_cache_entries_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="engine_cache_entries"):
            EmbeddingService(store=tmp_path, engine_cache_entries=0)

    def test_batch_resolves_store_entry_once(self, service, small_power_graph,
                                             monkeypatch):
        """Serving must not re-scan store manifests per request of a batch."""
        service.query("gosh-fast", small_power_graph, vertices=0)  # warm
        calls = []
        real = type(service.store).latest

        def counting(store, *args, **kwargs):
            calls.append(1)
            return real(store, *args, **kwargs)

        monkeypatch.setattr(type(service.store), "latest", counting)
        service.query_batch([
            QueryRequest("gosh-fast", small_power_graph, vertices=[v], k=2)
            for v in range(10)])
        assert calls == []                            # memoised entry served

    def test_engine_cache_is_lru_bounded(self, tmp_path, small_power_graph):
        service = EmbeddingService(dim=8, epoch_scale=0.02,
                                   store=tmp_path / "store",
                                   engine_cache_entries=1)
        service.query("gosh-fast", small_power_graph, vertices=0)
        service.query("gosh-fast", small_power_graph, vertices=0, metric="dot")
        assert service.stats()["query_engines"] == 1  # oldest engine evicted


class TestQuerySettings:
    def test_metric_and_backend_overrides(self, service, small_power_graph):
        cos = service.query("gosh-fast", small_power_graph, vertices=0, k=3)
        dot = service.query("gosh-fast", small_power_graph, vertices=0, k=3,
                            metric="dot", backend="exact")
        assert cos.result.metric == "cosine" and cos.result.backend == "blocked"
        assert dot.result.metric == "dot" and dot.result.backend == "exact"
        # Distinct settings memoise distinct engines over the same entry.
        assert service.stats()["query_engines"] == 2

    def test_engines_reused_across_calls(self, service, small_power_graph):
        service.query("gosh-fast", small_power_graph, vertices=0)
        service.query("gosh-fast", small_power_graph, vertices=1)
        service.query("gosh-fast", small_power_graph, vertices=2)
        assert service.stats()["query_engines"] == 1

    def test_stats_expose_store_and_query_sections(self, service, small_power_graph):
        service.query("gosh-fast", small_power_graph, vertices=[0, 1], k=2)
        stats = service.stats()
        assert stats["store"]["entries"] == 1
        assert stats["query"]["rows_scored"] == 2 * small_power_graph.num_vertices
        assert stats["queries_served"] == 2
