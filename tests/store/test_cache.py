"""LRU page cache behaviour and statistics."""

import pytest

from repro import mpisim
from repro.datasets import random_envelopes
from repro.geometry import Envelope, Polygon
from repro.pfs import LustreFilesystem
from repro.store import DistributedStoreServer, LRUPageCache, bulk_load


class TestLRUPageCache:
    def test_miss_then_hit(self):
        cache = LRUPageCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_eviction_is_lru(self):
        cache = LRUPageCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": now "b" is LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_put_refreshes_existing_key(self):
        cache = LRUPageCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, no eviction
        cache.put("c", 3)   # evicts "b", the true LRU
        assert cache.get("a") == 10
        assert "b" not in cache
        assert cache.stats.evictions == 1

    def test_zero_capacity_disables_caching(self):
        cache = LRUPageCache(0)
        for _ in range(2):
            assert cache.get("x") is None
            cache.put("x", 1)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUPageCache(-1)

    def test_clear_keeps_stats(self):
        cache = LRUPageCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_stats_as_dict(self):
        cache = LRUPageCache(2)
        cache.get("nope")
        d = cache.stats.as_dict()
        assert d["misses"] == 1
        assert d["hit_rate"] == 0.0


class TestShardedServingCacheStats:
    """Regression tests for `StoreStats` accounting under the sharded path:
    every rank's cache must enter the aggregate exactly once (snapshots, not
    deltas) and the hit rate must be recomputed from summed counters."""

    def _build(self, tmp_path, num_shards=4):
        fs = LustreFilesystem(tmp_path / "pfs")
        geoms = [
            Polygon.from_envelope(env, userdata=i)
            for i, env in enumerate(
                random_envelopes(80, extent=Envelope(0.0, 0.0, 100.0, 100.0),
                                 max_size_fraction=0.1, seed=23)
            )
        ]
        bulk_load(fs, "stats", geoms, num_shards=num_shards,
                  num_partitions=16, page_size=512)
        queries = [
            (qid, env)
            for qid, env in enumerate(
                random_envelopes(10, extent=Envelope(0.0, 0.0, 100.0, 100.0),
                                 max_size_fraction=0.3, seed=24)
            )
        ]
        return fs, queries

    def test_each_rank_counted_once_and_aggregate_idempotent(self, tmp_path):
        fs, queries = self._build(tmp_path)

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "stats", cache_pages=64) as server:
                batch = queries if comm.rank == 0 else None
                server.range_query_batch(batch)   # cold
                server.range_query_batch(batch)   # warm (cache hits)
                first = server.aggregate_stats()
                second = server.aggregate_stats()
                return first, second

        res = mpisim.run_spmd(prog, 2)
        first, second = res.values[0]
        agg = first["aggregate"]

        # calling aggregate twice must not double-count anything
        assert second["aggregate"] == agg

        # the aggregate is exactly the sum of the per-rank snapshots
        for key in ("pages_read", "cache_hits", "cache_misses", "records_decoded"):
            assert agg[key] == sum(snap.get(key, 0.0) for snap in first["per_rank"])
        assert len(first["per_rank"]) == 2

        # warm second batch produced hits; cold first batch produced misses
        assert agg["cache_hits"] > 0
        assert agg["cache_misses"] > 0
        # every miss faulted exactly one page in
        assert agg["pages_read"] == agg["cache_misses"]
        # hit rate is recomputed from summed counters, not averaged
        accesses = agg["cache_hits"] + agg["cache_misses"]
        assert agg["cache_hit_rate"] == pytest.approx(agg["cache_hits"] / accesses)

    def test_multiple_shards_per_rank_sum_without_overlap(self, tmp_path):
        # 4 shards on 2 ranks: each rank folds two distinct caches into its
        # snapshot; ranks' query counters must reflect only their own stores
        fs, queries = self._build(tmp_path, num_shards=4)

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "stats", cache_pages=64) as server:
                server.range_query_batch(queries if comm.rank == 0 else None)
                local = {}
                for store in server.stores.values():
                    for key, value in store.stats.as_dict().items():
                        local[key] = local.get(key, 0.0) + value
                return len(server.my_shards), local, server.aggregate_stats()

        res = mpisim.run_spmd(prog, 2)
        shard_counts = [v[0] for v in res.values]
        assert shard_counts == [2, 2]
        agg = res.values[0][2]["aggregate"]
        for key in ("pages_read", "cache_hits", "cache_misses"):
            assert agg[key] == sum(v[1].get(key, 0.0) for v in res.values)

    def test_read_requests_and_prefetch_counters_aggregate_once(self, tmp_path):
        # the PR 4 audit counters: coalesced read ranges and readahead pages
        # must aggregate exactly like the older counters — one snapshot per
        # rank, idempotent across calls, total == sum of per-rank snapshots
        fs, queries = self._build(tmp_path)

        def prog(comm):
            with DistributedStoreServer.open(
                comm, fs, "stats", cache_pages=64, io_policy="cost_model"
            ) as server:
                batch = queries if comm.rank == 0 else None
                server.range_query_batch(batch)
                first = server.aggregate_stats()
                second = server.aggregate_stats()
                local = {}
                for store in server.stores.values():
                    for key in ("read_requests", "pages_prefetched", "bytes_read"):
                        local[key] = local.get(key, 0.0) + store.stats.as_dict()[key]
                return first, second, local

        res = mpisim.run_spmd(prog, 2)
        first, second, _ = res.values[0]
        agg = first["aggregate"]
        assert second["aggregate"] == agg
        for key in ("read_requests", "pages_prefetched", "bytes_read"):
            assert agg[key] == sum(snap.get(key, 0.0) for snap in first["per_rank"])
            assert agg[key] == sum(v[2][key] for v in res.values)
        # the cost-model readahead ran, and coalescing means the filesystem
        # saw fewer ranges than pages
        assert agg["pages_prefetched"] > 0
        assert 0 < agg["read_requests"] <= agg["pages_read"]

    def test_prefetched_pages_never_double_count_as_demand(self, tmp_path):
        # a page read ahead of demand is not a demand read: pages_read must
        # keep equalling cache misses, with the readahead counted separately
        fs, queries = self._build(tmp_path)

        def prog(comm):
            with DistributedStoreServer.open(
                comm, fs, "stats", cache_pages=256, io_policy="cost_model"
            ) as server:
                server.range_query_batch(queries if comm.rank == 0 else None)
                return server.aggregate_stats()["aggregate"]

        agg = mpisim.run_spmd(prog, 2).values[0]
        assert agg["pages_read"] == agg["cache_misses"]
        assert agg["pages_prefetched"] >= 0

    def test_warm_serving_reads_no_new_pages(self, tmp_path):
        fs, queries = self._build(tmp_path)

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "stats", cache_pages=256) as server:
                batch = queries if comm.rank == 0 else None
                server.range_query_batch(batch)
                cold = server.aggregate_stats()["aggregate"]
                server.range_query_batch(batch)
                warm = server.aggregate_stats()["aggregate"]
                return cold, warm

        cold, warm = mpisim.run_spmd(prog, 4).values[0]
        # an identical warm batch is served entirely from the page caches
        assert warm["pages_read"] == cold["pages_read"]
        assert warm["cache_hits"] > cold["cache_hits"]
        assert warm["cache_misses"] == cold["cache_misses"]
