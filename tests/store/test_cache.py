"""SIEVE page cache behaviour and statistics, against two oracles: SIEVE
from the paper's pseudocode (``_sieve_reference.py``) and the retired LRU
cache (``_lru_cache_reference.py``)."""

import random

import pytest
from _lru_cache_reference import LRUPageCache  # the retired LRU cache, kept next to this file
from _sieve_reference import SieveReference  # SIEVE from the paper's pseudocode
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mpisim
from repro.datasets import random_envelopes
from repro.geometry import Envelope, Polygon
from repro.pfs import LustreFilesystem
from repro.store import DistributedStoreServer, PageCache, SpatialDataStore, bulk_load


class TestPageCache:
    def test_miss_then_hit(self):
        cache = PageCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_eviction_is_sieve(self):
        # insertion order, not recency: the hand stays where it stopped, so
        # after "b" goes it spares the visited "c" and takes the newest "d"
        # (LRU would take "a", the least recently used)
        cache = PageCache(3)
        for key in "abc":
            cache.put(key, key)
        cache.get("a")
        cache.put("d", "d")  # the hand clears "a", evicts "b", stops at "c"
        assert "b" not in cache
        cache.get("c")
        cache.put("e", "e")  # clears "c", evicts "d"
        assert "d" not in cache
        assert all(key in cache for key in "ace")
        assert cache.stats.evictions == 2

    def test_hand_wraps_to_the_oldest_entry(self):
        cache = PageCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.get("b")
        cache.put("c", 3)  # clears both bits, wraps, evicts "a"
        assert "a" not in cache
        assert "b" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_evicting_the_newest_entry_sends_the_hand_to_the_oldest(self):
        cache = PageCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.put("b", 2)
        cache.put("c", 3)  # clears "a", evicts "b", the newest: hand wraps
        cache.put("d", 4)  # so the hand starts at "a", not at the newer "c"
        assert "a" not in cache and "b" not in cache
        assert "c" in cache and "d" in cache

    def test_put_replaces_value_without_marking_visited(self):
        cache = PageCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # replaced in place, no eviction, bit still clear
        assert len(cache) == 2 and cache.stats.evictions == 0
        cache.put("c", 3)   # evicts "a", the oldest unvisited entry
        assert "a" not in cache
        assert cache.get("b") == 2
        cache.put("b", 20)
        assert cache.get("b") == 20
        assert cache.stats.evictions == 1

    def test_zero_capacity_disables_caching(self):
        cache = PageCache(0)
        for _ in range(2):
            assert cache.get("x") is None
            cache.put("x", 1)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PageCache(-1)

    def test_stats_as_dict(self):
        cache = PageCache(2)
        cache.get("nope")
        d = cache.stats.as_dict()
        assert d["misses"] == 1
        assert d["hit_rate"] == 0.0

    @pytest.mark.parametrize("capacity", [3, 8, 16])
    def test_scan_resistance(self, capacity):
        # a hot set hit once survives a scan of 3 x capacity cold keys
        # touched once; under LRU the scan pushes all of it out
        hot = [("hot", i) for i in range(capacity // 2)]
        caches = {"sieve": PageCache(capacity), "lru": LRUPageCache(capacity)}
        for cache in caches.values():
            for key in hot:
                cache.put(key, key)
                assert cache.get(key) == key
            for i in range(3 * capacity):
                assert cache.get(("cold", i)) is None
                cache.put(("cold", i), i)
        assert all(key in caches["sieve"] for key in hot)
        assert not any(key in caches["lru"] for key in hot)


# "read" is the store's access: a get, then a put on a miss
_OPS = st.lists(
    st.tuples(st.sampled_from(["get", "put", "read"]), st.integers(0, 11), st.integers(0, 99)),
    max_size=120,
)


class TestAgainstPseudocode:
    """:class:`PageCache` (two deques) against SIEVE written from the
    paper's pseudocode (a doubly linked queue and a hand pointer)."""

    @settings(max_examples=300, deadline=None)
    @given(capacity=st.integers(0, 6), ops=_OPS)
    def test_same_answers_residents_and_counters(self, capacity, ops):
        cache, ref = PageCache(capacity), SieveReference(capacity)
        for op, key, value in ops:
            if op != "put":
                got = cache.get(key)
                assert got == ref.get(key)
            if op == "put" or (op == "read" and got is None):
                assert cache.put(key, value) is ref.put(key, value) is None
            assert len(cache) == len(ref) <= capacity
            assert [k for k in range(12) if k in cache] == [k for k in range(12) if k in ref]
            assert cache.stats.as_dict() == ref.stats.as_dict()


def _hot_spot_stream(extent, count, hot_spots, seed):
    """Every other window around one of *hot_spots* seeded centres, the
    rest uniform — the shape of the skewed cold-serving benchmark."""
    rng = random.Random(seed)
    centres = [(rng.uniform(extent.minx, extent.maxx), rng.uniform(extent.miny, extent.maxy))
               for _ in range(hot_spots)]
    out = []
    for i in range(count):
        w, h = extent.width * 0.05 * (i % 5 + 1) / 5, extent.height * 0.05 * (i % 5 + 1) / 5
        if i % 2:
            cx, cy = centres[rng.randrange(hot_spots)]
            x, y = rng.gauss(cx, extent.width * 0.01) - w / 2, rng.gauss(cy, extent.height * 0.01) - h / 2
        else:
            x, y = rng.uniform(extent.minx, extent.maxx - w), rng.uniform(extent.miny, extent.maxy - h)
        out.append(Envelope(x, y, x + w, y + h))
    return out


class TestAgainstRetiredLRU:
    """The store answers a skewed stream the same with the retired LRU cache
    swapped in, and SIEVE reads no more pages doing it."""

    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        fs = LustreFilesystem(tmp_path_factory.mktemp("sievefs"))
        extent = Envelope(0.0, 0.0, 1000.0, 1000.0)
        geoms = [
            Polygon.from_envelope(env, userdata=i)
            for i, env in enumerate(random_envelopes(1500, extent=extent,
                                                     max_size_fraction=0.004, seed=31))
        ]
        bulk_load(fs, "hot", geoms, num_partitions=16, page_size=1024)
        windows = _hot_spot_stream(extent, 300, hot_spots=4, seed=32)
        out = {}
        for policy in ("sieve", "lru"):
            store = SpatialDataStore.open(fs, "hot", cache_pages=24)
            if policy == "lru":
                store._cache = LRUPageCache(24, stats=store.stats.cache)
            answers = [[h.record_id for h in store.range_query(w)] for w in windows]
            out[policy] = answers, store.stats.as_dict()
        return out

    def test_equal_hits_query_by_query(self, served):
        sieve, lru = served["sieve"][0], served["lru"][0]
        assert len(sieve) == 300 and any(sieve)
        for got, expected in zip(sieve, lru):
            assert got == expected

    def test_sieve_reads_no_more_pages(self, served):
        sieve, lru = served["sieve"][1], served["lru"][1]
        assert lru["cache_evictions"] > 0
        assert sieve["pages_read"] <= lru["pages_read"]
        assert sieve["cache_hit_rate"] >= lru["cache_hit_rate"]


class TestReadaheadGuard:
    def test_a_fetch_never_inserts_more_pages_than_the_cache_holds(self, tmp_path):
        # cost-model readahead fills only the slots left free after the
        # fetch's demand pages: one fetch puts at most max(free slots,
        # demand) pages into the cache, and returns its demand pages only
        fs = LustreFilesystem(tmp_path / "pfs")
        extent = Envelope(0.0, 0.0, 1000.0, 1000.0)
        geoms = [
            Polygon.from_envelope(env, userdata=i)
            for i, env in enumerate(random_envelopes(800, extent=extent,
                                                     max_size_fraction=0.004, seed=41))
        ]
        bulk_load(fs, "guard", geoms, num_partitions=16, page_size=1024)
        for capacity in (1, 3, 8):
            store = SpatialDataStore.open(fs, "guard", cache_pages=capacity,
                                          io_policy="cost_model")
            fetches = []
            fetch = store._fetch_missing

            def counted(missing, failed=None, fetch=fetch, store=store):
                cached, ahead = len(store._cache), store.stats.pages_prefetched
                out = fetch(missing, failed)
                fetches.append((cached, len(missing), len(out),
                                store.stats.pages_prefetched - ahead))
                return out

            store._fetch_missing = counted
            for window in _hot_spot_stream(extent, 60, hot_spots=3, seed=42):
                store.range_query(window)
            assert fetches
            for cached, demand, returned, ahead in fetches:
                assert returned == demand
                assert demand + ahead <= max(capacity - cached, demand)
            if capacity > 1:  # the free slots, not the stripe, stopped some readahead
                assert any(0 < ahead == capacity - cached - demand
                           for cached, demand, _, ahead in fetches)
            assert len(store._cache) <= capacity


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
