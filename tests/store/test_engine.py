"""The staged plan → schedule → refine engine (`repro.store.engine`).

Every serving entry point routes through the store's one stage loop,
`SpatialDataStore.query_outcome`, over the stage objects the store holds
(`store.planner`, `store.executor`).  The tests here prove (a) the planner's
filter phase is exactly the index's pruning, (b) every entry point into the
loop — `range_query`, `range_query_batch` and each mode of `query_outcome` —
answers alike, like brute force on the raw geometries, and counts its batch
once, on a store with deltas, updates and tombstones too, (c) the sharded
server answers like the single store at several rank counts, and (d) the
cost-model I/O policy changes only the I/O schedule, never the answers.
"""

import pytest

from repro import mpisim
from repro.core.reader import VectorIO
from repro.datasets import SyntheticConfig, generate_dataset, random_envelopes
from repro.geometry import Envelope, Polygon, predicates
from repro.index import sort_by_hilbert
from repro.obs import Tracer
from repro.pfs import LustreFilesystem
from repro.store import (
    DistributedStoreServer,
    SpatialDataStore,
    StoreAppender,
    bulk_load,
)


@pytest.fixture(scope="module")
def fs(tmp_path_factory):
    return LustreFilesystem(tmp_path_factory.mktemp("enginefs"), ost_count=8)


@pytest.fixture(scope="module")
def lakes(fs):
    path = generate_dataset(fs, "lakes", scale=0.25, config=SyntheticConfig(seed=2024))
    return VectorIO(fs).sequential_read(path).geometries


@pytest.fixture(scope="module")
def store_name(fs, lakes):
    bulk_load(fs, "engine_lakes", lakes, num_partitions=16, page_size=2048)
    return "engine_lakes"


@pytest.fixture(scope="module")
def sharded_name(fs, lakes):
    bulk_load(fs, "engine_lakes_sharded", lakes, num_shards=4,
              num_partitions=16)
    return "engine_lakes_sharded"


def brute_force(geometries, window):
    """Reference answer: exact-intersection record ids against raw data."""
    if isinstance(window, Envelope):
        if window.is_empty:
            return []
        window = Polygon.from_envelope(window)
    return sorted(
        rid for rid, g in enumerate(geometries)
        if g.envelope.intersects(window.envelope)
        and predicates.intersects(window, g)
    )


def windows(extent, n=12, seed=5, frac=0.15):
    return list(random_envelopes(n, extent=extent, max_size_fraction=frac, seed=seed))


#: the four batch modes of the store's one stage loop: ``query_outcome``
#: strict, with ``partial_ok``, with a budget, and ``range_query_batch``
#: under a recording tracer
MODES = ("strict", "partial_ok", "budget", "traced")

#: StoreStats counters whose movement must not depend on the mode
STAT_KEYS = ("queries", "pages_read", "read_requests", "records_decoded", "slots_scanned",
             "bulk_filter_batches", "io_seconds")


def serve_in_mode(fs, name, mode, batches, io_policy="cost_model"):
    """Serve *batches* on a fresh open through the stage loop in *mode* (one
    of :data:`MODES`, or ``"range_query"``: one call per window); returns the
    per-query hit lists and the StoreStats movement."""
    store = SpatialDataStore.open(
        fs, name, cache_pages=1024, io_policy=io_policy,
        tracer=Tracer() if mode == "traced" else None,
    )
    before = store.stats.as_dict()
    hits = []
    for queries in batches:
        if mode == "range_query":
            hits += [store.range_query(window) for _, window in queries]
        elif mode == "partial_ok":
            hits += store.query_outcome(queries, partial_ok=True).hits
        elif mode == "budget":
            hits += store.query_outcome(queries, budget=float("inf")).hits
        elif mode == "traced":
            hits += store.range_query_batch(queries)
        else:
            hits += store.query_outcome(queries).hits
    after = store.stats.as_dict()
    store.close()
    return hits, {key: after[key] - before[key] for key in STAT_KEYS}


def ids_of(hit_lists):
    return [[h.record_id for h in hits] for hits in hit_lists]


class TestPlanner:
    def test_plan_skips_empty_and_unpruned_windows(self, fs, store_name):
        store = SpatialDataStore.open(fs, store_name)
        far = Envelope(1e8, 1e8, 1e8 + 1, 1e8 + 1)
        plan = store.planner.plan(
            [(0, Envelope.empty()), (1, far), (2, store.extent)]
        )
        assert [e.position for e in plan.entries] == [2]
        assert plan.touched_pages  # the full-extent window touches pages

    def test_touched_pages_deduped_and_sorted(self, fs, store_name):
        store = SpatialDataStore.open(fs, store_name)
        envs = windows(store.extent, n=8, seed=9)
        plan = store.planner.plan([(i, e) for i, e in enumerate(envs)])
        assert plan.touched_pages == sorted(set(plan.touched_pages))
        per_entry = {pid for entry in plan.entries for pid in entry.by_page}
        assert per_entry == set(plan.touched_pages)

    def test_visit_order_pins_the_shared_hilbert_rule(self, fs, store_name):
        # regression pin of the pre-engine batch ordering: the plan's visit
        # order must be exactly sort_by_hilbert over the window centres
        store = SpatialDataStore.open(fs, store_name)
        envs = windows(store.extent, n=10, seed=13)
        plan = store.planner.plan([(i, e) for i, e in enumerate(envs)])
        centres = [entry.env.centre for entry in plan.entries]
        assert plan.visit_order == sort_by_hilbert(centres, store.manifest.extent)

    def test_geometry_window_keeps_exact_geometry(self, fs, lakes, store_name):
        store = SpatialDataStore.open(fs, store_name)
        probe = lakes[0]
        plan = store.planner.plan([(0, probe)])
        assert plan.entries[0].geom is probe
        assert plan.entries[0].env.as_tuple() == probe.envelope.as_tuple()

    def test_candidate_slots_matches_index_query(self, fs, store_name):
        # candidates are keyed (generation, page); a store with no appended
        # generation plans everything in the base generation 0
        store = SpatialDataStore.open(fs, store_name)
        env = windows(store.extent, n=1, seed=3)[0]
        by_page = store.planner.candidate_slots(env)
        refs = {(0, page_id, slot) for page_id, slot in store.index.query(env)}
        assert {
            (gen, pid, slot)
            for (gen, pid), slots in by_page.items()
            for slot in slots
        } == refs


class TestEngineEqualsBruteForce:
    def test_range_query_matches_brute_force(self, fs, lakes, store_name):
        store = SpatialDataStore.open(fs, store_name, cache_pages=1024)
        for env in windows(store.extent, n=15, seed=21):
            got = [h.record_id for h in store.range_query(env)]
            assert got == brute_force(lakes, env)

    def test_geometry_window_matches_brute_force(self, fs, lakes, store_name):
        store = SpatialDataStore.open(fs, store_name, cache_pages=1024)
        for probe in lakes[:20]:
            got = [h.record_id for h in store.range_query(probe)]
            assert got == brute_force(lakes, probe)

    def test_batch_equals_per_query_through_engine(self, fs, store_name):
        store = SpatialDataStore.open(fs, store_name, cache_pages=1024)
        queries = [(i, env) for i, env in enumerate(windows(store.extent, n=12, seed=33))]
        batched = store.range_query_batch(queries)
        for (qid, env), hits in zip(queries, batched):
            assert [h.record_id for h in hits] == [
                h.record_id for h in store.range_query(env)
            ]

    @pytest.mark.parametrize("mode", MODES)
    def test_every_mode_matches_brute_force_and_strict_stats(
        self, fs, lakes, store_name, mode
    ):
        # one query per call, rectangles and geometry windows: every mode of
        # the one stage loop answers like brute force and moves the stats
        # exactly like the strict mode (io_seconds to the last bit)
        extent = SpatialDataStore.open(fs, store_name).extent
        wins = windows(extent, n=15, seed=21) + lakes[:20]
        batches = [[(None, w)] for w in wins]
        strict_hits, strict_stats = serve_in_mode(fs, store_name, "strict", batches)
        hits, stats = serve_in_mode(fs, store_name, mode, batches)
        assert ids_of(hits) == [brute_force(lakes, w) for w in wins]
        assert ids_of(hits) == ids_of(strict_hits)
        assert stats == strict_stats

    @pytest.mark.parametrize("mode", MODES)
    def test_every_mode_serves_a_batch_like_strict(self, fs, store_name, mode):
        extent = SpatialDataStore.open(fs, store_name).extent
        batch = [(i, env) for i, env in enumerate(windows(extent, n=12, seed=33))]
        # entry-by-entry fetches read ahead differently from one bulk fetch:
        # the budget mode is compared on the same pages without readahead
        policy = "fixed" if mode == "budget" else "cost_model"
        strict_hits, strict_stats = serve_in_mode(fs, store_name, "strict", [batch], policy)
        hits, stats = serve_in_mode(fs, store_name, mode, [batch], policy)
        assert ids_of(hits) == ids_of(strict_hits)
        if mode == "budget":
            # a budget is checked between entries, so I/O is issued entry by
            # entry instead of as one bulk fetch: same pages, other requests
            for key in ("read_requests", "io_seconds"):
                del stats[key], strict_stats[key]
        assert stats == strict_stats

    def test_every_entry_point_answers_alike_on_a_mutated_store(self, fs, lakes):
        # deltas, updates and tombstones: range_query and every batch entry
        # point into the stage loop return identical hits — generation,
        # page and partition included — equal to brute force over the
        # visible records, and each call, on a freshly opened store, counts
        # its batch exactly once
        bulk_load(fs, "engine_mutated", lakes, num_partitions=16, page_size=2048)
        appender = StoreAppender(fs, "engine_mutated")
        appender.append(lakes[:40], deletes=[5, 11, 60])
        appender.append(lakes[100:110], record_ids=list(range(200, 210)), deletes=[61, 300])
        visible = dict(enumerate(lakes))
        visible.update((len(lakes) + i, g) for i, g in enumerate(lakes[:40]))
        visible.update((200 + i, g) for i, g in enumerate(lakes[100:110]))
        for rid in (5, 11, 60, 61, 300):
            del visible[rid]

        def call(mode, batch):
            hits, stats = serve_in_mode(fs, "engine_mutated", mode, [batch])
            assert stats["queries"] == len(batch)
            return hits

        # random windows, the updated records' new geometries, and the old
        # places of a deleted and an updated record (tombstones hide both)
        wins = windows(Envelope(0, 0, 100, 100), n=12, seed=41) + lakes[100:104]
        wins += [lakes[5].envelope, lakes[201].envelope]
        batch = list(enumerate(wins))
        expected = [call("range_query", [query])[0] for query in batch]
        ids, geoms = zip(*sorted(visible.items()))
        assert [[h.record_id for h in hits] for hits in expected] == [
            [ids[i] for i in brute_force(geoms, w)] for w in wins
        ]
        assert any(h.generation for hits in expected for h in hits)
        for mode in MODES:
            assert call(mode, batch) == expected, mode


class TestSingleEqualsShardedEqualsBruteForce:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_three_way_equality(self, fs, lakes, store_name, sharded_name, nprocs):
        envs = windows(Envelope(0, 0, 100, 100), n=10, seed=77)
        queries = [(i, env) for i, env in enumerate(envs)]

        single = SpatialDataStore.open(fs, store_name, cache_pages=1024)
        single_ids = [
            sorted(h.record_id for h in hits)
            for hits in single.range_query_batch(queries)
        ]

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, sharded_name) as server:
                return server.range_query_batch(queries if comm.rank == 0 else None)

        hits = mpisim.run_spmd(prog, nprocs).values[0]
        sharded_ids = [[] for _ in queries]
        for h in hits:
            sharded_ids[h.query_id].append(h.record_id)
        sharded_ids = [sorted(ids) for ids in sharded_ids]

        brute = [brute_force(lakes, env) for env in envs]
        assert single_ids == brute
        assert sharded_ids == brute


class TestCostModelPolicyEndToEnd:
    def test_results_identical_across_io_policies(self, fs, lakes, store_name):
        fixed = SpatialDataStore.open(fs, store_name, cache_pages=1024, io_policy="fixed")
        cost = SpatialDataStore.open(fs, store_name, cache_pages=1024,
                                     io_policy="cost_model")
        assert cost.generations[0].scheduler.cost_model is fs.cost_model
        for env in windows(fixed.extent, n=10, seed=55):
            assert [h.record_id for h in cost.range_query(env)] == [
                h.record_id for h in fixed.range_query(env)
            ]

    def test_cost_model_issues_no_more_requests(self, fs, store_name):
        # both policies sieve by the same cost-model rule; only "cost_model"
        # reads ahead, and its readahead never adds a request
        queries = None
        fixed = SpatialDataStore.open(fs, store_name, cache_pages=1024, io_policy="fixed")
        queries = [(i, e) for i, e in enumerate(windows(fixed.extent, n=12, seed=61))]
        fixed.range_query_batch(queries, exact=False)
        cost = SpatialDataStore.open(fs, store_name, cache_pages=1024,
                                     io_policy="cost_model")
        cost.range_query_batch(queries, exact=False)
        assert cost.generations[0].scheduler.gap == fixed.generations[0].scheduler.gap
        assert fixed.stats.pages_prefetched == 0 < cost.stats.pages_prefetched
        assert cost.stats.read_requests <= fixed.stats.read_requests

    def test_unknown_policy_rejected(self, fs, store_name):
        with pytest.raises(ValueError, match="io policy"):
            SpatialDataStore.open(fs, store_name, io_policy="psychic")

    def test_small_cache_keeps_its_own_demand_pages(self, fs, store_name):
        # regression: cost-model readahead once overflowed a small cache and
        # evicted the demand pages of the very fetch that brought them in —
        # an identical warm repeat must now be served without new reads
        store = SpatialDataStore.open(fs, store_name, cache_pages=4,
                                      io_policy="cost_model")
        env = windows(store.extent, n=1, seed=91, frac=0.03)[0]
        first = [h.record_id for h in store.range_query(env)]
        cold_reads = store.stats.pages_read
        if cold_reads <= 4:  # the working set fits: the repeat must be free
            second = [h.record_id for h in store.range_query(env)]
            assert second == first
            assert store.stats.pages_read == cold_reads

    def test_cost_model_prefetch_stays_within_container(self, fs, store_name):
        store = SpatialDataStore.open(fs, store_name, cache_pages=1024,
                                      io_policy="cost_model")
        store.range_query(store.extent, exact=False)
        data_bytes = sum(meta.nbytes for meta in store.pages)
        # coalescing may bridge gaps but pages are contiguous here, and
        # readahead must never read past the last page into the directory
        assert store.stats.bytes_read <= data_bytes
