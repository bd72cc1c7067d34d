"""The staged plan → schedule → refine engine (`repro.store.engine`).

Acceptance battery for the engine refactor: every serving entry point now
routes through one `StoreEngine`, so the tests here prove (a) the planner's
filter phase is exactly the pre-engine pruning, (b) engine-routed results
match brute force on the raw geometries, for the single store *and* the
sharded server at several rank counts, and (c) the cost-model I/O policy
changes only the I/O schedule, never the answers.
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


#: the four ways into the engine's one stage loop
MODES = ("strict", "partial_ok", "budget", "traced")

#: StoreStats counters whose movement must not depend on the mode
STAT_KEYS = ("pages_read", "read_requests", "records_decoded", "slots_scanned",
             "bulk_filter_batches", "io_seconds")


def serve_in_mode(fs, name, mode, batches):
    """Serve *batches* on a fresh open through the stage loop in *mode*;
    returns the per-query hit lists and the StoreStats movement."""
    store = SpatialDataStore.open(
        fs, name, cache_pages=1024, tracer=Tracer() if mode == "traced" else None
    )
    before = store.stats.as_dict()
    hits = []
    for queries in batches:
        if mode == "partial_ok":
            hits += store.engine.execute_outcome(queries, partial_ok=True).hits
        elif mode == "budget":
            hits += store.engine.execute_outcome(queries, budget=float("inf")).hits
        else:
            hits += store.engine.execute(queries)
    after = store.stats.as_dict()
    store.close()
    return hits, {key: after[key] - before[key] for key in STAT_KEYS}


def ids_of(hit_lists):
    return [[h.record_id for h in hits] for hits in hit_lists]


class TestPlanner:
    def test_plan_skips_empty_and_unpruned_windows(self, fs, store_name):
        store = SpatialDataStore.open(fs, store_name)
        far = Envelope(1e8, 1e8, 1e8 + 1, 1e8 + 1)
        plan = store.engine.planner.plan(
            [(0, Envelope.empty()), (1, far), (2, store.extent)]
        )
        assert [e.position for e in plan.entries] == [2]
        assert plan.touched_pages  # the full-extent window touches pages

    def test_touched_pages_deduped_and_sorted(self, fs, store_name):
        store = SpatialDataStore.open(fs, store_name)
        envs = windows(store.extent, n=8, seed=9)
        plan = store.engine.planner.plan([(i, e) for i, e in enumerate(envs)])
        assert plan.touched_pages == sorted(set(plan.touched_pages))
        per_entry = {pid for entry in plan.entries for pid in entry.by_page}
        assert per_entry == set(plan.touched_pages)

    def test_visit_order_pins_the_shared_hilbert_rule(self, fs, store_name):
        # regression pin of the pre-engine batch ordering: the plan's visit
        # order must be exactly sort_by_hilbert over the window centres
        store = SpatialDataStore.open(fs, store_name)
        envs = windows(store.extent, n=10, seed=13)
        plan = store.engine.planner.plan([(i, e) for i, e in enumerate(envs)])
        centres = [entry.env.centre for entry in plan.entries]
        assert plan.visit_order == sort_by_hilbert(centres, store.manifest.extent)

    def test_geometry_window_keeps_exact_geometry(self, fs, lakes, store_name):
        store = SpatialDataStore.open(fs, store_name)
        probe = lakes[0]
        plan = store.engine.planner.plan([(0, probe)])
        assert plan.entries[0].geom is probe
        assert plan.entries[0].env.as_tuple() == probe.envelope.as_tuple()

    def test_candidate_slots_matches_index_query(self, fs, store_name):
        # candidates are keyed (generation, page); a store with no appended
        # generation plans everything in the base generation 0
        store = SpatialDataStore.open(fs, store_name)
        env = windows(store.extent, n=1, seed=3)[0]
        by_page = store.engine.planner.candidate_slots(env)
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
        strict_hits, strict_stats = serve_in_mode(fs, store_name, "strict", [batch])
        hits, stats = serve_in_mode(fs, store_name, mode, [batch])
        assert ids_of(hits) == ids_of(strict_hits)
        if mode == "budget":
            # a budget is checked between entries, so I/O is issued entry by
            # entry instead of as one bulk fetch: same pages, other requests
            for key in ("read_requests", "io_seconds"):
                del stats[key], strict_stats[key]
        assert stats == strict_stats

    def test_engine_execute_is_the_entry_point(self, fs, store_name):
        store = SpatialDataStore.open(fs, store_name, cache_pages=1024)
        env = windows(store.extent, n=1, seed=2)[0]
        direct = store.engine.execute([(None, env)], exact=True)[0]
        assert [h.record_id for h in direct] == [
            h.record_id for h in store.range_query(env)
        ]


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
                return server.range_query_batch(
                    queries if comm.rank == 0 else None, exact=True
                )

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
        fixed = SpatialDataStore.open(fs, store_name, cache_pages=1024)
        cost = SpatialDataStore.open(fs, store_name, cache_pages=1024,
                                     io_policy="cost_model")
        assert cost.scheduler.is_cost_aware
        for env in windows(fixed.extent, n=10, seed=55):
            assert [h.record_id for h in cost.range_query(env)] == [
                h.record_id for h in fixed.range_query(env)
            ]

    def test_cost_model_issues_no_more_requests(self, fs, store_name):
        # the derived break-even gap is far wider than the one-page default,
        # so the cost-aware schedule merges at least as aggressively
        queries = None
        fixed = SpatialDataStore.open(fs, store_name, cache_pages=1024)
        queries = [(i, e) for i, e in enumerate(windows(fixed.extent, n=12, seed=61))]
        fixed.range_query_batch(queries, exact=False)
        cost = SpatialDataStore.open(fs, store_name, cache_pages=1024,
                                     io_policy="cost_model")
        cost.range_query_batch(queries, exact=False)
        assert cost.scheduler.gap > fixed.scheduler.gap
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
