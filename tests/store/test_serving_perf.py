"""Serving-path behaviour of the vectorized filter-and-refine store:

* per-slot decode — ``records_decoded`` counts refine-phase work (surviving
  slots), not page-touch work, and memoised pages decode nothing on repeats;
* coalesced I/O — ``read_requests`` counts merged page runs, far below the
  page count;
* prefetch — the cost-model policy's readahead pages are counted
  separately and turn later demand into cache hits;
* scans admit their pages to the cache like any other fetch;
* page budget — a page's envelope column counts against its size target;
* the batched front-end — ``range_query_batch`` equals per-query
  ``range_query`` while touching each page at most once per batch.
"""

import pytest
from _page_gap_scheduler_reference import PageGapScheduler  # the retired scheduler, kept next to this file

from repro.datasets import SyntheticConfig, generate_dataset, random_envelopes
from repro.core.reader import VectorIO
from repro.geometry import Envelope, Point, predicates
from repro.pfs import LustreFilesystem
from repro.store import PageKey, SpatialDataStore, bulk_load


@pytest.fixture(scope="module")
def fs(tmp_path_factory):
    return LustreFilesystem(tmp_path_factory.mktemp("servingfs"), ost_count=8)


@pytest.fixture(scope="module")
def lakes(fs):
    path = generate_dataset(fs, "lakes", scale=0.25, config=SyntheticConfig(seed=4321))
    return VectorIO(fs).sequential_read(path).geometries


@pytest.fixture(scope="module")
def lakes_v2(fs, lakes):
    bulk_load(fs, "serving_v2", lakes, num_partitions=16, page_size=2048)
    return "serving_v2"


def windows(store, n=12, seed=31, frac=0.15):
    return list(random_envelopes(n, extent=store.extent, max_size_fraction=frac, seed=seed))


class GapScheduler(PageGapScheduler):
    """The retired page-gap scheduler in the store's seat: it takes the
    fetch's readahead budget and, built without a layout, reads nothing
    ahead."""

    def schedule(self, missing, is_cached=lambda pid: False, budget=0):
        return super().schedule(missing, is_cached)


def with_gap(store, gap):
    """*store* with its base scheduler replaced by one of coalescing *gap*
    (negative: one request per page) that reads nothing ahead."""
    store.generations[0].scheduler = GapScheduler(store.pages, gap=gap)
    return store


def decoded_slots(page):
    return sum(geom is not None for geom in page.memo)


class TestLazyDecode:
    def test_selective_query_decodes_only_candidate_slots(self, fs, lakes_v2):
        store = SpatialDataStore.open(fs, lakes_v2, cache_pages=1024)
        env = windows(store, n=1, frac=0.05)[0]
        hits = store.range_query(env, exact=False)
        touched_records = sum(
            store.pages[pid].count
            for pid in {h.page_id for h in hits}
        )
        # with exact=False every decoded slot is a hit: decode count equals
        # the result size, not the page populations the query touched
        assert store.stats.records_decoded == len(hits)
        if hits:
            assert store.stats.records_decoded <= touched_records

    def test_warm_repeat_decodes_nothing_new(self, fs, lakes_v2):
        store = SpatialDataStore.open(fs, lakes_v2, cache_pages=1024)
        env = windows(store, n=1, seed=7)[0]
        first = store.range_query(env)
        decoded_cold = store.stats.records_decoded
        second = store.range_query(env)
        assert [h.record_id for h in first] == [h.record_id for h in second]
        # pages stayed cached, so their slot memos were reused verbatim
        assert store.stats.records_decoded == decoded_cold

    def test_replica_slots_skipped_before_decode(self, fs):
        # a geometry spanning the whole grid is replicated everywhere; the
        # dedup-by-record-id must fire on the envelope column, before WKB
        from repro.geometry import Polygon

        big = Polygon([(0, 0), (100, 0), (100, 100), (0, 100), (0, 0)], userdata="big")
        points = [Point(x + 0.5, y + 0.5) for x in range(8) for y in range(8)]
        bulk_load(fs, "serving_dedup", [big] + points, num_partitions=16, page_size=512)
        store = SpatialDataStore.open(fs, "serving_dedup", cache_pages=1024)
        hits = store.range_query(Envelope(0, 0, 100, 100), exact=False)
        assert len(hits) == len(points) + 1
        # every decode produced a distinct logical record: replicas cost 0
        assert store.stats.records_decoded == len(hits)


class TestCachedPage:
    """Direct exercise of the lazily-decoded page image (the cache value)."""

    def _page(self, geoms, on_decode=None):
        from repro.store import CachedPage
        from repro.store.format import encode_page_v2, encode_record_body, page_crc32

        payload = encode_page_v2(
            [(rid, g.envelope, encode_record_body(g)) for rid, g in enumerate(geoms)]
        )
        return CachedPage(0, payload, page_crc32(payload), on_decode=on_decode)

    def _geoms(self):
        return [Point(float(x), float(x * 2), userdata=f"p{x}") for x in range(10)]

    def test_column_bounds_filter_without_decode(self):
        # the envelope column answers "which slots can match" as a pure
        # bounds scan — the filter the rect refine shortcut builds on
        geoms = self._geoms()
        page = self._page(geoms)
        window = Envelope(2.5, 5.0, 6.5, 13.0)
        want = [i for i, g in enumerate(geoms) if g.envelope.intersects(window)]
        got = [
            slot
            for slot in range(len(page))
            if page.envelope(slot).intersects(window)
        ]
        assert got == want
        # the v2 filter never decoded a body
        assert decoded_slots(page) == 0

    def test_record_memoises_and_counts_decodes(self):
        decoded = []
        page = self._page(self._geoms(), on_decode=decoded.append)
        rid, geom = page.record(3)
        assert (rid, geom.userdata) == (3, "p3")
        assert page.record(3)[1] is geom  # memo hit, no second decode
        assert sum(decoded) == 1
        assert decoded_slots(page) == 1

    def test_envelope_accessor(self):
        geoms = self._geoms()
        page = self._page(geoms)
        assert page.envelope(4).as_tuple() == geoms[4].envelope.as_tuple()

    def test_records_round_trip(self):
        geoms = self._geoms()
        page = self._page(geoms)
        records = [page.record(slot) for slot in range(len(page))]
        assert [(rid, g.userdata) for rid, g in records] == [
            (i, f"p{i}") for i in range(len(geoms))
        ]


class TestCoalescedIO:
    def test_full_extent_query_issues_few_read_requests(self, fs, lakes_v2):
        store = SpatialDataStore.open(fs, lakes_v2, cache_pages=1024)
        store.range_query(store.extent, exact=False)
        assert store.stats.pages_read > 1
        # pages are laid out back to back, so runs merge aggressively
        assert store.stats.read_requests < store.stats.pages_read
        assert store.stats.pages_read == store.stats.cache.misses

    def test_zero_gap_still_merges_adjacent_pages(self, fs, lakes_v2):
        store = with_gap(SpatialDataStore.open(fs, lakes_v2, cache_pages=1024), 0)
        store.range_query(store.extent, exact=False)
        assert store.stats.read_requests < store.stats.pages_read

    def test_results_identical_with_and_without_coalescing(self, fs, lakes, lakes_v2):
        merged = with_gap(SpatialDataStore.open(fs, lakes_v2, cache_pages=0), 1 << 30)
        single = with_gap(SpatialDataStore.open(fs, lakes_v2, cache_pages=0), -1)
        for env in windows(merged, n=8, seed=5):
            a = [h.record_id for h in merged.range_query(env)]
            b = [h.record_id for h in single.range_query(env)]
            assert a == b
        # a negative gap disables merging entirely: one request per page
        assert single.stats.read_requests == single.stats.pages_read
        assert merged.stats.read_requests <= single.stats.read_requests


class TestPrefetch:
    def test_prefetch_counts_and_serves_later_demand(self, fs, lakes_v2):
        plain = SpatialDataStore.open(fs, lakes_v2, cache_pages=1024, io_policy="fixed")
        eager = SpatialDataStore.open(fs, lakes_v2, cache_pages=1024,
                                      io_policy="cost_model")
        env = windows(plain, n=1, seed=11, frac=0.05)[0]

        a = [h.record_id for h in plain.range_query(env)]
        b = [h.record_id for h in eager.range_query(env)]
        assert a == b
        assert plain.stats.pages_prefetched == 0
        assert eager.stats.pages_prefetched > 0
        # demand accounting is unchanged by readahead
        assert eager.stats.pages_read == eager.stats.cache.misses

        # a full sweep now demands the prefetched pages: they are cache hits
        eager.range_query(eager.extent, exact=False)
        plain.range_query(plain.extent, exact=False)
        assert eager.stats.pages_read < plain.stats.pages_read
        assert (
            eager.stats.pages_read + eager.stats.pages_prefetched
            >= plain.stats.pages_read
        )


class TestPrefetchBoundaries:
    """PR 4 audit of the readahead at the container boundary: the extension
    must clamp at the last page (never reading into the page directory that
    follows the payloads) and the counters must stay consistent.  The
    cost-model policy is the one that reads ahead."""

    def test_demand_on_last_page_prefetches_nothing(self, fs, lakes_v2):
        store = SpatialDataStore.open(fs, lakes_v2, cache_pages=64,
                                      io_policy="cost_model")
        last = store.num_pages - 1
        store._get_pages([PageKey(0, last)])
        assert store.stats.pages_prefetched == 0
        assert store.stats.bytes_read == store.pages[last].nbytes

    def test_fetches_never_read_past_the_payload_region(self, fs, lakes_v2):
        # capture every ReadRequest the store emits and check each range
        # stays inside [HEADER_SIZE, dir_offset) — over-reads would cross
        # into the page directory
        from repro.store.format import HEADER_SIZE

        store = SpatialDataStore.open(fs, lakes_v2, cache_pages=64,
                                      io_policy="cost_model")
        data_end = max(meta.offset + meta.nbytes for meta in store.pages)
        captured = []
        real_read_time = store.fs.read_time

        def spy(path, requests):
            captured.extend(requests)
            return real_read_time(path, requests)

        store.fs.read_time = spy
        try:
            for env in windows(store, n=6, seed=47):
                store.range_query(env, exact=False)
            store.range_query(store.extent, exact=False)
        finally:
            store.fs.read_time = real_read_time
        assert captured
        for req in captured:
            for offset, nbytes in req.ranges:
                assert offset >= HEADER_SIZE
                assert offset + nbytes <= data_end

    def test_prefetch_counter_matches_scheduler_output(self, fs, lakes_v2):
        store = SpatialDataStore.open(fs, lakes_v2, cache_pages=1024,
                                      io_policy="cost_model")
        missing = [0]
        # the budget a fetch passes: the slots left free by its demand pages
        schedule = store.generations[0].scheduler.schedule(
            missing, is_cached=lambda p: False, budget=1024 - len(missing)
        )
        store._get_pages([PageKey(0, pid) for pid in missing])
        assert store.stats.pages_prefetched == schedule.num_prefetched
        assert store.stats.read_requests == len(schedule.runs)
        assert store.stats.bytes_read == schedule.total_bytes


class TestAdmissionPolicy:
    def test_default_policy_admits_scans(self, fs, lakes_v2):
        store = SpatialDataStore.open(fs, lakes_v2, cache_pages=1024)
        list(store.scan())
        assert len(store._cache) == store.num_pages

    def test_unknown_policy_rejected(self, fs, lakes_v2):
        # the keyword itself is gone: any value is an unknown serving keyword
        with pytest.raises(TypeError, match="admission"):
            SpatialDataStore.open(fs, lakes_v2, admission="sometimes")


class TestServingKnobRegressions:
    """PR 5 serving-knob bugfix sweep, end to end through the store."""

    def test_prefetch_default_keeps_policy_defaults(self, fs, lakes_v2):
        # no readahead under "fixed", stripe-derived readahead under the
        # default, "cost_model"
        fixed = SpatialDataStore.open(fs, lakes_v2, cache_pages=256, io_policy="fixed")
        fixed.range_query(fixed.extent, exact=False)
        for env in windows(fixed, n=6, seed=59):
            fixed.range_query(env, exact=False)
        assert fixed.stats.pages_prefetched == 0
        cost = SpatialDataStore.open(fs, lakes_v2, cache_pages=256)
        assert cost.io_policy == "cost_model"
        cost._get_pages([PageKey(0, 0)])
        assert cost.stats.pages_prefetched > 0  # stripe readahead engaged

    @pytest.mark.parametrize("policy", ["fixed", "cost_model"])
    def test_readahead_cannot_evict_own_demand_pages(self, fs, lakes_v2, policy):
        # the confirmed scheduler bug, observed at store level: with a tiny
        # cache, the fetch's readahead used to evict the fetch's own demand
        # pages, so an identical warm repeat re-read them; now the repeat is
        # free whenever the working set fits
        store = SpatialDataStore.open(fs, lakes_v2, cache_pages=4, io_policy=policy)
        env = windows(store, n=1, seed=67, frac=0.03)[0]
        first = [h.record_id for h in store.range_query(env)]
        cold_reads = store.stats.pages_read
        if cold_reads <= 4:  # the working set fits: the repeat must be free
            second = [h.record_id for h in store.range_query(env)]
            assert second == first
            assert store.stats.pages_read == cold_reads

    def test_scan_streams_in_bounded_page_runs(self, fs, lakes, lakes_v2):
        # the scan used to materialise every page image in one dict; it now
        # fetches at most one cache capacity's worth of pages per run
        store = SpatialDataStore.open(fs, lakes_v2, cache_pages=8)
        assert store.num_pages > 8  # the bound is actually exercised
        fetches = []
        original = store._fetch_missing

        def spy(missing, failed=None):
            fetches.append(len(missing))
            return original(missing, failed)

        store._fetch_missing = spy
        scanned = dict(store.scan())
        store._fetch_missing = original
        assert len(scanned) == len(lakes)
        assert fetches and max(fetches) <= 8


class TestPageBudget:
    def test_v2_pages_respect_budget_including_column(self, fs, lakes):
        result = bulk_load(fs, "serving_budget", lakes, num_partitions=8, page_size=1024)
        store = SpatialDataStore.open(fs, "serving_budget")
        oversized = [m for m in store.pages if m.nbytes > 1024 + 4 and m.count > 1]
        assert not oversized
        assert result.num_pages == store.num_pages


class TestBatchFrontend:
    def test_batch_equals_per_query(self, fs, lakes_v2):
        store = SpatialDataStore.open(fs, lakes_v2, cache_pages=1024)
        queries = [(f"q{i}", env) for i, env in enumerate(windows(store, n=15, seed=23))]
        batched = store.range_query_batch(queries)
        for (qid, env), hits in zip(queries, batched):
            assert [h.record_id for h in hits] == [
                h.record_id for h in store.range_query(env)
            ]

    def test_batch_dedupes_page_touches(self, fs, lakes_v2):
        # every query repeated twice: the second copy must not refetch pages
        base = windows(SpatialDataStore.open(fs, lakes_v2), n=6, seed=29)
        queries = [(i, env) for i, env in enumerate(base + base)]

        batch_store = SpatialDataStore.open(fs, lakes_v2, cache_pages=1024)
        batch_store.range_query_batch(queries, exact=False)

        loop_store = SpatialDataStore.open(fs, lakes_v2, cache_pages=0)
        per_probe_touches = 0
        for _, env in queries:
            loop_store.range_query(env, exact=False)
            per_probe_touches = loop_store.stats.cache.accesses

        assert batch_store.stats.pages_read <= loop_store.stats.pages_read
        assert batch_store.stats.read_requests < per_probe_touches

    def test_batch_handles_empty_and_disjoint_windows(self, fs, lakes_v2):
        store = SpatialDataStore.open(fs, lakes_v2, cache_pages=64)
        far = Envelope(1e7, 1e7, 1e7 + 1, 1e7 + 1)
        queries = [(0, Envelope.empty()), (1, far), (2, store.extent)]
        results = store.range_query_batch(queries, exact=False)
        assert results[0] == []
        assert results[1] == []
        assert [h.record_id for h in results[2]] == [
            h.record_id for h in store.range_query(store.extent, exact=False)
        ]

    def test_batch_with_tiny_cache_still_correct(self, fs, lakes_v2):
        store = SpatialDataStore.open(fs, lakes_v2, cache_pages=2)
        queries = [(i, env) for i, env in enumerate(windows(store, n=10, seed=41))]
        batched = store.range_query_batch(queries)
        reference = SpatialDataStore.open(fs, lakes_v2, cache_pages=2)
        for (qid, env), hits in zip(queries, batched):
            assert [h.record_id for h in hits] == [
                h.record_id for h in reference.range_query(env)
            ]

    def test_store_join_matches_per_probe_join(self, fs, lakes, lakes_v2):
        probe_path = generate_dataset(fs, "cemetery", scale=0.4,
                                      config=SyntheticConfig(seed=77))
        probes = VectorIO(fs).sequential_read(probe_path).geometries
        store = SpatialDataStore.open(fs, lakes_v2, cache_pages=1024)
        pairs = store.join(probes)
        # reference: the pre-batching per-probe formulation
        want = []
        ref = SpatialDataStore.open(fs, lakes_v2, cache_pages=1024)
        for probe in probes:
            for hit in ref.range_query(probe.envelope, exact=False):
                if predicates.intersects(probe, hit.geometry):
                    want.append((id(probe), hit.record_id))
        assert [(id(p), h.record_id) for p, h in pairs] == want
