"""End-to-end datastore tests: bulk load, exact round-trip, pruning, serving.

The acceptance bar of the subsystem lives here: a bulk-loaded dataset
round-trips exactly (geometries and index), and a warm range query decodes
only the pages it touches — asserted via cache statistics.
"""

import pytest

from repro.core import RangeQuery
from repro.core.join import join_cell
from repro.datasets import SyntheticConfig, generate_dataset, random_envelopes
from repro.core.reader import VectorIO
from repro.geometry import Envelope, Point, Polygon, predicates
from repro.index import GridCell, UniformGrid
from repro.pfs import LustreFilesystem
from repro.store import SpatialDataStore, StoreAppender, StoreFormatError, bulk_load


@pytest.fixture(scope="module")
def fs(tmp_path_factory):
    return LustreFilesystem(tmp_path_factory.mktemp("storefs"), ost_count=8)


@pytest.fixture(scope="module")
def lakes(fs):
    # explicit seed: the generator's default derives from hash(name), which
    # PYTHONHASHSEED randomises per process
    path = generate_dataset(fs, "lakes", scale=0.25, config=SyntheticConfig(seed=1234))
    return VectorIO(fs).sequential_read(path).geometries


@pytest.fixture(scope="module")
def lakes_store(fs, lakes):
    bulk_load(fs, "lakes", lakes, num_partitions=16, page_size=2048)
    return SpatialDataStore.open(fs, "lakes", cache_pages=1024)


def brute_force_range(geoms, env, exact=True):
    window = Polygon.from_envelope(env)
    out = []
    for rid, g in enumerate(geoms):
        if g.envelope.is_empty or not g.envelope.intersects(env):
            continue
        if exact and not predicates.intersects(window, g):
            continue
        out.append(rid)
    return out


class TestRoundTrip:
    def test_every_record_round_trips_exactly(self, lakes, lakes_store):
        scanned = list(lakes_store.scan())
        assert len(scanned) == len(lakes)
        for rid, geom in scanned:
            assert geom.wkt() == lakes[rid].wkt()
            assert geom.userdata == lakes[rid].userdata

    def test_index_round_trips(self, lakes, lakes_store):
        # the persisted index answers exactly like a freshly built one, and
        # names each record once however many cells store a replica of it
        assert len(lakes_store.index) == lakes_store.manifest.num_records
        for env in random_envelopes(10, extent=lakes_store.extent, max_size_fraction=0.3, seed=1):
            got = [h.record_id for h in lakes_store.range_query(env, exact=False)]
            assert got == brute_force_range(lakes, env, exact=False)

    def test_metadata_consistency(self, lakes, lakes_store):
        assert len(lakes_store) == len(lakes)
        assert lakes_store.num_pages == lakes_store.manifest.num_pages
        total_pages = sum(len(p.page_ids) for p in lakes_store.manifest.partitions)
        assert total_pages == lakes_store.num_pages


class TestRangeQuery:
    def test_matches_brute_force(self, lakes, lakes_store):
        for env in random_envelopes(25, extent=lakes_store.extent, max_size_fraction=0.15, seed=9):
            got = [h.record_id for h in lakes_store.range_query(env)]
            assert got == brute_force_range(lakes, env)

    def test_geometry_window(self, lakes, lakes_store):
        env = next(iter(random_envelopes(1, extent=lakes_store.extent, max_size_fraction=0.2, seed=4)))
        window = Polygon.from_envelope(env)
        via_env = [h.record_id for h in lakes_store.range_query(env)]
        via_geom = [h.record_id for h in lakes_store.range_query(window)]
        assert via_env == via_geom

    def test_empty_window(self, lakes_store):
        assert lakes_store.range_query(Envelope.empty()) == []

    def test_disjoint_window_touches_no_page(self, fs, lakes):
        bulk_load(fs, "lakes_disjoint", lakes, num_partitions=16, page_size=2048)
        store = SpatialDataStore.open(fs, "lakes_disjoint")
        far = Envelope(1e6, 1e6, 1e6 + 1, 1e6 + 1)
        assert store.range_query(far) == []
        assert store.stats.pages_read == 0
        assert store.stats.cache.accesses == 0

    def test_a_record_spanning_every_cell_is_reported_once(self, fs):
        # one geometry spanning the whole grid is stored in its home cell
        # and must be reported once
        big = Polygon([(0, 0), (100, 0), (100, 100), (0, 100), (0, 0)], userdata="big")
        points = [Point(x + 0.5, y + 0.5) for x in range(10) for y in range(10)]
        bulk_load(fs, "dedup", [big] + points, num_partitions=16, page_size=512)
        store = SpatialDataStore.open(fs, "dedup")
        m = store.manifest
        grid = UniformGrid(m.extent, m.grid_rows, m.grid_cols)
        assert len(grid.cells_for_envelope(big.envelope)) == 16  # it spans every cell
        hits = store.range_query(Envelope(0, 0, 100, 100))
        assert len(hits) == len(points) + 1
        assert [h.record_id for h in hits] == list(range(len(points) + 1))


class TestPageCacheBehaviour:
    def test_warm_query_decodes_only_touched_pages(self, fs, lakes):
        bulk_load(fs, "lakes_cache", lakes, num_partitions=16, page_size=2048)
        store = SpatialDataStore.open(fs, "lakes_cache", cache_pages=1024)
        # a window around an actual record guarantees at least one hit
        env = lakes[len(lakes) // 2].envelope.buffer(0.5)

        cold_hits = store.range_query(env)
        cold_misses = store.stats.cache.misses
        cold_io = store.stats.io_seconds
        assert cold_hits
        # only intersecting pages were fetched, never the whole container
        assert 0 < cold_misses < store.num_pages
        assert store.stats.pages_read == cold_misses

        warm_hits = store.range_query(env)
        assert [h.record_id for h in warm_hits] == [h.record_id for h in cold_hits]
        # the warm query is served entirely from the cache: no new miss,
        # no new page read, no new simulated I/O
        assert store.stats.cache.misses == cold_misses
        assert store.stats.pages_read == cold_misses
        assert store.stats.io_seconds == cold_io
        assert store.stats.cache.hits >= cold_misses

    def test_tiny_cache_evicts_and_still_answers(self, fs, lakes):
        bulk_load(fs, "lakes_tiny", lakes, num_partitions=16, page_size=2048)
        store = SpatialDataStore.open(fs, "lakes_tiny", cache_pages=2)
        for env in random_envelopes(5, extent=store.extent, max_size_fraction=0.2, seed=2):
            got = [h.record_id for h in store.range_query(env)]
            assert got == brute_force_range(lakes, env)
        assert store.stats.cache.evictions > 0


class TestJoinServing:
    def test_join_matches_join_cell(self, fs, lakes, lakes_store):
        probe_path = generate_dataset(fs, "cemetery", scale=0.5, config=SyntheticConfig(seed=99))
        probes = VectorIO(fs).sequential_read(probe_path).geometries

        pairs = lakes_store.join(probes)
        got = sorted((id(probe), hit.geometry.wkt()) for probe, hit in pairs)

        # sequential reference: one giant cell owning every reference point
        cell = GridCell(0, 0, 0, Envelope(-1e9, -1e9, 1e9, 1e9))
        expected = join_cell(cell, probes, lakes)
        want = sorted((id(p.left), p.right.wkt()) for p in expected)
        assert got == want


    def test_join_refines_the_mbr_filter_with_intersects(self, fs):
        # a probe whose MBR overlaps the triangle's but whose area misses it
        # is a filter hit the refine phase must drop
        bulk_load(fs, "tri", [Polygon([(0, 0), (10, 0), (0, 10)])], num_partitions=1)
        store = SpatialDataStore.open(fs, "tri")
        inside, beyond = Polygon.box(1, 1, 2, 2), Polygon.box(8, 8, 9, 9)
        assert beyond.envelope.intersects(store.extent)
        assert [(p, h.record_id) for p, h in store.join([beyond, inside])] == [(inside, 0)]


class TestQueryServing:
    def test_execute_from_store_matches_brute_force(self, lakes, lakes_store):
        queries = [
            (f"q{i}", env)
            for i, env in enumerate(
                random_envelopes(8, extent=lakes_store.extent, max_size_fraction=0.2, seed=13)
            )
        ]
        rq = RangeQuery(lakes_store.fs, queries)
        by_query = {}
        for (qid, _), hits in zip(rq.queries, lakes_store.range_query_batch(rq.queries)):
            by_query.setdefault(qid, []).extend(h.geometry.wkt() for h in hits)
        for qid, env in queries:
            want = [lakes[rid].wkt() for rid in brute_force_range(lakes, env)]
            assert by_query.get(qid, []) == want


class TestOpenValidation:
    def test_open_missing_store_raises(self, fs):
        with pytest.raises(FileNotFoundError, match="bulk_load"):
            SpatialDataStore.open(fs, "no_such_store")

    def test_corrupt_header_raises(self, fs, lakes):
        bulk_load(fs, "lakes_corrupt", lakes, num_partitions=4, page_size=2048)
        data_path = "stores/lakes_corrupt/data.bin"
        with fs.open(data_path, "r+") as fh:
            fh.pwrite(0, b"XXXXXXXX")
        with pytest.raises(StoreFormatError):
            SpatialDataStore.open(fs, "lakes_corrupt")

    def test_context_manager(self, fs, lakes):
        bulk_load(fs, "lakes_ctx", lakes, num_partitions=4, page_size=2048)
        with SpatialDataStore.open(fs, "lakes_ctx") as store:
            assert store.range_query(store.extent)
        assert store.generations[0].handle is None


def _containers(handles):
    """The page-container handles among *handles* (``data.bin`` and
    ``delta-*.bin``; not indexes or manifests)."""
    return [h for h in handles
            if h.path.endswith("/data.bin") or ("/delta-" in h.path and h.path.endswith(".bin"))]


class TestOpenKeepsHandles:
    """``open`` hands each container handle it read to its generation: the
    first fetch pays no second open, a failed open leaks no handle, and
    ``close()`` releases every one."""

    @pytest.fixture
    def opened(self, fs, monkeypatch):
        """Every handle ``fs.open`` hands out from here on."""
        handles = []
        real_open = fs.open

        def recording_open(path, mode="r"):
            handles.append(real_open(path, mode))
            return handles[-1]

        monkeypatch.setattr(fs, "open", recording_open)
        return handles

    @pytest.fixture(scope="class")
    def stacked(self, fs, lakes):
        """A store with two delta generations on its base container."""
        bulk_load(fs, "lakes_gens", lakes[:120], num_partitions=4, page_size=2048)
        appender = StoreAppender(fs, "lakes_gens")
        appender.append(lakes[120:160])
        appender.append(lakes[160:200])
        return "lakes_gens"

    def test_first_fetch_pays_no_second_open(self, fs, stacked):
        window = Envelope(-1e9, -1e9, 1e9, 1e9)
        seconds = []
        for reopen in (False, True):
            with SpatialDataStore.open(fs, stacked) as store:
                assert all(gen.handle is not None for gen in store.generations)
                if reopen:  # what the fetch path did before open kept handles
                    for gen in store.generations:
                        gen.handle.close()
                        gen.handle = None
                before = store.stats.io_seconds
                store.range_query(window)
                seconds.append(store.stats.io_seconds - before)
        assert seconds[1] - seconds[0] == pytest.approx(3 * fs.open_time(), abs=1e-12)

    def test_close_releases_every_handle(self, fs, stacked, opened):
        store = SpatialDataStore.open(fs, stacked)
        containers = _containers(opened)
        assert len(containers) == 3 and not any(h._closed for h in containers)
        store.close()
        assert all(h._closed for h in opened)
        assert all(gen.handle is None for gen in store.generations)

    def test_a_later_generation_that_fails_to_parse_leaks_no_handle(
        self, fs, lakes, opened
    ):
        bulk_load(fs, "lakes_bad_delta", lakes[:80], num_partitions=4, page_size=2048)
        StoreAppender(fs, "lakes_bad_delta").append(lakes[80:100])
        with fs.open("stores/lakes_bad_delta/delta-0001.bin", "r+") as fh:
            fh.pwrite(0, b"XXXXXXXX")
        opened.clear()
        with pytest.raises(StoreFormatError):
            SpatialDataStore.open(fs, "lakes_bad_delta")
        assert [h.path for h in _containers(opened)] == [
            "stores/lakes_bad_delta/data.bin",
            "stores/lakes_bad_delta/delta-0001.bin",
        ]
        assert all(h._closed for h in opened)

    def test_a_store_that_is_never_built_leaks_no_handle(self, fs, stacked, opened):
        with pytest.raises(ValueError, match="unknown io policy"):
            SpatialDataStore.open(fs, stacked, io_policy="no_such_policy")
        assert len(_containers(opened)) == 3
        assert all(h._closed for h in opened)


class TestBulkLoad:
    def test_empty_dataset(self, fs):
        result = bulk_load(fs, "empty", [])
        assert result.num_records == 0
        store = SpatialDataStore.open(fs, "empty")
        assert len(store) == 0
        assert store.range_query(Envelope(0, 0, 1, 1)) == []
        assert list(store.scan()) == []

    def test_single_geometry(self, fs):
        result = bulk_load(fs, "single", [Point(3, 4, userdata="only")])
        assert result.num_records == 1
        store = SpatialDataStore.open(fs, "single")
        hits = store.range_query(Envelope(0, 0, 10, 10))
        assert len(hits) == 1
        assert hits[0].geometry.userdata == "only"

    def test_skips_empty_geometries(self, fs):
        from repro.geometry import MultiPoint

        result = bulk_load(fs, "with_empty", [Point(1, 1), MultiPoint([])])
        assert result.num_records == 1
        assert result.skipped_empty == 1

    def test_page_size_respected(self, fs, lakes):
        result = bulk_load(fs, "lakes_pagesz", lakes, num_partitions=8, page_size=1024)
        store = SpatialDataStore.open(fs, "lakes_pagesz")
        oversized = [m for m in store.pages if m.nbytes > 1024 + 4 and m.count > 1]
        assert not oversized  # only single-record pages may exceed the target
        assert result.num_pages == store.num_pages

    def test_rejects_tiny_page_size(self, fs):
        with pytest.raises(ValueError):
            bulk_load(fs, "bad", [Point(0, 0)], page_size=8)

    def test_nan_mbr_rejected_where_records_enter_the_writer(self, fs):
        # was: "cannot convert float NaN to integer" from the Hilbert sort on
        # a bulk load, and a silently *written* NaN-extent delta on an append
        # (a one-record partition skips the sort)
        from repro.geometry import LineString
        from repro.store import StoreAppender

        nan = float("nan")
        with pytest.raises(ValueError, match=r"record 1 .*Envelope\(nan, 0\.5, nan, 0\.5\)"):
            bulk_load(fs, "nan", [Point(0.5, 0.5), Point(nan, 0.5)], num_partitions=1)
        # one NaN *vertex* is fine: Envelope.from_points skips it, the MBR is a box
        line = LineString([(0.0, 0.0), (nan, 1.0), (2.0, 2.0)])
        assert line.envelope == Envelope(0.0, 0.0, 2.0, 2.0)
        result = bulk_load(fs, "nan_vertex", [Point(0.5, 0.5), line], num_partitions=1)
        assert result.num_records == 2
        with pytest.raises(ValueError, match=r"record 2 .*is not a box"):
            StoreAppender(fs, "nan_vertex").append([Point(nan, 0.5)])
        store = SpatialDataStore.open(fs, "nan_vertex")
        assert len(store.range_query(Envelope(0, 0, 3, 3))) == 2  # nothing half-written

    def test_write_seconds_accounted(self, fs, lakes):
        result = bulk_load(fs, "lakes_ws", lakes)
        assert result.write_seconds > 0
