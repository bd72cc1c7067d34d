"""Mutable stores: incremental appends, tombstones and compaction.

The acceptance battery of the append/compaction subsystem:

* **equality** — append-then-query == re-bulk-load of the same records ==
  brute force, on single stores and sharded serving at 1/2/4 ranks;
* **bit-identical compaction** — record ids, WKB bytes and userdata of every
  query hit are unchanged by ``compact()``;
* **tombstones** — deleted records never surface from queries, scans or
  compacted stores; updates shadow older versions even when the new version
  moved out of the query window; deleted ids are never recycled;
* **one on-disk format** — ``open`` refuses a container in the retired v1
  page layout and names the file; a store without ``shards.json``, without
  an id ceiling or with a grid cell no shard owns is refused by every
  reader, and the appender and the compactor write nothing to it;
* **one writer for every shard count** — the sharded tests drive the same
  ``StoreAppender`` and ``compact_store`` as the one-shard tests;
* **delta reads retry like base reads** — a transient fault on a delta
  container's header during ``open`` is absorbed and charged like one on
  the base container.
"""

import json
import random
import struct

import pytest
from _container_bytes import TailFaults

from repro import mpisim
from repro.datasets import random_envelopes
from repro.faults import FaultRule, FaultyFilesystem
from repro.geometry import (
    Envelope,
    LineString,
    MultiPoint,
    Point,
    Polygon,
    predicates,
    wkb,
)
from repro.index import UniformGrid
from repro.pfs import LustreFilesystem
from repro.store import (
    DEFAULT_RETRY,
    NO_RETRY,
    DistributedStoreServer,
    SpatialDataStore,
    StoreAppender,
    StoreError,
    StoreFormatError,
    bulk_load,
    compact_store,
    delta_paths,
    shards_path,
    store_paths,
)
from repro.store.format import unpack_header

EXTENT = Envelope(0.0, 0.0, 100.0, 100.0)


def make_fs(tmp_path):
    return LustreFilesystem(tmp_path / "pfs")


def random_geometries(count, seed, extent=EXTENT, max_size_fraction=0.08):
    """A mixed bag of polygons, linestrings and points with integer userdata."""
    rng = random.Random(seed)
    out = []
    for i, env in enumerate(
        random_envelopes(count, extent=extent, max_size_fraction=max_size_fraction,
                         seed=seed)
    ):
        kind = rng.random()
        if kind < 0.6:
            out.append(Polygon.from_envelope(env, userdata=i))
        elif kind < 0.85:
            out.append(LineString([(env.minx, env.miny), (env.maxx, env.maxy)],
                                  userdata=i))
        else:
            out.append(Point(env.minx, env.miny, userdata=i))
    return out


def brute_force_ids(visible, window):
    """Ground truth over ``{record_id: geometry}`` (deletes removed)."""
    wpoly = Polygon.from_envelope(window)
    return sorted(
        rid for rid, g in visible.items() if predicates.intersects(wpoly, g)
    )


def query_ids(store, window):
    return [h.record_id for h in store.range_query(window)]


def hit_fingerprints(store, windows):
    """Per-window ``(record_id, wkb bytes, userdata)`` triples — the
    bit-identity key the compaction tests compare."""
    out = []
    for env in windows:
        out.append(
            [
                (h.record_id, wkb.dumps(h.geometry), h.geometry.userdata)
                for h in store.range_query(env)
            ]
        )
    return out


def windows(n=12, seed=5, frac=0.2):
    return list(random_envelopes(n, extent=EXTENT, max_size_fraction=frac, seed=seed))


def store_files(fs, name):
    root = fs.backing_path(f"stores/{name}")
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def strip_ceiling(fs, name):
    """Rewrite *name*'s manifest as a pre-mutable one: no id ceiling, v1."""
    path = store_paths(name)["manifest"]
    doc = json.loads(fs.backing_path(path).read_text())
    del doc["next_record_id"]
    doc["version"] = 1
    fs.create_file(path, json.dumps(doc).encode())


def mark_container_v1(fs, path):
    """Give the container at *path* the header of the retired v1 page
    layout (version 1, no checksum table flag)."""
    blob = bytearray(fs.backing_path(path).read_bytes())
    struct.pack_into("<HH", blob, 8, 1, 0)  # version and flags follow the magic
    fs.create_file(path, bytes(blob))


@pytest.fixture
def fs(tmp_path):
    return make_fs(tmp_path)


# --------------------------------------------------------------------------- #
# single-store appends
# --------------------------------------------------------------------------- #
class TestAppendEquality:
    def test_append_then_query_equals_rebulk_and_brute(self, fs):
        geoms = random_geometries(100, seed=11)
        base, first, second = geoms[:60], geoms[60:80], geoms[80:]

        bulk_load(fs, "mut", base, num_partitions=16, page_size=1024)
        appender = StoreAppender(fs, "mut")
        assert appender.append(first).gen_id == 1
        assert appender.append(second).gen_id == 2

        bulk_load(fs, "mut_rebulk", geoms, num_partitions=16, page_size=1024)

        appended = SpatialDataStore.open(fs, "mut", cache_pages=256)
        rebulk = SpatialDataStore.open(fs, "mut_rebulk", cache_pages=256)
        visible = dict(enumerate(geoms))
        assert appended.num_generations == 2
        assert len(appended) == len(geoms)
        for env in windows(seed=13):
            want = brute_force_ids(visible, env)
            assert query_ids(appended, env) == want
            assert query_ids(rebulk, env) == want

    def test_scan_round_trips_across_generations(self, fs):
        geoms = random_geometries(50, seed=17)
        bulk_load(fs, "mut_scan", geoms[:30], num_partitions=8, page_size=1024)
        StoreAppender(fs, "mut_scan").append(geoms[30:])
        store = SpatialDataStore.open(fs, "mut_scan", cache_pages=64)
        scanned = dict(store.scan())
        assert sorted(scanned) == list(range(len(geoms)))
        for rid, geom in scanned.items():
            assert wkb.dumps(geom) == wkb.dumps(geoms[rid])
            assert geom.userdata == geoms[rid].userdata

    def test_append_outside_original_extent_is_found(self, fs):
        bulk_load(fs, "mut_out", random_geometries(30, seed=19),
                  num_partitions=8, page_size=1024)
        far = Point(250.0, 250.0, userdata="far")
        res = StoreAppender(fs, "mut_out").append([far])
        assert res.num_records == 1
        store = SpatialDataStore.open(fs, "mut_out")
        hits = store.range_query(Envelope(240.0, 240.0, 260.0, 260.0))
        assert [h.record_id for h in hits] == [30]
        assert hits[0].generation == 1
        assert 30 in dict(store.scan())

    def test_append_to_empty_store(self, fs):
        bulk_load(fs, "mut_empty", [], num_partitions=8)
        geoms = random_geometries(20, seed=23)
        StoreAppender(fs, "mut_empty").append(geoms)
        store = SpatialDataStore.open(fs, "mut_empty")
        assert len(store) == len(geoms)
        visible = dict(enumerate(geoms))
        for env in windows(n=6, seed=29):
            assert query_ids(store, env) == brute_force_ids(visible, env)

    def test_empty_geometries_consume_ids_like_bulk_load(self, fs):
        from repro.geometry import MultiPoint

        bulk_load(fs, "mut_holes", [Point(1.0, 1.0)], num_partitions=4)
        res = StoreAppender(fs, "mut_holes").append([MultiPoint([]), Point(2.0, 2.0)])
        assert res.num_records == 1  # the empty geometry stored nothing
        store = SpatialDataStore.open(fs, "mut_holes")
        assert sorted(dict(store.scan())) == [0, 2]  # id 1 is a hole
        assert store.manifest.next_record_id == 3

    def test_noop_append_creates_no_generation(self, fs):
        bulk_load(fs, "mut_noop", [Point(0.0, 0.0)], num_partitions=4)
        res = StoreAppender(fs, "mut_noop").append([])
        assert res.gen_id is None
        assert SpatialDataStore.open(fs, "mut_noop").num_generations == 0


class TestTombstones:
    def _loaded(self, fs, name, count=60, seed=31):
        geoms = random_geometries(count, seed=seed)
        bulk_load(fs, name, geoms, num_partitions=16, page_size=1024)
        return geoms

    def test_deleted_records_never_surface(self, fs):
        geoms = self._loaded(fs, "del")
        dead = [3, 17, 41]
        res = StoreAppender(fs, "del").append(deletes=dead)
        assert res.gen_id == 1 and res.num_pages == 0  # tombstone-only
        store = SpatialDataStore.open(fs, "del", cache_pages=256)
        assert len(store) == len(geoms) - len(dead)
        visible = {rid: g for rid, g in enumerate(geoms) if rid not in dead}
        for env in windows(seed=37):
            assert query_ids(store, env) == brute_force_ids(visible, env)
        assert set(dead).isdisjoint(dict(store.scan()))

    def test_update_shadows_even_outside_the_window(self, fs):
        # the critical shadowing case: the updated version moves away, so
        # the query window only selects the *old* version's slot — the
        # tombstone, not the candidate set, must hide it
        geoms = self._loaded(fs, "upd")
        victim = 7
        old_env = geoms[victim].envelope
        moved = Point(400.0, 400.0, userdata="moved")
        StoreAppender(fs, "upd").append([moved], record_ids=[victim])
        store = SpatialDataStore.open(fs, "upd", cache_pages=256)
        assert len(store) == len(geoms)  # update, not delete
        near_old = [h for h in store.range_query(old_env.buffer(0.1))
                    if h.record_id == victim]
        assert near_old == []
        new_hits = store.range_query(Envelope(399.0, 399.0, 401.0, 401.0))
        assert [(h.record_id, h.geometry.userdata) for h in new_hits] == [
            (victim, "moved")
        ]
        assert dict(store.scan())[victim].userdata == "moved"

    def test_delete_then_reappend_resurrects_under_same_id(self, fs):
        self._loaded(fs, "res")
        appender = StoreAppender(fs, "res")
        appender.append(deletes=[5])
        assert 5 not in dict(SpatialDataStore.open(fs, "res").scan())
        appender.append([Point(50.0, 50.0, userdata="back")], record_ids=[5])
        store = SpatialDataStore.open(fs, "res")
        assert dict(store.scan())[5].userdata == "back"
        assert len(store) == 60

    def test_delete_validates_against_id_ceiling(self, fs):
        self._loaded(fs, "delv")
        with pytest.raises(ValueError, match="delete"):
            StoreAppender(fs, "delv").append(deletes=[60])

    def test_live_count_stays_exact_under_repeated_updates(self, fs):
        # regression: updating an already-updated record (or deleting a
        # previously-updated one) used to drift len(store) away from the
        # number of visible records, permanently until compaction
        geoms = self._loaded(fs, "drift")
        appender = StoreAppender(fs, "drift")
        appender.append([Point(1.0, 1.0, userdata="v2")], record_ids=[3])
        appender.append([Point(2.0, 2.0, userdata="v3")], record_ids=[3])
        store = SpatialDataStore.open(fs, "drift")
        assert len(store) == len(dict(store.scan())) == len(geoms)
        appender.append(deletes=[3])
        store = SpatialDataStore.open(fs, "drift")
        assert len(store) == len(dict(store.scan())) == len(geoms) - 1
        # deleting it again is a no-op for the count
        appender.append(deletes=[3])
        assert len(SpatialDataStore.open(fs, "drift")) == len(geoms) - 1

    def test_a_manifest_without_ceiling_is_refused(self, fs):
        # a manifest with no next_record_id would leave the ceiling to
        # num_records, too low when the load skipped an empty geometry, and
        # compaction would *persist* the too-low value: every reader refuses
        # it and nothing is written
        bulk_load(fs, "legacy_cmp", [Point(0.0, 0.0), MultiPoint([]),
                                     Point(2.0, 2.0, userdata="keep")],
                  num_partitions=4)
        strip_ceiling(fs, "legacy_cmp")
        before = store_files(fs, "legacy_cmp")
        for use in (lambda: SpatialDataStore.open(fs, "legacy_cmp"),
                    lambda: StoreAppender(fs, "legacy_cmp").append([Point(9.0, 9.0)]),
                    lambda: compact_store(fs, "legacy_cmp")):
            with pytest.raises(StoreFormatError, match="version|next_record_id"):
                use()
        assert store_files(fs, "legacy_cmp") == before

    def test_a_store_without_shards_json_is_refused_by_every_writer(self, fs):
        geoms = random_geometries(40, seed=33)
        bulk_load(fs, "noshards", geoms, num_partitions=4, page_size=1024)
        StoreAppender(fs, "noshards").append(deletes=[4])
        fs.remove(shards_path("noshards"))
        before = store_files(fs, "noshards")
        for write in (lambda: StoreAppender(fs, "noshards"),
                      lambda: compact_store(fs, "noshards")):
            with pytest.raises(FileNotFoundError, match="shards.json"):
                write()
        assert store_files(fs, "noshards") == before

    def test_fresh_ids_never_recycle_deleted_ones(self, fs):
        self._loaded(fs, "rec")
        appender = StoreAppender(fs, "rec")
        appender.append(deletes=[59])
        res = appender.append([Point(1.0, 1.0)])
        store = SpatialDataStore.open(fs, "rec")
        new_ids = {h.record_id for h in store.range_query(Envelope(0.9, 0.9, 1.1, 1.1))}
        assert 60 in new_ids and 59 not in dict(store.scan())
        assert res.manifest.next_record_id == 61


class TestCompaction:
    def _mutated(self, fs, name, seed=43):
        geoms = random_geometries(80, seed=seed)
        bulk_load(fs, name, geoms[:50], num_partitions=16, page_size=1024)
        appender = StoreAppender(fs, name)
        appender.append(geoms[50:65])
        appender.append(geoms[65:], deletes=[2, 11])
        appender.append([Point(90.0, 90.0, userdata="upd")], record_ids=[20])
        visible = {rid: g for rid, g in enumerate(geoms) if rid not in (2, 11)}
        visible[20] = Point(90.0, 90.0, userdata="upd")
        return geoms, visible

    def test_results_bit_identical_before_and_after(self, fs):
        _, visible = self._mutated(fs, "cmp")
        envs = windows(seed=47)
        before_store = SpatialDataStore.open(fs, "cmp", cache_pages=256)
        before = hit_fingerprints(before_store, envs)
        assert before_store.num_generations == 3
        before_store.close()

        result = compact_store(fs, "cmp")
        assert result.merged_generations == 3
        after_store = SpatialDataStore.open(fs, "cmp", cache_pages=256)
        assert after_store.num_generations == 0
        after = hit_fingerprints(after_store, envs)
        assert after == before
        for env in envs:
            assert [h[0] for h in before[envs.index(env)]] == brute_force_ids(visible, env)

    def test_tombstoned_records_never_resurface_after_compaction(self, fs):
        self._mutated(fs, "cmp_dead")
        compact_store(fs, "cmp_dead")
        store = SpatialDataStore.open(fs, "cmp_dead", cache_pages=256)
        scanned = dict(store.scan())
        assert 2 not in scanned and 11 not in scanned
        assert scanned[20].userdata == "upd"
        assert store.range_query(store.extent, exact=False)
        assert not any(
            h.record_id in (2, 11)
            for h in store.range_query(store.extent, exact=False)
        )

    def test_compaction_removes_delta_files_and_preserves_ceiling(self, fs):
        self._mutated(fs, "cmp_files")
        for gen_id in (1, 2, 3):
            assert fs.exists(delta_paths("cmp_files", gen_id)["data"])
        compact_store(fs, "cmp_files")
        for gen_id in (1, 2, 3):
            for path in delta_paths("cmp_files", gen_id).values():
                assert not fs.exists(path)
        store = SpatialDataStore.open(fs, "cmp_files")
        assert store.manifest.generations == []
        # deleted ids stay retired after the rewrite
        assert store.manifest.next_record_id == 80
        res = StoreAppender(fs, "cmp_files").append([Point(1.0, 1.0)])
        assert res.manifest.next_record_id == 81

    def test_compacted_equals_fresh_bulk_load_shape(self, fs):
        # compaction re-runs the bulk-load pack over the visible records, so
        # per-query I/O (pages read, read requests) matches a fresh load
        geoms, visible = self._mutated(fs, "cmp_shape")
        compact_store(fs, "cmp_shape")
        fresh_records = sorted(visible.items())
        # a fresh store of the same records (ids preserved via placeholder
        # holes is impractical here, so compare I/O counters, not ids)
        envs = windows(n=8, seed=53)
        compacted = SpatialDataStore.open(fs, "cmp_shape", cache_pages=256)
        for env in envs:
            assert query_ids(compacted, env) == brute_force_ids(visible, env)
        stats = compacted.stats
        assert stats.pages_read <= compacted.num_pages
        assert compacted.total_pages == compacted.num_pages  # no deltas left


class TestOneFilePerGeneration:
    """Each generation is one container with its packed index inside: a
    fresh open pays one file open and one read request per generation, a
    store directory holds one file per generation, and every write result
    accounts for each byte of each container it wrote."""

    def test_open_pays_one_file_open_and_one_read_per_generation(self, fs, tmp_path):
        geoms = random_geometries(80, seed=81)
        bulk_load(fs, "one", geoms[:50], num_partitions=16, page_size=1024)
        appender = StoreAppender(fs, "one")
        for lo in (50, 60, 70):
            appender.append(geoms[lo:lo + 10])
        fresh = make_fs(tmp_path)  # a new filesystem over the same bytes
        opened, charged = [], []
        real_open, real_read_time = fresh.open, fresh.read_time
        fresh.open = lambda path, *args: opened.append(path) or real_open(path, *args)
        fresh.read_time = lambda path, requests: charged.append(path) or real_read_time(
            path, requests
        )
        with SpatialDataStore.open(fresh, "one") as store:
            assert store.num_generations == 3
        files = [store_paths("one")["manifest"], store_paths("one")["data"],
                 *(delta_paths("one", gen_id)["data"] for gen_id in (1, 2, 3))]
        assert opened == files  # 1 + 4
        assert charged == files

    def test_a_store_directory_holds_one_file_per_generation(self, fs):
        geoms = random_geometries(60, seed=82)
        bulk_load(fs, "dir", geoms[:40], num_partitions=16, page_size=1024)
        appender = StoreAppender(fs, "dir")
        appender.append(geoms[40:50])
        appender.append(geoms[50:])
        assert sorted(store_files(fs, "dir")) == [
            "data.bin", "delta-0001.bin", "delta-0002.bin", "manifest.json", "shards.json",
        ]

    def test_written_bytes_are_the_containers_on_disk(self, fs):
        def containers(pattern):
            """``(on-disk bytes, index region bytes)`` of the matching
            containers of every shard copy."""
            blobs = [p.read_bytes() for p in fs.backing_path("stores/acct").rglob(pattern)]
            assert blobs
            return (sum(map(len, blobs)),
                    sum(unpack_header(b, file_size=len(b)).index_nbytes for b in blobs))

        def accounted(result):
            return result.data_bytes + result.index_bytes, result.index_bytes

        geoms = random_geometries(90, seed=83)
        loaded = bulk_load(fs, "acct", geoms[:60], num_partitions=16, page_size=1024,
                           num_shards=2, read_replicas=1)
        assert accounted(loaded) == containers("data.bin")
        appended = StoreAppender(fs, "acct").append(geoms[60:], deletes=[4])
        assert accounted(appended) == containers("delta-0001.bin")
        compacted = compact_store(fs, "acct")
        assert accounted(compacted) == containers("*.bin")


# --------------------------------------------------------------------------- #
# transient faults on a delta container during open
# --------------------------------------------------------------------------- #
class TestDeltaOpenFaults:
    @pytest.fixture
    def appended(self, fs):
        geoms = random_geometries(80, seed=61)
        bulk_load(fs, "dfault", geoms[:60], num_partitions=16, page_size=1024)
        StoreAppender(fs, "dfault").append(geoms[60:])
        return dict(enumerate(geoms))

    def faulty(self, fs, max_faults=None):
        # the first pread of the delta container is open's header read
        rule = FaultRule(
            path_pattern=delta_paths("dfault", 1)["data"],
            read_error_rate=1.0,
            max_faults=max_faults,
        )
        return FaultyFilesystem(fs, [rule], seed=7)

    def test_transient_header_fault_is_retried_and_charged(self, fs, appended):
        with SpatialDataStore.open(fs, "dfault", cache_pages=256) as clean:
            clean_io = clean.stats.io_seconds
            assert clean.stats.retries == 0
        faulty = self.faulty(fs, max_faults=1)
        with SpatialDataStore.open(faulty, "dfault", cache_pages=256) as store:
            assert faulty.stats.read_errors == 1
            assert store.stats.retries == 1
            assert store.stats.io_seconds == pytest.approx(
                clean_io + DEFAULT_RETRY.backoff(1)
            )
            assert store.num_generations == 1
            for env in windows(seed=62):
                assert query_ids(store, env) == brute_force_ids(appended, env)

    def test_exhausted_retries_name_the_delta_container(self, fs, appended):
        path = delta_paths("dfault", 1)["data"]
        with pytest.raises(StoreError, match=f"{path}.*1 attempt"):
            SpatialDataStore.open(self.faulty(fs), "dfault", retry_policy=NO_RETRY)


#: site -> (file, filesystem wrapper whose rule faults that site's read)
OPEN_READ_SITES = {
    "manifest": (lambda name: store_paths(name)["manifest"], FaultyFilesystem),
    "base_header": (lambda name: store_paths(name)["data"], FaultyFilesystem),
    "base_tail": (lambda name: store_paths(name)["data"], TailFaults),
    "delta_tail": (lambda name: delta_paths(name, 1)["data"], TailFaults),
}


class TestOpenReadSites:
    """Every other read ``open`` makes goes through the same bounded retry as
    the delta header above: one transient fault, raised or torn, costs one
    retry and its backoff and changes no answer; a fault that outlasts the
    policy is a :class:`StoreError` naming the file."""

    @pytest.fixture
    def appended(self, fs):
        geoms = random_geometries(80, seed=63)
        bulk_load(fs, "rsite", geoms[:60], num_partitions=16, page_size=1024)
        StoreAppender(fs, "rsite").append(geoms[60:])
        return dict(enumerate(geoms))

    def faulty(self, fs, site, kind="error", max_faults=None):
        path, wrapper = OPEN_READ_SITES[site]
        rule = FaultRule(
            path_pattern=path("rsite"),
            read_error_rate=1.0 if kind == "error" else 0.0,
            short_read_rate=1.0 if kind == "short" else 0.0,
            max_faults=max_faults,
        )
        return wrapper(fs, [rule], seed=11)

    @pytest.mark.parametrize("kind", ["error", "short"])
    @pytest.mark.parametrize("site", sorted(OPEN_READ_SITES))
    def test_transient_fault_is_retried_and_charged(self, fs, appended, site, kind):
        with SpatialDataStore.open(fs, "rsite", cache_pages=256) as clean:
            clean_io = clean.stats.io_seconds
        faulty = self.faulty(fs, site, kind, max_faults=1)
        with SpatialDataStore.open(faulty, "rsite", cache_pages=256) as store:
            assert faulty.stats.read_errors + faulty.stats.short_reads == 1
            assert store.stats.retries == 1
            assert store.stats.io_seconds == pytest.approx(
                clean_io + DEFAULT_RETRY.backoff(1)
            )
            assert store.num_generations == 1
            for env in windows(seed=64):
                assert query_ids(store, env) == brute_force_ids(appended, env)

    @pytest.mark.parametrize("site", sorted(OPEN_READ_SITES))
    def test_exhausted_retries_name_the_file(self, fs, appended, site):
        path = OPEN_READ_SITES[site][0]("rsite")
        with pytest.raises(StoreError, match=f"{path}.*3 attempt"):
            SpatialDataStore.open(self.faulty(fs, site), "rsite")

    @pytest.mark.parametrize("path", [store_paths("rsite")["manifest"], shards_path("rsite")])
    def test_appender_manifest_reads_absorb_a_transient_fault(self, fs, appended, path):
        faulty = FaultyFilesystem(
            fs, [FaultRule(path_pattern=path, read_error_rate=1.0, max_faults=1)], seed=11
        )
        StoreAppender(faulty, "rsite").append(deletes=[3])
        assert faulty.stats.read_errors == 1
        with SpatialDataStore.open(fs, "rsite") as store:
            assert store.num_generations == 2
            assert sorted(dict(store.scan())) == sorted(set(appended) - {3})


# --------------------------------------------------------------------------- #
# the retired v1 page layout: refused by open, naming the container
# --------------------------------------------------------------------------- #
class TestRetiredPageLayout:
    def _geoms(self):
        # an id hole (the empty MultiPoint) and a record wide enough to be
        # replicated into every partition
        geoms = random_geometries(90, seed=71)
        geoms[40] = MultiPoint([])
        geoms[41] = Polygon.from_envelope(Envelope(1, 1, 99, 99), userdata="wide")
        return geoms

    def test_open_refuses_a_v1_base_container(self, fs):
        bulk_load(fs, "v1", self._geoms(), num_partitions=9, page_size=512)
        mark_container_v1(fs, store_paths("v1")["data"])
        with pytest.raises(StoreFormatError) as excinfo:
            SpatialDataStore.open(fs, "v1")
        message = str(excinfo.value)
        assert "stores/v1/data.bin" in message and "version 1" in message

    def test_open_refuses_a_v1_delta_container(self, fs):
        bulk_load(fs, "v1d", self._geoms(), num_partitions=9, page_size=512)
        StoreAppender(fs, "v1d").append(random_geometries(20, seed=72))
        mark_container_v1(fs, delta_paths("v1d", 1)["data"])
        with pytest.raises(StoreFormatError, match="delta-0001.bin.*version 1"):
            SpatialDataStore.open(fs, "v1d")


# --------------------------------------------------------------------------- #
# sharded appends and compaction
# --------------------------------------------------------------------------- #
class TestShardedAppend:
    NPROCS = (1, 2, 4)

    def _build(self, fs, name, num_shards=4):
        geoms = random_geometries(80, seed=61)
        bulk_load(fs, name, geoms[:50], num_shards=num_shards,
                  num_partitions=16, page_size=1024)
        appender = StoreAppender(fs, name)
        r1 = appender.append(geoms[50:65])
        r2 = appender.append(geoms[65:], deletes=[4, 33])
        visible = {rid: g for rid, g in enumerate(geoms) if rid not in (4, 33)}
        return geoms, visible, (r1, r2)

    def _serve(self, fs, name, queries, nprocs):
        def prog(comm):
            with DistributedStoreServer.open(comm, fs, name, cache_pages=64) as server:
                return server.range_query_batch(queries if comm.rank == 0 else None)

        return mpisim.run_spmd(prog, nprocs).values[0]

    @pytest.mark.parametrize("nprocs", NPROCS)
    def test_sharded_append_equals_single_equals_brute(self, fs, nprocs):
        geoms, visible, _ = self._build(fs, "smut")
        # the same mutations applied to a single store
        bulk_load(fs, "smut_single", geoms[:50], num_partitions=16, page_size=1024)
        single_app = StoreAppender(fs, "smut_single")
        single_app.append(geoms[50:65])
        single_app.append(geoms[65:], deletes=[4, 33])
        single = SpatialDataStore.open(fs, "smut_single", cache_pages=256)

        envs = windows(n=8, seed=67)
        queries = [(i, env) for i, env in enumerate(envs)]
        hits = self._serve(fs, "smut", queries, nprocs)
        sharded_ids = [[] for _ in envs]
        for h in hits:
            sharded_ids[h.query_id].append(h.record_id)
        for i, env in enumerate(envs):
            want = brute_force_ids(visible, env)
            assert sorted(sharded_ids[i]) == want
            assert query_ids(single, env) == want

    def test_appends_route_to_home_shards(self, fs):
        _, _, (r1, r2) = self._build(fs, "smut_route")
        assert (r1.num_records, r2.num_records) == (15, 15)
        manifest = StoreAppender(fs, "smut_route").manifest
        assert manifest.next_record_id == 80
        # each appended record is stored once, in the shard owning its home
        # cell; tombstones were broadcast to all shards (deletes in r2)
        grid = UniformGrid(manifest.extent, manifest.grid_rows, manifest.grid_cols)
        appended = []
        for shard in manifest.shards:
            with SpatialDataStore.open(fs, shard.store) as store:
                assert store._tombstone_gen.keys() >= {4, 33}
                for gen in store.manifest.generations:
                    appended += [shard.shard_id] * gen.num_records
                for rid, geom in store.scan():
                    if rid >= 50:
                        env = geom.envelope
                        assert grid.cell_for_point(env.minx, env.miny) in shard.partition_ids
        assert len(appended) == 30

    @pytest.mark.parametrize("nprocs", NPROCS)
    def test_sharded_compaction_is_transparent(self, fs, nprocs):
        _, visible, _ = self._build(fs, "smut_cmp")
        envs = windows(n=8, seed=71)
        queries = [(i, env) for i, env in enumerate(envs)]
        before = self._serve(fs, "smut_cmp", queries, nprocs)
        result = compact_store(fs, "smut_cmp")
        assert result.merged_generations > 0
        assert result.num_records == len(visible)
        after = self._serve(fs, "smut_cmp", queries, nprocs)
        key = lambda hits: sorted(
            (h.query_id, h.record_id, wkb.dumps(h.geometry)) for h in hits
        )
        assert key(after) == key(before)
        for shard in StoreAppender(fs, "smut_cmp").manifest.shards:
            assert shard.num_generations == 0
        assert not any(
            h.record_id in (4, 33) for h in after
        )

    def test_local_records_exactly_once_with_appends(self, fs):
        _, visible, _ = self._build(fs, "smut_own")

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "smut_own") as server:
                return [rid for rid, _ in server.local_records()]

        res = mpisim.run_spmd(prog, 4)
        combined = [rid for ids in res.values for rid in ids]
        assert sorted(combined) == sorted(visible)  # no dup, no loss

    def test_update_moves_a_record_between_shards(self, fs):
        # the new version is stored in its new home shard only; every other
        # shard sees just the tombstone, so the old version never resurfaces
        geoms = random_geometries(60, seed=73)
        bulk_load(fs, "smut_upd", geoms, num_shards=4, num_partitions=16, page_size=1024)
        appender = StoreAppender(fs, "smut_upd")
        layout = appender.manifest
        grid = UniformGrid(layout.extent, layout.grid_rows, layout.grid_cols)
        owner = layout.partition_to_shard()

        def home_shard(g):
            return owner[grid.cell_for_point(g.envelope.minx, g.envelope.miny)]

        victim = next(rid for rid, g in enumerate(geoms) if home_shard(g) == 0)
        moved = Point(99.0, 99.0, userdata="moved")
        assert home_shard(moved) != 0
        res = appender.append([moved], record_ids=[victim])
        assert (res.num_records, res.num_tombstones) == (1, 1)
        assert res.manifest.num_records == 60

        hits = self._serve(fs, "smut_upd", [(0, geoms[victim].envelope),
                                            (1, Envelope(98, 98, 100, 100))], 2)
        assert [(h.query_id, h.geometry.userdata) for h in hits
                if h.record_id == victim] == [(1, "moved")]

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "smut_upd") as server:
                return [rid for rid, _ in server.local_records()]

        owned = [rid for ids in mpisim.run_spmd(prog, 2).values for rid in ids]
        assert sorted(owned) == list(range(60))

    def test_cells_no_shard_owns_are_refused(self, fs):
        # loads used to give shards only their non-empty cells; an append
        # homed in an empty one had no shard.  Every cell has an owner now,
        # and a layout with an unowned cell is refused.
        corners = [Point(1.0, 1.0), Point(99.0, 1.0), Point(1.0, 99.0)]
        bulk_load(fs, "smut_gap", corners, num_shards=2, num_partitions=4)
        path = fs.backing_path(shards_path("smut_gap"))
        doc = json.loads(path.read_text())
        owned = sorted(cid for shard in doc["shards"] for cid in shard["partitions"])
        assert owned == [0, 1, 2, 3]  # cell 3 (top right) is empty but owned
        for shard in doc["shards"]:
            shard["partitions"] = [cid for cid in shard["partitions"] if cid != 3]
        fs.create_file(shards_path("smut_gap"), json.dumps(doc).encode())
        with pytest.raises(StoreFormatError, match="owned by one shard"):
            StoreAppender(fs, "smut_gap")

    def test_sharded_delete_validates_ceiling(self, fs):
        self._build(fs, "smut_val")
        with pytest.raises(ValueError, match="delete"):
            StoreAppender(fs, "smut_val").append(deletes=[80])
