"""Serving-correctness battery for the sharded store.

The invariant under test: for any dataset and query workload, the
results of distributed serving equal the single-store results equal a
brute-force scan — ids *and* geometries — for every rank count, including
ranks without shards, empty shards and records spanning shard boundaries
(each stored in one shard).
"""

import random
from collections import Counter

import pytest

from repro import mpisim
from repro.core import GridPartitionConfig, RangeQuery, SpatialJoin
from repro.datasets import random_envelopes
from repro.geometry import Envelope, LineString, Point, Polygon, predicates
from repro.index import UniformGrid
from repro.pfs import LustreFilesystem
from repro.store import (
    AsyncStoreFrontend,
    DistributedStoreServer,
    SpatialDataStore,
    bulk_load,
    shard_assignment,
    shards_path,
)

NPROCS = (1, 2, 4, 8)


def make_fs(tmp_path):
    return LustreFilesystem(tmp_path / "pfs")


def random_geometries(count, seed, extent=Envelope(0.0, 0.0, 100.0, 100.0),
                      max_size_fraction=0.08):
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
            line = LineString(
                [(env.minx, env.miny), (env.maxx, env.maxy)], userdata=i
            )
            out.append(line)
        else:
            out.append(Point(env.minx, env.miny, userdata=i))
    return out


def brute_force_ids(geoms, window):
    """Ground truth: ids of geometries intersecting the window polygon."""
    wpoly = Polygon.from_envelope(window)
    return sorted(
        i for i, g in enumerate(geoms) if predicates.intersects(wpoly, g)
    )


def serve_distributed(fs, name, queries, nprocs, cache_pages=32):
    """Run one distributed batch; returns rank 0's merged hits."""

    def prog(comm):
        with DistributedStoreServer.open(comm, fs, name, cache_pages=cache_pages) as server:
            return server.range_query_batch(queries if comm.rank == 0 else None)

    return mpisim.run_spmd(prog, nprocs).values[0]


def hits_by_query(hits):
    out = {}
    for h in hits:
        out.setdefault(h.query_id, []).append(h)
    return out


class TestShardedEqualsSingleEqualsBruteForce:
    """The core property, over randomized datasets and workloads."""

    @pytest.mark.parametrize("seed", [3, 17, 92])
    @pytest.mark.parametrize("nprocs", NPROCS)
    def test_randomized_workload(self, tmp_path, seed, nprocs):
        fs = make_fs(tmp_path)
        geoms = random_geometries(120, seed)
        bulk_load(fs, "data", geoms, num_shards=4, num_partitions=16,
                  page_size=512)
        bulk_load(fs, "data_single", geoms, num_partitions=16, page_size=512)
        store = SpatialDataStore.open(fs, "data_single")

        queries = [
            (qid, env)
            for qid, env in enumerate(
                random_envelopes(15, extent=Envelope(0.0, 0.0, 100.0, 100.0),
                                 max_size_fraction=0.35, seed=seed + 1)
            )
        ]

        hits = serve_distributed(fs, "data", queries, nprocs)
        per_query = hits_by_query(hits)
        for qid, env in queries:
            got = per_query.get(qid, [])
            got_ids = sorted(h.record_id for h in got)
            single = store.range_query(env)
            assert got_ids == [h.record_id for h in single]
            assert got_ids == brute_force_ids(geoms, env)
            # geometries, not just ids: replicas must decode identically
            got_wkt = {h.record_id: h.geometry.wkt() for h in got}
            for h in single:
                assert got_wkt[h.record_id] == h.geometry.wkt()
            # no duplicate record ever survives the gather-side de-dup
            assert len(got_ids) == len(set(got_ids))

    @pytest.mark.parametrize("nprocs", NPROCS)
    def test_full_extent_window_returns_every_record(self, tmp_path, nprocs):
        fs = make_fs(tmp_path)
        geoms = random_geometries(80, seed=7)
        result = bulk_load(fs, "data", geoms, num_shards=4,
                           num_partitions=16, page_size=512)
        window = result.manifest.extent
        hits = serve_distributed(fs, "data", [("all", window)], nprocs)
        assert sorted(h.record_id for h in hits) == list(range(len(geoms)))

    @pytest.mark.parametrize("nprocs", NPROCS)
    def test_empty_window_and_miss_window(self, tmp_path, nprocs):
        fs = make_fs(tmp_path)
        geoms = random_geometries(40, seed=5)
        bulk_load(fs, "data", geoms, num_shards=2, num_partitions=8,
                  page_size=512)
        far = Envelope(1e6, 1e6, 1e6 + 1, 1e6 + 1)
        hits = serve_distributed(fs, "data", [(0, far)], nprocs)
        assert hits == []


def crosses_shards(manifest, geom):
    """Whether *geom*'s MBR overlaps cells of more than one shard."""
    grid = UniformGrid(manifest.extent, manifest.grid_rows, manifest.grid_cols)
    owner = manifest.partition_to_shard()
    return len({owner[cid] for cid in grid.cells_for_envelope(geom.envelope)}) > 1


class TestCrossShardRecords:
    def test_cross_shard_records_reported_once(self, tmp_path):
        fs = make_fs(tmp_path)
        # wide horizontal slabs overlap every grid column -> they cross
        # every shard boundary; small squares stay local
        slabs = [
            Polygon.from_envelope(Envelope(1.0, 10.0 * i + 1.0, 99.0, 10.0 * i + 4.0),
                                  userdata=i)
            for i in range(5)
        ]
        squares = [
            Polygon.from_envelope(env, userdata=100 + i)
            for i, env in enumerate(
                random_envelopes(40, extent=Envelope(0.0, 0.0, 100.0, 100.0),
                                 max_size_fraction=0.03, seed=21)
            )
        ]
        geoms = slabs + squares
        result = bulk_load(fs, "data", geoms, num_shards=4,
                           num_partitions=16, page_size=256)

        # precondition: some record's MBR crosses a shard boundary
        assert any(crosses_shards(result.manifest, g) for g in geoms)
        # and each record is stored in exactly one shard
        stored = []
        for shard in result.manifest.shards:
            with SpatialDataStore.open(fs, shard.store) as store:
                stored += [rid for rid, _ in store.scan()]
        assert sorted(stored) == list(range(len(geoms)))

        window = Envelope(0.0, 0.0, 100.0, 100.0)
        for nprocs in NPROCS:
            hits = serve_distributed(fs, "data", [(0, window)], nprocs)
            ids = [h.record_id for h in hits]
            assert len(ids) == len(set(ids))
            assert sorted(ids) == list(range(len(geoms)))

    @pytest.mark.parametrize("nprocs", NPROCS)
    def test_the_merge_keeps_the_hits_each_shard_returns(self, tmp_path, nprocs):
        # every hit's full tuple is the one its shard's own store returns
        # for that window — at 2 ranks over 4 shards a rank answers one
        # position from two shards, so rank 0 merges two chunks of one rank
        fs = make_fs(tmp_path)
        geoms = random_geometries(160, seed=31, max_size_fraction=0.3)
        result = bulk_load(fs, "data", geoms, num_shards=4, num_partitions=16, page_size=512)
        windows = random_envelopes(30, extent=Envelope(0.0, 0.0, 100.0, 100.0),
                                   max_size_fraction=0.5, seed=32)
        queries = [(f"q{i}", window) for i, window in enumerate(windows)]

        best, answered = {}, {}
        for shard in result.manifest.shards:
            with SpatialDataStore.open(fs, shard.store) as store:
                for idx, (_, window) in enumerate(queries):
                    for h in store.range_query(window):
                        row = (shard.shard_id, h.partition_id, h.page_id, h.geometry.wkt())
                        key = (idx, h.record_id)
                        best[key] = min(best.get(key, row), row)
                        answered.setdefault(idx, set()).add(shard.shard_id)
        # preconditions: records cross shard boundaries, positions get hits
        # from several shards, and some from both shards of rank 0 of two
        assert any(crosses_shards(result.manifest, g) for g in geoms)
        assert any(len(sids) > 1 for sids in answered.values())
        assert any(sids >= {0, 1} for sids in answered.values())

        hits = serve_distributed(fs, "data", queries, nprocs)
        assert [
            (h.query_id, h.record_id, h.shard_id, h.partition_id, h.page_id, h.geometry.wkt())
            for h in hits
        ] == [
            (queries[idx][0], record_id, *best[idx, record_id])
            for idx, record_id in sorted(best)
        ]

    def test_sharding_stores_each_record_once(self, tmp_path):
        fs = make_fs(tmp_path)
        geoms = random_geometries(100, seed=13)
        sharded = bulk_load(fs, "data", geoms, num_shards=4,
                            num_partitions=16, page_size=512)
        single = bulk_load(fs, "data_single", geoms, num_partitions=16,
                           page_size=512)
        assert any(crosses_shards(sharded.manifest, g) for g in geoms)
        assert sharded.num_records == single.num_records
        assert sum(s.num_records for s in sharded.manifest.shards) == single.num_records


class TestShardEdgeCases:
    def test_more_shards_than_partitions_creates_empty_shards(self, tmp_path):
        fs = make_fs(tmp_path)
        # all data in one corner of a coarse grid: few non-empty partitions
        geoms = [
            Polygon.from_envelope(Envelope(0.1 + 0.01 * i, 0.1, 0.2 + 0.01 * i, 0.2),
                                  userdata=i)
            for i in range(12)
        ]
        result = bulk_load(fs, "tiny", geoms, num_shards=6, num_partitions=4,
                           page_size=256)
        empty = [s for s in result.manifest.shards if s.num_records == 0]
        assert empty, "expected at least one empty shard"
        # every shard opens as a valid (possibly empty) store
        for shard in result.manifest.shards:
            store = SpatialDataStore.open(fs, shard.store)
            assert len(store) == shard.num_records
            store.close()
        for nprocs in (1, 4, 8):
            hits = serve_distributed(fs, "tiny", [(0, Envelope(0.0, 0.0, 1.0, 1.0))],
                                     nprocs)
            assert sorted(h.record_id for h in hits) == list(range(12))

    def test_more_ranks_than_partitions(self, tmp_path):
        fs = make_fs(tmp_path)
        geoms = random_geometries(30, seed=2)
        bulk_load(fs, "data", geoms, num_shards=2, num_partitions=2,
                  page_size=512)
        window = Envelope(0.0, 0.0, 100.0, 100.0)
        hits = serve_distributed(fs, "data", [(0, window)], nprocs=8)
        assert sorted(h.record_id for h in hits) == brute_force_ids(geoms, window)

    def test_single_shard_degenerates_to_single_store(self, tmp_path):
        fs = make_fs(tmp_path)
        geoms = random_geometries(50, seed=9)
        bulk_load(fs, "data", geoms, num_shards=1, num_partitions=16,
                  page_size=512)
        bulk_load(fs, "data_single", geoms, num_partitions=16, page_size=512)
        store = SpatialDataStore.open(fs, "data_single")
        window = Envelope(10.0, 10.0, 70.0, 70.0)
        hits = serve_distributed(fs, "data", [(0, window)], nprocs=2)
        assert [h.record_id for h in hits] == [h.record_id for h in store.range_query(window)]

    def test_missing_shards_manifest_raises(self, tmp_path):
        fs = make_fs(tmp_path)

        def prog(comm):
            return DistributedStoreServer.open(comm, fs, "nope")

        with pytest.raises(FileNotFoundError, match="bulk_load"):
            mpisim.run_spmd(prog, 2)


class TestShardAssignment:
    @pytest.mark.parametrize("num_shards,nranks", [
        (4, 1), (4, 2), (4, 4), (4, 8), (3, 2), (8, 3), (1, 8), (5, 5),
    ])
    def test_every_shard_assigned_to_a_valid_rank(self, num_shards, nranks):
        assignment = shard_assignment(num_shards, nranks)
        assert set(assignment) == set(range(num_shards))
        assert all(0 <= r < nranks for r in assignment.values())

    def test_assignment_is_contiguous_and_balanced(self):
        assignment = shard_assignment(8, 4)
        # contiguous runs: rank never decreases with shard id
        ranks = [assignment[s] for s in range(8)]
        assert ranks == sorted(ranks)
        loads = Counter(ranks)
        assert max(loads.values()) - min(loads.values()) <= 1

    def test_more_ranks_than_shards_leaves_ranks_idle(self):
        assignment = shard_assignment(2, 8)
        assert len(set(assignment.values())) == 2

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            shard_assignment(4, 0)


def meets(extent, window):
    """Brute force: two closed rectangles share a point, on their coordinates
    alone (an empty rectangle has ``min > max`` on some axis)."""
    return (
        max(extent.minx, window.minx) <= min(extent.maxx, window.maxx)
        and max(extent.miny, window.miny) <= min(extent.maxy, window.maxy)
        and extent.minx <= extent.maxx and extent.miny <= extent.maxy
        and window.minx <= window.maxx and window.miny <= window.maxy
    )


class TestServingSideRouting:
    """Rank 0 sends every rank the whole batch; each rank serves a query on
    exactly those of its shards whose non-empty extent the window meets."""

    @pytest.mark.parametrize("nprocs", NPROCS)
    def test_each_shard_serves_the_windows_its_extent_meets(self, tmp_path, nprocs):
        fs = make_fs(tmp_path)
        # three clusters homed in three cells of a 4x4 grid: four shards, one
        # of them empty
        corners = [(0.0, 0.0), (95.0, 95.0), (0.0, 95.0)]
        geoms = [
            Polygon.from_envelope(Envelope(x + 0.3 * i, y + 0.2 * i, x + 0.3 * i + 2.0,
                                           y + 0.2 * i + 2.0), userdata=10 * c + i)
            for c, (x, y) in enumerate(corners)
            for i in range(10)
        ]
        shards = bulk_load(fs, "routed", geoms, num_shards=4, num_partitions=16,
                           page_size=512).manifest.shards
        empty = [s.shard_id for s in shards if s.extent.is_empty]
        assert len(empty) == 1
        windows = list(random_envelopes(40, extent=Envelope(-10.0, -10.0, 110.0, 110.0),
                                        max_size_fraction=0.4, seed=8))
        # windows that only touch a shard extent's edge or corner count
        for s in shards:
            e = s.extent
            if not e.is_empty:
                windows += [Envelope(e.maxx, e.miny, e.maxx + 5.0, e.miny + 1.0),
                            Envelope(e.minx - 5.0, e.miny - 5.0, e.minx, e.miny)]
        windows.append(Envelope.empty())
        batch = [(f"w{i}", window) for i, window in enumerate(windows)]
        lone_empty = [("empty", Envelope.empty())]

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "routed") as server:
                heat = {sid: server.metrics.counter("server.shard_heat", shard=sid)
                        for sid in server.my_shards}
                moved = []
                for work in (batch, lone_empty):
                    before = {sid: counter.value for sid, counter in heat.items()}
                    server.range_query_batch(work if comm.rank == 0 else None)
                    moved.append({sid: heat[sid].value - before[sid] for sid in heat})
                return moved

        per_rank = mpisim.run_spmd(prog, nprocs).values
        served = {sid: n for rank_moved, _ in per_rank for sid, n in rank_moved.items()}
        assert served == {
            s.shard_id: sum(1 for window in windows if meets(s.extent, window)) for s in shards
        }
        assert served[empty[0]] == 0 and sum(served.values()) > 0
        assert all(n == 0 for _, alone in per_rank for n in alone.values())


class TestPartitionOwnership:
    def test_each_record_is_stored_in_its_home_cell_only(self, tmp_path):
        fs = make_fs(tmp_path)
        geoms = [
            Polygon.from_envelope(env, userdata=i)
            for i, env in enumerate(
                random_envelopes(80, extent=Envelope(0.0, 0.0, 100.0, 100.0),
                                 max_size_fraction=0.15, seed=12)
            )
        ]
        result = bulk_load(fs, "own", geoms, num_shards=4,
                           num_partitions=16, page_size=512)
        layout = result.manifest
        grid = UniformGrid(layout.extent, layout.grid_rows, layout.grid_cols)
        # precondition: some record's MBR spans several cells
        assert any(len(grid.cells_for_envelope(g.envelope)) > 1 for g in geoms)

        # collect each record's stored partitions straight from the shards
        stored = {}
        for shard in layout.shards:
            with SpatialDataStore.open(fs, shard.store) as store:
                for hit in store.range_query(layout.extent, exact=False):
                    assert hit.partition_id in shard.partition_ids
                    stored.setdefault(hit.record_id, []).append(hit.partition_id)

        for rid, geom in enumerate(geoms):
            env = geom.envelope
            # one copy, in the cell of the MBR's lower-left corner, the
            # lowest-numbered cell the MBR overlaps
            assert stored[rid] == [grid.cell_for_point(env.minx, env.miny)]
            assert stored[rid] == [min(grid.cells_for_envelope(env))]


class TestDistributedJoin:
    @pytest.mark.parametrize("nprocs", NPROCS)
    def test_join_matches_single_store(self, tmp_path, nprocs):
        fs = make_fs(tmp_path)
        geoms = random_geometries(90, seed=31)
        bulk_load(fs, "data", geoms, num_shards=4, num_partitions=16,
                  page_size=512)
        bulk_load(fs, "data_single", geoms, num_partitions=16, page_size=512)
        store = SpatialDataStore.open(fs, "data_single")
        probes = [
            Polygon.from_envelope(env, userdata=f"probe-{i}")
            for i, env in enumerate(
                random_envelopes(12, extent=Envelope(0.0, 0.0, 100.0, 100.0),
                                 max_size_fraction=0.25, seed=32)
            )
        ]
        expected = sorted(
            (p.userdata, h.record_id) for p, h in store.join(probes)
        )

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "data") as server:
                return server.join(probes if comm.rank == 0 else None)

        pairs = mpisim.run_spmd(prog, nprocs).values[0]
        got = sorted((p.userdata, h.record_id) for p, h in pairs)
        assert got == expected
        assert len(got) == len(set(got))


    @pytest.mark.parametrize("nprocs", [1, 2])
    def test_join_refines_the_mbr_filter_with_intersects(self, tmp_path, nprocs):
        fs = make_fs(tmp_path)
        triangles = [Polygon([(x, 0), (x + 10, 0), (x, 10)]) for x in (0.0, 50.0)]
        bulk_load(fs, "tri", triangles, num_shards=2, num_partitions=4, page_size=512)
        # both probes overlap both triangles' MBRs; only the lower-left
        # corners touch the triangles themselves
        probes = [Polygon.box(x + 8, 8, x + 9, 9) for x in (0.0, 50.0)] + [
            Polygon.box(x + 1, 1, x + 2, 2) for x in (0.0, 50.0)
        ]

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "tri") as server:
                return server.join(probes if comm.rank == 0 else None)

        pairs = mpisim.run_spmd(prog, nprocs).values[0]
        assert sorted((probes.index(p), h.record_id) for p, h in pairs) == [(2, 0), (3, 1)]


class TestStoreBackedPipelineInput:
    @pytest.mark.parametrize("nprocs", NPROCS)
    def test_local_records_partition_the_dataset(self, tmp_path, nprocs):
        fs = make_fs(tmp_path)
        geoms = random_geometries(70, seed=41)
        bulk_load(fs, "data", geoms, num_shards=4, num_partitions=16,
                  page_size=512)

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "data") as server:
                return sorted(rid for rid, _ in server.local_records())

        values = mpisim.run_spmd(prog, nprocs).values
        all_ids = [rid for chunk in values for rid in chunk]
        # exactly once across ranks: a disjoint cover of the logical dataset
        assert sorted(all_ids) == list(range(len(geoms)))

    def test_execute_distributed_from_store_matches_serial(self, tmp_path):
        fs = make_fs(tmp_path)
        geoms = random_geometries(60, seed=55)
        bulk_load(fs, "data", geoms, num_shards=4, num_partitions=16,
                  page_size=512)
        bulk_load(fs, "data_single", geoms, num_partitions=16, page_size=512)
        store = SpatialDataStore.open(fs, "data_single")
        queries = [
            (qid, env)
            for qid, env in enumerate(
                random_envelopes(10, extent=Envelope(0.0, 0.0, 100.0, 100.0),
                                 max_size_fraction=0.3, seed=56)
            )
        ]
        rq = RangeQuery(fs, queries)
        expected = sorted(
            (qid, hit.geometry.userdata)
            for (qid, _), hits in zip(rq.queries, store.range_query_batch(rq.queries))
            for hit in hits
        )

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "data") as server:
                return server.range_query_batch(rq.queries if comm.rank == 0 else None)

        res = mpisim.run_spmd(prog, 4)
        got = sorted((m.query_id, m.geometry.userdata) for m in res.values[0])
        assert got == expected
        assert res.values[1:] == [None] * 3  # only rank 0 receives the answer


class TestCoreWiring:
    """The advertised core entry points over the sharded store."""

    @pytest.mark.parametrize("nprocs", (2, 4))
    def test_run_from_store_matches_classic_pipeline(self, tmp_path, nprocs):
        fs = make_fs(tmp_path)
        left = [
            Polygon.from_envelope(env, userdata=i)
            for i, env in enumerate(
                random_envelopes(60, extent=Envelope(0.0, 0.0, 100.0, 100.0),
                                 max_size_fraction=0.12, seed=81)
            )
        ]
        right = [
            Polygon.from_envelope(env, userdata=f"r{i}")
            for i, env in enumerate(
                random_envelopes(40, extent=Envelope(0.0, 0.0, 100.0, 100.0),
                                 max_size_fraction=0.12, seed=82)
            )
        ]
        fs.create_file("datasets/left.wkt", ("\n".join(g.wkt() for g in left) + "\n").encode())
        fs.create_file("datasets/right.wkt", ("\n".join(g.wkt() for g in right) + "\n").encode())
        bulk_load(fs, "left", left, num_shards=4, num_partitions=16,
                  page_size=512)
        cfg = GridPartitionConfig(num_cells=16)

        def classic(comm):
            local = SpatialJoin(fs, grid_config=cfg).run(
                comm, "datasets/left.wkt", "datasets/right.wkt"
            )
            gathered = comm.gather(local.local_results, root=0)
            if comm.rank != 0:
                return None
            return [p for chunk in gathered for p in chunk]

        expected = mpisim.run_spmd(classic, nprocs).values[0]
        expected_keys = sorted((p.left.wkt(), p.right.wkt()) for p in expected)
        assert expected_keys, "test join must produce pairs"

        def store_backed(comm):
            join = SpatialJoin(fs, grid_config=cfg)
            with DistributedStoreServer.open(comm, fs, "left") as server:
                local = join.run_from_store(comm, server, "datasets/right.wkt")
            gathered = comm.gather(local.local_results, root=0)
            if comm.rank != 0:
                return None
            return [p for chunk in gathered for p in chunk]

        got = mpisim.run_spmd(store_backed, nprocs).values[0]
        assert sorted((p.left.wkt(), p.right.wkt()) for p in got) == expected_keys

    @pytest.mark.parametrize("nprocs", (1, 2, 4))
    def test_join_distributed_with_store_matches_single(self, tmp_path, nprocs):
        fs = make_fs(tmp_path)
        geoms = random_geometries(80, seed=91)
        bulk_load(fs, "data", geoms, num_shards=4, num_partitions=16,
                  page_size=512)
        bulk_load(fs, "data_single", geoms, num_partitions=16, page_size=512)
        store = SpatialDataStore.open(fs, "data_single")
        probes = [
            Polygon.from_envelope(env, userdata=f"p{i}")
            for i, env in enumerate(
                random_envelopes(10, extent=Envelope(0.0, 0.0, 100.0, 100.0),
                                 max_size_fraction=0.25, seed=92)
            )
        ]
        expected = sorted(
            (probe.userdata, hit.geometry.userdata) for probe, hit in store.join(probes)
        )

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "data") as server:
                return server.join(probes if comm.rank == 0 else None)

        res = mpisim.run_spmd(prog, nprocs)
        root_pairs = res.values[0]
        assert sorted((p.userdata, h.geometry.userdata) for p, h in root_pairs) == expected
        assert res.values[1:] == [None] * (nprocs - 1)

    def test_local_records_yield_every_record_once(self, tmp_path):
        fs = make_fs(tmp_path)
        geoms = random_geometries(50, seed=95)
        bulk_load(fs, "data", geoms, num_shards=4, num_partitions=16,
                  page_size=512)

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "data") as server:
                return [g.userdata for _, g in server.local_records()]

        values = mpisim.run_spmd(prog, 4).values
        all_ids = sorted(uid for chunk in values for uid in chunk)
        assert all_ids == list(range(len(geoms)))

    def test_buggy_join_predicate_is_not_blamed_on_a_shard(self, tmp_path, monkeypatch):
        fs = make_fs(tmp_path)
        geoms = random_geometries(40, seed=97)
        bulk_load(fs, "data", geoms, num_shards=2, num_partitions=8,
                  page_size=512)
        probes = [Polygon.from_envelope(Envelope(0.0, 0.0, 100.0, 100.0))]

        def bad_predicate(probe, geom):
            raise ValueError("user predicate bug")

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "data") as server:
                return server.join(probes if comm.rank == 0 else None)

        # the refine step calls the predicate module's intersects at call time
        monkeypatch.setattr(predicates, "intersects", bad_predicate)
        from repro.store import StoreError

        with pytest.raises(ValueError, match="user predicate bug") as excinfo:
            mpisim.run_spmd(prog, 2)
        assert not isinstance(excinfo.value, StoreError)

    def test_corrupted_shards_json_is_a_store_error(self, tmp_path):
        from repro.store import StoreError

        fs = make_fs(tmp_path)
        geoms = random_geometries(20, seed=99)
        bulk_load(fs, "data", geoms, num_shards=2, num_partitions=4,
                  page_size=512)
        with fs.open(shards_path("data")) as fh:
            raw = fh.pread(0, fh.size)
        fs.create_file(shards_path("data"), raw[: len(raw) // 2])

        def prog(comm):
            return DistributedStoreServer.open(comm, fs, "data")

        with pytest.raises(StoreError, match="shards manifest"):
            mpisim.run_spmd(prog, 2)


class TestServingPhases:
    def test_phase_breakdown_is_populated(self, tmp_path):
        fs = make_fs(tmp_path)
        geoms = random_geometries(80, seed=61)
        bulk_load(fs, "data", geoms, num_shards=4, num_partitions=16,
                  page_size=512)
        queries = [
            (qid, env)
            for qid, env in enumerate(
                random_envelopes(8, extent=Envelope(0.0, 0.0, 100.0, 100.0),
                                 max_size_fraction=0.3, seed=62)
            )
        ]

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "data") as server:
                server.range_query_batch(queries if comm.rank == 0 else None)
                return server.phase_breakdown()

        res = mpisim.run_spmd(prog, 4)
        phases = res.values[0]
        assert set(phases) == {"route", "scatter", "local_query", "gather"}
        assert all(v >= 0.0 for v in phases.values())
        assert phases["local_query"] > 0.0  # pages were actually served
        # every rank reports the same reduced breakdown (it is a collective)
        assert all(v == phases for v in res.values)

    def test_shards_json_written(self, tmp_path):
        fs = make_fs(tmp_path)
        geoms = random_geometries(20, seed=71)
        bulk_load(fs, "data", geoms, num_shards=2, num_partitions=4,
                  page_size=512)
        assert fs.exists(shards_path("data"))


class TestServingHeader:
    """Every serving call opens with rank 0's header broadcast, so what rank
    0 passed holds on every rank: a missing input raises everywhere at once,
    and rank 0's ``partial_ok`` is the one every rank serves by."""

    CALLS = {
        "range_query_batch": lambda server, work, **kw: server.range_query_batch(work, **kw),
        "join": lambda server, work, **kw: server.join(
            None if work is None else [Polygon.from_envelope(env) for _, env in work]
        ),
        "serve": lambda server, work, **kw: AsyncStoreFrontend(server).serve(
            None if work is None else [work], **kw
        ),
    }
    WORK = [(i, Envelope(10.0 * i, 0.0, 10.0 * i + 25.0, 100.0)) for i in range(8)]

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_rank_0_without_input_raises_on_every_rank(self, tmp_path, call):
        fs = make_fs(tmp_path)
        bulk_load(fs, "data", random_geometries(120, seed=5), num_shards=4,
                  num_partitions=16, page_size=512)
        serve = self.CALLS[call]

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "data") as server:
                with pytest.raises(ValueError, match="rank 0 must supply"):
                    serve(server, None)
                # the ranks are still in step: the next call answers
                return serve(server, self.WORK if comm.rank == 0 else None)

        values = mpisim.run_spmd(prog, 3, timeout=15.0).values
        assert values[0] and values[1] is None and values[2] is None

    @pytest.mark.parametrize("call", ("range_query_batch", "serve"))
    def test_rank_0s_partial_ok_holds_on_every_rank(self, tmp_path, call):
        # shard 1 (rank 1's) is dead: serving it strictly would raise on
        # rank 1, so rank 1 passing partial_ok=False must not matter
        fs = make_fs(tmp_path)
        result = bulk_load(fs, "data", random_geometries(120, seed=5), num_shards=2,
                           num_partitions=4, page_size=512)
        victim = result.manifest.shards[1]
        fs.backing_path(f"stores/{victim.store}/data.bin").write_bytes(b"not a container")
        serve = self.CALLS[call]

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "data", allow_degraded=True) as server:
                root = comm.rank == 0
                return serve(server, self.WORK if root else None, partial_ok=root)

        answer = mpisim.run_spmd(prog, 2, timeout=15.0).values[0]
        if call == "serve":
            (answer,) = answer.batches
        assert not answer.complete and answer.missing_shards == [1]
        assert answer.hits


class TestWireSizes:
    """Every serving-path message reports the bytes a WKB wire would carry
    (store README, "The wire"); the tests recompute them from what the ranks
    actually sent point to point, and from rank 0's own rows."""

    @pytest.fixture
    def wire(self, tmp_path, monkeypatch):
        """A 4-shard store plus what the serving loop ships while the test
        runs, as ``(op, rank, object)``: ``"plan"`` for each of rank 0's
        ``send``s (a batch's ``(ctx, message)``), ``"rows"`` for each serving
        rank's ``send`` and for each of rank 0's own ``ShardRows`` (merged
        where they were made, never sent)."""
        from repro.mpisim import Communicator

        fs = make_fs(tmp_path)
        bulk_load(fs, "data", random_geometries(200, seed=81), num_shards=4,
                  num_partitions=16, page_size=512)
        shipped = []
        send, local_phase = Communicator.send, DistributedStoreServer._local_phase

        def spy_send(comm, obj, *args, **kwargs):
            shipped.append(("plan" if comm.rank == 0 else "rows", comm.rank, obj))
            return send(comm, obj, *args, **kwargs)

        def spy_local_phase(server, *args, **kwargs):
            rows = local_phase(server, *args, **kwargs)
            if server.comm.rank == 0:
                shipped.append(("rows", 0, rows))
            return rows

        monkeypatch.setattr(Communicator, "send", spy_send)
        monkeypatch.setattr(DistributedStoreServer, "_local_phase", spy_local_phase)
        return fs, shipped

    @staticmethod
    def rows_nbytes(rows):
        """The documented formula, by actually encoding: 40 bytes of ids per
        hit, the geometry's WKB, its userdata."""
        from repro.geometry import wkb
        from repro.mpisim import payload_nbytes
        from repro.store import DistributedHit

        # (batch position, the serving rank's finished hits)
        assert all(len(chunk) == 2 for chunk in rows)
        hits = [hit for _, found in rows for hit in found]
        assert all(type(hit) is DistributedHit for hit in hits)
        return sum(40 + len(wkb.dumps(h.geometry)) + payload_nbytes(h.geometry.userdata) for h in hits)

    @staticmethod
    def plan_nbytes(message):
        """The documented message formula, by actually encoding it: each
        query ships its id and its window (the batch position is implicit),
        an envelope as four doubles, a geometry as its WKB and userdata."""
        from repro.geometry import Geometry, wkb
        from repro.mpisim import payload_nbytes

        total = 0
        for _, window in message:
            if isinstance(window, Geometry):
                total += 8 + len(wkb.dumps(window)) + payload_nbytes(window.userdata)
            else:
                assert isinstance(window, Envelope)
                total += 8 + 32
        return total

    @staticmethod
    def windows(count, seed=82, size=0.3):
        envs = random_envelopes(count, extent=Envelope(0.0, 0.0, 100.0, 100.0),
                                max_size_fraction=size, seed=seed)
        return [(f"q{i}", env) for i, env in enumerate(envs)]

    @pytest.mark.parametrize("nprocs", (1, 2, 4))
    def test_result_payload_nbytes_is_the_documented_formula(self, wire, nprocs):
        fs, shipped = wire
        hits = serve_distributed(fs, "data", self.windows(40), nprocs)
        payloads = [obj for op, _, obj in shipped if op == "rows"]
        shipped_hits = sum(len(found) for rows in payloads for _, found in rows)
        assert len(payloads) == nprocs and shipped_hits >= len(hits) > 0
        for rows in payloads:
            assert rows.failures == []
            assert rows.nbytes == self.rows_nbytes(rows)
            # the serving rank fills in the query id the batch carried
            assert all(h.query_id == f"q{idx}" for idx, found in rows for h in found)
        assert {h.query_id for h in hits} <= {f"q{i}" for i in range(40)}

    def test_bytes_charged_equal_the_payload_sizes(self, wire):
        from repro.obs.metrics import MetricsRegistry
        from repro.store import AsyncStoreFrontend

        fs, shipped = wire
        batch = self.windows(40)

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "data") as server:
                registry = MetricsRegistry()
                comm.attach_metrics(registry)  # after open: its bcast is not serving
                server.range_query_batch(batch if comm.rank == 0 else None)
                first = dict(registry.snapshot()["counters"])
                AsyncStoreFrontend(server, max_in_flight=2).serve(
                    [batch[:25], batch[25:]] if comm.rank == 0 else None
                )
                comm.detach_metrics()
                return first, registry.snapshot()["counters"]

        (root_first, root_all), (peer_first, peer_all) = mpisim.run_spmd(prog, 2).values
        plans = [obj for op, _, obj in shipped if op == "plan"]
        peer_rows = [obj for op, rank, obj in shipped if op == "rows" and rank == 1]
        assert len(plans) == len(peer_rows) == 3 and all(ctx is None for ctx, _ in plans)
        # the one batch of range_query_batch: the root sends the peer the
        # whole batch (query id + MPI_RECT = 40 bytes a query, the position
        # implicit), the peer its rows; the only collective is the header
        # (batch count + partial_ok, and a deadline of None), broadcast by
        # the root
        assert plans[0][1] == batch
        assert root_first["comm.bytes_sent"] == self.plan_nbytes(plans[0][1]) == 40 * len(batch)
        assert peer_first["comm.bytes_sent"] == self.rows_nbytes(peer_rows[0]) > 0
        assert (root_first["comm.bytes_collective"], peer_first.get("comm.bytes_collective", 0)) == (16, 0)
        # front-end: the same sizes, batch by batch, on the same transport
        assert [message for _, message in plans[1:]] == [batch[:25], batch[25:]]
        assert root_all["comm.bytes_sent"] == sum(
            self.plan_nbytes(message) for _, message in plans
        ) == 40 * 2 * len(batch)
        assert peer_all["comm.bytes_sent"] == sum(map(self.rows_nbytes, peer_rows))

    def test_plans_of_64_and_65_entries_are_priced_by_one_rule(self, wire):
        from repro.mpisim import payload_nbytes

        fs, shipped = wire
        for count in (64, 65):
            del shipped[:]
            everything = [(i, Envelope(0.0, 0.0, 100.0, 100.0)) for i in range(count)]
            serve_distributed(fs, "data", everything, 3)
            plans = [obj for op, _, obj in shipped if op == "plan"]
            assert [len(entries) for _, entries in plans] == [count, count]
            assert [entries.nbytes for _, entries in plans] == [
                self.plan_nbytes(entries) for _, entries in plans
            ] == [40 * count, 40 * count]
            assert [payload_nbytes(plan) for plan in plans] == [40 * count, 40 * count]

    @pytest.mark.parametrize("nprocs", (2, 4, 8))
    def test_every_serving_rank_is_sent_the_whole_batch(self, wire, nprocs):
        # small windows meet few shards, and at 8 ranks four ranks hold no
        # shard: each is still sent the one sized message of the whole batch
        fs, shipped = wire
        batch = self.windows(40, size=0.05)
        serve_distributed(fs, "data", batch, nprocs)
        plans = [obj for op, _, obj in shipped if op == "plan"]
        assert len(plans) == nprocs - 1 and all(plan is plans[0] for plan in plans)
        ctx, message = plans[0]
        assert ctx is None and message == batch and message.nbytes == 40 * len(batch)

    def test_a_range_query_costs_40_bytes_and_a_join_probe_8_plus_its_body(self, wire):
        # a range query is 40 bytes: query id and window, its position
        # implicit; a join is the range batch whose windows are its probes,
        # each probe's query id its position: 8 + WKB + userdata each
        from repro.geometry import wkb
        from repro.mpisim import payload_nbytes

        fs, shipped = wire
        batch = self.windows(30)
        probes = [Polygon.from_envelope(env, userdata=i) for i, (_, env) in enumerate(batch)]

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "data") as server:
                server.range_query_batch(batch if comm.rank == 0 else None)
                return server.join(probes if comm.rank == 0 else None)

        pairs = mpisim.run_spmd(prog, 2).values[0]
        (_, ranged), (_, joined) = [obj for op, _, obj in shipped if op == "plan"]
        assert ranged == batch and joined == list(enumerate(probes)) and pairs
        assert ranged.nbytes == 40 * len(batch) == self.plan_nbytes(ranged)
        assert joined.nbytes == sum(
            8 + len(wkb.dumps(probe)) + payload_nbytes(probe.userdata) for probe in probes
        ) == self.plan_nbytes(joined)
        assert all(sent is probe for (_, sent), probe in zip(joined, probes))

    def test_a_mixed_batch_costs_40_bytes_an_envelope_and_8_plus_its_body_a_geometry(self, wire):
        # one request shape: envelopes and geometries ride one message,
        # through range_query_batch and through the front-end, and the bytes
        # the communicator charges are that message's
        from repro.geometry import wkb
        from repro.mpisim import payload_nbytes
        from repro.obs.metrics import MetricsRegistry
        from repro.store import AsyncStoreFrontend

        fs, shipped = wire
        envs = [env for _, env in self.windows(6)]
        batch = [
            ("e0", envs[0]),
            ("poly", Polygon([(10.0, 10.0), (60.0, 15.0), (20.0, 70.0)], userdata="p")),
            ("e1", envs[1]),
            ("point", Point(50.0, 50.0)),
            ("line", LineString([(0.0, 0.0), (40.0, 90.0), (90.0, 10.0)], userdata=7)),
            ("e2", envs[2]),
        ]
        geoms = [w for _, w in batch if not isinstance(w, Envelope)]
        expected = 40 * 3 + sum(
            8 + len(wkb.dumps(g)) + payload_nbytes(g.userdata) for g in geoms
        )

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "data") as server:
                registry = MetricsRegistry()
                comm.attach_metrics(registry)
                hits = server.range_query_batch(batch if comm.rank == 0 else None)
                AsyncStoreFrontend(server, max_in_flight=2).serve(
                    [batch[:3], batch[3:]] if comm.rank == 0 else None
                )
                comm.detach_metrics()
                return hits, registry.snapshot()["counters"]

        hits, root = mpisim.run_spmd(prog, 2).values[0]
        plans = [obj[1] for op, _, obj in shipped if op == "plan"]
        assert [list(m) for m in plans] == [batch, batch[:3], batch[3:]]
        assert [m.nbytes for m in plans] == [
            expected, self.plan_nbytes(batch[:3]), self.plan_nbytes(batch[3:])
        ]
        assert plans[0].nbytes == self.plan_nbytes(batch)
        assert plans[1].nbytes + plans[2].nbytes == expected
        assert root["comm.bytes_sent"] == 2 * expected
        assert {"poly", "line"} <= {h.query_id for h in hits} <= {qid for qid, _ in batch}

    def test_each_record_is_priced_once_and_exactly(self, wire, monkeypatch):
        # the second of two identical batches on one server prices every
        # hit from the memo, and both are priced by the documented formula
        from repro.store import sharded

        fs, shipped = wire
        batch = self.windows(40)
        priced = []
        body_nbytes = sharded.body_nbytes
        monkeypatch.setattr(sharded, "body_nbytes", lambda g: priced.append(g) or body_nbytes(g))

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "data") as server:
                counts = []
                for _ in range(2):
                    server.range_query_batch(batch if comm.rank == 0 else None)
                    comm.barrier()
                    counts.append(len(priced))
                return counts

        first, second = mpisim.run_spmd(prog, 2).values[0]
        payloads = [(rank, obj) for op, rank, obj in shipped if op == "rows"]
        assert len(payloads) == 4 and first > 0 and second == first
        for _, rows in payloads:
            assert rows.nbytes == self.rows_nbytes(rows)
        for rank in (0, 1):
            assert len({rows.nbytes for r, rows in payloads if r == rank}) == 1

    @pytest.mark.parametrize("cache_pages", (0, 2))
    def test_the_memo_holds_no_more_pages_than_the_cache(self, wire, cache_pages):
        # a page's sizes leave the memo with the page: a cache far smaller
        # than the pages a batch touches bounds the memo, and every batch
        # is still priced by the documented formula
        fs, shipped = wire
        batch = self.windows(40)

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "data", cache_pages=cache_pages) as server:
                held = []
                for _ in range(3):
                    server.range_query_batch(batch if comm.rank == 0 else None)
                    held.append({sid: sum(map(len, memo)) for sid, memo in server._body_sizes.items()})
                return held

        for held in mpisim.run_spmd(prog, 2).values:
            assert all(pages <= cache_pages for rank_held in held for pages in rank_held.values())
        payloads = [(rank, obj) for op, rank, obj in shipped if op == "rows"]
        assert len(payloads) == 6 and sum(rows.num_hits() for _, rows in payloads) > 0
        for _, rows in payloads:
            assert rows.nbytes == self.rows_nbytes(rows)
        for rank in (0, 1):
            assert len({rows.nbytes for r, rows in payloads if r == rank}) == 1

    def test_batches_after_a_failover_are_priced_exactly(self, wire):
        from repro.store.format import HEADER_SIZE, unpack_header

        fs, shipped = wire
        result = bulk_load(fs, "replicated", random_geometries(200, seed=81), num_shards=4,
                           num_partitions=16, page_size=512, read_replicas=1)
        victim = next(s for s in result.manifest.shards if s.num_pages > 0)
        path = f"stores/{victim.store}/data.bin"
        with fs.open(path) as fh:
            raw = fh.pread(0, fh.size)
        index_offset = unpack_header(raw[:HEADER_SIZE]).index_offset
        fs.create_file(
            path, raw[:HEADER_SIZE] + bytes(index_offset - HEADER_SIZE) + raw[index_offset:]
        )
        batch = self.windows(40)

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "replicated") as server:
                hits = [server.range_query_batch(batch if comm.rank == 0 else None)
                        for _ in range(2)]
                return hits, server.aggregate_metrics()["counters"]["server.failovers"]

        (first, second), failovers = mpisim.run_spmd(prog, 2).values[0]
        assert failovers == 1 and first == second
        payloads = [obj for op, _, obj in shipped if op == "rows"]
        assert len(payloads) == 4 and all(rows.failures == [] for rows in payloads)
        for rows in payloads:
            assert rows.nbytes == self.rows_nbytes(rows)
