"""Serving-correctness battery for the sharded store.

The invariant under test: for any dataset and query workload, the
record-id-de-duplicated results of distributed serving equal the
single-store results equal a brute-force scan — ids *and* geometries —
for every rank count, including ranks without shards, empty shards and
replicas spanning shard boundaries.
"""

import random

import pytest

from repro import mpisim
from repro.core import GridPartitionConfig, RangeQuery, SpatialJoin
from repro.datasets import random_envelopes
from repro.geometry import Envelope, LineString, Point, Polygon, predicates
from repro.pfs import LustreFilesystem
from repro.store import (
    DistributedStoreServer,
    SpatialDataStore,
    bulk_load,
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
    """Run one distributed batch; returns rank 0's de-duplicated hits."""

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


class TestReplicaDeduplication:
    def test_cross_shard_replicas_reported_once(self, tmp_path):
        fs = make_fs(tmp_path)
        # wide horizontal slabs overlap every grid column -> replicas in
        # every shard; small squares stay local
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

        # precondition: at least one record is really replicated across shards
        shard_record_sets = []
        for shard in result.manifest.shards:
            store = SpatialDataStore.open(fs, shard.store)
            shard_record_sets.append({rid for rid, _ in store.scan()})
            store.close()
        replicated = set()
        for i, a in enumerate(shard_record_sets):
            for b in shard_record_sets[i + 1:]:
                replicated |= a & b
        assert replicated, "test dataset must produce cross-shard replicas"

        window = Envelope(0.0, 0.0, 100.0, 100.0)
        for nprocs in NPROCS:
            hits = serve_distributed(fs, "data", [(0, window)], nprocs)
            ids = [h.record_id for h in hits]
            assert len(ids) == len(set(ids))
            assert sorted(ids) == list(range(len(geoms)))

    def test_total_replicas_preserved_by_sharding(self, tmp_path):
        fs = make_fs(tmp_path)
        geoms = random_geometries(100, seed=13)
        sharded = bulk_load(fs, "data", geoms, num_shards=4,
                            num_partitions=16, page_size=512)
        single = bulk_load(fs, "data_single", geoms, num_partitions=16,
                           page_size=512)
        assert sharded.num_replicas == single.num_replicas
        assert sharded.num_records == single.num_records
        assert sum(s.num_replicas for s in sharded.manifest.shards) == single.num_replicas


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
            return SpatialJoin(fs, grid_config=cfg).run_gathered(
                comm, "datasets/left.wkt", "datasets/right.wkt"
            )

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

    def test_local_geometries_matches_local_records(self, tmp_path):
        fs = make_fs(tmp_path)
        geoms = random_geometries(50, seed=95)
        bulk_load(fs, "data", geoms, num_shards=4, num_partitions=16,
                  page_size=512)

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "data") as server:
                records = server.local_records()
                # fresh server so the two reads see identical cache state
                return [g.userdata for _, g in records]

        values = mpisim.run_spmd(prog, 4).values
        all_ids = sorted(uid for chunk in values for uid in chunk)
        assert all_ids == list(range(len(geoms)))

    def test_buggy_join_predicate_is_not_blamed_on_a_shard(self, tmp_path):
        fs = make_fs(tmp_path)
        geoms = random_geometries(40, seed=97)
        bulk_load(fs, "data", geoms, num_shards=2, num_partitions=8,
                  page_size=512)
        probes = [Polygon.from_envelope(Envelope(0.0, 0.0, 100.0, 100.0))]

        def bad_predicate(probe, geom):
            raise ValueError("user predicate bug")

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "data") as server:
                return server.join(probes if comm.rank == 0 else None, bad_predicate)

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


class TestWireSizes:
    """Every serving-path message reports the bytes a WKB wire would carry
    (store README, "The wire"); the tests recompute them from what the ranks
    actually handed to the communicator."""

    @pytest.fixture
    def wire(self, tmp_path, monkeypatch):
        """A 4-shard store plus every object given to ``gather`` / ``scatter``
        / ``send`` while the test runs, as ``(op, rank, object)``."""
        from repro.mpisim import Communicator

        fs = make_fs(tmp_path)
        bulk_load(fs, "data", random_geometries(200, seed=81), num_shards=4,
                  num_partitions=16, page_size=512)
        shipped = []
        for op in ("gather", "scatter", "send"):
            def spy(comm, obj, *args, _call=getattr(Communicator, op), _op=op, **kwargs):
                shipped.append((_op, comm.rank, obj))
                return _call(comm, obj, *args, **kwargs)
            monkeypatch.setattr(Communicator, op, spy)
        return fs, shipped

    @staticmethod
    def rows_nbytes(rows):
        """The documented formula, by actually encoding: 40 bytes of ids per
        row, the geometry's WKB, its userdata."""
        from repro.geometry import wkb
        from repro.mpisim import payload_nbytes

        assert all(len(row) == 6 for row in rows)  # no query id on the wire
        return sum(40 + len(wkb.dumps(row[5])) + payload_nbytes(row[5].userdata) for row in rows)

    @staticmethod
    def windows(count, seed=82, size=0.3):
        envs = random_envelopes(count, extent=Envelope(0.0, 0.0, 100.0, 100.0),
                                max_size_fraction=size, seed=seed)
        return [(f"q{i}", env) for i, env in enumerate(envs)]

    @pytest.mark.parametrize("nprocs", (1, 2, 4))
    def test_result_payload_nbytes_is_the_documented_formula(self, wire, nprocs):
        fs, shipped = wire
        hits = serve_distributed(fs, "data", self.windows(40), nprocs)
        payloads = [obj for op, _, obj in shipped if op == "gather"]
        assert len(payloads) == nprocs and sum(len(rows) for rows in payloads) >= len(hits) > 0
        for rows in payloads:
            assert rows.failures == []
            assert rows.nbytes == self.rows_nbytes(rows)
        # query ids are filled in at rank 0 from its own batch
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
                collective = registry.snapshot()["counters"]["comm.bytes_collective"]
                AsyncStoreFrontend(server, max_in_flight=2).serve(
                    [batch[:25], batch[25:]] if comm.rank == 0 else None
                )
                comm.detach_metrics()
                counters = registry.snapshot()["counters"]
                return collective, counters.get("comm.bytes_sent", 0)

        (root_coll, root_sent), (peer_coll, peer_sent) = mpisim.run_spmd(prog, 2).values
        gathered = {rank: obj for op, rank, obj in shipped if op == "gather"}
        (plan,) = [obj for op, rank, obj in shipped if op == "scatter" and rank == 0]
        plan_entries = sum(len(entries) for _, entries in plan)
        assert all(ctx is None for ctx, _ in plan) and plan_entries >= 40
        # collective serving: the root ships every plan entry (position +
        # MPI_RECT = 40 bytes) and its own rows, the peer only its rows
        assert root_coll == 40 * plan_entries + self.rows_nbytes(gathered[0])
        assert peer_coll == self.rows_nbytes(gathered[1])
        # front-end: the same sizes as tagged point-to-point messages (the
        # header bcast and closing allgather are collectives, not sends)
        sends = [(rank, obj) for op, rank, obj in shipped if op == "send"]
        assert root_sent == sum(40 * len(obj[1]) for rank, obj in sends if rank == 0) > 0
        assert peer_sent == sum(self.rows_nbytes(obj) for rank, obj in sends if rank == 1) > 0

    def test_plans_of_64_and_65_entries_are_priced_by_one_rule(self, wire):
        from repro.mpisim import payload_nbytes

        fs, shipped = wire
        for count in (64, 65):
            del shipped[:]
            everything = [(i, Envelope(0.0, 0.0, 100.0, 100.0)) for i in range(count)]
            serve_distributed(fs, "data", everything, 2)
            (plan,) = [obj for op, rank, obj in shipped if op == "scatter" and rank == 0]
            assert [len(entries) for _, entries in plan] == [count, count]
            assert [entries.nbytes for _, entries in plan] == [40 * count, 40 * count]
            assert payload_nbytes(plan) == 2 * 40 * count
