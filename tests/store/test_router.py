"""Routing layer: ``shards.json`` round-trips, shard pruning, scatter plans
and the partition-ownership rule that de-duplicates replicas for pipeline
input."""

import pytest

from repro.datasets import random_envelopes
from repro.geometry import Envelope, Polygon
from repro.pfs import LustreFilesystem
from repro.store import (
    ShardInfo,
    ShardRouter,
    ShardsManifest,
    SpatialDataStore,
    shard_assignment,
    bulk_load,
    shards_path,
)


def make_manifest():
    return ShardsManifest(
        name="m",
        page_size=4096,
        num_records=30,
        extent=Envelope(0.0, 0.0, 100.0, 100.0),
        grid_rows=4,
        grid_cols=4,
        shards=[
            ShardInfo(0, "m/shard-0000", [0, 1, 2], Envelope(0.0, 0.0, 60.0, 30.0), 10, 12, 3),
            ShardInfo(1, "m/shard-0001", [3, 4, 5, 6], Envelope(40.0, 0.0, 100.0, 60.0), 12, 14, 4),
            ShardInfo(2, "m/shard-0002", [7, 8], Envelope(0.0, 50.0, 50.0, 100.0), 8, 8, 2),
            ShardInfo(3, "m/shard-0003", [], Envelope.empty(), 0, 0, 0),
        ],
    )


class TestShardsManifest:
    def test_json_round_trip(self):
        manifest = make_manifest()
        back = ShardsManifest.from_json(manifest.to_json())
        assert back.name == manifest.name
        assert back.num_shards == 4
        assert back.num_records == 30
        assert back.extent.as_tuple() == manifest.extent.as_tuple()
        assert (back.grid_rows, back.grid_cols) == (4, 4)
        for a, b in zip(back.shards, manifest.shards):
            assert a.shard_id == b.shard_id
            assert a.store == b.store
            assert a.partition_ids == b.partition_ids
            assert a.extent.is_empty == b.extent.is_empty
            if not a.extent.is_empty:
                assert a.extent.as_tuple() == b.extent.as_tuple()
            assert (a.num_records, a.num_replicas, a.num_pages) == (
                b.num_records, b.num_replicas, b.num_pages)

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            ShardsManifest.from_json("{}")
        with pytest.raises(ValueError):
            ShardsManifest.from_json("not json at all")
        doc = make_manifest().to_json().replace('"version": 2', '"version": 99')
        with pytest.raises(ValueError, match="version"):
            ShardsManifest.from_json(doc)

    def test_partition_to_shard_is_a_disjoint_cover(self):
        manifest = make_manifest()
        owner = manifest.partition_to_shard()
        assert owner == {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1, 6: 1, 7: 2, 8: 2}


class TestShardPruning:
    def test_shards_for_matches_brute_force(self):
        manifest = make_manifest()
        router = ShardRouter(manifest)
        for env in random_envelopes(50, extent=Envelope(-10.0, -10.0, 110.0, 110.0),
                                    max_size_fraction=0.4, seed=8):
            got = {s.shard_id for s in router.shards_for(env)}
            expected = {
                s.shard_id
                for s in manifest.shards
                if not s.extent.is_empty and s.extent.intersects(env)
            }
            assert got == expected

    def test_empty_window_prunes_everything(self):
        router = ShardRouter(make_manifest())
        assert router.shards_for(Envelope.empty()) == []

    def test_empty_shard_never_routed(self):
        router = ShardRouter(make_manifest())
        full = Envelope(-1e6, -1e6, 1e6, 1e6)
        assert 3 not in {s.shard_id for s in router.shards_for(full)}


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
        from collections import Counter
        loads = Counter(ranks)
        assert max(loads.values()) - min(loads.values()) <= 1

    def test_more_ranks_than_shards_leaves_ranks_idle(self):
        assignment = shard_assignment(2, 8)
        assert len(set(assignment.values())) == 2

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            shard_assignment(4, 0)


class TestScatterPlan:
    def test_plan_covers_every_intersecting_shard_rank(self):
        manifest = make_manifest()
        router = ShardRouter(manifest)
        for nranks in (1, 2, 4, 8):
            assignment = shard_assignment(manifest.num_shards, nranks)
            queries = [
                (i, env)
                for i, env in enumerate(
                    random_envelopes(30, extent=Envelope(0.0, 0.0, 100.0, 100.0),
                                     max_size_fraction=0.3, seed=9)
                )
            ]
            plan = router.plan(queries, assignment, nranks)
            assert len(plan) == nranks
            for idx, (qid, env) in enumerate(queries):
                target_ranks = {assignment[s.shard_id] for s in router.shards_for(env)}
                for rank in range(nranks):
                    present = any(i == idx for i, _, _ in plan[rank])
                    assert present == (rank in target_ranks)

    def test_query_sent_once_per_rank_not_per_shard(self):
        # two shards on one rank must not duplicate the query in its list
        manifest = make_manifest()
        router = ShardRouter(manifest)
        assignment = shard_assignment(manifest.num_shards, 1)
        window = Envelope(0.0, 0.0, 100.0, 100.0)  # touches shards 0, 1, 2
        plan = router.plan([("q", window)], assignment, 1)
        assert len(plan[0]) == 1


class TestPartitionOwnership:
    def test_home_partition_matches_writer_replication(self, tmp_path):
        fs = LustreFilesystem(tmp_path / "pfs")
        geoms = [
            Polygon.from_envelope(env, userdata=i)
            for i, env in enumerate(
                random_envelopes(80, extent=Envelope(0.0, 0.0, 100.0, 100.0),
                                 max_size_fraction=0.15, seed=12)
            )
        ]
        result = bulk_load(fs, "own", geoms, num_shards=4,
                           num_partitions=16, page_size=512)
        router = ShardRouter(result.manifest)

        # collect each record's replica partitions straight from the shards
        replica_partitions = {}
        for shard in result.manifest.shards:
            store = SpatialDataStore.open(fs, shard.store)
            for hit in store.range_query(result.manifest.extent, exact=False):
                replica_partitions.setdefault(hit.record_id, set()).add(hit.partition_id)
            store.close()

        for rid, geom in enumerate(geoms):
            home = router.home_partition(geom.envelope)
            # the home partition really holds a replica of the record …
            assert home in replica_partitions[rid]
            # … and is the lowest-numbered one (the deterministic owner)
            assert home == min(replica_partitions[rid])

    def test_home_partition_rejects_empty_envelope(self):
        router = ShardRouter(make_manifest())
        with pytest.raises(ValueError):
            router.home_partition(Envelope.empty())


class TestShardsOnDisk:
    def test_layout_paths(self, tmp_path):
        fs = LustreFilesystem(tmp_path / "pfs")
        geoms = [
            Polygon.from_envelope(env, userdata=i)
            for i, env in enumerate(
                random_envelopes(20, extent=Envelope(0.0, 0.0, 10.0, 10.0),
                                 max_size_fraction=0.2, seed=4)
            )
        ]
        result = bulk_load(fs, "disk", geoms, num_shards=2,
                           num_partitions=4, page_size=512)
        assert fs.exists(shards_path("disk"))
        for shard in result.manifest.shards:
            for suffix in ("data.bin", "index.bin", "manifest.json"):
                assert fs.exists(f"stores/{shard.store}/{suffix}")
        # round-trip through the persisted document
        with fs.open(shards_path("disk")) as fh:
            raw = fh.pread(0, fh.size)
        back = ShardsManifest.from_json(raw.decode("utf-8"))
        assert back.num_shards == 2
        assert back.num_records == result.num_records
