"""Manifest JSON round-trip, partition pruning, ``shards.json`` and corrupted
documents."""

import json
from dataclasses import dataclass

import pytest

from repro import mpisim
from repro.datasets import random_envelopes
from repro.geometry import Envelope, Polygon
from repro.index import STRtree
from repro.pfs import LustreFilesystem
from repro.store import (
    DistributedStoreServer,
    PageKey,
    PartitionInfo,
    ShardInfo,
    ShardsManifest,
    SpatialDataStore,
    StoreAppender,
    StoreError,
    StoreFormatError,
    StoreManifest,
    bulk_load,
    delta_paths,
    shards_path,
    store_paths,
)
from repro.store.engine import QueryPlanner
from repro.store.manifest import _json_codec


def make_manifest():
    return StoreManifest(
        name="lakes",
        page_size=4096,
        num_records=100,
        num_pages=3,
        extent=Envelope(0, 0, 100, 100),
        grid_rows=2,
        grid_cols=2,
        next_record_id=100,
        partitions=[
            PartitionInfo(0, Envelope(0, 0, 50, 50), Envelope(5, 5, 45, 45), [0, 1], 60),
            PartitionInfo(3, Envelope(50, 50, 100, 100), Envelope(60, 60, 90, 90), [2], 40),
        ],
    )


class TestManifest:
    def test_a_record_whose_fields_and_json_keys_differ_fails_at_definition(self):
        with pytest.raises(TypeError, match="2 fields but 1 JSON keys"):

            @_json_codec("a")
            @dataclass
            class Pair:
                a: int
                b: int

    def test_json_round_trip(self):
        m = make_manifest()
        back = StoreManifest.from_json(m.to_json())
        assert back == m

    def test_empty_extent_round_trips(self):
        m = make_manifest()
        m.extent = Envelope.empty()
        back = StoreManifest.from_json(m.to_json())
        assert back.extent.is_empty

    def test_partition_pruning(self):
        # the planner prunes with the packed index alone (its leaves hold the
        # record envelopes the partition data MBRs are unions of); the
        # manifest only names the partition that owns a candidate page
        m = make_manifest()
        index = STRtree(
            [
                (Envelope(5, 5, 20, 20), (0, 0)),
                (Envelope(30, 30, 45, 45), (1, 0)),
                (Envelope(60, 60, 90, 90), (2, 0)),
            ]
        )
        planner = QueryPlanner(m, index)
        owner = m.partition_of_page()

        def partitions(window):
            return sorted({owner[key.page_id] for key in planner.candidate_slots(window)})

        assert planner.candidate_slots(Envelope(0, 0, 10, 10)) == {PageKey(0, 0): [0]}
        assert partitions(Envelope(0, 0, 10, 10)) == [0]
        assert partitions(Envelope(70, 70, 80, 80)) == [3]
        # between the two data MBRs: nothing qualifies
        assert planner.candidate_slots(Envelope(46, 46, 55, 55)) == {}
        assert planner.candidate_slots(Envelope.empty()) == {}

    def test_partition_of_page(self):
        owner = make_manifest().partition_of_page()
        assert owner == {0: 0, 1: 0, 2: 3}

    def test_rejects_foreign_document(self):
        with pytest.raises(ValueError, match="manifest"):
            StoreManifest.from_json('{"format": "something-else"}')

    def test_rejects_bad_json(self):
        with pytest.raises(ValueError, match="JSON"):
            StoreManifest.from_json("{nope")

    def test_store_paths_layout(self):
        # the packed index lives inside the data container: two files
        assert store_paths("roads") == {
            "data": "stores/roads/data.bin",
            "manifest": "stores/roads/manifest.json",
        }
        assert delta_paths("roads", 3) == {"data": "stores/roads/delta-0003.bin"}


def make_shards_manifest():
    return ShardsManifest(
        name="m",
        page_size=4096,
        num_records=30,
        extent=Envelope(0.0, 0.0, 100.0, 100.0),
        grid_rows=4,
        grid_cols=4,
        next_record_id=30,
        shards=[
            ShardInfo(0, "m/shard-0000", [0, 1, 2], Envelope(0.0, 0.0, 60.0, 30.0), 10, 12, 3),
            ShardInfo(1, "m/shard-0001", [3, 4, 5, 6], Envelope(40.0, 0.0, 100.0, 60.0), 12, 14, 4),
            ShardInfo(2, "m/shard-0002", [7, 8], Envelope(0.0, 50.0, 50.0, 100.0), 8, 8, 2),
            ShardInfo(3, "m/shard-0003", list(range(9, 16)), Envelope.empty(), 0, 0, 0),
        ],
    )


class TestShardsManifest:
    def test_json_round_trip(self):
        manifest = make_shards_manifest()
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
            assert (a.num_records, a.num_pages) == (b.num_records, b.num_pages)

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            ShardsManifest.from_json("{}")
        with pytest.raises(ValueError):
            ShardsManifest.from_json("not json at all")
        doc = make_shards_manifest().to_json().replace('"version": 2', '"version": 99')
        with pytest.raises(ValueError, match="version"):
            ShardsManifest.from_json(doc)

    def test_partition_to_shard_is_a_disjoint_cover(self):
        manifest = make_shards_manifest()
        owner = manifest.partition_to_shard()
        assert owner == {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1, 6: 1, 7: 2, 8: 2,
                         **{cell: 3 for cell in range(9, 16)}}


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
            for suffix in ("data.bin", "manifest.json"):
                assert fs.exists(f"stores/{shard.store}/{suffix}")
            assert not fs.exists(f"stores/{shard.store}/index.bin")
        # round-trip through the persisted document
        with fs.open(shards_path("disk")) as fh:
            raw = fh.pread(0, fh.size)
        back = ShardsManifest.from_json(raw.decode("utf-8"))
        assert back.num_shards == 2
        assert back.num_records == result.num_records


# --------------------------------------------------------------------------- #
# a corrupted manifest is a StoreError on every reader, in lockstep on every rank
# --------------------------------------------------------------------------- #
def _bad_json(raw, key):
    return raw[: len(raw) // 2]


def _edit(change):
    def corrupt(raw, key):
        doc = json.loads(raw)
        change(doc, key)
        return json.dumps(doc).encode()

    return corrupt


def _non_list_field(doc, key):
    # a list field holding a number must fail in the parser, not later as a
    # raw TypeError (or never: shards.json's replica list is read only on
    # failover)
    if key == "shards":
        doc["shards"][0]["replica_stores"] = 5
    else:
        doc["partitions"][0]["pages"] = 5


CORRUPTIONS = {
    "bad_json": _bad_json,
    "format_tag": _edit(lambda doc, key: doc.update(format="something-else")),
    "version": _edit(lambda doc, key: doc.update(version=99)),
    # the retired version-1 documents are no longer read
    "retired_version": _edit(lambda doc, key: doc.update(version=1)),
    "missing_key": _edit(lambda doc, key: doc.pop(key)),
    "ill_typed_key": _edit(lambda doc, key: doc.update({key: "oops"})),
    "missing_nested_key": _edit(lambda doc, key: doc["grid"].pop("rows")),
    # every writer records the id ceiling; without it an append could
    # hand out an id a live record holds
    "missing_ceiling": _edit(lambda doc, key: doc.pop("next_record_id")),
    "non_list_field": _edit(_non_list_field),
}
#: document -> (path in a two-shard store "sh", the key it cannot lack)
DOCUMENTS = {
    "manifest.json": (store_paths("sh/shard-0000")["manifest"], "grid"),
    "shards.json": (shards_path("sh"), "shards"),
}


def _swap_shard_ids(doc, key):
    # serving indexes shards by id: swapped ids died as a bare KeyError
    for shard in doc["shards"]:
        shard["id"] = 1 - shard["id"]


def _own_a_cell_twice(doc, key):
    # the cell's records were served by both shards: duplicate rows
    doc["shards"][1]["partitions"].insert(0, doc["shards"][0]["partitions"][-1])


def _drop_a_cell(doc, key):
    # an append homed in the cell would have no shard to go to
    doc["shards"][1]["partitions"].pop()


def _own_a_cell_off_the_grid(doc, key):
    cells = doc["grid"]["rows"] * doc["grid"]["cols"]
    doc["shards"][1]["partitions"][-1] = cells


#: shards.json only: the ownership routing and de-duplication rely on
OWNERSHIP = {
    "swapped_shard_ids": _swap_shard_ids,
    "cell_owned_twice": _own_a_cell_twice,
    "cell_unowned": _drop_a_cell,
    "cell_off_the_grid": _own_a_cell_off_the_grid,
}


@pytest.fixture
def corrupted(tmp_path, request):
    document, corruption = request.param
    fs = LustreFilesystem(tmp_path / "pfs")
    geoms = [Polygon.from_envelope(Envelope(i, i, i + 3, i + 2)) for i in range(40)]
    bulk_load(fs, "sh", geoms, num_partitions=4, page_size=256, num_shards=2)
    path, key = DOCUMENTS[document]
    with fs.open(path) as fh:
        raw = fh.pread(0, fh.size)
    corrupt = CORRUPTIONS.get(corruption) or _edit(OWNERSHIP[corruption])
    fs.create_file(path, corrupt(raw, key))
    return fs, document


CASES = [(doc, corruption) for doc in DOCUMENTS for corruption in CORRUPTIONS]
CASES += [("shards.json", corruption) for corruption in OWNERSHIP]


@pytest.mark.parametrize("corrupted", CASES, indirect=True, ids=["-".join(c) for c in CASES])
class TestCorruptManifests:
    def test_the_local_reader_raises_a_store_error(self, corrupted):
        fs, document = corrupted
        with pytest.raises(StoreFormatError):
            if document == "manifest.json":
                SpatialDataStore.open(fs, "sh/shard-0000")
            else:
                StoreAppender(fs, "sh")

    def test_a_two_rank_distributed_open_raises_instead_of_hanging(self, corrupted):
        fs, _ = corrupted

        def prog(comm):
            DistributedStoreServer.open(comm, fs, "sh").close()

        with pytest.raises(StoreError):
            mpisim.run_spmd(prog, 2, timeout=10)
