"""Manifest JSON round-trip, partition pruning and corrupted documents."""

import json

import pytest

from repro import mpisim
from repro.geometry import Envelope, Polygon
from repro.index import STRtree
from repro.pfs import LustreFilesystem
from repro.store import (
    DistributedStoreServer,
    PageKey,
    PartitionInfo,
    RecordRef,
    SpatialDataStore,
    StoreAppender,
    StoreError,
    StoreFormatError,
    StoreManifest,
    bulk_load,
    shards_path,
    store_paths,
)
from repro.store.engine import QueryPlanner


def make_manifest():
    return StoreManifest(
        name="lakes",
        page_size=4096,
        num_records=100,
        num_pages=3,
        extent=Envelope(0, 0, 100, 100),
        grid_rows=2,
        grid_cols=2,
        partitions=[
            PartitionInfo(0, Envelope(0, 0, 50, 50), Envelope(5, 5, 45, 45), [0, 1], 60),
            PartitionInfo(3, Envelope(50, 50, 100, 100), Envelope(60, 60, 90, 90), [2], 40),
        ],
    )


class TestManifest:
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
                (Envelope(5, 5, 20, 20), RecordRef(0, 0)),
                (Envelope(30, 30, 45, 45), RecordRef(1, 0)),
                (Envelope(60, 60, 90, 90), RecordRef(2, 0)),
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
        paths = store_paths("roads")
        assert paths["data"] == "stores/roads/data.bin"
        assert paths["index"] == "stores/roads/index.bin"
        assert paths["manifest"] == "stores/roads/manifest.json"


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


CORRUPTIONS = {
    "bad_json": _bad_json,
    "format_tag": _edit(lambda doc, key: doc.update(format="something-else")),
    "version": _edit(lambda doc, key: doc.update(version=99)),
    "missing_key": _edit(lambda doc, key: doc.pop(key)),
    "ill_typed_key": _edit(lambda doc, key: doc.update({key: "oops"})),
    "missing_nested_key": _edit(lambda doc, key: doc["grid"].pop("rows")),
}
#: document -> (path in a two-shard store "sh", the key it cannot lack)
DOCUMENTS = {
    "manifest.json": (store_paths("sh/shard-0000")["manifest"], "grid"),
    "shards.json": (shards_path("sh"), "shards"),
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
    fs.create_file(path, CORRUPTIONS[corruption](raw, key))
    return fs, document


CASES = [(doc, corruption) for doc in DOCUMENTS for corruption in CORRUPTIONS]


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
