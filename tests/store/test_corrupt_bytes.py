"""Damaged store bytes are refused by the format layer, whatever the reader.

The sharded server's guard blames a shard for a ``StoreError`` only, so every
reader of a store's bytes must turn damage into a
:class:`~repro.store.format.StoreFormatError` itself.  Two damages used to
escape as raw exceptions:

* userdata behind a valid page CRC that does not unpickle (the unpickler's
  own ``UnpicklingError``);
* a packed index whose leaf names a slot its page does not hold (the open
  succeeded, and the query died with an ``IndexError``) — also when the
  page directory claims the slot too: the page's first demand refuses a
  page short of its directory count.

The packed index and the page directory sit in the container's metadata
tail, which the header's CRC32 covers, so the open refuses a damaged byte
there before parsing any of it.  These cases model bytes that were wrong
when written (a writer bug checksums its own mistake): each edit re-seals
the tail CRC (:func:`_container_bytes.reseal`), so the open gets past the
CRC and the check behind it must refuse the bytes.

Each is checked on a single store and through the sharded server, with the
damaged shard served by rank 0 and by another rank.
"""

import struct

import pytest
from _container_bytes import reseal

from repro import mpisim
from repro.geometry import Envelope, Polygon
from repro.pfs import LustreFilesystem
from repro.store import (
    DistributedStoreServer,
    ShardError,
    SpatialDataStore,
    StoreFormatError,
    bulk_load,
    dump_index,
)
from repro.store import format as fmt
from repro.store.sharded import read_shards_manifest

NAME = "corrupt"
#: a triangle holding the whole extent: a geometry window decodes every
#: candidate it refines
EVERYTHING = Polygon([(-10.0, -10.0), (300.0, -10.0), (-10.0, 300.0)])


def boxes():
    return [Polygon.from_envelope(Envelope(x, y, x + 3.0, y + 2.0), userdata=x * 100 + y)
            for x in range(0, 100, 7) for y in range(0, 100, 9)]


@pytest.fixture
def sharded(tmp_path):
    """A two-shard store with a read replica of every shard; returns the
    filesystem and the shards manifest."""
    fs = LustreFilesystem(tmp_path, ost_count=2)
    bulk_load(fs, NAME, boxes(), num_partitions=8, page_size=512, num_shards=2,
              read_replicas=1)
    layout, _ = read_shards_manifest(fs, NAME)
    return fs, layout


def garble_userdata(fs, store):
    """Overwrite the userdata of slot 0 of page 0 of *store* with zero bytes
    and give the page (and the metadata tail) a matching CRC: the bytes are
    damaged, the checksums are not."""
    backing = fs.backing_path(f"stores/{store}/data.bin")
    blob = bytearray(backing.read_bytes())
    header = fmt.unpack_header(bytes(blob), file_size=len(blob))
    meta = fmt.unpack_page_directory(bytes(blob[header.dir_offset:]), header.num_pages)[0]
    payload = bytearray(blob[meta.offset:meta.offset + meta.nbytes])
    _, body_offset, *_ = fmt.slot_entry(bytes(payload), 0)
    body_len, ud_len = struct.unpack_from("<II", payload, body_offset)
    assert ud_len > 0
    start = body_offset + 8 + body_len
    payload[start:start + ud_len] = bytes(ud_len)  # b"\x00" is no pickle opcode
    blob[meta.offset:meta.offset + meta.nbytes] = payload
    entry = header.dir_offset + header.num_pages * fmt.PAGE_DIR_ENTRY.size  # page 0's CRC
    blob[entry:entry + fmt.PAGE_CHECKSUM_ENTRY.size] = fmt.PAGE_CHECKSUM_ENTRY.pack(
        fmt.page_crc32(bytes(payload))
    )
    backing.write_bytes(reseal(blob))


def leaf_past_its_page(fs, store):
    """Rewrite the packed index in *store*'s container so its first leaf
    item names slot ``count`` of its page — one past the page's last slot —
    and re-seal the tail; returns ``(page_id, count)``."""
    with SpatialDataStore.open(fs, store) as intact:
        counts = [meta.count for meta in intact.pages]
        tree = intact.index
    node = tree._root
    while not node.leaf:
        node = node.entries[0][4]
    x0, y0, x1, y1, (page_id, _) = node.entries[0]
    node.entries[0] = (x0, y0, x1, y1, (page_id, counts[page_id]))
    backing = fs.backing_path(f"stores/{store}/data.bin")
    blob = bytearray(backing.read_bytes())
    header = fmt.unpack_header(bytes(blob), file_size=len(blob))
    index = dump_index(tree)
    assert len(index) == header.index_nbytes  # the same stream, one slot moved
    blob[header.index_offset:header.dir_offset] = index
    backing.write_bytes(reseal(blob))
    return page_id, counts[page_id]


def overcount_page(fs, store, page_id):
    """Raise page *page_id*'s record count in *store*'s page directory by
    one and re-seal the tail."""
    backing = fs.backing_path(f"stores/{store}/data.bin")
    blob = bytearray(backing.read_bytes())
    header = fmt.unpack_header(bytes(blob), file_size=len(blob))
    entry = header.dir_offset + page_id * fmt.PAGE_DIR_ENTRY.size
    offset, nbytes, count, *mbr = fmt.PAGE_DIR_ENTRY.unpack_from(blob, entry)
    fmt.PAGE_DIR_ENTRY.pack_into(blob, entry, offset, nbytes, count + 1, *mbr)
    backing.write_bytes(reseal(blob))


def serve(fs, nprocs, call):
    """Per rank, ``(answer, {shard: name of the store serving it})`` of
    *call* on a fresh server, the names read right after the open."""
    def prog(comm):
        with DistributedStoreServer.open(comm, fs, NAME) as server:
            opened = {sid: store.name for sid, store in server.stores.items()}
            return call(server, comm.rank == 0), opened

    return mpisim.run_spmd(prog, nprocs).values


def join(server, is_root):
    return server.join([EVERYTHING] if is_root else None)


class TestCorruptUserdata:
    def test_a_store_query_raises_a_format_error(self, sharded):
        fs, layout = sharded
        victim = layout.shards[1].store
        garble_userdata(fs, victim)
        with SpatialDataStore.open(fs, victim) as store:
            with pytest.raises(StoreFormatError, match="malformed record body at offset"):
                store.range_query(EVERYTHING)

    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_the_sharded_server_blames_the_shard_for_a_format_error(self, sharded, nprocs):
        # shard 1 is served by rank 0, 1 and 2 at 1, 2 and 4 ranks
        fs, layout = sharded
        for store in [layout.shards[1].store, *layout.shards[1].replica_stores]:
            garble_userdata(fs, store)  # no intact copy left to fail over to
        with pytest.raises(ShardError, match="shard 1 ") as excinfo:
            serve(fs, nprocs, join)
        assert excinfo.value.shard_id == 1
        assert isinstance(excinfo.value.__cause__, StoreFormatError)
        assert "do not unpickle" in str(excinfo.value)


class TestCorruptIndexLeaf:
    def test_open_refuses_a_leaf_past_its_page(self, sharded):
        fs, layout = sharded
        victim = layout.shards[0].store
        page_id, count = leaf_past_its_page(fs, victim)
        with pytest.raises(StoreFormatError, match=f"names slot {count} of page {page_id}"):
            SpatialDataStore.open(fs, victim)

    @pytest.mark.parametrize("nprocs", [1, 2])
    def test_the_sharded_open_fails_over_to_the_read_replica(self, sharded, nprocs):
        fs, layout = sharded
        (intact, _), *_ = serve(fs, nprocs, join)
        leaf_past_its_page(fs, layout.shards[1].store)
        values = serve(fs, nprocs, join)
        answer, _ = values[0]
        serving = {sid: name for _, names in values for sid, name in names.items()}
        # the open already installed the replica, which answers as intact
        assert serving == {0: layout.shards[0].store, 1: layout.shards[1].replica_stores[0]}
        assert [(p is EVERYTHING, h.record_id, h.geometry.userdata) for p, h in answer] == [
            (True, h.record_id, h.geometry.userdata) for _, h in intact
        ]

    def test_a_page_short_of_its_directory_count_is_refused_on_demand(self, sharded):
        # the directory agrees with the leaf, the page does not: the open
        # passes, the page's first demand is refused
        fs, layout = sharded
        victim = layout.shards[0].store
        page_id, count = leaf_past_its_page(fs, victim)
        overcount_page(fs, victim, page_id)
        with SpatialDataStore.open(fs, victim) as store:
            with pytest.raises(StoreFormatError, match=f"holds {count} records"):
                store.range_query(store.extent)

    def test_without_a_replica_the_sharded_open_names_the_shard(self, sharded):
        fs, layout = sharded
        for store in [layout.shards[1].store, *layout.shards[1].replica_stores]:
            leaf_past_its_page(fs, store)
        with pytest.raises(ShardError, match="shard 1 ") as excinfo:
            serve(fs, 2, join)
        assert isinstance(excinfo.value.__cause__, StoreFormatError)
