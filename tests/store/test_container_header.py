"""The container header is part of the one on-disk format.

Every writer produces a version-3 container whose header carries exactly the
``FLAG_PAGE_CHECKSUMS`` bit and whose checksum table ends the file.  ``open``
refuses anything else, so no header bit can switch off the page checksums: a
header that still opens must serve exactly what the intact store serves.

The header also carries the CRC32 of the container's metadata tail — the
packed index, the page directory and the checksum table — which ``open``
checks before parsing any of it, retrying a mismatch like a page checksum.
"""

import random
import struct

import pytest
from _container_bytes import TailFaults, reseal

from repro.datasets import random_envelopes
from repro.faults import FaultRule
from repro.geometry import Envelope, Polygon, wkb
from repro.pfs import LustreFilesystem, ReadRequest
from repro.store import (
    DEFAULT_RETRY,
    PageChecksumError,
    SpatialDataStore,
    StoreFormatError,
    bulk_load,
    store_paths,
)
from repro.store.format import HEADER_SIZE, decode_page_columns, unpack_header
from repro.store.index_io import _HEADER as INDEX_HEADER
from repro.store.index_io import _ITEM as INDEX_ITEM
from repro.store.index_io import _NODE as INDEX_NODE

EXTENT = Envelope(0.0, 0.0, 100.0, 100.0)
WINDOWS = [EXTENT, *random_envelopes(5, extent=EXTENT, max_size_fraction=0.3, seed=5)]


def polygons(count, seed):
    return [
        Polygon.from_envelope(env, userdata=i)
        for i, env in enumerate(
            random_envelopes(count, extent=EXTENT, max_size_fraction=0.05, seed=seed)
        )
    ]


def answers(fs, name):
    """``(query id, record id, wkb, userdata)`` of every hit of a window
    batch against a freshly opened store."""
    with SpatialDataStore.open(fs, name, cache_pages=256) as store:
        batch = store.range_query_batch(list(enumerate(WINDOWS)))
    return [
        (qid, h.record_id, wkb.dumps(h.geometry), h.geometry.userdata)
        for qid, hits in enumerate(batch)
        for h in hits
    ]


def patch(fs, path, offset, change):
    """Rewrite one byte of the file at *path* through *change*."""
    blob = bytearray(fs.backing_path(path).read_bytes())
    blob[offset] = change(blob[offset])
    fs.create_file(path, bytes(blob))


@pytest.fixture
def fs(tmp_path):
    return LustreFilesystem(tmp_path / "pfs")


class TestCorruptContainerHeader:
    def test_clearing_the_checksum_flag_cannot_serve_a_corrupt_page(self, fs):
        # regression: with the flag bit cleared, open skipped the checksum
        # table and a flipped vertex byte was served as a valid geometry
        bulk_load(fs, "flag", polygons(400, seed=3), num_partitions=16, page_size=1024)
        path = store_paths("flag")["data"]
        with SpatialDataStore.open(fs, "flag") as store:
            meta = store.pages[0]
        payload = fs.backing_path(path).read_bytes()[meta.offset : meta.offset + meta.nbytes]
        body = decode_page_columns(payload)[1][0]
        wkb_len = struct.unpack_from("<I", payload, body)[0]
        # the least significant byte of the slot's last coordinate: the page
        # still parses, only the checksum can tell
        vertex_byte = meta.offset + body + 8 + wkb_len - 8
        patch(fs, path, vertex_byte, lambda b: b ^ 0x01)
        with SpatialDataStore.open(fs, "flag") as store:
            with pytest.raises(PageChecksumError):
                store.range_query(EXTENT)

        patch(fs, path, 10, lambda b: b & ~0x01)  # the flags field's checksum bit
        with pytest.raises(StoreFormatError, match="flags"):
            SpatialDataStore.open(fs, "flag")

    def test_trailing_bytes_after_the_checksum_table_are_refused(self, fs):
        bulk_load(fs, "tail", polygons(50, seed=4), num_partitions=4, page_size=1024)
        path = store_paths("tail")["data"]
        fs.create_file(path, fs.backing_path(path).read_bytes() + b"\x00" * 4)
        with pytest.raises(StoreFormatError, match="do not end the container"):
            SpatialDataStore.open(fs, "tail")

    def test_a_truncated_checksum_table_is_refused(self, fs):
        bulk_load(fs, "short", polygons(50, seed=4), num_partitions=4, page_size=1024)
        path = store_paths("short")["data"]
        fs.create_file(path, fs.backing_path(path).read_bytes()[:-4])
        with pytest.raises(StoreFormatError, match="do not end the container"):
            SpatialDataStore.open(fs, "short")

    def test_every_single_bit_flip_is_refused_or_harmless(self, fs):
        bulk_load(fs, "flip", polygons(60, seed=6), num_partitions=4, page_size=1024)
        path = store_paths("flip")["data"]
        intact = fs.backing_path(path).read_bytes()
        want = answers(fs, "flip")
        assert want
        refused = 0
        for bit in range(HEADER_SIZE * 8):
            blob = bytearray(intact)
            blob[bit // 8] ^= 1 << (bit % 8)
            fs.create_file(path, bytes(blob))
            try:
                got = answers(fs, "flip")
            except StoreFormatError:
                refused += 1
                continue
            assert got == want, f"header bit {bit} changed the answers"
        # every bit of the magic (8 bytes), version (2), flags (2), page
        # count (4), record count (8), directory offset (8), index offset
        # (8) and metadata-tail CRC (4) is checked; page_size (serving takes
        # the manifest's) and the zero padding are the bits that cannot
        # change an answer
        assert refused == 8 * (8 + 2 + 2 + 4 + 8 + 8 + 8 + 4)


def first_leaf_item(blob, header):
    """Offset in the container *blob* of the first item of the packed
    index's first leaf (pre-order: the root's first descendants lead to it)."""
    pos = header.index_offset + INDEX_HEADER.size
    while True:
        is_leaf = INDEX_NODE.unpack_from(blob, pos)[0]
        pos += INDEX_NODE.size
        if is_leaf:
            return pos


class TestMetadataTailChecksum:
    @pytest.fixture
    def stored(self, fs):
        bulk_load(fs, "tail", polygons(60, seed=7), num_partitions=4, page_size=1024)
        path = store_paths("tail")["data"]
        return fs, path, fs.backing_path(path).read_bytes()

    def test_a_moved_index_leaf_is_refused_at_open(self, stored):
        fs, path, intact = stored
        header = unpack_header(intact, file_size=len(intact))
        item = first_leaf_item(intact, header)
        minx, miny, maxx, maxy, page_id, slot = INDEX_ITEM.unpack_from(intact, item)
        window = Envelope(minx, miny, maxx, maxy)
        with SpatialDataStore.open(fs, "tail") as store:
            meta = store.pages[page_id]
            wanted = {h.record_id for h in store.range_query(window, exact=False)}
        record_id = decode_page_columns(intact[meta.offset : meta.offset + meta.nbytes])[0][slot]
        assert record_id in wanted
        moved = bytearray(intact)
        INDEX_ITEM.pack_into(moved, item, minx + 1e6, miny, maxx + 1e6, maxy, page_id, slot)
        fs.create_file(path, bytes(moved))
        with pytest.raises(StoreFormatError, match=f"{path}.*CRC32 after 3 attempt"):
            SpatialDataStore.open(fs, "tail")
        # what the checksum stops: with the tail re-sealed the open
        # succeeds and the window loses the moved record without a trace
        fs.create_file(path, reseal(moved))
        with SpatialDataStore.open(fs, "tail") as store:
            got = {h.record_id for h in store.range_query(window, exact=False)}
        assert got == wanted - {record_id}

    def test_every_sampled_tail_bit_flip_is_refused(self, stored):
        fs, path, intact = stored
        header = unpack_header(intact, file_size=len(intact))
        tail_bits = (len(intact) - header.index_offset) * 8
        for bit in random.Random(17).sample(range(tail_bits), 96):
            blob = bytearray(intact)
            blob[header.index_offset + bit // 8] ^= 1 << (bit % 8)
            fs.create_file(path, bytes(blob))
            with pytest.raises(StoreFormatError, match="CRC32"):
                SpatialDataStore.open(fs, "tail")

    def test_one_transient_flip_costs_one_retry(self, stored):
        fs, path, intact = stored
        header = unpack_header(intact, file_size=len(intact))
        with SpatialDataStore.open(fs, "tail") as clean:
            clean_io = clean.stats.io_seconds
            want = answers(fs, "tail")
        faulty = TailFaults(fs, [FaultRule(path_pattern=path, bitflip_rate=1.0, max_faults=1)])
        with SpatialDataStore.open(faulty, "tail") as store:
            assert faulty.stats.bitflip_sites == [(path, header.index_offset)]
            assert store.stats.retries == 1
            reread = fs.read_time(path, [ReadRequest(0, (
                (0, HEADER_SIZE), (header.index_offset, len(intact) - header.index_offset),
            ))])
            assert store.stats.io_seconds == pytest.approx(
                clean_io + DEFAULT_RETRY.backoff(1) + reread
            )
        assert answers(faulty, "tail") == want
