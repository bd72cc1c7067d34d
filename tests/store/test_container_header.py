"""The container header is part of the one on-disk format.

Every writer produces a version-2 container whose header carries exactly the
``FLAG_PAGE_CHECKSUMS`` bit and whose checksum table ends the file.  ``open``
refuses anything else, so no header bit can switch off the page checksums: a
header that still opens must serve exactly what the intact store serves.
"""

import struct

import pytest

from repro.datasets import random_envelopes
from repro.geometry import Envelope, Polygon, wkb
from repro.pfs import LustreFilesystem
from repro.store import (
    PageChecksumError,
    SpatialDataStore,
    StoreFormatError,
    bulk_load,
    store_paths,
)
from repro.store.format import HEADER_SIZE, decode_page_columns

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
        # count (4), record count (8) and directory offset (8) is checked;
        # page_size (serving takes the manifest's) and the zero padding are
        # the bits that cannot change an answer
        assert refused == 8 * (8 + 2 + 2 + 4 + 8 + 8)
