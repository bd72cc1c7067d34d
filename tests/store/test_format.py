"""Page/record/header codec tests for the store's binary container."""

import struct

import pytest

from repro.geometry import Envelope, LineString, Point, Polygon, wkb
from repro.store.format import (
    ENVELOPE_ENTRY,
    FLAG_PAGE_CHECKSUMS,
    HEADER_SIZE,
    PAGE_CHECKSUM_ENTRY,
    PAGE_DIR_ENTRY,
    VERSION,
    PageMeta,
    StoreFormatError,
    decode_page_columns,
    decode_record_body,
    encode_page_v2,
    encode_record_body,
    pack_header,
    pack_page_directory,
    page_crc32,
    unpack_header,
    unpack_page_directory,
)
from repro.store.page import CachedPage


def sample_geometries():
    return [
        Point(1.5, -2.5, userdata="a point"),
        LineString([(0, 0), (3, 4), (10, 10)], userdata={"id": 7}),
        Polygon([(0, 0), (4, 0), (4, 4), (0, 4), (0, 0)]),
    ]


def _v2_entries(geoms):
    return [(rid, g.envelope, encode_record_body(g)) for rid, g in enumerate(geoms)]


def decode_all(payload):
    """Every ``(record_id, geometry)`` of a page, in slot order: the column
    decode, then one body decode per slot (what the refine phase does)."""
    record_ids, body_offsets, *_ = decode_page_columns(payload)
    return [
        (rid, decode_record_body(payload, offset))
        for rid, offset in zip(record_ids, body_offsets)
    ]


class TestPageCodecV2:
    def test_round_trip(self):
        geoms = sample_geometries()
        payload = encode_page_v2(_v2_entries(geoms))
        decoded = decode_all(payload)
        assert [rid for rid, _ in decoded] == [0, 1, 2]
        for (rid, got), want in zip(decoded, geoms):
            assert got.wkt() == want.wkt()
            assert got.userdata == want.userdata

    def test_empty_page(self):
        assert decode_all(encode_page_v2([])) == []

    def test_record_ids_preserved(self):
        # ids are stored, not implied by slot order
        payload = encode_page_v2(
            [
                (42, Point(0, 0).envelope, encode_record_body(Point(0, 0))),
                (7, Point(1, 1).envelope, encode_record_body(Point(1, 1))),
            ]
        )
        assert [rid for rid, _ in decode_all(payload)] == [42, 7]

    def test_envelope_column_matches_geometry_mbrs(self):
        geoms = sample_geometries()
        payload = encode_page_v2(_v2_entries(geoms))
        column = list(zip(*decode_page_columns(payload)))
        assert len(column) == len(geoms)
        for (rid, _, minx, miny, maxx, maxy), g in zip(column, geoms):
            assert (minx, miny, maxx, maxy) == g.envelope.as_tuple()

    def test_column_filter_never_touches_bodies(self):
        # the envelope column sits ahead of the bodies: zapping every body
        # byte must not disturb a pure column scan
        geoms = sample_geometries()
        payload = encode_page_v2(_v2_entries(geoms))
        column_end = 4 + len(geoms) * ENVELOPE_ENTRY.size
        body = list(zip(*decode_page_columns(payload)))  # valid payload parses fully
        import struct as _struct

        # overwrite the WKB/userdata *content* (not the per-body prefixes)
        corrupted = bytearray(payload)
        for _, off, *_rest in body:
            blen, ulen = _struct.unpack_from("<II", payload, off)
            corrupted[off + 8 : off + 8 + blen + ulen] = b"\xab" * (blen + ulen)
        got = list(zip(*decode_page_columns(bytes(corrupted))))
        assert [entry[:2] for entry in got] == [entry[:2] for entry in body]
        assert column_end <= len(payload)

    def test_lazy_body_decode_at_offset(self):
        geoms = sample_geometries()
        payload = encode_page_v2(_v2_entries(geoms))
        column = list(zip(*decode_page_columns(payload)))
        # decode only the last slot: the other bodies are never parsed
        rid, offset, *_ = column[-1]
        geom = decode_record_body(payload, offset)
        assert rid == 2
        assert geom.wkt() == geoms[2].wkt()

    def test_trailing_garbage_raises(self):
        payload = encode_page_v2(_v2_entries(sample_geometries()))
        with pytest.raises(StoreFormatError, match="trailing"):
            decode_all(payload + b"\x01\x02")
        with pytest.raises(StoreFormatError, match="trailing"):
            decode_all(encode_page_v2([]) + b"\x00")

    @pytest.mark.parametrize("geom", sample_geometries(), ids=lambda g: g.geom_type)
    def test_bytes_after_the_wkb_inside_a_body_raise(self, geom):
        # regression: same hole in the v2 reader (decode_record_body)
        body = wkb.dumps(geom)
        padded = struct.pack("<II", len(body) + 4, 0) + body + b"junk"
        payload = encode_page_v2(
            [(0, Point(0, 0).envelope, encode_record_body(Point(0, 0))), (1, geom.envelope, padded)]
        )
        with pytest.raises(StoreFormatError, match="4 surplus bytes") as err:
            decode_all(payload)
        assert f"offset {4 + 2 * ENVELOPE_ENTRY.size + 29}" in str(err.value)
        # the page-cache path reads through the same reader
        page = CachedPage(0, payload, page_crc32(payload))
        assert page.record(0)[1].wkt() == "POINT (0 0)"
        with pytest.raises(StoreFormatError, match="4 surplus bytes"):
            page.record(1)

    def test_wkb_that_overruns_its_declared_length_raises(self):
        # the mirror case: wkb_len cuts the geometry short and the bytes
        # that follow (here: the userdata) would have completed it
        body = wkb.dumps(LineString([(0, 0), (3, 4), (10, 10)]))
        cut = struct.pack("<II", len(body) - 16, 16) + body
        payload = encode_page_v2([(0, Envelope(0, 0, 10, 10), cut)])
        with pytest.raises(StoreFormatError, match="malformed record body"):
            decode_all(payload)

    def test_truncated_column_raises(self):
        payload = encode_page_v2(_v2_entries(sample_geometries()))
        with pytest.raises(StoreFormatError):
            decode_all(payload[: 4 + ENVELOPE_ENTRY.size - 1])

    def test_truncated_body_raises(self):
        payload = encode_page_v2(_v2_entries(sample_geometries()))
        with pytest.raises(StoreFormatError):
            decode_all(payload[:-3])

    def test_overrunning_body_is_named_where_it_overruns(self):
        # a body in the middle of the page that declares more bytes than the
        # payload has is "truncated" at its own slot, not an "inconsistent"
        # offset at the next one
        bodies = [encode_record_body(g) for g in sample_geometries()]
        bodies[1] = struct.pack("<II", 10_000, 0) + bodies[1][8:]
        payload = encode_page_v2([(i, Envelope(0, 0, 1, 1), b) for i, b in enumerate(bodies)])
        with pytest.raises(StoreFormatError, match="truncated record body"):
            decode_page_columns(payload)

    def test_zeroed_payload_raises(self):
        payload = encode_page_v2(_v2_entries(sample_geometries()))
        with pytest.raises(StoreFormatError):
            decode_all(b"\x00" * len(payload))

    def test_truncated_count_raises(self):
        with pytest.raises(StoreFormatError, match="count prefix"):
            decode_page_columns(b"\x01")


def _header(**fields):
    """A packed header: a 1-page, 1-record container with an empty index
    and its directory at offset 64, unless *fields* say otherwise."""
    values = dict(page_size=4096, num_pages=1, num_records=1, dir_offset=HEADER_SIZE,
                  index_offset=HEADER_SIZE, tail_crc=0)
    values.update(fields)
    return pack_header(**values)


class TestHeader:
    def test_round_trip(self):
        raw = pack_header(page_size=4096, num_pages=12, num_records=300, dir_offset=99999,
                          index_offset=90000, tail_crc=0xDEADBEEF)
        assert len(raw) == HEADER_SIZE
        header = unpack_header(raw)
        assert header.page_size == 4096
        assert header.num_pages == 12
        assert header.num_records == 300
        assert header.dir_offset == 99999
        assert header.index_offset == 90000
        assert header.tail_crc == 0xDEADBEEF
        assert header.index_nbytes == 9999

    def test_bad_magic(self):
        raw = b"NOTMAGIC" + _header()[8:]
        with pytest.raises(StoreFormatError, match="magic"):
            unpack_header(raw)

    def test_short_header(self):
        with pytest.raises(StoreFormatError, match="header"):
            unpack_header(b"\x00" * 10)

    def test_header_names_version_3_and_the_checksum_table(self):
        raw = _header()
        assert struct.unpack_from("<HH", raw, 8) == (VERSION, FLAG_PAGE_CHECKSUMS) == (3, 1)

    @pytest.mark.parametrize("version", [0, 1, 2, 9])
    def test_unsupported_versions_rejected(self, version):
        raw = bytearray(_header())
        struct.pack_into("<H", raw, 8, version)  # version field sits after the magic
        with pytest.raises(StoreFormatError, match="version"):
            unpack_header(bytes(raw))

    @pytest.mark.parametrize("flags", [0, 0x2, 0x3, 0x8001])
    def test_flags_other_than_the_checksum_bit_rejected(self, flags):
        # regression: a cleared flag bit used to make open skip the
        # checksum table and serve pages unchecked
        raw = bytearray(_header())
        struct.pack_into("<H", raw, 10, flags)  # flags follow the version
        with pytest.raises(StoreFormatError, match="flags"):
            unpack_header(bytes(raw))

    def test_directory_bounds_validated_against_file_size(self):
        # regression: a truncated directory used to surface as a short-read
        # struct.error at unpack_page_directory time; with the file size in
        # hand the header itself must reject it — and the checksum table
        # must end the file exactly
        raw = _header(num_pages=12, num_records=300, dir_offset=1000, index_offset=900)
        needed = 1000 + 12 * (PAGE_DIR_ENTRY.size + PAGE_CHECKSUM_ENTRY.size)
        assert unpack_header(raw, file_size=needed).num_pages == 12
        for size in (needed - 1, needed + 1, 1000 + 12 * PAGE_DIR_ENTRY.size):
            with pytest.raises(StoreFormatError, match="directory"):
                unpack_header(raw, file_size=size)

    @pytest.mark.parametrize("index_offset, dir_offset", [(10, 10), (10, 1000), (1001, 1000)])
    def test_index_outside_pages_and_directory_rejected(self, index_offset, dir_offset):
        # the packed index starts after the header and no later than the
        # directory; a directory inside the header is refused the same way
        raw = _header(index_offset=index_offset, dir_offset=dir_offset)
        with pytest.raises(StoreFormatError, match="index offset"):
            unpack_header(raw, file_size=10_000)


class TestPageDirectory:
    def test_round_trip(self):
        metas = [
            PageMeta(0, 64, 120, 3, Envelope(0, 0, 1, 1), 0xDEADBEEF),
            PageMeta(1, 184, 80, 2, Envelope(-5, -5, 5, 5), 7),
        ]
        raw = pack_page_directory(metas)
        assert len(raw) == 2 * (PAGE_DIR_ENTRY.size + PAGE_CHECKSUM_ENTRY.size)
        back = unpack_page_directory(raw, 2)
        assert back == metas

    def test_empty_mbr_round_trips(self):
        metas = [PageMeta(0, 64, 4, 0, Envelope.empty(), 0)]
        back = unpack_page_directory(pack_page_directory(metas), 1)
        assert back[0].mbr.is_empty

    def test_size_mismatch_raises(self):
        raw = pack_page_directory([PageMeta(0, 64, 10, 1, Envelope(0, 0, 1, 1), 0)])
        with pytest.raises(StoreFormatError, match="directory"):
            unpack_page_directory(raw, 2)

    def test_non_monotonic_offsets_rejected(self):
        # the serving path's run coalescing relies on pages laid out back to
        # back in page-id order; a reordered directory is corruption
        raw = pack_page_directory([
            PageMeta(0, 184, 80, 2, Envelope(0, 0, 1, 1), 0),
            PageMeta(1, 64, 120, 3, Envelope(0, 0, 1, 1), 0),
        ])
        with pytest.raises(StoreFormatError, match="monotonic"):
            unpack_page_directory(raw, 2)

    def test_overlapping_pages_rejected(self):
        raw = pack_page_directory([
            PageMeta(0, 64, 120, 3, Envelope(0, 0, 1, 1), 0),
            PageMeta(1, 100, 80, 2, Envelope(0, 0, 1, 1), 0),
        ])
        with pytest.raises(StoreFormatError, match="monotonic"):
            unpack_page_directory(raw, 2)

    def test_page_inside_header_rejected(self):
        raw = pack_page_directory([PageMeta(0, 10, 30, 1, Envelope(0, 0, 1, 1), 0)])
        with pytest.raises(StoreFormatError, match="monotonic"):
            unpack_page_directory(raw, 1)
