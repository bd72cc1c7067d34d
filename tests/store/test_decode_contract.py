"""What decoding a stored record builds — the two properties the serving
path's decode leans on.

* **The allocation count is the contract.**  A decoded line or ring keeps
  its vertices as the one float tuple ``struct`` returned; a decode builds
  the same handful of GC-tracked objects whatever the vertex count (it was
  ``n + 4``: a pair per vertex).  Timer-free: the collector is off and the
  tracked objects are counted.
* **The stored MBR is the envelope.**  ``CachedPage.record`` hands the slot's
  column MBR to the geometry instead of re-deriving it, which is only sound
  if every writer stores exactly the MBR a from-scratch decode would derive:
  checked for every record of every writer against the per-vertex oracle of
  ``tests/geometry/_wkb_reference.py``.
"""

import gc
import importlib.util
import math
import pathlib
import struct

import pytest

from repro.geometry import Envelope, LineString, MultiPolygon, Point, Polygon, wkb
from repro.index import UniformGrid
from repro.pfs import LustreFilesystem
from repro.store import (
    SpatialDataStore,
    StoreAppender,
    bulk_load,
    compact_store,
)
from repro.store.format import (
    encode_page_v2,
    encode_record_body,
    page_crc32,
    unpack_header,
    unpack_page_directory,
)
from repro.store.page import CachedPage

_spec = importlib.util.spec_from_file_location(
    "_wkb_reference",
    pathlib.Path(__file__).resolve().parents[1] / "geometry" / "_wkb_reference.py",
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def ngon(cx, cy, radius, n, userdata=None):
    """A polygon whose closed ring has ``n + 1`` coordinates."""
    return Polygon(
        [(cx + radius * math.cos(2 * math.pi * i / n), cy + radius * math.sin(2 * math.pi * i / n))
         for i in range(n)],
        userdata=userdata,
    )


# --------------------------------------------------------------------------- #
# (a) allocations
# --------------------------------------------------------------------------- #
def tracked_objects_per_decode(vertices, slots=20):
    """GC-tracked objects that decoding one slot of a page of *vertices*-
    coordinate polygons leaves behind, averaged over the page's slots."""
    geoms = [ngon(3.0 * i, 5.0, 1.0, vertices - 1) for i in range(slots)]
    payload = encode_page_v2([(i, g.envelope, encode_record_body(g)) for i, g in enumerate(geoms)])
    page = CachedPage(0, payload, page_crc32(payload))
    # a warm-up decode of the same shape: struct's format cache makes its one
    # Struct per format here (or already held it, whatever ran before), so it
    # is never counted as a per-decode object
    CachedPage(1, payload, page_crc32(payload)).record(0)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for slot in range(slots):
            page.record(slot)
        after = len(gc.get_objects())
    finally:
        gc.enable()
    assert [page.record(slot)[1] for slot in range(slots)] == geoms
    return (after - before) / slots


class TestAllocations:
    def test_a_decode_tracks_the_same_few_objects_whatever_the_vertex_count(self):
        small, large = tracked_objects_per_decode(13), tracked_objects_per_decode(101)
        # the polygon, its ring, the ring's float run (untracked at its
        # first collection) and the envelope; never a pair per vertex
        assert small == large
        assert small <= 5

    def test_a_query_that_reads_only_ids_builds_no_pairs(self, tmp_path):
        fs = LustreFilesystem(tmp_path, ost_count=2)
        # a lattice of 24-gons of radius 0.4 on integer centres: a window
        # with half-integer sides cuts some, contains others, and is never
        # inside one (the one case that needs a point-in-ring pass)
        geoms = [ngon(float(x), float(y), 0.4, 24) for x in range(12) for y in range(12)]
        bulk_load(fs, "lattice", geoms, num_partitions=4, page_size=1024)
        with SpatialDataStore.open(fs, "lattice", cache_pages=64) as store:
            window = Envelope(2.25, 2.25, 7.25, 7.25)
            hits = store.range_query(window)
            ids = sorted(hit.record_id for hit in hits)
            assert ids == sorted(i for i, g in enumerate(geoms) if g.intersects(Polygon.from_envelope(window)))
            # the refine loop decodes only the four corner polygons: every
            # other polygon the window cuts has a whole MBR side inside it
            # (the side proof), so its hit decodes when its geometry is read
            assert (store.stats.records_decoded, len(hits)) == (4, 36)
            cut = [h for h in hits if not window.contains(h.geometry.envelope)]
            assert cut, "the window must cut some polygons, so the exact predicate runs"
            unread = [h.geometry.shell._coords is None for h in hits]
            assert all(unread)
            # sizing a hit for the wire or re-encoding it builds none either
            assert all(wkb.encoded_size(h.geometry) == len(wkb.dumps(h.geometry)) for h in hits)
            assert all(h.geometry.shell._coords is None for h in hits)
            # ... and the first reader gets them, once
            coords = hits[0].geometry.shell.coords
            assert coords is hits[0].geometry.shell.coords and len(coords) == 25


# --------------------------------------------------------------------------- #
# (c) the stored MBR is the envelope
# --------------------------------------------------------------------------- #
def record(i):
    """Record *i* of a dataset with every shape the writers see."""
    x, y = (i * 7919 % 1000) / 8, (i * 6007 % 1000) / 8
    kind = i % 7
    if kind == 0:
        return Point(x, y, userdata=f"p{i}")
    if kind == 1:
        return ngon(x, y, 1 + i % 5, 5 + i % 23, userdata={"id": i})
    if kind == 2:
        return LineString([(x, y), (x + 3, y - 1.5), (x - 2, y + 4), (x + 5, y)])
    if kind == 3:  # holes: the stored MBR is the shell's
        return Polygon(
            [(x, y), (x + 9, y), (x + 9, y + 9), (x, y + 9)],
            [[(x + 1, y + 1), (x + 3, y + 1), (x + 2, y + 3)]],
        )
    if kind == 4:  # wide: replicated into several partitions
        return Polygon.from_envelope(Envelope(x, y, x + 40, y + 30), userdata=f"big{i}")
    if kind == 5:  # a NaN vertex: the envelope rule skips it, the MBR stays a box
        return LineString([(x, y), (float("nan"), y + 2), (x + 2, float("nan")), (x + 1, y + 1)])
    return MultiPolygon([ngon(x, y, 1, 6), ngon(x + 5, y + 5, 2, 9)])


def records(ids):
    return [record(i) for i in ids]


def stored_records(fs):
    """Every ``(path, page, slot)`` of every container under ``stores/``."""
    root = fs.backing_path("stores")
    for path in sorted(root.rglob("*.bin")):
        blob = path.read_bytes()
        header = unpack_header(blob, file_size=len(blob))
        for meta in unpack_page_directory(blob[header.dir_offset :], header.num_pages):
            page = CachedPage(meta.page_id, blob[meta.offset : meta.offset + meta.nbytes], meta.crc32)
            for slot in range(page.count):
                yield path.relative_to(root).as_posix(), page, slot


def assert_stored_mbrs_are_envelopes(fs):
    checked = 0
    for path, page, slot in stored_records(fs):
        start = page.body_offsets[slot] + 8  # past the <II> body header
        wkb_len, _ = struct.unpack_from("<II", page.payload, start - 8)
        oracle = reference.loads(page.payload[start : start + wkb_len])
        where = f"{path} page {page.page_id} slot {slot}"
        assert page.envelope(slot) == oracle.envelope, where
        decoded = page.record(slot)[1]
        assert decoded.envelope == oracle.envelope, where
        assert decoded.geom_type == oracle.geom_type, where
        checked += 1
    return checked


class TestStoredMBRIsTheEnvelope:
    LOAD = dict(num_partitions=9, page_size=1024)

    def test_every_record_of_every_writer(self, tmp_path):
        fs = LustreFilesystem(tmp_path, ost_count=4)
        base = records(range(210))
        single = bulk_load(fs, "single", base, **self.LOAD)
        bulk_load(fs, "sharded", base, num_shards=3, read_replicas=1, **self.LOAD)
        layout = single.manifest
        grid = UniformGrid(layout.extent, layout.grid_rows, layout.grid_cols)
        assert any(len(grid.cells_for_envelope(g.envelope)) > 1 for g in base)
        loaded = assert_stored_mbrs_are_envelopes(fs)
        # one copy of each record in each store: single, sharded and its replica
        assert loaded == 3 * single.num_records

        appender = StoreAppender(fs, "single")
        appender.append(records(range(210, 260)))
        appender.append(records(range(260, 270)), deletes=[3, 8, 211])
        appender.append(records(range(300, 304)), record_ids=[5, 6, 400, 401])
        StoreAppender(fs, "sharded").append(records(range(210, 260)), deletes=[3, 8])
        appended = assert_stored_mbrs_are_envelopes(fs)
        assert appended > loaded

        compact_store(fs, "single")
        compact_store(fs, "sharded")
        assert assert_stored_mbrs_are_envelopes(fs) > 3 * 210

    def test_a_nan_mbr_never_reaches_a_page(self, tmp_path):
        # the gate the property leans on: an MBR that is not a box is
        # refused by the one packer every writer shares
        fs = LustreFilesystem(tmp_path, ost_count=2)
        poisoned = Polygon.from_envelope(Envelope(0, 0, 1, 1))
        object.__setattr__(poisoned, "_envelope", Envelope(0.0, float("nan"), 1.0, 1.0))
        with pytest.raises(ValueError, match="NaN"):
            bulk_load(fs, "bad", [Point(5, 5), poisoned])
