"""Compaction moves stored record frames; a record is encoded once.

``compact_store`` collects each visible record as its stored frame (the
``<wkb_len><ud_len><wkb><pickled userdata>`` body) plus its stored MBR and
hands both to the loader, which packs the frame verbatim.  These tests pin
that from the outside:

* inside ``compact_store`` neither ``wkb.loads`` nor ``wkb.dumps`` runs;
* every record id's frame after compaction is byte-for-byte the frame that
  the last write storing that id put on disk (read straight from the
  container files with :func:`~repro.store.format.decode_page_columns`,
  not through the store's own walk), and exactly the live ids survive;
* a bulk load or an append calls ``encode_record_body`` once per record,
  however many cells the record is replicated into.

The stores hold every geometry kind a frame can carry — points, a holed
``MultiPolygon``, a ``GeometryCollection``, line strings — with ``str`` and
``dict`` userdata, across three delta generations with deletes and updates,
at one shard and at three.
"""

import pytest

from repro.geometry import (
    GeometryCollection,
    LineString,
    MultiPolygon,
    Point,
    Polygon,
    wkb,
)
from repro.index import UniformGrid
from repro.pfs import LustreFilesystem
from repro.store import StoreAppender, bulk_load, compact_store
from repro.store import format as fmt
from repro.store import writer

NAME = "frames"


def _square(x, y, size, hole=False):
    shell = [(x, y), (x + size, y), (x + size, y + size), (x, y + size), (x, y)]
    if not hole:
        return Polygon(shell)
    q = size / 4
    inner = [(x + q, y + q), (x + 3 * q, y + q), (x + 3 * q, y + 3 * q), (x + q, y + 3 * q),
             (x + q, y + q)]
    return Polygon(shell, [inner])


def _geometry(i):
    """Record *i*: a kind chosen by ``i % 5``, userdata alternating between
    ``None``, a ``str`` and a ``dict``."""
    x, y = (i * 37) % 97, (i * 53) % 89
    kind = i % 5
    if kind == 0:
        geom = Point(x, y)
    elif kind == 1:
        geom = MultiPolygon([_square(x, y, 6, hole=True), _square(x + 8, y + 1, 3)])
    elif kind == 2:
        geom = GeometryCollection([Point(x, y), LineString([(x, y), (x + 9, y + 4)])])
    elif kind == 3:
        geom = LineString([(x, y), (x + 30, y + 2), (x + 31, y + 25)])
    else:
        geom = _square(x, y, 12)
    geom.userdata = (None, f"rec-{i}", {"id": i, "tags": ["a", i % 3]})[i % 3]
    return geom


def _container_frames(fs, name, skip=()):
    """``{record_id: {frame bytes}}`` over every data container under the
    store's directory (base ``data.bin`` and ``delta-*.bin``) not in *skip*,
    and the set of container paths read."""
    root = fs.backing_path(f"stores/{name}")
    paths = {p for p in root.rglob("*.bin") if p not in skip}
    frames = {}
    for path in paths:
        blob = path.read_bytes()
        header = fmt.unpack_header(blob, file_size=len(blob))
        for meta in fmt.unpack_page_directory(blob[header.dir_offset :], header.num_pages):
            payload = blob[meta.offset : meta.offset + meta.nbytes]
            ids, offsets, *_ = fmt.decode_page_columns(payload)
            for rid, start, end in zip(ids, offsets, [*offsets[1:], len(payload)]):
                frames.setdefault(rid, set()).add(payload[start:end])
    return frames, paths


def _newest(fs, name, expected, seen):
    """Fold the frames of the containers a write just added into
    *expected* (``record id -> frame``); returns the containers seen."""
    frames, paths = _container_frames(fs, name, skip=seen)
    for rid, copies in frames.items():
        assert len(copies) == 1, f"replicas of record {rid} disagree"
        expected[rid] = next(iter(copies))
    return seen | paths


@pytest.fixture
def counted(monkeypatch):
    """Counters on ``wkb.loads`` / ``wkb.dumps`` and the writer's
    ``encode_record_body``: ``counts[name]`` calls since the last reset."""
    counts = {"loads": 0, "dumps": 0, "encode_record_body": 0}

    def wrap(owner, attr):
        real = getattr(owner, attr)

        def counting(*args, **kwargs):
            counts[attr] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)

    wrap(wkb, "loads")
    wrap(wkb, "dumps")
    wrap(writer, "encode_record_body")
    return counts


def _mutated_store(fs, num_shards):
    """Bulk load 40 records, then three appends with new records, updates
    (ids re-stored, kinds changed) and deletes.  Returns the expected
    newest frame of every live id."""
    expected, seen = {}, set()
    bulk_load(fs, NAME, [_geometry(i) for i in range(40)], num_partitions=9,
              page_size=512, num_shards=num_shards)
    seen = _newest(fs, NAME, expected, seen)
    steps = [
        (list(range(40, 52)), [3, 4, 5]),
        ([7, 8, 52, 53, 54], [11, 41]),  # 7 and 8 are updates
        ([9, 41, 55], [0, 52]),  # 41 was deleted: stored again
    ]
    for ids, deletes in steps:
        geoms = [_geometry(i + 200 if i < 40 else i) for i in ids]
        StoreAppender(fs, NAME).append(geoms, deletes=deletes, record_ids=ids)
        for rid in deletes:
            expected.pop(rid, None)
        seen = _newest(fs, NAME, expected, seen)
    return expected


@pytest.mark.parametrize("num_shards", [1, 3])
def test_compaction_moves_the_newest_frame_of_every_live_record(tmp_path, counted, num_shards):
    fs = LustreFilesystem(tmp_path / "pfs")
    expected = _mutated_store(fs, num_shards)
    assert {0, 3, 11, 52} & expected.keys() == set()
    assert 41 in expected and 7 in expected

    for key in counted:
        counted[key] = 0
    compact_store(fs, NAME)
    assert counted["loads"] == 0
    assert counted["dumps"] == 0
    assert counted["encode_record_body"] == 0

    frames, paths = _container_frames(fs, NAME)
    assert all(p.name == "data.bin" for p in paths)  # the deltas are gone
    assert frames.keys() == expected.keys()
    for rid, copies in frames.items():
        assert copies == {expected[rid]}, f"record {rid} changed bytes"


def test_a_load_and_an_append_encode_each_record_once(tmp_path, counted):
    fs = LustreFilesystem(tmp_path / "pfs")
    # wide squares over a 4x4 grid: most records span several cells
    geoms = [_square(i * 7 % 80, i * 11 % 80, 30) for i in range(30)]
    result = bulk_load(fs, NAME, geoms, num_partitions=16, num_shards=3)
    layout = result.manifest
    grid = UniformGrid(layout.extent, layout.grid_rows, layout.grid_cols)
    assert sum(len(grid.cells_for_envelope(g.envelope)) > 1 for g in geoms) > len(geoms) / 2
    assert counted["encode_record_body"] == len(geoms)
    assert counted["dumps"] == len(geoms)

    counted["encode_record_body"] = 0
    batch = [_square(10, 10, 60), _square(5, 50, 40)]
    appended = StoreAppender(fs, NAME).append(batch, deletes=[3])
    assert all(len(grid.cells_for_envelope(g.envelope)) > 1 for g in batch)
    assert appended.num_records == 2
    assert counted["encode_record_body"] == 2
