"""Golden bytes of the store write path.

Every writer of ``repro.store`` — ``bulk_load`` (on real and on an empty
input, one shard; three shards with a read replica), ``StoreAppender.append``
(plain, with deletes, with updates through ``record_ids``, tombstone-only,
first append to an empty store; on three shards) and ``compact_store`` (one
shard and three) — runs once over an RNG-free dataset, and the sha256 of
every backing file at three checkpoints plus ``float.hex()`` of every
reported ``write_seconds`` must equal the constants in
``write_path_golden.json``.  A refactor of the write path that moves one
byte or one last bit of a simulated charge fails here.

The constants were recorded at the commit *before* the write path was
collapsed into ``write_file`` / ``write_generation`` / ``_rewrite_base``.
Two charges (``compact_was_empty`` and ``sharded_compact``) then moved by one
unit in the last place, because a base rewrite sums per-file subtotals
``(open + write)`` in file order — the order appends always used — where it
used to add each open and each write to one running total.

Four constants were re-recorded when ``UniformGrid``'s floor arithmetic
became the only cell-location rule (replication used to be a closed-rectangle
probe of an R-tree over the cells): ``crc/data.bin``, ``crc/index.bin`` and
``crc/manifest.json`` at the ``compacted`` checkpoint and the ``compact``
charge.  That compaction lays a 3×3 grid over ``[0, 136.5] × [0, 132.5]`` and
lattice records sit exactly on ``x = 45.5`` and ``x = 91.0``; the closed probe
also stored them in the neighbour they only touch, the half-open cells do not
(``crc/data.bin`` 41 468 → 41 292 bytes: fewer replicas, same answers).

The file was re-recorded once more when every store gained ``shards.json``
and a single store became a one-shard store (one loader, appender and
compaction for every shard count):

* new entries ``crc/shards.json`` and ``empty/shards.json`` at all three
  checkpoints; every other ``crc/`` and ``empty/`` file — ``data.bin``,
  ``index.bin``, ``manifest.json``, ``delta-*`` — kept its hash;
* the nine one-shard charges each grew by exactly one ``shards.json`` write
  (``BEFORE_SHARDS_JSON`` keeps the old values, and
  ``test_one_shard_charges_grew_by_one_shards_json_write`` checks the
  difference); ``sharded_bulk_load`` and ``sharded_append`` kept theirs;
* ``sh/`` after the append: each shard's ``manifest.json`` (and its
  replica's) now records the store's id ceiling (290, where a shard used to
  record one above its own highest routed id) and a ``live_records`` that
  deletes broadcast to the shard decrement, and ``shards.json``'s per-shard
  ``records`` follow those counts;
* ``sh/`` after compaction: every file and the ``sharded_compact`` charge —
  compaction is a bulk load of the visible records, so it re-lays the grid
  over them and rebalances the shards (cells 0-2 / 3-5 / 6-8, where the load
  time runs 0-1 / 2-4 / 5-8 were kept before).

The file was re-recorded when the packed index began to name each record
once per generation (``pack_partitions`` indexes a record on the first page
the pack stores it on, where it used to index every replica):

* what moved: ``index.bin`` wherever a loaded or compacted store holds a
  replicated record, the ``delta-0001.idx`` files of ``crc`` and of
  ``sh``'s third shard (and its replica), and the ``write_seconds`` of
  ``bulk_load``, ``sharded_bulk_load``, ``append_plain``, ``sharded_append``,
  ``compact`` and ``sharded_compact`` — the index blobs are smaller, so
  writing them is charged less;
* what did not move: every ``data.bin``, ``delta-*.bin``, ``manifest.json``
  and ``shards.json`` hash, and the charges of writers whose indexes held
  no replica.

It was re-recorded when every writer began to store each record once, in
its home cell (``writer.home_cells``), where it used to store a copy in
every cell the record's MBR overlaps, and the manifests lost their
``replicas`` keys:

* what moved: every file of a store holding a record that spans cells —
  ``crc``'s and ``sh``'s ``data.bin`` / ``index.bin`` / ``manifest.json``
  at every checkpoint, ``crc/delta-0001.*`` and ``sh``'s third shard's
  ``delta-0001.*`` (and its replica's); every ``shards.json`` and every
  manifest with a generation list (a ``replicas`` key per shard and per
  generation went); every charge, each by the write charge of the bytes it
  no longer writes;
* what did not move: the ``empty`` store's ``data.bin``, ``index.bin`` and
  ``delta-0001.*``, ``crc``'s ``delta-0002.*`` / ``delta-0003.*`` and the
  first two shards' ``delta-0001.*`` of ``sh``: none of those batches holds
  a record that spans cells.

It was re-recorded when each generation became one file: the packed index
moved into its container (version 3: header | pages | packed index | page
directory | checksum table, the header carrying the index offset and the
CRC32 of everything from the index to the end of the file):

* what moved: every ``data.bin`` and ``delta-*.bin`` at every checkpoint,
  each now holding its generation's index stream byte for byte as the old
  ``index.bin`` / ``delta-*.idx`` did; those index files are gone; every
  charge that writes a generation, each down by exactly one file open and
  one write request per container written (2.45 ms on this cost model,
  six times that on the three-shard store with its replicas) — the bytes
  written are the same;
* what did not move: every ``manifest.json`` and ``shards.json`` hash, and
  the ``append_tombstones_only`` charge (it writes no container).

The constants of the charges from before ``shards.json`` existed went with
that change: the retired writer can still be swapped in
(``_replicating_writer_reference.py``), but the manifests it writes carry
no ``replicas`` keys, so it no longer reproduces those charges.
``test_one_shard_charges_follow_the_bytes_written`` derives each one-shard
charge from the retired writer's instead.

Re-record (only when a format change is intended) with::

    PYTHONPATH=src python tests/store/test_write_path_golden.py \
        > tests/store/write_path_golden.json
"""

import hashlib
import json
import pathlib
import sys
import tempfile

import pytest

from _replicating_writer_reference import replicating_writer  # the retired writer, kept next to this file
from repro.geometry import Envelope, LineString, MultiPoint, Point, Polygon
from repro.pfs import LustreFilesystem
from repro.store import StoreAppender, bulk_load, compact_store
from repro.store.writer import write_file
from repro.store.format import (
    HEADER_SIZE,
    decode_page_columns,
    unpack_header,
    unpack_page_directory,
)

GOLDEN_PATH = pathlib.Path(__file__).with_name("write_path_golden.json")
CHECKPOINTS = ("loaded", "appended", "compacted")
LOAD = dict(num_partitions=9, page_size=512)


def geometry(i):
    """Record *i* of the lattice dataset: coordinates are multiples of 1/8,
    so every value is exact in binary and identical on every Python."""
    x, y = (i * 7919 % 1000) / 8, (i * 6007 % 1000) / 8
    if i % 17 == 16:
        return MultiPoint([])  # consumes an id, stores nothing
    kind = i % 5
    if kind == 0:
        return Point(x, y, userdata=f"p{i}")
    if kind == 1:
        side = 1 + i % 7
        return Polygon.from_envelope(
            Envelope(x, y, x + side, y + side / 2), userdata={"id": i, "tag": "box"}
        )
    if kind == 2:
        return LineString([(x, y), (x + 3, y + 1.5), (x + 5, y)])
    if kind == 3:
        return Point(x, y)
    # wide enough to straddle grid cells: replicated into several partitions
    return Polygon.from_envelope(Envelope(x, y, x + 12, y + 9), userdata=f"big{i}")


def geometries(ids):
    return [geometry(i) for i in ids]


def snapshot(fs):
    root = fs.backing_path("stores")
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def run_scenario(root):
    """Drive every writer once; returns ``(snapshots, write_seconds)``."""
    fs = LustreFilesystem(root, ost_count=4)
    base = geometries(range(240))
    snaps, seconds = {}, {}

    seconds["bulk_load"] = bulk_load(fs, "crc", base, **LOAD).write_seconds
    seconds["bulk_load_empty"] = bulk_load(fs, "empty", []).write_seconds
    seconds["sharded_bulk_load"] = bulk_load(
        fs, "sh", base, num_shards=3, read_replicas=1, **LOAD
    ).write_seconds
    snaps["loaded"] = snapshot(fs)

    appender = StoreAppender(fs, "crc")
    seconds["append_plain"] = appender.append(geometries(range(240, 280))).write_seconds
    seconds["append_deletes"] = appender.append(
        geometries(range(280, 290)), deletes=[3, 8, 15, 241]
    ).write_seconds
    seconds["append_updates"] = appender.append(
        geometries(range(300, 305)), record_ids=[5, 6, 7, 400, 401]
    ).write_seconds
    seconds["append_tombstones_only"] = appender.append(deletes=[20, 21]).write_seconds
    seconds["append_to_empty"] = (
        StoreAppender(fs, "empty").append(geometries(range(20))).write_seconds
    )
    seconds["sharded_append"] = (
        StoreAppender(fs, "sh")
        .append(geometries(range(240, 290)), deletes=[3, 8, 15])
        .write_seconds
    )
    snaps["appended"] = snapshot(fs)

    seconds["compact"] = compact_store(fs, "crc").write_seconds
    seconds["compact_was_empty"] = compact_store(fs, "empty").write_seconds
    seconds["sharded_compact"] = compact_store(fs, "sh").write_seconds
    snaps["compacted"] = snapshot(fs)
    return snaps, seconds


def observed(snaps, seconds):
    """The scenario's outcome in the shape of ``write_path_golden.json``."""
    return {
        "files": {
            name: {path: hashlib.sha256(blob).hexdigest() for path, blob in files.items()}
            for name, files in snaps.items()
        },
        "write_seconds": {name: value.hex() for name, value in seconds.items()},
    }


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    return run_scenario(tmp_path_factory.mktemp("goldenfs"))


@pytest.fixture(scope="module")
def outcome(scenario):
    return observed(*scenario)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("checkpoint", CHECKPOINTS)
def test_every_store_file_is_byte_identical(outcome, golden, checkpoint):
    got = outcome["files"][checkpoint]
    want = golden["files"][checkpoint]
    assert sorted(got) == sorted(want)
    assert {p for p in want if got[p] != want[p]} == set()


def test_the_scenario_reaches_every_writer_shape(scenario):
    snaps, _ = scenario
    appended = snaps["appended"]
    # three delta generations with pages on "crc" (the fourth is
    # tombstone-only and writes no delta container), one on "empty", and
    # delta containers on primaries and replicas of the sharded store
    assert [p for p in appended if p.startswith("crc/delta-")] == [
        f"crc/delta-{g:04d}.bin" for g in (1, 2, 3)
    ]
    assert "empty/delta-0001.bin" in appended
    assert any("-replica-00/delta-0001.bin" in p for p in appended)
    assert not [p for p in snaps["compacted"] if "/delta-" in p]
    # an empty store's container is its header and an empty index
    empty = snaps["loaded"]["empty/data.bin"]
    header = unpack_header(empty, file_size=len(empty))
    assert header.num_pages == 0 and header.index_offset == HEADER_SIZE
    assert len(empty) == header.dir_offset


def test_write_seconds_are_bit_identical(outcome, golden):
    assert outcome["write_seconds"] == golden["write_seconds"]


#: one-shard charge -> (the checkpoint after it, its store, the generation
#: container it writes); each also rewrites the store's manifest and
#: shards.json
FILES_WRITTEN = {
    "bulk_load": ("loaded", "crc", ["data.bin"]),
    "bulk_load_empty": ("loaded", "empty", ["data.bin"]),
    "append_plain": ("appended", "crc", ["delta-0001.bin"]),
    "append_deletes": ("appended", "crc", ["delta-0002.bin"]),
    "append_updates": ("appended", "crc", ["delta-0003.bin"]),
    "append_tombstones_only": ("appended", "crc", []),
    "append_to_empty": ("appended", "empty", ["delta-0001.bin"]),
    "compact": ("compacted", "crc", ["data.bin"]),
    "compact_was_empty": ("compacted", "empty", ["data.bin"]),
}


def test_one_shard_charges_follow_the_bytes_written(scenario, tmp_path):
    snaps, seconds = scenario
    with replicating_writer():
        replica_snaps, replica_seconds = run_scenario(tmp_path / "replicating")
    fs = LustreFilesystem(tmp_path / "charges", ost_count=4)
    for name, (checkpoint, store, written) in FILES_WRITTEN.items():
        # an append's manifest and shards.json are priced as they stand at
        # the checkpoint: their difference from the replicating build's is
        # the same at every size they have during the scenario
        extra = 0.0
        for file in [*written, "manifest.json", "shards.json"]:
            path = f"{store}/{file}"
            extra += write_file(fs, f"stores/{path}", snaps[checkpoint][path])
            extra -= write_file(fs, f"stores/{path}", replica_snaps[checkpoint][path])
        assert seconds[name] - replica_seconds[name] == pytest.approx(extra, abs=1e-12), name
    # and the replicating build did store copies: the bulk load wrote more
    assert replica_seconds["bulk_load"] > seconds["bulk_load"]


@pytest.mark.parametrize("checkpoint", CHECKPOINTS)
def test_replica_files_equal_primary_files(scenario, checkpoint):
    files = scenario[0][checkpoint]
    replicas = [p for p in files if "-replica-00/" in p]
    assert replicas
    for path in replicas:
        primary = path.replace("-replica-00/", "/")
        if path.endswith("manifest.json"):
            # the manifests differ in the store name they carry, only
            ours, theirs = json.loads(files[path]), json.loads(files[primary])
            assert ours.pop("name") == theirs.pop("name") + "-replica-00"
            assert ours == theirs
        else:
            assert files[path] == files[primary], path


@pytest.mark.parametrize("checkpoint", CHECKPOINTS)
def test_header_counts_distinct_record_ids(scenario, checkpoint):
    for path, blob in scenario[0][checkpoint].items():
        if not path.endswith(".bin"):
            continue
        header = unpack_header(blob, file_size=len(blob))
        ids = {
            record_id
            for meta in unpack_page_directory(blob[header.dir_offset :], header.num_pages)
            for record_id in decode_page_columns(
                blob[meta.offset : meta.offset + meta.nbytes]
            )[0]
        }
        assert header.num_records == len(ids), path


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(observed(*run_scenario(tmp)), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
