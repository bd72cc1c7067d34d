"""The packed index names each record once per generation.

``writer.pack_partitions`` adds a record's index entry only on the first
page the pack stores it on: the lowest-cell replica, the one the refine
loop's record-id de-dup kept when every replica was indexed.  Two checks:

* **differential** — a hypothesis stream builds the same store twice, once
  with the live writer and once with the retired writer that indexed every
  replica (``_replica_index_reference.py``), then serves the same windows
  through both.  Records sit on a 1/2 lattice whose extent puts grid-cell
  edges on lattice values, so records touch and straddle cell boundaries;
  stores have 1, 2 or 4 shards and take appends with deletes and updates,
  and maybe a compaction.  Every shard store (read replicas included)
  must return the same full hit tuples ``(record_id, partition_id,
  page_id, generation)``, exact and MBR-only, and every file but the
  indexes must be byte-identical;
* **invariant** — for every generation of every writer in the write-path
  golden scenario, the index holds each stored record id exactly once, on
  the lowest page that stores it, and ``len(gen.index) == num_records``.
"""

import math
import pathlib
import shutil
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _replica_index_reference import replica_indexing
from test_write_path_golden import CHECKPOINTS, run_scenario

from repro.geometry import Envelope, Point, Polygon
from repro.pfs import LustreFilesystem
from repro.store import SpatialDataStore, StoreAppender, bulk_load, compact_store
from repro.store.format import decode_page_columns
from repro.store.sharded import read_shards_manifest

NAME = "once"
#: pinned corners make the load extent [0, 48]²: the 3×3 grid's cell edges
#: (16, 32) and the 4×4 grid's (12, 24, 36) are lattice values
CORNERS = [Point(0, 0), Point(48, 48)]
EVERYTHING = Envelope(-math.inf, -math.inf, math.inf, math.inf)
half = st.integers(0, 96).map(lambda v: v / 2)


@st.composite
def geometries(draw):
    x, y = draw(half), draw(half)
    if draw(st.booleans()):
        return Point(x, y)
    w, h = draw(st.integers(0, 40)) / 2, draw(st.integers(0, 40)) / 2
    return Polygon.from_envelope(Envelope(x, y, x + w, y + h))


@st.composite
def windows(draw):
    x, y = draw(half), draw(half)
    return Envelope(x, y, x + draw(st.integers(0, 40)) / 2, y + draw(st.integers(0, 40)) / 2)


#: one append: ``(new geometries, picks of live ids to update, picks to delete)``
appends = st.tuples(
    st.lists(geometries(), max_size=6),
    st.lists(st.integers(0, 10_000), max_size=3),
    st.lists(st.integers(0, 10_000), max_size=3),
)


def build(root, load, num_partitions, num_shards, steps, compact):
    """Run the whole write stream on a fresh filesystem under *root*."""
    fs = LustreFilesystem(root, ost_count=2)
    bulk_load(fs, NAME, CORNERS + load, num_partitions=num_partitions, page_size=256,
              num_shards=num_shards, read_replicas=1)
    live = list(range(len(CORNERS) + len(load)))
    next_id = len(live)  # the store's id ceiling: appends number from it
    appender = StoreAppender(fs, NAME)
    for geoms, update_picks, delete_picks in steps:
        updates = sorted({live[i % len(live)] for i in update_picks}) if live else []
        if updates:
            moved = [geoms[i % len(geoms)] if geoms else Point(1, 1) for i in range(len(updates))]
            appender.append(moved, record_ids=updates)
        deletes = sorted({live[i % len(live)] for i in delete_picks}) if live else []
        appender.append(geoms, deletes=deletes)
        live = [rid for rid in live if rid not in deletes]
        live += range(next_id, next_id + len(geoms))
        next_id += len(geoms)
    if compact:
        compact_store(fs, NAME)
    return fs


def files(root):
    base = pathlib.Path(root) / "stores"
    return {p.relative_to(base).as_posix(): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()}


def store_names(fs):
    layout, _ = read_shards_manifest(fs, NAME)
    return [name for shard in layout.shards for name in [shard.store, *shard.replica_stores]]


def hit_tuples(store, queries, exact):
    return [
        [(h.record_id, h.partition_id, h.page_id, h.generation) for h in hits]
        for hits in store.range_query_batch(queries, exact=exact)
    ]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    load=st.lists(geometries(), max_size=30),
    num_partitions=st.sampled_from([9, 16]),
    num_shards=st.sampled_from([1, 2, 4]),
    steps=st.lists(appends, max_size=3),
    compact=st.booleans(),
    queries=st.lists(windows(), min_size=1, max_size=8),
)
def test_hits_equal_the_replica_indexed_build(load, num_partitions, num_shards, steps,
                                             compact, queries):
    live_root, ref_root = tempfile.mkdtemp(), tempfile.mkdtemp()
    try:
        live_fs = build(live_root, load, num_partitions, num_shards, steps, compact)
        with replica_indexing():
            ref_fs = build(ref_root, load, num_partitions, num_shards, steps, compact)
        live_files, ref_files = files(live_root), files(ref_root)
        assert sorted(live_files) == sorted(ref_files)
        indexes = [p for p in live_files if p.endswith((".idx", "index.bin"))]
        assert indexes
        assert [p for p in live_files if p not in indexes and live_files[p] != ref_files[p]] == []

        batch = list(enumerate(queries))
        for name in store_names(live_fs):
            with SpatialDataStore.open(live_fs, name) as live, \
                    SpatialDataStore.open(ref_fs, name) as ref:
                for exact in (True, False):
                    assert hit_tuples(live, batch, exact) == hit_tuples(ref, batch, exact)
                # the live build never plans more candidate slots
                assert live.stats.slots_scanned <= ref.stats.slots_scanned
    finally:
        shutil.rmtree(live_root, ignore_errors=True)
        shutil.rmtree(ref_root, ignore_errors=True)


def test_every_generation_indexes_each_record_once(tmp_path):
    snaps, _ = run_scenario(tmp_path / "scenario")
    for checkpoint in CHECKPOINTS:
        root = tmp_path / checkpoint
        for path, blob in snaps[checkpoint].items():
            target = root / "stores" / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(blob)
        fs = LustreFilesystem(root, ost_count=4)
        names = sorted({p.rsplit("/", 1)[0] for p in snaps[checkpoint] if p.endswith("manifest.json")})
        assert len(names) == 8  # crc, empty, and three shards of sh with a replica each
        for name in names:
            with SpatialDataStore.open(fs, name) as store:
                infos = [store.manifest, *store.manifest.generations]
                for gen, info in zip(store.generations, infos):
                    blob = snaps[checkpoint][gen.data_path.split("/", 1)[1]] if gen.pages else b""
                    # record ids of every page of the container, in page order
                    page_ids = [
                        decode_page_columns(blob[meta.offset : meta.offset + meta.nbytes])[0]
                        for meta in gen.pages
                    ]
                    first_page = {}
                    for pid, ids in enumerate(page_ids):
                        for rid in ids:
                            first_page.setdefault(rid, pid)
                    indexed = [(page_ids[pid][slot], pid) for pid, slot in gen.index.query(EVERYTHING)]
                    assert len(gen.index) == info.num_records == len(first_page), (name, gen.gen_id)
                    assert sorted(indexed) == sorted(first_page.items()), (name, gen.gen_id)
