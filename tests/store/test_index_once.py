"""Every writer stores each record once and indexes every stored slot.

Two checks:

* **differential** — a hypothesis stream builds the same store twice, once
  with the live writer and once with the retired writer that stored a copy
  of each record in every cell its MBR overlaps and indexed every copy
  (``_replicating_writer_reference.py``), then serves the same windows
  through both.  Records sit on a 1/2 lattice whose extent puts grid-cell
  edges on lattice values, so records touch and straddle cell boundaries;
  stores have 1, 2 or 4 shards and take appends with deletes and updates,
  and maybe a compaction.  Shard runs are balanced by what each build
  stores, so the two builds are compared store-wide, copy by copy (primary
  shards, then each read replica): the live shards' hits, exact and
  MBR-only, name each record once, and as ``(record_id, partition_id,
  geometry)`` they equal the retired build's home-cell hits — the one hit
  per record whose partition is the cell of its MBR's lower-left corner;
* **compatibility** — a one-shard store the retired writer wrote answers
  ``range_query``, ``range_query_batch`` and ``scan`` exactly as the
  store-once load of the same records, and stores no copies once compacted;
* **invariant** — for every generation of every writer in the write-path
  golden scenario, the index holds every stored slot once, no record id is
  stored twice, and ``len(gen.index) == num_records``.
"""

import math
import shutil
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _replicating_writer_reference import replicating_writer
from test_write_path_golden import CHECKPOINTS, LOAD, run_scenario
from test_write_path_golden import geometries as golden_geometries

from repro.geometry import Envelope, Point, Polygon
from repro.geometry.wkb import dumps
from repro.index import UniformGrid
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


def store_names(fs):
    layout, _ = read_shards_manifest(fs, NAME)
    return [name for shard in layout.shards for name in [shard.store, *shard.replica_stores]]


def copies(fs):
    """The store's shard names by copy: the primaries, then each read replica."""
    layout, _ = read_shards_manifest(fs, NAME)
    # a store whose every record was deleted compacts to an empty extent and
    # has no grid until its next append; it answers no hit to home
    grid = None if layout.extent.is_empty else UniformGrid(
        layout.extent, layout.grid_rows, layout.grid_cols
    )
    return grid, list(zip(*[[shard.store, *shard.replica_stores] for shard in layout.shards]))


def answers(fs, names, queries, exact, keep=lambda hit: True):
    """Per query, ``(record_id, partition_id, wkb)`` of every hit of every
    shard in *names* that *keep* accepts, sorted; and the shards' summed
    ``slots_scanned``."""
    out = [[] for _ in queries]
    scanned = 0
    for name in names:
        with SpatialDataStore.open(fs, name) as store:
            for found, hits in zip(out, store.range_query_batch(queries, exact=exact)):
                found += [(h.record_id, h.partition_id, dumps(h.geometry)) for h in hits if keep(h)]
            scanned += store.stats.slots_scanned
    return [sorted(found) for found in out], scanned


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    load=st.lists(geometries(), max_size=30),
    num_partitions=st.sampled_from([9, 16]),
    num_shards=st.sampled_from([1, 2, 4]),
    steps=st.lists(appends, max_size=3),
    compact=st.booleans(),
    queries=st.lists(windows(), min_size=1, max_size=8),
)
def test_hits_equal_the_replicating_build(load, num_partitions, num_shards, steps,
                                          compact, queries):
    live_root, ref_root = tempfile.mkdtemp(), tempfile.mkdtemp()
    try:
        live_fs = build(live_root, load, num_partitions, num_shards, steps, compact)
        with replicating_writer():
            ref_fs = build(ref_root, load, num_partitions, num_shards, steps, compact)
        batch = list(enumerate(queries))
        _, live_copies = copies(live_fs)
        grid, ref_copies = copies(ref_fs)

        def homed(hit):
            env = hit.geometry.envelope
            return hit.partition_id == grid.cell_for_point(env.minx, env.miny)

        for live_names, ref_names in zip(live_copies, ref_copies):
            for exact in (True, False):
                live, live_scanned = answers(live_fs, live_names, batch, exact)
                ref, ref_scanned = answers(ref_fs, ref_names, batch, exact, homed)
                for found in live:  # each record answers once, from one shard
                    assert len({rid for rid, _, _ in found}) == len(found)
                assert live == ref
                # the live build never plans more candidate slots
                assert live_scanned <= ref_scanned
    finally:
        shutil.rmtree(live_root, ignore_errors=True)
        shutil.rmtree(ref_root, ignore_errors=True)


def test_every_generation_stores_each_record_once_and_indexes_every_slot(tmp_path):
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
                    slots = [(pid, slot) for pid, ids in enumerate(page_ids) for slot in range(len(ids))]
                    stored = [rid for ids in page_ids for rid in ids]
                    assert len(set(stored)) == len(stored), (name, gen.gen_id)
                    assert len(gen.index) == info.num_records == len(slots), (name, gen.gen_id)
                    assert sorted(gen.index.query(EVERYTHING)) == slots, (name, gen.gen_id)


def test_a_replicating_one_shard_store_answers_as_the_store_once_load(tmp_path):
    # a one-shard store the retired writer wrote is the format every store
    # had before the writers kept one copy: it opens and serves as a
    # store-once load of the same records does, and compaction leaves it
    # one copy of each record
    fs = LustreFilesystem(tmp_path, ost_count=2)
    geoms = golden_geometries(range(240))
    bulk_load(fs, "once", geoms, **LOAD)
    with replicating_writer():
        bulk_load(fs, "copies", geoms, **LOAD)
    windows = [EVERYTHING, Envelope(10, 10, 60, 40), Envelope(45.5, 0, 91, 132.5),
               Envelope(30, 30, 30, 30)]
    batch = list(enumerate(windows))

    def served(name):
        with SpatialDataStore.open(fs, name) as store:
            slots = sum(part.record_count for part in store.manifest.partitions)
            return slots, (
                [[(h.record_id, h.partition_id, dumps(h.geometry)) for h in store.range_query(w)]
                 for w in windows],
                [[(h.record_id, h.partition_id, dumps(h.geometry)) for h in hits]
                 for hits in store.range_query_batch(batch, exact=False)],
                sorted((rid, dumps(g)) for rid, g in store.scan()),
            )

    stored, want = served("once")
    slots, got = served("copies")
    assert slots > stored  # records span cells, and the retired writer copied them
    assert got == want
    assert len(want[0][0]) == stored

    compact_store(fs, "copies")
    slots, got = served("copies")
    assert slots == stored
    assert got == want
