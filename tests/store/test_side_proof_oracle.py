"""The side proof and decode-on-access hits against the eager refine loop.

``RefineExecutor.refine`` proves a hit from the envelope column in two ways —
MBR containment in a rectangular window, and one whole MBR side inside it —
and emits a proven hit whose slot is not yet decoded as the page payload
plus the slot, decoded when ``.geometry`` is first read.  Two oracles hold it
to the loops it replaced:

* ``_eager_refine_reference.eager_refine`` — the containment-only loop that
  decoded every hit it returned;
* ``_refine_reference.refine_reference`` — the per-slot scalar loop before
  that.

Hypothesis streams build stores of points, zero-width and zero-height
boxes and lines, triangles, multi-geometries and collections on a 1/2
lattice (plus records at ±inf), over 1, 2 or 4 shards with appends,
updates, deletes and maybe a compaction, and serve lattice windows whose
edges sit on record MBR bounds.  On every shard store all three loops must
return equal ``(record_id, partition_id, page_id, generation)`` lists and,
once read, equal geometries (WKB bytes, userdata and the envelope's float
bits); wherever the side proof fires, ``predicates.intersects`` is True.
The hand-written tests pin the lazy hit's life: it outlives its store,
decodes once, pickles to its record's frame, and crosses the sharded
server undecoded.
"""

import gc
import math
import pickle
import shutil
import struct
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _eager_refine_reference import eager_refine
from _refine_recount import side_proved
from _refine_reference import refine_reference
from test_index_once import build, store_names

import repro.store.engine as engine_module
from repro import mpisim
from repro.geometry import (
    Envelope,
    GeometryCollection,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    predicates,
    wkb,
)
from repro.pfs import LustreFilesystem
from repro.store import DistributedStoreServer, PageKey, QueryHit, SpatialDataStore, bulk_load

INF = math.inf
half = st.integers(0, 96).map(lambda v: v / 2)
span = st.integers(0, 20).map(lambda v: v / 2)


@st.composite
def geometries(draw):
    x, y, w, h = draw(half), draw(half), draw(span), draw(span)
    kind = draw(st.integers(0, 8))
    if kind == 0:
        return Point(x, y)
    if kind == 1:  # w or h may be 0: a zero-width or zero-height box
        return Polygon.from_envelope(Envelope(x, y, x + w, y + h))
    if kind == 2:  # axis-parallel or diagonal, possibly a zero-length line
        return LineString([(x, y), (x + w, y + h)])
    if kind == 3:  # its MBR's top-right corner is empty
        return Polygon([(x, y), (x + w + 1, y), (x, y + h + 1)])
    if kind == 4:
        return MultiPoint([Point(x, y), Point(x + w, y + h)])
    if kind == 5:  # two boxes on opposite corners: the MBR is mostly empty
        return MultiPolygon([
            Polygon.from_envelope(Envelope(x, y, x + 1, y + 1)),
            Polygon.from_envelope(Envelope(x + w + 2, y + h + 2, x + w + 3, y + h + 3)),
        ])
    if kind == 6:
        return MultiLineString([LineString([(x, y + h), (x + w, y + h)]),
                                LineString([(x + w, y), (x + w, y + h / 2)])])
    if kind == 7:
        return GeometryCollection([Point(x, y + h), LineString([(x + w, y), (x + w / 2, y + h / 2)])])
    return Point(draw(st.sampled_from([INF, -INF])), y)


@st.composite
def windows(draw, mbrs):
    """A lattice window, or one whose edges sit on a record's MBR bounds."""
    if mbrs and draw(st.booleans()):
        x0, y0, x1, y1 = draw(st.sampled_from(mbrs))
        dx0, dy0, dx1, dy1 = (draw(st.sampled_from([-1.5, -0.5, 0.0, 0.5])) for _ in range(4))
        return Envelope(x0 + dx0, y0 + dy0, x1 - dx1, y1 - dy1)
    if draw(st.integers(0, 9)) == 0:
        return Envelope(-INF, -INF, INF, INF)
    x, y = draw(half), draw(half)
    return Envelope(x, y, x + draw(span) * 2, y + draw(span) * 2)


appends = st.tuples(
    st.lists(geometries(), max_size=6),
    st.lists(st.integers(0, 10_000), max_size=3),
    st.lists(st.integers(0, 10_000), max_size=3),
)


def bits(env):
    return struct.pack("<4d", *env.as_tuple())


def location(hit):
    return (hit.record_id, hit.partition_id, hit.page_id, hit.generation)


def body(hit):
    geom = hit.geometry
    return (wkb.dumps(geom), geom.userdata, bits(geom.envelope))


def compare_on_store(store, queries, exact):
    """Every plan entry of *queries* through the live loop and both oracles,
    on a store nothing has decoded from yet; returns how many hits the side
    proof alone settled."""
    executor = store.executor
    sides = 0
    for entry in store.planner.plan(list(enumerate(queries))).entries:
        pages = store._get_pages(entry.by_page)
        # the live loop first: the oracles fill the pages' decode memos
        live = executor.refine(entry, pages, exact)
        undecoded = [hit for hit in live if hit._payload is not None]
        eager = eager_refine(executor, entry, pages, exact)
        scalar = refine_reference(executor, entry, pages, exact)
        assert [location(h) for h in live] == [location(h) for h in eager]
        assert [location(h) for h in live] == [location(h) for h in scalar]
        assert [body(h) for h in live] == [body(h) for h in eager] == [body(h) for h in scalar]
        if not exact:
            assert undecoded == []  # MBR-only hits decode through the memo
            continue
        window = entry.env
        for hit in undecoded:  # each was proven from the column alone
            assert predicates.intersects(window, hit.geometry)
        for key, slots in entry.by_page.items():
            for slot in slots:
                env = pages[key].envelope(slot)
                if side_proved(window, env):
                    sides += not window.contains(env)
                    assert predicates.intersects(window, pages[key].record(slot)[1])
    return sides


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    load=st.lists(geometries(), max_size=30),
    num_partitions=st.sampled_from([9, 16]),
    num_shards=st.sampled_from([1, 2, 4]),
    steps=st.lists(appends, max_size=3),
    compact=st.booleans(),
    data=st.data(),
)
def test_live_refine_equals_both_oracles(load, num_partitions, num_shards, steps, compact, data):
    mbrs = [g.envelope.as_tuple() for g in load if not g.envelope.is_empty]
    queries = data.draw(st.lists(windows(mbrs), min_size=1, max_size=8))
    root = tempfile.mkdtemp()
    try:
        fs = build(root, load, num_partitions, num_shards, steps, compact)
        for name in store_names(fs):
            for exact in (True, False):
                with SpatialDataStore.open(fs, name) as store:
                    compare_on_store(store, queries, exact)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_the_battery_reaches_the_side_proof(tmp_path):
    # records on a lattice and windows on their edges: the side proof fires
    # often, and every time the predicate agrees
    geoms = [
        Polygon([(x, y), (x + 2, y), (x, y + 2)]) if (x + y) % 4 else LineString([(x, y), (x + 2, y + 1)])
        for x in range(0, 40, 3) for y in range(0, 40, 3)
    ]
    fs = LustreFilesystem(tmp_path, ost_count=2)
    bulk_load(fs, "lat", geoms, num_partitions=9, page_size=512)
    queries = [Envelope(x + 1, y + 0.5, x + 10, y + 9) for x in range(0, 30, 3) for y in (0, 7, 20)]
    with SpatialDataStore.open(fs, "lat") as store:
        assert compare_on_store(store, queries, True) > 50


# --------------------------------------------------------------------------- #
# the lazy hit's life
# --------------------------------------------------------------------------- #
@pytest.fixture
def lattice_store(tmp_path):
    fs = LustreFilesystem(tmp_path, ost_count=2)
    geoms = [Polygon.from_envelope(Envelope(x, y, x + 1.5, y + 1.5), userdata=f"r{x},{y}")
             for x in range(12) for y in range(12)]
    bulk_load(fs, "life", geoms, num_partitions=4, page_size=4096)
    bulk_load(fs, "life4", geoms, num_partitions=4, num_shards=2, page_size=4096)
    return fs, geoms


#: cuts the lattice: containment proves the inner boxes, the side proof the
#: boxes crossing one window edge, and the boxes round the corners (crossing
#: two edges) need the predicate
WINDOW = Envelope(2.5, 2.5, 8.5, 8.5)


def test_a_lazy_hit_outlives_its_store(lattice_store, monkeypatch):
    fs, geoms = lattice_store
    store = SpatialDataStore.open(fs, "life", cache_pages=1)
    hits = store.range_query(WINDOW)
    lazy = [hit for hit in hits if hit._payload is not None]
    assert (len(hits), len(lazy), store.stats.records_decoded) == (64, 55, 9)
    # the centre of a page no lazy hit holds: that page evicts theirs
    held = {h.page_id for h in lazy}
    x, y = next(meta.mbr.centre for meta in store.generations[0].pages
                if meta.page_id not in held)
    store.range_query(Envelope(x, y, x, y))
    assert not any(PageKey(h.generation, h.page_id) in store._cache for h in lazy)
    store.close()
    del store
    gc.collect()
    decodes = []
    real = engine_module.decode_record_body
    monkeypatch.setattr(engine_module, "decode_record_body",
                        lambda *args: decodes.append(args[1]) or real(*args))
    for hit in lazy:
        geom = hit.geometry
        assert geom is hit.geometry  # read twice, decoded once
        want = geoms[hit.record_id]
        assert (wkb.dumps(geom), geom.userdata, bits(geom.envelope)) == (
            wkb.dumps(want), want.userdata, bits(want.envelope))
        assert hit._payload is None  # the page bytes are let go
    assert len(decodes) == len(lazy)


def test_a_lazy_hit_pickles_to_its_frame(lattice_store):
    fs, geoms = lattice_store
    with SpatialDataStore.open(fs, "life", cache_pages=64) as store:
        hits = store.range_query(WINDOW)
        lazy = next(hit for hit in hits if hit._payload is not None)
        page = store._cache.get(PageKey(lazy.generation, lazy.page_id))
        assert page.payload is lazy._payload
        frame = page.frame(lazy._slot)
    blob = pickle.dumps(lazy)
    assert lazy._payload is not None  # pickling decoded nothing
    assert len(page.payload) > 3000 and frame in blob
    assert len(blob) < len(frame) + 250  # never the 4 KiB payload
    back = pickle.loads(blob)
    assert back._payload is not None and len(back._payload) == 4 + 40 + len(frame)
    assert pickle.dumps(back) == blob
    assert location(back) == location(lazy) and body(back) == body(lazy)


def test_sharded_serving_hands_lazy_bodies_through(lattice_store):
    fs, geoms = lattice_store
    queries = [(0, WINDOW), (1, Envelope(0.5, 0.5, 5.25, 11.0))]

    def prog(comm):
        with DistributedStoreServer.open(comm, fs, "life4") as server:
            for _ in range(2):  # the second batch finds the wire-size memo warm
                hits = server.range_query_batch(queries if comm.rank == 0 else None)
            return hits

    hits = mpisim.run_spmd(prog, 2).values[0]
    assert sum(hit._payload is not None for hit in hits) > 20
    with SpatialDataStore.open(fs, "life") as single:
        expected = single.range_query_batch(queries)
    got = [[hit for hit in hits if hit.query_id == qid] for qid, _ in queries]
    assert [[h.record_id for h in q] for q in got] == [[h.record_id for h in q] for q in expected]
    assert [[body(h) for h in q] for q in got] == [[body(h) for h in q] for q in expected]
    assert all(hit._payload is None for hit in hits)
    assert all(type(hit) is not QueryHit for hit in hits)
