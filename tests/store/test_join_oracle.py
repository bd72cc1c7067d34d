"""Both joins against the retired post-filter join.

``SpatialDataStore.join`` and ``DistributedStoreServer.join`` serve a join
as a range batch whose windows are the probe geometries: the engine's
geometry-window refine decodes each candidate through its page's memo and
keeps it when ``intersects(probe, record)`` holds.  Both used to run an
MBR-only batch of the probes' envelopes and filter its hits by that
predicate themselves; that join is kept as
``_post_filter_join_reference.post_filter_join``.

Hypothesis probe streams — polygons, rectangles given as polygons, points,
linestrings, probes outside the data extent and probes on record-MBR
edges — run against a store with two delta generations, updates and
tombstones.  ``store.join`` must equal the reference pair for pair and in
order (probe, record id, partition, page, generation, decoded body), with
equal ``records_decoded`` and ``pages_read``; the sharded server's join at
1, 2 and 4 ranks over a four-shard copy of the same store must equal it
too.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _post_filter_join_reference import post_filter_join

from repro import mpisim
from repro.geometry import Envelope, LineString, MultiPolygon, Point, Polygon, wkb
from repro.pfs import LustreFilesystem
from repro.store import DistributedStoreServer, SpatialDataStore, StoreAppender, bulk_load


def records(n, seed):
    """Boxes (some zero-width), triangles, points, lines and two-box
    multipolygons on a 1/2 lattice, each carrying its position."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x, y = rng.randrange(0, 96) / 2, rng.randrange(0, 96) / 2
        w, h = rng.randrange(0, 12) / 2, rng.randrange(0, 12) / 2
        kind = i % 5
        if kind == 0:
            geom = Polygon.from_envelope(Envelope(x, y, x + w, y + h), userdata=i)
        elif kind == 1:
            geom = Polygon([(x, y), (x + w + 1, y), (x, y + h + 1)], userdata=i)
        elif kind == 2:
            geom = Point(x, y, userdata=i)
        elif kind == 3:
            geom = LineString([(x, y), (x + w, y + h)], userdata=i)
        else:
            geom = MultiPolygon([
                Polygon.from_envelope(Envelope(x, y, x + 1, y + 1)),
                Polygon.from_envelope(Envelope(x + w + 2, y + h + 2, x + w + 3, y + h + 3)),
            ])
            geom.userdata = i
        out.append(geom)
    return out


BASE = records(120, seed=3)
MBRS = [g.envelope.as_tuple() for g in BASE]


@pytest.fixture(scope="module")
def layered(tmp_path_factory):
    """One-shard store ``one`` and four-shard store ``four``, written by the
    same stream: a bulk load, an append of new records, an update of five
    records and a delete of five (one of them appended)."""
    fs = LustreFilesystem(tmp_path_factory.mktemp("join_oracle"), ost_count=2)
    fresh = records(30, seed=4)
    moved = records(5, seed=5)
    for name, shards in (("one", 1), ("four", 4)):
        bulk_load(fs, name, BASE, num_partitions=16, page_size=512, num_shards=shards)
        appender = StoreAppender(fs, name)
        appender.append(fresh)
        appender.append(moved, record_ids=[3, 17, 40, 77, 101])
        appender.append(deletes=[5, 9, 60, 88, 130])
    with SpatialDataStore.open(fs, "one") as store:
        assert store.num_generations == 3
    return fs


coord = st.integers(-20, 120).map(lambda v: v / 2)  # the data sit in [0, 56]
nudge = st.sampled_from([-0.5, 0.0, 0.0, 0.5])


@st.composite
def probes(draw):
    kind = draw(st.integers(0, 6))
    if kind == 0:  # a triangle or a quadrilateral
        return Polygon(draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=4,
                                     unique=True)))
    if kind == 1:  # a rectangle given as a polygon
        (x0, x1), (y0, y1) = sorted([draw(coord), draw(coord)]), sorted([draw(coord), draw(coord)])
        return Polygon.from_envelope(Envelope(x0, y0, x1, y1))
    if kind == 2:
        return Point(draw(coord), draw(coord))
    if kind == 3:
        return LineString([(draw(coord), draw(coord)) for _ in range(draw(st.integers(2, 3)))])
    if kind == 4:  # wholly outside the data extent
        x, y = draw(coord) + 100.0, draw(coord)
        return Polygon([(x, y), (x + 3.0, y), (x, y + 3.0)])
    x0, y0, x1, y1 = draw(st.sampled_from(MBRS))
    if kind == 5:  # a rectangle whose edges sit on (or next to) a record's MBR
        (x0, x1), (y0, y1) = sorted([x0 + draw(nudge), x1 - draw(nudge)]), sorted(
            [y0 + draw(nudge), y1 - draw(nudge)]
        )
        return Polygon.from_envelope(Envelope(x0, y0, x1, y1))
    # a point on a record MBR's corner, or a line along one of its edges
    if draw(st.booleans()):
        return Point(draw(st.sampled_from([x0, x1])), draw(st.sampled_from([y0, y1])))
    return LineString([(x0, y0), (x1, y0)] if draw(st.booleans()) else [(x1, y0), (x1, y1)])


probe_lists = st.lists(probes(), min_size=1, max_size=8)


def located(pairs, probe_list):
    pos = {id(p): i for i, p in enumerate(probe_list)}
    return [(pos[id(p)], h.record_id, h.partition_id, h.page_id, h.generation) for p, h in pairs]


def answered(pairs, probe_list):
    """``(probe position, record id, partition, WKB, userdata)`` per pair."""
    pos = {id(p): i for i, p in enumerate(probe_list)}
    return [
        (pos[id(p)], h.record_id, h.partition_id, wkb.dumps(h.geometry), h.geometry.userdata)
        for p, h in pairs
    ]


def counted(store):
    stats = store.stats.as_dict()
    return stats["records_decoded"], stats["pages_read"]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(probe_list=probe_lists)
def test_store_join_equals_the_post_filter_join(layered, probe_list):
    with SpatialDataStore.open(layered, "one") as live, \
            SpatialDataStore.open(layered, "one") as retired:
        got = live.join(probe_list)
        want = post_filter_join(retired, probe_list)
        assert located(got, probe_list) == located(want, probe_list)
        assert answered(got, probe_list) == answered(want, probe_list)
        assert counted(live) == counted(retired)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(probe_list=probe_lists)
def test_server_join_equals_the_post_filter_join(layered, probe_list):
    with SpatialDataStore.open(layered, "one") as retired:
        want = answered(post_filter_join(retired, probe_list), probe_list)

    def prog(comm):
        with DistributedStoreServer.open(comm, layered, "four") as server:
            return server.join(probe_list if comm.rank == 0 else None)

    for nprocs in (1, 2, 4):
        got = mpisim.run_spmd(prog, nprocs).values[0]
        assert answered(got, probe_list) == want, nprocs


def test_the_streams_reach_matches_and_misses(layered):
    # the battery is not vacuous: an edge probe matches, an outside one misses
    x0, y0, x1, y1 = MBRS[0]
    edge, outside = Point(x0, y1), Point(200.0, 200.0)
    with SpatialDataStore.open(layered, "one") as store:
        assert [h.record_id for _, h in store.join([edge]) if h.record_id == 0] == [0]
        assert store.join([outside]) == []
