"""Geometry windows through the sharded server.

A batch's window is an envelope or a geometry, and the server and the
async front-end serve both through one loop: rank 0 sends the
``(query_id, window)`` pairs as they are, each rank tests a window's
envelope against its shard extents and its shard stores refine a geometry
window by ``intersects``.  Hypothesis batches that mix envelopes with
polygons, points and linestrings must answer through
``DistributedStoreServer.range_query_batch`` and
``AsyncStoreFrontend.serve`` at 1, 2 and 4 ranks exactly as
``SpatialDataStore.range_query_batch`` answers them on a one-shard copy of
the same store: per query, the same records in the same order, with the
same partitions, bodies and userdata.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import mpisim
from repro.geometry import Envelope, LineString, Point, Polygon, wkb
from repro.pfs import LustreFilesystem
from repro.store import AsyncStoreFrontend, DistributedStoreServer, SpatialDataStore, bulk_load


def records(n, seed):
    """Boxes, triangles, points and lines on a 1/2 lattice, each carrying
    its position."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x, y = rng.randrange(0, 96) / 2, rng.randrange(0, 96) / 2
        w, h = rng.randrange(0, 12) / 2, rng.randrange(0, 12) / 2
        kind = i % 4
        if kind == 0:
            out.append(Polygon.from_envelope(Envelope(x, y, x + w, y + h), userdata=i))
        elif kind == 1:
            out.append(Polygon([(x, y), (x + w + 1, y), (x, y + h + 1)], userdata=i))
        elif kind == 2:
            out.append(Point(x, y, userdata=i))
        else:
            out.append(LineString([(x, y), (x + w, y + h)], userdata=i))
    return out


@pytest.fixture(scope="module")
def fs(tmp_path_factory):
    """One-shard store ``one`` and four-shard store ``four`` of the same
    records."""
    fs = LustreFilesystem(tmp_path_factory.mktemp("geometry_windows"), ost_count=2)
    geoms = records(150, seed=8)
    for name, shards in (("one", 1), ("four", 4)):
        bulk_load(fs, name, geoms, num_partitions=16, page_size=512, num_shards=shards)
    return fs


coord = st.integers(-10, 110).map(lambda v: v / 2)  # the data sit in [0, 54]


@st.composite
def windows(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        (x0, x1), (y0, y1) = sorted([draw(coord), draw(coord)]), sorted([draw(coord), draw(coord)])
        return Envelope(x0, y0, x1, y1)
    if kind == 1:
        return Polygon(draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=4, unique=True)),
                       userdata=draw(st.integers(0, 9)))
    if kind == 2:
        return Point(draw(coord), draw(coord))
    return LineString([(draw(coord), draw(coord)) for _ in range(draw(st.integers(2, 3)))])


batches = st.lists(windows(), min_size=1, max_size=8).map(
    lambda ws: [(f"q{i}", w) for i, w in enumerate(ws)]
)


def answered(hits):
    """``(query id, record id, partition, WKB, userdata)`` per hit."""
    return [
        (h.query_id, h.record_id, h.partition_id, wkb.dumps(h.geometry), h.geometry.userdata)
        for h in hits
    ]


def single_store(fs, batch):
    """The one-shard store's answer, flattened in batch order with each
    hit's query id."""
    with SpatialDataStore.open(fs, "one") as store:
        per_query = store.range_query_batch(batch)
    return [
        (qid, h.record_id, h.partition_id, wkb.dumps(h.geometry), h.geometry.userdata)
        for (qid, _), hits in zip(batch, per_query)
        for h in hits
    ]


def served(fs, batch, nprocs, split):
    """Rank 0's hits of the batch through ``range_query_batch`` and, split
    at *split*, through a front-end with two batches in flight."""

    def prog(comm):
        root = comm.rank == 0
        with DistributedStoreServer.open(comm, fs, "four") as server:
            ranged = server.range_query_batch(batch if root else None)
            result = AsyncStoreFrontend(server, max_in_flight=2).serve(
                [batch[:split], batch[split:]] if root else None
            )
        return ranged, result

    ranged, result = mpisim.run_spmd(prog, nprocs).values[0]
    return answered(ranged), [answered(hits) for hits in result.batches]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batch=batches, data=st.data())
def test_mixed_windows_serve_as_the_single_store_answers(fs, batch, data):
    want = single_store(fs, batch)
    split = data.draw(st.integers(0, len(batch)))
    for nprocs in (1, 2, 4):
        ranged, (first, second) = served(fs, batch, nprocs, split)
        assert ranged == want, nprocs
        assert first + second == want, nprocs


@pytest.mark.parametrize("nprocs", (1, 2, 4, 8))
def test_every_window_kind_finds_records(fs, nprocs):
    # the property is not vacuous: each kind of window hits through the
    # server (at 8 ranks, four of them without a shard), and a geometry
    # window keeps fewer records than its envelope
    tri = Polygon([(0.0, 0.0), (54.0, 0.0), (0.0, 54.0)])
    batch = [
        ("env", Envelope(10.0, 10.0, 30.0, 30.0)),
        ("tri", tri),
        ("tri-box", tri.envelope),
        ("line", LineString([(0.0, 0.0), (54.0, 54.0)])),
        ("point", records(150, seed=8)[2]),
    ]
    want = single_store(fs, batch)
    ranged, (first, second) = served(fs, batch, nprocs, 2)
    assert ranged == first + second == want
    found = {qid: sum(1 for q, *_ in want if q == qid) for qid, _ in batch}
    assert all(found.values()), found
    assert found["tri"] < found["tri-box"]


@pytest.mark.parametrize("nprocs", (2, 4))
def test_a_geometry_batch_degrades_as_its_envelopes_do(fs, nprocs):
    # degraded serving takes geometry windows too: with the per-shard I/O
    # budget spent from the start (a fresh server, nothing cached) every
    # query a shard is asked is truncated, and a geometry is routed by its
    # envelope, so both batches report the same account and no hit
    geoms = [
        Polygon([(2.0, 2.0), (30.0, 4.0), (6.0, 40.0)]),
        records(150, seed=8)[2],  # a stored point
        LineString([(0.0, 50.0), (50.0, 0.0)]),
        Polygon([(300.0, 300.0), (301.0, 300.0), (300.0, 301.0)]),  # off the data
    ]
    batches = [list(enumerate(geoms)), [(i, g.envelope) for i, g in enumerate(geoms)]]

    def prog(comm):
        with DistributedStoreServer.open(comm, fs, "four") as server:
            return [
                server.range_query_batch(
                    batch if comm.rank == 0 else None, partial_ok=True, deadline=0.0
                )
                for batch in batches
            ]

    by_geometry, by_envelope = mpisim.run_spmd(prog, nprocs).values[0]
    for result in (by_geometry, by_envelope):
        assert not result.complete and result.hits == [] and result.missing_shards == []
        assert result.degraded_queries == [0, 1, 2]
    assert by_geometry.missing_partitions == by_envelope.missing_partitions != []
