"""Non-finite coordinates in the store's Hilbert ordering.

The grid places ±inf and ±1e308 records on its boundary cells, and the
Hilbert sort clamps scaled coordinates in float space (NaN on cell 0), so:

* (a) a bulk load whose records sit at infinity or at ±1e308 (the extent's
  width overflows to inf) stores and serves every record;
* (b) a batch mixing an ordinary window with an infinite or half-infinite
  one — whose centre is NaN or inf — answers each window as it answers
  alone, equal to brute force;
* (c) the same batch through a 2-shard server with read replicas and
  degraded serving allowed answers completely: the shard guard has nothing
  to mistake for corruption, so no failover happens and no healthy shard is
  marked dead (a later ordinary batch is complete too).
"""

import math
import random

import pytest

from repro import mpisim
from repro.geometry import Envelope, Point
from repro.pfs import LustreFilesystem
from repro.store import DistributedStoreServer, SpatialDataStore, bulk_load

INF = math.inf
BOX = Envelope(20.0, 20.0, 60.0, 60.0)
UNBOUNDED = [
    Envelope(-INF, -INF, INF, INF),  # centre (NaN, NaN)
    Envelope(50.0, -INF, INF, 60.0),  # centre (inf, -inf)
]


def _points(n=300, seed=5):
    rng = random.Random(seed)
    return [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]


def _brute(geoms, window):
    return sorted(i for i, g in enumerate(geoms) if window.intersects(g.envelope))


@pytest.mark.parametrize(
    "geoms",
    [
        [Point(0, 0), Point(1, 1), Point(INF, 0)],
        [Point(0, 0), Point(1e308, 1), Point(-1e308, -1e308)],
    ],
    ids=["infinite", "1e308"],
)
def test_bulk_load_orders_records_at_infinity(tmp_path, geoms):
    fs = LustreFilesystem(tmp_path / "pfs")
    bulk_load(fs, "far", geoms, num_partitions=4)
    with SpatialDataStore.open(fs, "far") as store:
        assert sorted(dict(store.scan())) == [0, 1, 2]
        hits = store.range_query(Envelope(-INF, -INF, INF, INF))
        assert sorted(h.record_id for h in hits) == [0, 1, 2]


@pytest.mark.parametrize("window", UNBOUNDED, ids=["infinite", "half-infinite"])
def test_batch_with_an_unbounded_window_answers_each_window(tmp_path, window):
    fs = LustreFilesystem(tmp_path / "pfs")
    geoms = _points()
    bulk_load(fs, "warm", geoms, num_partitions=16)
    with SpatialDataStore.open(fs, "warm") as store:
        answers = store.range_query_batch([(0, BOX), (1, window)])
    assert [sorted(h.record_id for h in hits) for hits in answers] == [
        _brute(geoms, BOX), _brute(geoms, window)
    ]


def test_sharded_batch_with_an_unbounded_window_retires_no_shard(tmp_path):
    fs = LustreFilesystem(tmp_path / "pfs")
    geoms = _points()
    bulk_load(fs, "sh", geoms, num_partitions=16, num_shards=2, read_replicas=1)
    batch = [(0, BOX), (1, UNBOUNDED[0]), (2, UNBOUNDED[1])]

    def prog(comm):
        with DistributedStoreServer.open(comm, fs, "sh", allow_degraded=True) as server:
            mixed = server.range_query_batch(batch if comm.rank == 0 else None, partial_ok=True)
            after = server.range_query_batch(
                [(0, BOX)] if comm.rank == 0 else None, partial_ok=True
            )
            dead = dict(server.dead_shards)
            return mixed, after, dead, server.aggregate_metrics()

    out = mpisim.run_spmd(prog, 2, timeout=10)
    mixed, after, _, metrics = out.values[0]
    assert all(not dead for _, _, dead, _ in out.values)
    assert metrics["counters"].get("server.failovers", 0) == 0
    for result in (mixed, after):
        assert result.complete and not result.missing_shards and not result.failures
    got = {qid: [] for qid, _ in batch}
    for hit in mixed:
        got[hit.query_id].append(hit.record_id)
    assert {qid: sorted(ids) for qid, ids in got.items()} == {
        qid: _brute(geoms, window) for qid, window in batch
    }
    assert sorted(h.record_id for h in after) == _brute(geoms, BOX)
