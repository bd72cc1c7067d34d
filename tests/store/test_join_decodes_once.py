"""Both joins decode a candidate shared by several probes once.

``SpatialDataStore.join`` and ``DistributedStoreServer.join`` serve their
probes as one range batch whose windows are the probe geometries, so the
refine loop decodes every candidate to test ``intersects`` on it.  It
decodes through each page's decode memo, and the memo is what decodes a
record shared by two probes once.  Both tests count every WKB decode by its
``(buffer, offset)`` and require one decode per distinct record and
``records_decoded`` equal to that count — a refine that decoded a shared
record per probe, or outside the stores' account, fails them.
"""

import pytest

from repro import mpisim
from repro.geometry import Envelope, Polygon, wkb
from repro.pfs import LustreFilesystem
from repro.store import DistributedStoreServer, SpatialDataStore, bulk_load

#: two overlapping probes: the boxes under their overlap are candidates of both
PROBES = [
    Polygon([(1.0, 1.0), (9.0, 1.5), (8.0, 9.0)]),
    Polygon([(4.0, 0.5), (11.0, 6.0), (3.0, 10.0)]),
]


@pytest.fixture
def lattice(tmp_path):
    fs = LustreFilesystem(tmp_path, ost_count=2)
    geoms = [Polygon.from_envelope(Envelope(x, y, x + 0.8, y + 0.8), userdata=x * 12 + y)
             for x in range(12) for y in range(12)]
    bulk_load(fs, "join1", geoms, num_partitions=4, page_size=1024)
    bulk_load(fs, "join2", geoms, num_partitions=4, num_shards=2, page_size=1024)
    with SpatialDataStore.open(fs, "join1") as store:
        loose = store.range_query_batch([(i, p.envelope) for i, p in enumerate(PROBES)],
                                        exact=False)
    shared = {h.record_id for h in loose[0]} & {h.record_id for h in loose[1]}
    assert len(shared) > 10
    return fs


@pytest.fixture
def decodes(monkeypatch):
    """Every WKB decode, as the ``(buffer id, offset)`` it read."""
    calls = []
    real = wkb.loads

    def spy(data, offset=0, end=None, envelope=None):
        calls.append((id(data), offset))
        return real(data, offset, end, envelope)

    monkeypatch.setattr(wkb, "loads", spy)
    return calls


def test_store_join_decodes_each_candidate_once(lattice, decodes):
    with SpatialDataStore.open(lattice, "join1") as store:
        pairs = store.join(PROBES)
        assert len(pairs) > 20
        assert len(decodes) == len(set(decodes)) == store.stats.records_decoded


def test_distributed_join_decodes_each_candidate_once(lattice, decodes):
    def prog(comm):
        with DistributedStoreServer.open(comm, lattice, "join2") as server:
            pairs = server.join(PROBES if comm.rank == 0 else None)
            return pairs, server.aggregate_stats()["aggregate"]["records_decoded"]

    pairs, decoded = mpisim.run_spmd(prog, 2).values[0]
    assert len(pairs) > 20
    assert len(decodes) == len(set(decodes)) == decoded
