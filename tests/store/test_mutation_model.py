"""A randomized model of mutation: the store against a ``{record id: geometry}`` dict.

A hypothesis state machine appends, updates (through ``record_ids``),
deletes, compacts, reopens and queries one store of 1, 2 or 4 shards, and
checks it against a dict model of the form ``perf/fixtures.py`` keeps:
appends and updates set ``model[rid]``, deletes drop it.  Like the
benchmark, updates and deletes name live records (the store's live counts
assume a delete never names a dead id).  After every step
``shards.json`` counts exactly the model's records and its id ceiling lies
above every id ever used.  Queries go through a 2-rank
:class:`~repro.store.DistributedStoreServer` at every shard count (and its
``local_records`` must yield every record exactly once), and through
:class:`~repro.store.SpatialDataStore` when the store has one shard.

Coordinates are multiples of 1/2 on a small extent, so records and windows
often sit exactly on grid-cell edges, and updates move records between
shards.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import mpisim
from repro.geometry import Envelope, Point, Polygon, predicates
from repro.pfs import LustreFilesystem
from repro.store import (
    DistributedStoreServer,
    SpatialDataStore,
    StoreAppender,
    bulk_load,
)
from repro.store.sharded import read_shards_manifest

NAME = "model"
half = st.integers(0, 80).map(lambda v: v / 2)


@st.composite
def geometries(draw):
    x, y = draw(half), draw(half)
    if draw(st.booleans()):
        return Point(x, y)
    w, h = draw(st.integers(0, 16)) / 2, draw(st.integers(0, 16)) / 2
    return Polygon.from_envelope(Envelope(x, y, x + w, y + h))


@st.composite
def windows(draw):
    x, y = draw(half), draw(half)
    return Envelope(x, y, x + draw(st.integers(0, 30)) / 2, y + draw(st.integers(0, 30)) / 2)


def brute_force(model, window):
    box = Polygon.from_envelope(window)
    return sorted(rid for rid, geom in model.items() if predicates.intersects(box, geom))


class MutationModel(RuleBasedStateMachine):
    #: set per test case below
    NUM_SHARDS = 1

    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="mutation-model-")
        self.fs = LustreFilesystem(self.root, ost_count=2)
        self.model = {}
        #: one above every record id ever used
        self.next_id = 0
        self.appender = None

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def _appender(self):
        if self.appender is None:
            self.appender = StoreAppender(self.fs, NAME)
        return self.appender

    def _live_ids(self, data):
        return data.draw(st.lists(st.sampled_from(sorted(self.model)), min_size=1, max_size=3,
                                  unique=True))

    # ------------------------------------------------------------------ #
    @initialize(geoms=st.lists(geometries(), max_size=12))
    def load(self, geoms):
        bulk_load(self.fs, NAME, geoms, num_partitions=9, page_size=256,
                  num_shards=self.NUM_SHARDS)
        self.model = dict(enumerate(geoms))
        self.next_id = len(geoms)

    @rule(geoms=st.lists(geometries(), min_size=1, max_size=6))
    def append(self, geoms):
        self._appender().append(geoms)
        for geom in geoms:
            self.model[self.next_id] = geom
            self.next_id += 1

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def update(self, data):
        ids = self._live_ids(data)
        geoms = [data.draw(geometries()) for _ in ids]
        self._appender().append(geoms, record_ids=ids)
        self.model.update(zip(ids, geoms))

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        ids = self._live_ids(data)
        self._appender().append(deletes=ids)
        for rid in ids:
            del self.model[rid]

    @rule()
    def compact(self):
        assert self._appender().compact().num_records == len(self.model)

    @rule()
    def reopen(self):
        self.appender = None

    @rule(batch=st.lists(windows(), min_size=1, max_size=4))
    def query(self, batch):
        queries = list(enumerate(batch))
        want = [brute_force(self.model, window) for window in batch]

        def serve(comm):
            with DistributedStoreServer.open(comm, self.fs, NAME, cache_pages=64) as server:
                hits = server.range_query_batch(queries if comm.rank == 0 else None)
                owned = [rid for rid, _ in server.local_records()]
            return hits, comm.gather(owned, root=0)

        hits, owned = mpisim.run_spmd(serve, 2, timeout=60).values[0]
        got = [[] for _ in batch]
        for hit in hits:
            got[hit.query_id].append(hit.record_id)
        assert [sorted(ids) for ids in got] == want
        assert sorted(rid for ids in owned for rid in ids) == sorted(self.model)
        if self.NUM_SHARDS == 1:
            with SpatialDataStore.open(self.fs, NAME) as store:
                assert [[h.record_id for h in store.range_query(w)] for w in batch] == want
                assert len(store) == len(self.model)

    # ------------------------------------------------------------------ #
    @invariant()
    def shards_json_counts_the_model(self):
        layout, _ = read_shards_manifest(self.fs, NAME)
        assert layout.num_shards == self.NUM_SHARDS
        assert layout.num_records == len(self.model)
        assert layout.next_record_id >= self.next_id


def _test_case(num_shards):
    machine = type(f"MutationModel{num_shards}", (MutationModel,), {"NUM_SHARDS": num_shards})
    case = machine.TestCase
    case.settings = settings(max_examples=25, stateful_step_count=15, deadline=None)
    return case


TestOneShard, TestTwoShards, TestFourShards = (_test_case(n) for n in (1, 2, 4))
