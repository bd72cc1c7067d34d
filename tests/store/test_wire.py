"""The sharded server's wire: nothing is pickled to be measured, and the
rank-0 merge does not depend on arrival order.

``mpisim`` hands payloads between rank threads by reference and prices a
message by ``payload_nbytes``, whose last resort is ``len(pickle.dumps(obj))``.
Every serving-path message carries its own ``nbytes`` instead (store README,
"The wire"); these tests pin that by replacing the ``pickle`` that
``repro.mpisim.world`` sees with one that records and refuses every call.
"""

import random
from types import SimpleNamespace

import pytest
from _dedup_reference import dedup_reference  # the retired dict fold, kept next to this file
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mpisim
from repro.datasets import random_envelopes
from repro.geometry import Envelope, Point, Polygon
from repro.mpisim import world
from repro.obs.trace import Tracer
from repro.pfs import LustreFilesystem
from repro.store import (
    AsyncStoreFrontend,
    DistributedStoreServer,
    ShardsManifest,
    bulk_load,
)
from repro.store.sharded import merge_rows

EXTENT = Envelope(0.0, 0.0, 100.0, 100.0)
NAME = "wire"


@pytest.fixture(scope="module")
def fs(tmp_path_factory):
    fs = LustreFilesystem(tmp_path_factory.mktemp("wirefs"), ost_count=4)
    geoms = [
        Polygon.from_envelope(env, userdata=i)
        for i, env in enumerate(random_envelopes(240, extent=EXTENT, max_size_fraction=0.1, seed=3))
    ]
    bulk_load(fs, NAME, geoms, num_shards=4, num_partitions=16, page_size=512)
    return fs


@pytest.fixture(scope="module")
def queries():
    windows = random_envelopes(70, extent=EXTENT, max_size_fraction=0.3, seed=4)
    return [(f"q{i}", env) for i, env in enumerate(windows)]  # 70 > the 64-entry list rule


@pytest.fixture
def refuse_pickle(monkeypatch):
    """Call it to make ``payload_nbytes``'s pickle fallback raise for the
    rest of the test; returns the list of objects it was asked to pickle
    (the refusal alone would be swallowed: ``payload_nbytes`` answers 64 on
    any exception)."""

    def arm():
        seen = []

        def refuse(obj, *args, **kwargs):
            seen.append(obj)
            raise AssertionError(f"{type(obj).__name__} was pickled to be sized")

        protocol = world.pickle.HIGHEST_PROTOCOL
        monkeypatch.setattr(world, "pickle", SimpleNamespace(dumps=refuse, HIGHEST_PROTOCOL=protocol))
        return seen

    return arm


def serving_path(seen):
    # DistributedStoreServer.open broadcasts shards.json as an object — once
    # per server, not per batch, and not part of serving
    return [obj for obj in seen if not isinstance(obj, ShardsManifest)]


def run(fs, nprocs, call, traced=False):
    """*call(server, is_root)* on every rank of a fresh server; rank 0's and
    the last rank's results."""

    def prog(comm):
        tracer = Tracer(clock=comm.clock, rank=comm.rank) if traced else None
        with DistributedStoreServer.open(comm, fs, NAME, cache_pages=64, tracer=tracer) as server:
            return call(server, comm.rank == 0)

    values = mpisim.run_spmd(prog, nprocs).values
    return values[0], values[-1]


def plain(result):
    """A comparable form of a hit list / QueryResult / FrontendResult."""
    if hasattr(result, "batches"):
        return [plain(batch) for batch in result.batches]
    if hasattr(result, "hits"):
        return (plain(result.hits), result.complete, result.missing_partitions,
                result.degraded_queries, result.failures)
    return [
        (h.query_id, h.record_id, h.shard_id, h.partition_id, h.page_id, h.geometry.wkt())
        for h in result
    ]


CALLS = {
    "strict": lambda q: lambda server, root: server.range_query_batch(q if root else None),
    "partial_ok": lambda q: lambda server, root: server.range_query_batch(
        q if root else None, partial_ok=True
    ),
    "deadline": lambda q: lambda server, root: server.range_query_batch(
        q if root else None, deadline=0.0
    ),
    "frontend": lambda q: lambda server, root: AsyncStoreFrontend(server, max_in_flight=2).serve(
        [q[:30], q[30:]] if root else None
    ),
    "frontend_partial": lambda q: lambda server, root: AsyncStoreFrontend(server).serve(
        [q[:30], q[30:]] if root else None, partial_ok=True
    ),
}


class TestNothingIsPickledToBeMeasured:
    @pytest.mark.parametrize("nprocs", (1, 2, 4))
    @pytest.mark.parametrize("mode", sorted(CALLS))
    def test_range_serving_answers_identically_without_pickle(
        self, fs, queries, refuse_pickle, mode, nprocs
    ):
        call = CALLS[mode](queries)
        expected = run(fs, nprocs, call)
        pickled = refuse_pickle()
        got = run(fs, nprocs, call)
        assert serving_path(pickled) == []
        assert plain(got[0]) == plain(expected[0])
        if mode == "strict":
            assert {h.query_id for h in got[0]} <= {qid for qid, _ in queries}

    @pytest.mark.parametrize("nprocs", (1, 2, 4))
    def test_join_answers_identically_without_pickle(self, fs, refuse_pickle, nprocs):
        probes = [
            Polygon.from_envelope(env, userdata=i)
            for i, env in enumerate(random_envelopes(70, extent=EXTENT, max_size_fraction=0.2, seed=6))
        ] + [Point(50.0, 50.0)]

        def call(server, root):
            return server.join(probes if root else None)

        def pairs(result):
            return [(probe.wkt(), hit.query_id, hit.record_id, hit.shard_id) for probe, hit in result]

        expected = run(fs, nprocs, call)
        pickled = refuse_pickle()
        got = run(fs, nprocs, call)
        assert serving_path(pickled) == []
        assert pairs(got[0]) == pairs(expected[0])
        assert nprocs == 1 or got[1] is None  # only rank 0 receives the answer
        assert got[0] and all(probes[hit.query_id] is probe for probe, hit in got[0])

    def test_traced_plan_is_sized_too(self, fs, queries, refuse_pickle):
        # with a recording tracer the scatter plan carries rank 0's
        # TraceContext; it reports its own nbytes, so tracing adds no pickle
        pickled = refuse_pickle()
        got = run(fs, 2, CALLS["frontend"](queries), traced=True)
        assert serving_path(pickled) == []
        assert sum(len(batch) for batch in got[0].batches) > 0

    def test_dead_shard_failures_are_sized(self, tmp_path, refuse_pickle):
        # a failure tuple lists partitions and batch positions: 70 positions
        # is past the 64-entry rule, so an unsized list would be pickled
        fs = LustreFilesystem(tmp_path / "pfs")
        result = bulk_load(
            fs, NAME, [Point(x + 0.5, y + 0.5) for x in range(10) for y in range(10)],
            num_shards=2, num_partitions=4, page_size=512,
        )
        victim = result.manifest.shards[1]
        fs.backing_path(f"stores/{victim.store}/data.bin").write_bytes(b"not a container")
        everything = [(i, Envelope(0.0, 0.0, 10.0, 10.0)) for i in range(70)]

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, NAME, allow_degraded=True) as server:
                return server.range_query_batch(
                    everything if comm.rank == 0 else None, partial_ok=True
                )

        pickled = refuse_pickle()
        res = mpisim.run_spmd(prog, 2).values[0]
        assert serving_path(pickled) == []
        assert not res.complete and res.missing_shards == [1]
        assert res.degraded_queries == list(range(70))


# --------------------------------------------------------------------------- #
# the merge
# --------------------------------------------------------------------------- #
@st.composite
def replica_sets(draw):
    """Rows as four ranks would ship them: records matched by several batch
    positions, replicated across shards / partitions / pages (the same
    ``(position, record)`` under differing locations), split over ranks in
    a drawn order and shuffled within each rank."""
    num_queries = draw(st.integers(1, 6))
    qids = [draw(st.one_of(st.integers(), st.text(max_size=3))) for _ in range(num_queries)]
    geoms = [Point(float(i), 0.0) for i in range(8)]
    rows = []
    for idx in range(num_queries):
        for record_id in draw(st.lists(st.integers(0, 7), max_size=6, unique=True)):
            locations = draw(
                st.lists(
                    st.tuples(st.integers(0, 3), st.integers(0, 5), st.integers(0, 4)),
                    min_size=1, max_size=4, unique=True,
                )
            )
            rows.extend((idx, record_id, *loc, geoms[record_id]) for loc in locations)
    rng = random.Random(draw(st.integers(0, 2**16)))
    rng.shuffle(rows)
    ranks = [[] for _ in range(4)]
    for row in rows:
        ranks[rng.randrange(4)].append(row)
    rng.shuffle(ranks)
    return ranks, qids


class TestMergeIsOrderFree:
    @given(replica_sets())
    @settings(max_examples=200, deadline=None)
    def test_sort_merge_equals_the_retired_dict_fold(self, case):
        ranks, qids = case
        with_qid = [
            (idx, qids[idx], record_id, sid, part, page, geom)
            for rows in ranks
            for idx, record_id, sid, part, page, geom in rows
        ]
        merged = merge_rows(ranks, qids)
        assert merged == dedup_reference(with_qid)
        # arrival order (across ranks and within a rank) never shows
        assert merge_rows([sorted(rows, key=repr) for rows in reversed(ranks)], qids) == merged
        # and, independently of both: the lowest (shard, partition, page) wins
        best = {}
        for idx, record_id, sid, part, page, _ in (row for rows in ranks for row in rows):
            key = (idx, record_id)
            best[key] = min(best.get(key, (sid, part, page)), (sid, part, page))
        assert [(h.shard_id, h.partition_id, h.page_id) for h in merged] == [
            best[key] for key in sorted(best)
        ]
        assert [(h.query_id, h.record_id) for h in merged] == [
            (qids[idx], record_id) for idx, record_id in sorted(best)
        ]

    def test_empty(self):
        assert merge_rows([], []) == [] == merge_rows([[], []], ["q"])
