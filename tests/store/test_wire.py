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
from _merge_rows_reference import chunk_rows, merge_rows  # the retired row merge
from _rank0_merge_reference import merge_chunks as rank0_merge  # the retired rank-0 merge
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
    DistributedHit,
    DistributedStoreServer,
    QueryHit,
    ShardsManifest,
    bulk_load,
)
from repro.store.engine import _matched
from repro.store.sharded import merge_chunks

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
def chunk_sets(draw):
    """Chunks as four ranks would answer them, shaped as the engine answers
    (``(batch position, shard, QueryHit list)``, converted by
    :func:`served`):
    each chunk's record ids unique and ascending, records matched by several
    batch positions, each ``(position, record)`` in one chunk only (a record
    is stored in one shard) while one shard may answer a position in two
    chunks, several chunks for one position on one rank, empty chunks,
    chunks split over ranks in a drawn order and shuffled within each
    rank."""
    num_queries = draw(st.integers(1, 6))
    qids = [draw(st.one_of(st.integers(), st.text(max_size=3))) for _ in range(num_queries)]
    geoms = [Point(float(i), 0.0) for i in range(8)]
    chunks = []
    for idx in range(num_queries):
        answered = set()
        for sid in draw(st.lists(st.integers(0, 3), max_size=4)):
            ids = sorted(set(draw(st.lists(st.integers(0, 7), max_size=6))) - answered)
            answered.update(ids)
            chunks.append((idx, sid, [
                QueryHit(rid, geoms[rid], draw(st.integers(0, 5)), draw(st.integers(0, 4)),
                         draw(st.integers(0, 2)))
                for rid in ids
            ]))
    rng = random.Random(draw(st.integers(0, 2**16)))
    rng.shuffle(chunks)
    ranks = [[] for _ in range(4)]
    for chunk in chunks:
        ranks[rng.randrange(4)].append(chunk)
    rng.shuffle(ranks)
    return ranks, qids


def served(ranks, qids):
    """*ranks*' chunks converted the way a serving rank now ships them: one
    ``(batch position, hits)`` chunk of finished hits, the query id taken
    from the batch."""
    return [[(idx, _matched(qids[idx], sid, hits)) for idx, sid, hits in chunks] for chunks in ranks]


class TestMergeIsOrderFree:
    @given(chunk_sets())
    @settings(max_examples=300, deadline=None)
    def test_chunk_merge_equals_the_retired_merges(self, case):
        ranks, qids = case
        rows = [chunk_rows(chunks) for chunks in ranks]
        merged = merge_chunks(served(ranks, qids))
        assert merged == rank0_merge(ranks, qids)
        assert merged == merge_rows(rows, qids)
        assert merged == dedup_reference(
            (idx, qids[idx], record_id, sid, part, page, geom)
            for per_rank in rows
            for idx, record_id, sid, part, page, geom in per_rank
        )
        # arrival order (across ranks and within a rank) never shows
        shuffled = [sorted(chunks, key=repr) for chunks in reversed(ranks)]
        assert merge_chunks(served(shuffled, qids)) == merged
        # and, independently of all four: the lowest (shard, partition,
        # page) wins
        best = {}
        for idx, record_id, sid, part, page, _ in (row for per_rank in rows for row in per_rank):
            key = (idx, record_id)
            best[key] = min(best.get(key, (sid, part, page)), (sid, part, page))
        assert [(h.shard_id, h.partition_id, h.page_id) for h in merged] == [
            best[key] for key in sorted(best)
        ]
        assert [(h.query_id, h.record_id) for h in merged] == [
            (qids[idx], record_id) for idx, record_id in sorted(best)
        ]

    def test_empty(self):
        assert merge_chunks([]) == [] == merge_chunks([[], []])
        assert merge_chunks([[(0, [])], [(0, [])]]) == []

    def test_a_position_with_one_non_empty_chunk_is_that_chunk(self):
        hits = [QueryHit(3, Point(3.0, 0.0), 7, 1), QueryHit(5, Point(5.0, 0.0), 2, 4, 1)]
        found = _matched("q", 2, hits)
        merged = merge_chunks([[(0, found), (0, [])], [(0, [])]])
        assert merged == [
            DistributedHit("q", 3, hits[0].geometry, 2, 7, 1),
            DistributedHit("q", 5, hits[1].geometry, 2, 2, 4),
        ]
        # the serving rank's hits themselves: rank 0 builds nothing
        assert all(a is b for a, b in zip(merged, found))

    @pytest.mark.parametrize(
        "qids", [["same", "same", "other"], [["a", "list"], 0, ["a", "list"]]],
        ids=["repeated", "unhashable"],
    )
    def test_query_ids_are_never_grouped_or_hashed(self, qids):
        # two positions with one id, and ids that cannot be hashed: the
        # merge groups by position, so every answer keeps its position
        hits = [QueryHit(rid, Point(float(rid), 0.0), 0, rid) for rid in range(3)]
        ranks = [[(2, 1, hits[:2]), (0, 0, hits[1:])], [(0, 3, hits[:1]), (1, 2, hits)]]
        merged = merge_chunks(served(ranks, qids))
        assert merged == rank0_merge(ranks, qids)
        assert [(h.query_id, h.record_id, h.shard_id) for h in merged] == [
            (qids[0], 0, 3), (qids[0], 1, 0), (qids[0], 2, 0),
            (qids[1], 0, 2), (qids[1], 1, 2), (qids[1], 2, 2),
            (qids[2], 0, 1), (qids[2], 1, 1),
        ]

    @pytest.mark.parametrize("nprocs", (1, 2, 4))
    def test_served_query_ids_come_back_in_position_order(self, fs, queries, nprocs):
        # the same batch with ids that repeat or cannot be hashed answers
        # position by position exactly as with unique ids
        batch = queries[:12]
        odd = [(["w", i % 3], env) if i % 2 else ("same", env) for i, (_, env) in enumerate(batch)]
        call = CALLS["strict"]
        expected, _ = run(fs, nprocs, call(batch))
        got, _ = run(fs, nprocs, call(odd))
        position = {qid: i for i, (qid, _) in enumerate(batch)}
        assert len(got) == len(expected) > 0
        assert [(odd[position[e.query_id]][0], e.record_id, e.shard_id) for e in expected] == [
            (g.query_id, g.record_id, g.shard_id) for g in got
        ]
