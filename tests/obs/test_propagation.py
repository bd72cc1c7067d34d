"""Cross-rank trace propagation: a traced distributed batch query yields
ONE connected trace — every rank's spans exactly once under the client's
trace id — and metric aggregation over ranks stays idempotent."""

import pytest

from repro import mpisim
from repro.datasets import random_envelopes
from repro.geometry import Envelope, Polygon
from repro.obs import Tracer
from repro.pfs import LustreFilesystem
from repro.store import AsyncStoreFrontend, DistributedStoreServer, bulk_load

NPROCS = (1, 2, 4)


def make_store(tmp_path, num_shards):
    fs = LustreFilesystem(tmp_path / "pfs")
    extent = Envelope(0.0, 0.0, 100.0, 100.0)
    geoms = [
        Polygon.from_envelope(env, userdata=i)
        for i, env in enumerate(
            random_envelopes(90, extent=extent, max_size_fraction=0.1, seed=7)
        )
    ]
    bulk_load(fs, "data", geoms, num_shards=num_shards,
              num_partitions=16, page_size=512)
    queries = [
        (i, env)
        for i, env in enumerate(
            random_envelopes(12, extent=extent, max_size_fraction=0.2, seed=21)
        )
    ]
    return fs, queries


def serve_traced(fs, queries, nprocs, clear=False, **serving):
    def prog(comm):
        tracer = Tracer(clock=comm.clock, rank=comm.rank)
        with DistributedStoreServer.open(
            comm, fs, "data", cache_pages=32, tracer=tracer
        ) as server:
            hits = server.range_query_batch(
                queries if comm.rank == 0 else None, **serving
            )
            spans = server.collect_trace(clear=clear)
            again = server.collect_trace(clear=clear)
        return hits, spans, again

    return mpisim.run_spmd(prog, nprocs).values[0]


class TestConnectedTrace:
    @pytest.mark.parametrize("nprocs", NPROCS)
    def test_single_trace_all_ranks_no_orphans(self, tmp_path, nprocs):
        fs, queries = make_store(tmp_path, num_shards=max(2, nprocs))
        hits, spans, _ = serve_traced(fs, queries, nprocs)
        assert hits and spans

        # one trace id, owned by the client rank
        assert {s["trace_id"] for s in spans} == {spans[0]["trace_id"]}
        assert spans[0]["trace_id"].startswith("trace-0-")

        # every serving rank contributed spans
        assert {s["rank"] for s in spans} == set(range(nprocs))

        # exactly one root (the client's query span); every other span's
        # parent resolves inside the gathered set — a connected tree
        ids = {s["span_id"] for s in spans}
        assert len(ids) == len(spans), "span ids must be globally unique"
        roots = [s for s in spans if s["parent_id"] is None]
        assert len(roots) == 1
        assert roots[0]["name"] == "query" and roots[0]["rank"] == 0
        assert all(
            s["parent_id"] in ids for s in spans if s["parent_id"] is not None
        )

    @pytest.mark.parametrize("nprocs", NPROCS)
    def test_every_rank_local_phase_exactly_once(self, tmp_path, nprocs):
        """Each rank's serving work appears exactly once under the client
        trace: one local_query span per rank, reattached via the shipped
        TraceContext (rank 0 parents inline under its own query span)."""
        fs, queries = make_store(tmp_path, num_shards=max(2, nprocs))
        _, spans, _ = serve_traced(fs, queries, nprocs)
        local = [s for s in spans if s["name"] == "local_query"]
        assert sorted(s["rank"] for s in local) == list(range(nprocs))
        by_id = {s["span_id"]: s for s in spans}
        root = next(s for s in spans if s["parent_id"] is None)
        for s in local:
            assert by_id[s["parent_id"]]["span_id"] == root["span_id"]

    def test_collect_trace_clear_drains_all_ranks(self, tmp_path):
        fs, queries = make_store(tmp_path, num_shards=2)
        _, spans, again = serve_traced(fs, queries, 2, clear=True)
        assert spans
        assert again == []

    def test_collect_without_clear_is_repeatable(self, tmp_path):
        fs, queries = make_store(tmp_path, num_shards=2)
        _, spans, again = serve_traced(fs, queries, 2, clear=False)
        assert again == spans

    @pytest.mark.parametrize("nprocs", (1, 2))
    def test_untraced_results_identical(self, tmp_path, nprocs):
        """Tracing is observation only: the served hits are bit-identical
        with and without a recording tracer attached."""
        fs, queries = make_store(tmp_path, num_shards=2)

        def prog_plain(comm):
            with DistributedStoreServer.open(comm, fs, "data", cache_pages=32) as server:
                return server.range_query_batch(queries if comm.rank == 0 else None)

        plain = mpisim.run_spmd(prog_plain, nprocs).values[0]
        traced, spans, _ = serve_traced(fs, queries, nprocs)
        assert [(h.query_id, h.record_id) for h in traced] == [
            (h.query_id, h.record_id) for h in plain
        ]
        assert spans  # and the traced run did record

    def test_successive_queries_get_distinct_traces(self, tmp_path):
        fs, queries = make_store(tmp_path, num_shards=2)

        def prog(comm):
            tracer = Tracer(clock=comm.clock, rank=comm.rank)
            with DistributedStoreServer.open(
                comm, fs, "data", cache_pages=32, tracer=tracer
            ) as server:
                server.range_query_batch(queries if comm.rank == 0 else None)
                first = server.collect_trace(clear=True)
                server.range_query_batch(queries if comm.rank == 0 else None)
                second = server.collect_trace(clear=True)
            return first, second

        first, second = mpisim.run_spmd(prog, 2).values[0]
        tid_first = {s["trace_id"] for s in first}
        tid_second = {s["trace_id"] for s in second}
        assert len(tid_first) == len(tid_second) == 1
        assert tid_first != tid_second


class TestDegradedModeTrace:
    """``partial_ok`` serving goes through the same shard-serving loop, the
    same local-query phase and the same engine stage loop as strict
    serving, so its trace has the same shape and the same row counts."""

    def test_partial_ok_trace_matches_strict(self, tmp_path):
        fs, queries = make_store(tmp_path, num_shards=2)
        hits, strict, _ = serve_traced(fs, queries, 2)
        result, degraded, _ = serve_traced(fs, queries, 2, partial_ok=True)
        assert result.complete
        assert [(h.query_id, h.record_id) for h in result.hits] == [
            (h.query_id, h.record_id) for h in hits
        ]

        # one connected trace with the strict-mode span names
        assert len({s["trace_id"] for s in degraded}) == 1
        by_id = {s["span_id"]: s for s in degraded}
        assert all(
            s["parent_id"] in by_id for s in degraded if s["parent_id"] is not None
        )
        assert {s["name"] for s in degraded} == {s["name"] for s in strict}

        # the engine stages sit under each rank's local_query span
        for rank in (0, 1):
            for stage in ("plan", "refine", "decode"):
                span = next(
                    s for s in degraded if s["rank"] == rank and s["name"] == stage
                )
                ancestors = []
                while span["parent_id"] is not None:
                    span = by_id[span["parent_id"]]
                    ancestors.append((span["name"], span["rank"]))
                assert ("local_query", rank) in ancestors

        # row counts are rows, not "one pair per rank"
        def rows(spans, name):
            return sorted(
                (s["rank"], s["attrs"]["rows"]) for s in spans if s["name"] == name
            )

        assert rows(degraded, "local_query") == rows(strict, "local_query")
        assert rows(degraded, "gather") == rows(strict, "gather")
        assert rows(degraded, "gather")[0][1] > 2


class TestFrontendPropagation:
    @pytest.mark.parametrize("nprocs", (2, 4))
    def test_async_frontend_traces_connect(self, tmp_path, nprocs):
        fs, queries = make_store(tmp_path, num_shards=nprocs)
        batches = [queries[:6], queries[6:]]

        def prog(comm):
            tracer = Tracer(clock=comm.clock, rank=comm.rank)
            with DistributedStoreServer.open(
                comm, fs, "data", cache_pages=32, tracer=tracer
            ) as server:
                front = AsyncStoreFrontend(server, max_in_flight=2)
                result = front.serve(batches if comm.rank == 0 else None)
                spans = server.collect_trace()
            return result, spans

        result, spans = mpisim.run_spmd(prog, nprocs).values[0]
        assert result is not None and spans
        assert {s["trace_id"] for s in spans} == {spans[0]["trace_id"]}
        ids = {s["span_id"] for s in spans}
        assert all(
            s["parent_id"] in ids for s in spans if s["parent_id"] is not None
        )
        # every rank served both batches under the client trace
        local = [s for s in spans if s["name"] == "local_query"]
        assert len(local) == nprocs * len(batches)
        assert {s["rank"] for s in local} == set(range(nprocs))


class TestIdempotentAggregation:
    @pytest.mark.parametrize("nprocs", NPROCS)
    def test_aggregate_metrics_idempotent(self, tmp_path, nprocs):
        fs, queries = make_store(tmp_path, num_shards=max(2, nprocs))

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "data", cache_pages=32) as server:
                server.range_query_batch(queries if comm.rank == 0 else None)
                first = server.aggregate_metrics()
                second = server.aggregate_metrics()
            return first, second

        first, second = mpisim.run_spmd(prog, nprocs).values[0]
        assert first == second
        heat = {
            k: v for k, v in first["counters"].items()
            if k.startswith("server.shard_heat")
        }
        assert heat and all(v > 0 for v in heat.values())
        assert any(
            k.startswith("store.partition_heat") for k in first["counters"]
        )
