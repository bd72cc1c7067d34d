"""EXPLAIN reports and the stats facades they read: the report's numbers
can never disagree with the StoreStats movement of the explained query,
``stats.reset()`` zeroes every counter, and tracing never changes results."""

import pytest

from repro import mpisim
from repro.datasets import random_envelopes
from repro.geometry import Envelope, Polygon
from repro.obs import ExplainReport, DistributedExplainReport, Tracer
from repro.obs.trace import NULL_TRACER
from repro.pfs import LustreFilesystem
from repro.store import (
    DistributedStoreServer,
    SpatialDataStore,
    StoreAppender,
    StoreStats,
    bulk_load,
)

EXTENT = Envelope(0.0, 0.0, 100.0, 100.0)


def make_geoms(count=80, seed=13):
    return [
        Polygon.from_envelope(env, userdata=i)
        for i, env in enumerate(
            random_envelopes(count, extent=EXTENT, max_size_fraction=0.1, seed=seed)
        )
    ]


@pytest.fixture
def fs(tmp_path):
    return LustreFilesystem(tmp_path / "pfs")


@pytest.fixture
def single_store(fs):
    bulk_load(fs, "data", make_geoms(), num_partitions=16, page_size=512)
    return SpatialDataStore.open(fs, "data", cache_pages=16)


WINDOW = Envelope(20.0, 20.0, 60.0, 60.0)


class TestStoreExplain:
    def test_report_matches_stats_movement(self, single_store):
        """explain() runs the query for real: its stats_delta IS the store
        stats movement, and the refine section agrees with it by
        construction (decode spans measure the same counters)."""
        before = single_store.stats.as_dict()
        report = single_store.explain(WINDOW)
        after = single_store.stats.as_dict()
        assert isinstance(report, ExplainReport)
        for key, value in report.stats_delta.items():
            assert value == after[key] - before[key], key
        assert report.refine["records_decoded"] == report.stats_delta["records_decoded"]
        assert report.stats_delta["read_requests"] == sum(
            1 for _ in report.schedule
        )
        assert report.stats_delta["queries"] == 1

    def test_report_agrees_with_real_query(self, single_store):
        hits = single_store.range_query(WINDOW)
        report = single_store.explain(WINDOW)
        assert report.num_hits == len(hits)
        assert report.query == {
            "kind": "range_query", "window": str(WINDOW), "exact": True,
        }

    def test_plan_section_prunes(self, single_store):
        small = Envelope(1.0, 1.0, 9.0, 9.0)
        report = single_store.explain(small)
        plan = report.plan
        assert plan["partitions_total"] == 16
        assert 0 < plan["partitions_visited"] < 16
        assert plan["partitions_pruned"] == 16 - plan["partitions_visited"]
        assert plan["touched_pages"] >= len(
            {p for run in report.schedule for p in run.get("pages", [])}
        )

    def test_warm_explain_reports_cached_pages(self, single_store):
        single_store.range_query(WINDOW)  # warm every page the window needs
        report = single_store.explain(WINDOW)
        assert report.schedule == []
        assert report.cache["misses"] == 0
        assert report.cache["hits"] > 0
        assert "already cached" in report.render()

    def test_schedule_section_carries_readahead_stop(self, fs):
        bulk_load(fs, "ra", make_geoms(), num_partitions=4, page_size=512)
        store = SpatialDataStore.open(fs, "ra", cache_pages=16, io_policy="cost_model")
        report = store.explain(WINDOW)
        stops = {run["prefetch_stop"] for run in report.schedule}
        assert stops <= {
            "disabled", "empty", "budget", "container_end",
            "cached_page", "stripe_boundary",
        }
        assert stops - {"disabled"}, "prefetching runs should name a stop reason"
        assert any(run["prefetched"] for run in report.schedule)
        store.close()

    def test_render_and_dict_shape(self, single_store):
        report = single_store.explain(WINDOW)
        text = report.render()
        assert text.startswith("EXPLAIN range_query")
        assert "plan:" in text and "refine:" in text and "stats delta:" in text
        d = report.as_dict()
        assert set(d) == {
            "query", "plan", "schedule", "refine", "cache",
            "stats_delta", "num_hits",
        }

    def test_explain_restores_disabled_tracer(self, single_store):
        assert single_store.tracer is NULL_TRACER
        single_store.explain(WINDOW)
        assert single_store.tracer is NULL_TRACER
        # and repeated explains keep working (fresh recording tracer each time)
        first = single_store.explain(WINDOW).num_hits
        second = single_store.explain(WINDOW).num_hits
        assert first == second


class TestStatsFacades:
    def test_stats_reset_zeroes_everything(self, single_store):
        single_store.range_query(WINDOW)
        assert single_store.stats.queries > 0
        single_store.stats.reset()
        flat = single_store.stats.as_dict()
        assert all(v == 0 for v in flat.values())
        # the registry counters behind the facade were reset too — but the
        # cumulative query-heat map (a rebalancer input, not a query stat)
        # deliberately survives
        snap = single_store.metrics.snapshot()
        assert all(
            v == 0 for k, v in snap["counters"].items()
            if k.startswith(("store.", "cache."))
            and not k.startswith("store.partition_heat")
        )
        assert any(
            v > 0 for k, v in snap["counters"].items()
            if k.startswith("store.partition_heat")
        )
        # and the facade still counts afterwards
        single_store.range_query(WINDOW)
        assert single_store.stats.queries == 1

    def test_storestats_facade_arithmetic(self):
        stats = StoreStats()
        stats.pages_read += 3
        stats.io_seconds += 0.25
        stats.cache.hits += 2
        assert stats.pages_read == 3
        assert stats.io_seconds == pytest.approx(0.25)
        assert stats.as_dict()["cache_hits"] == 2
        stats.reset()
        assert stats.pages_read == 0 and stats.cache.hits == 0

    def test_traced_results_bit_identical(self, fs):
        bulk_load(fs, "tr", make_geoms(), num_partitions=16, page_size=512)
        plain = SpatialDataStore.open(fs, "tr", cache_pages=16)
        traced = SpatialDataStore.open(fs, "tr", cache_pages=16, tracer=Tracer())
        queries = [
            (i, env) for i, env in enumerate(
                random_envelopes(10, extent=EXTENT, max_size_fraction=0.2, seed=4)
            )
        ]
        a = plain.range_query_batch(queries)
        b = traced.range_query_batch(queries)
        assert [[h.record_id for h in hits] for hits in a] == [
            [h.record_id for h in hits] for hits in b
        ]
        assert plain.stats.as_dict() == traced.stats.as_dict()
        assert traced.tracer.spans and not plain.tracer.spans
        plain.close()
        traced.close()

    def test_outcome_path_traces_like_strict(self, fs):
        """Degraded-mode serving runs the same stage loop: under a recording
        tracer ``query_outcome(partial_ok=True)`` yields the span hierarchy
        of ``range_query_batch`` with identical plan/refine attributes."""
        bulk_load(fs, "oc", make_geoms(), num_partitions=16, page_size=512)
        queries = [
            (i, env) for i, env in enumerate(
                random_envelopes(10, extent=EXTENT, max_size_fraction=0.2, seed=4)
            )
        ]
        strict = SpatialDataStore.open(fs, "oc", cache_pages=16, tracer=Tracer())
        degraded = SpatialDataStore.open(fs, "oc", cache_pages=16, tracer=Tracer())
        strict.range_query_batch(queries)
        outcome = degraded.query_outcome(queries, partial_ok=True)
        assert outcome.complete

        def shape(store):
            return [(sp.name, sp.attrs) for sp in store.tracer.spans]

        assert {name for name, _ in shape(degraded)} >= {
            "query", "plan", "schedule", "io", "refine", "decode"
        }
        assert shape(degraded) == shape(strict)
        assert degraded.stats.as_dict() == strict.stats.as_dict()
        strict.close()
        degraded.close()


class TestDistributedExplain:
    @pytest.mark.parametrize("nprocs", (1, 2, 4))
    def test_explain_batch(self, fs, nprocs):
        geoms = make_geoms(100, seed=31)
        bulk_load(fs, "data", geoms, num_shards=max(2, nprocs),
                  num_partitions=16, page_size=512)
        queries = [
            (i, env) for i, env in enumerate(
                random_envelopes(8, extent=EXTENT, max_size_fraction=0.2, seed=9)
            )
        ]

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, "data", cache_pages=32) as server:
                hits = server.range_query_batch(queries if comm.rank == 0 else None)
                report = server.explain_batch(queries if comm.rank == 0 else None)
            return hits, report

        values = mpisim.run_spmd(prog, nprocs).values
        hits, report = values[0]
        assert isinstance(report, DistributedExplainReport)
        # non-root ranks participate but receive no report
        assert all(v[1] is None for v in values[1:])
        assert report.num_hits == len(hits)
        assert report.routing["num_ranks"] == nprocs
        assert report.routing["shards_visited"] + report.routing["shards_pruned"] \
            == report.routing["num_shards"]
        assert sum(info["entries"] for info in report.shards.values()) > 0
        text = report.render()
        assert text.startswith("EXPLAIN distributed batch")
        assert f"{len(queries)} queries" in text
        # the gathered trace is connected under one id
        ids = {s["span_id"] for s in report.spans}
        assert all(
            s["parent_id"] in ids
            for s in report.spans
            if s["parent_id"] is not None
        )
        assert len({s["trace_id"] for s in report.spans}) == 1


class TestMutableTracing:
    def test_append_and_compact_spans(self, fs):
        bulk_load(fs, "mut", make_geoms(40), num_partitions=4, page_size=512)
        tracer = Tracer()
        appender = StoreAppender(fs, "mut", tracer=tracer)
        result = appender.append(make_geoms(10, seed=77))
        comp = appender.compact()
        names = [s.name for s in tracer.spans]
        assert names == ["append", "compact"]
        app_span, comp_span = tracer.spans
        assert app_span.attrs["gen_id"] == result.gen_id
        assert app_span.attrs["records"] == result.num_records == 10
        assert comp_span.attrs["merged_generations"] == comp.merged_generations
        assert comp_span.attrs["records"] == comp.num_records

    def test_untraced_appender_records_nothing(self, fs):
        bulk_load(fs, "mut2", make_geoms(40), num_partitions=4, page_size=512)
        appender = StoreAppender(fs, "mut2")
        assert appender.tracer is NULL_TRACER
        appender.append(make_geoms(5, seed=78))
        appender.compact()
