"""Tracer unit battery: span nesting, context capture/adoption, exporters,
and the zero-allocation guarantee of the disabled path."""

import json

import pytest

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    chrome_trace,
    spans_to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.trace import _NULL_SCOPE, _NULL_SPAN


class TestSpanHierarchy:
    def test_nesting_parents_under_innermost(self):
        tracer = Tracer()
        with tracer.span("query") as q:
            with tracer.span("plan") as p:
                pass
            with tracer.span("refine") as r:
                with tracer.span("decode") as d:
                    pass
        assert q.parent_id is None
        assert p.parent_id == q.span_id
        assert r.parent_id == q.span_id
        assert d.parent_id == r.span_id
        assert {s.trace_id for s in tracer.spans} == {tracer.trace_id}

    def test_tick_clock_orders_spans(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.spans
        assert a.end >= a.start
        assert b.start > a.start

    def test_virtual_clock_timestamps(self):
        from repro.mpisim.clock import VirtualClock

        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("io") as s:
            clock.advance(1.25, "io")
        assert s.start == 0.0
        assert s.end == pytest.approx(1.25)

    def test_attrs_and_set(self):
        tracer = Tracer()
        with tracer.span("io", pages=3) as s:
            s.set(nbytes=4096, pages=4)
        span = tracer.spans[0]
        assert span.attrs == {"pages": 4, "nbytes": 4096}

    def test_new_trace_changes_id(self):
        tracer = Tracer()
        first = tracer.trace_id
        with tracer.span("a"):
            pass
        second = tracer.new_trace()
        assert second != first
        with tracer.span("b"):
            pass
        assert [s.trace_id for s in tracer.spans] == [first, second]

    def test_clear_drops_finished_spans(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.clear()
        assert tracer.spans == []
        assert tracer.export() == []

    def test_span_ids_namespace_by_rank(self):
        t0, t3 = Tracer(rank=0), Tracer(rank=3)
        with t0.span("a"):
            pass
        with t3.span("a"):
            pass
        ids = {t0.spans[0].span_id, t3.spans[0].span_id}
        assert len(ids) == 2
        assert t3.spans[0].span_id.startswith("3:")


class TestContextPropagation:
    def test_context_inside_open_span(self):
        tracer = Tracer(rank=0)
        with tracer.span("query") as q:
            ctx = tracer.context()
        assert isinstance(ctx, TraceContext)
        assert ctx.trace_id == tracer.trace_id
        assert ctx.parent_span_id == q.span_id

    def test_adopt_reparents_remote_spans(self):
        client, worker = Tracer(rank=0), Tracer(rank=1)
        with client.span("query") as q:
            ctx = client.context()
        with worker.adopt(ctx):
            with worker.span("local_query") as lq:
                pass
        assert lq.trace_id == client.trace_id
        assert lq.parent_id == q.span_id
        assert lq.rank == 1
        # adoption is scoped: afterwards the worker records its own traces
        with worker.span("standalone") as s:
            pass
        assert s.trace_id == worker.trace_id != client.trace_id
        assert s.parent_id is None


class TestExporters:
    def _connected_spans(self):
        tracer = Tracer()
        with tracer.span("query", n=2):
            with tracer.span("plan"):
                pass
        return tracer.spans

    def test_jsonl_lines_parse_and_sort(self):
        text = spans_to_jsonl(self._connected_spans())
        rows = [json.loads(line) for line in text.splitlines()]
        assert [r["name"] for r in rows] == ["query", "plan"]
        assert rows[1]["parent_id"] == rows[0]["span_id"]

    def test_chrome_trace_shape(self):
        doc = chrome_trace(self._connected_spans())
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 2 and len(meta) == 1
        for event in complete:
            assert event["dur"] >= 0
            assert "span_id" in event["args"]

    def test_writers_roundtrip(self, tmp_path):
        spans = self._connected_spans()
        jsonl = write_jsonl(spans, tmp_path / "t.jsonl")
        chrome = write_chrome_trace(spans, tmp_path / "t.json")
        assert len(open(jsonl).read().splitlines()) == 2
        assert json.load(open(chrome))["displayTimeUnit"] == "ms"

    def test_exporters_accept_gathered_dicts(self):
        dicts = [s.as_dict() for s in self._connected_spans()]
        assert spans_to_jsonl(dicts) == spans_to_jsonl(self._connected_spans())


class TestNullTracer:
    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True

    def test_zero_span_allocations(self):
        """The disabled path must construct nothing — no Span objects, and
        every scope/span is the module-level singleton."""
        before = Span.allocated
        for _ in range(100):
            scope = NULL_TRACER.span("query", queries=10)
            assert scope is _NULL_SCOPE
            with scope as span:
                assert span is _NULL_SPAN
                span.set(num_hits=5)
        assert Span.allocated == before
        assert NULL_TRACER.spans == ()
        assert NULL_TRACER.export() == []

    def test_adopt_and_context_are_inert(self):
        assert NULL_TRACER.context() is None
        with NULL_TRACER.adopt(None):
            pass
        NULL_TRACER.clear()

    def test_fresh_nulltracer_shares_singletons(self):
        assert NullTracer().span("x") is _NULL_SCOPE
