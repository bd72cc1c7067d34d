"""Unit coverage for the trace-schema helpers in ``_trace_schema.py``: each
check passes a real exported trace and names what is wrong with a broken
one."""

import json

import pytest
from _trace_schema import check_chrome, check_jsonl, check_span  # kept next to this file

from repro.obs import Tracer, write_chrome_trace, write_jsonl


def make_spans():
    """A tiny but real trace: two nested spans from the actual Tracer."""

    class FakeClock:
        now = 0.0

    tracer = Tracer(clock=FakeClock(), rank=0)
    with tracer.span("query"):
        FakeClock.now = 1.0
        with tracer.span("refine"):
            FakeClock.now = 2.5
    return tracer.export()


@pytest.fixture()
def artifacts(tmp_path):
    spans = make_spans()
    jsonl = write_jsonl(spans, tmp_path / "trace.jsonl")
    chrome = write_chrome_trace(spans, tmp_path / "trace.json")
    return {"spans": spans, "jsonl": str(jsonl), "chrome": str(chrome)}


class TestCheckSpan:
    def test_real_span_is_clean(self, artifacts):
        problems = []
        check_span(artifacts["spans"][0], "here", problems)
        assert problems == []

    def test_missing_and_mistyped_fields(self):
        problems = []
        check_span({"trace_id": 7}, "here", problems)
        messages = "\n".join(problems)
        assert "field 'trace_id' has type int" in messages
        assert "missing field 'span_id'" in messages
        assert "missing field 'parent_id'" in messages

    def test_non_object_row(self):
        problems = []
        check_span([1, 2], "here", problems)
        assert "not an object" in problems[0]

    def test_a_boolean_is_not_a_rank(self, artifacts):
        row = dict(artifacts["spans"][0])
        row["rank"] = True
        problems = []
        check_span(row, "here", problems)
        assert problems == ["here: field 'rank' has type bool"]

    def test_parent_id_must_be_a_string_or_null(self, artifacts):
        row = dict(artifacts["spans"][0])
        row["parent_id"] = 7
        problems = []
        check_span(row, "here", problems)
        assert problems == ["here: field 'parent_id' must be a string or null"]

    def test_end_before_start(self, artifacts):
        row = dict(artifacts["spans"][0])
        row["start"], row["end"] = 5.0, 1.0
        problems = []
        check_span(row, "here", problems)
        assert any("precedes start" in p for p in problems)


class TestCheckJsonl:
    def test_exported_file_validates(self, artifacts):
        problems = []
        check_jsonl(artifacts["jsonl"], False, problems)
        assert problems == []

    def test_dangling_parent_detected_and_waivable(self, tmp_path, artifacts):
        rows = [dict(s) for s in artifacts["spans"]]
        rows[-1]["parent_id"] = "nonexistent"
        path = tmp_path / "dangling.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        problems = []
        check_jsonl(str(path), False, problems)
        assert any("not in this file" in p for p in problems)
        problems = []
        check_jsonl(str(path), True, problems)
        assert problems == []

    def test_empty_and_malformed(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        problems = []
        check_jsonl(str(empty), False, problems)
        assert any("no spans" in p for p in problems)

        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        problems = []
        check_jsonl(str(bad), False, problems)
        assert any("not JSON" in p for p in problems)

    def test_a_chrome_document_is_not_a_span_log(self, artifacts):
        problems = []
        check_jsonl(artifacts["chrome"], False, problems)
        assert problems

    def test_duplicate_span_ids(self, tmp_path, artifacts):
        row = dict(artifacts["spans"][0])
        path = tmp_path / "dup.jsonl"
        path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
        problems = []
        check_jsonl(str(path), False, problems)
        assert any("duplicate span ids" in p for p in problems)


class TestCheckChrome:
    def test_exported_file_validates(self, artifacts):
        problems = []
        check_chrome(artifacts["chrome"], problems)
        assert problems == []

    def test_negative_duration_and_bad_phase(self, tmp_path):
        doc = {
            "traceEvents": [
                {"ph": "X", "name": "a", "pid": 0, "tid": 0, "ts": 0,
                 "dur": -5, "cat": "c", "args": {"span_id": "s"}},
                {"ph": "Q", "name": "b", "pid": 0, "tid": 0},
            ]
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        problems = []
        check_chrome(str(path), problems)
        messages = "\n".join(problems)
        assert "negative duration" in messages
        assert "unsupported phase 'Q'" in messages

    def test_a_span_log_is_not_a_chrome_document(self, artifacts):
        problems = []
        check_chrome(artifacts["jsonl"], problems)
        assert any("not JSON" in p for p in problems)

    def test_a_document_without_trace_events(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([{"ph": "X"}]))
        problems = []
        check_chrome(str(path), problems)
        assert any("'traceEvents' list" in p for p in problems)

    def test_incomplete_events(self, tmp_path):
        doc = {
            "traceEvents": [
                "not an event",
                {"ph": "X", "name": "a", "pid": 0, "ts": 0, "dur": 1,
                 "cat": "c", "args": {}},
            ]
        }
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(doc))
        problems = []
        check_chrome(str(path), problems)
        messages = "\n".join(problems)
        assert "traceEvents[0]: event is not an object" in messages
        assert "traceEvents[1]: missing field 'tid'" in messages
        assert "traceEvents[1]: args carries no span_id" in messages

    def test_no_complete_events(self, tmp_path):
        path = tmp_path / "meta.json"
        path.write_text(json.dumps(
            {"traceEvents": [{"ph": "M", "name": "m", "pid": 0, "tid": 0}]}
        ))
        problems = []
        check_chrome(str(path), problems)
        assert any("no complete" in p for p in problems)

