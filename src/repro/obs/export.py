"""Trace exporters: JSONL span logs and Chrome ``trace_event`` files.

Two formats, two audiences:

* :func:`write_jsonl` — one span dict per line, the machine-readable
  archive format (greppable, streamable; ``tests/obs/_trace_schema.py``
  checks both formats, and ``benchmarks/test_obs_tracing.py`` runs it on a
  traced sharded query's exports).
* :func:`write_chrome_trace` — the Trace Event Format consumed by
  ``chrome://tracing`` and Perfetto: each span becomes a complete ("X")
  event with microsecond timestamps, one row (``tid``) per rank, so a
  4-rank sharded query renders as four aligned timelines under one trace.

Exporters write through plain ``open()`` — traces are artifacts for the
developer's real filesystem, not data charged to the simulated one.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Sequence, Union

from .trace import Span, as_span_dicts, span_order

__all__ = [
    "chrome_trace",
    "spans_to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
]

SpanLike = Union[Span, Mapping[str, Any]]


def spans_to_jsonl(spans: Sequence[SpanLike]) -> str:
    """One JSON object per line, sorted by :func:`~repro.obs.trace.span_order`."""
    rows = sorted(as_span_dicts(spans), key=span_order)
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def write_jsonl(spans: Sequence[SpanLike], path) -> str:
    text = spans_to_jsonl(spans)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


def chrome_trace(spans: Sequence[SpanLike]) -> Dict[str, Any]:
    """Spans as a Chrome Trace Event Format document.

    Timestamps are seconds on the virtual clock (or tracer ticks); the
    trace_event ``ts``/``dur`` unit is microseconds, so both scale by 1e6.
    ``pid`` carries the trace id's ordinal (one process group per trace),
    ``tid`` the rank, which is how per-rank spans of one distributed query
    line up as parallel rows.
    """
    events: List[Dict[str, Any]] = []
    trace_ids: List[str] = []
    rows = sorted(as_span_dicts(spans), key=span_order)
    for row in rows:
        if row["trace_id"] not in trace_ids:
            trace_ids.append(row["trace_id"])
        args = dict(row["attrs"])
        args["span_id"] = row["span_id"]
        if row["parent_id"] is not None:
            args["parent_id"] = row["parent_id"]
        events.append(
            {
                "name": row["name"],
                "cat": row["trace_id"],
                "ph": "X",
                "ts": row["start"] * 1e6,
                "dur": max(0.0, (row["end"] - row["start"]) * 1e6),
                "pid": trace_ids.index(row["trace_id"]),
                "tid": row["rank"],
                "args": args,
            }
        )
    meta: List[Dict[str, Any]] = []
    for pid, trace_id in enumerate(trace_ids):
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": trace_id},
            }
        )
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Sequence[SpanLike], path) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(spans), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)
