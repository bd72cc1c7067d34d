"""Schema checks for the trace files ``repro.obs.export`` writes.

Two formats:

* ``*.jsonl`` — one span object per line, as written by
  :func:`repro.obs.write_jsonl`.  Every line must carry the full span
  shape (``trace_id``/``span_id``/``parent_id``/``name``/``rank``/
  ``start``/``end``/``attrs``) with well-formed types, ``end >= start``,
  unique span ids, and — unless *allow_dangling* — every non-null
  ``parent_id`` must resolve to a span in the same file (a connected
  trace).
* ``*.json`` — a Chrome Trace Event Format document, as written by
  :func:`repro.obs.write_chrome_trace`: a ``traceEvents`` list of
  complete ("X") events plus metadata ("M") rows, microsecond
  timestamps, non-negative durations.

Each check appends its problems to the list it is given, one per entry as
``<file>:<where>: <what>``; an empty list means the file validates.
``benchmarks/test_obs_tracing.py`` runs them on the artifacts of a traced
sharded query (the CI observability smoke), ``test_schema_check.py`` on
hand-broken files.
"""

import json
from typing import Any, List

SPAN_FIELDS = {
    "trace_id": str,
    "span_id": str,
    "name": str,
    "rank": int,
    "start": (int, float),
    "end": (int, float),
    "attrs": dict,
}


def check_span(row: Any, where: str, problems: List[str]) -> None:
    if not isinstance(row, dict):
        problems.append(f"{where}: span line is {type(row).__name__}, not an object")
        return
    for field, types in SPAN_FIELDS.items():
        if field not in row:
            problems.append(f"{where}: missing field {field!r}")
        elif not isinstance(row[field], types) or isinstance(row[field], bool):
            problems.append(
                f"{where}: field {field!r} has type {type(row[field]).__name__}"
            )
    if "parent_id" not in row:
        problems.append(f"{where}: missing field 'parent_id'")
    elif row["parent_id"] is not None and not isinstance(row["parent_id"], str):
        problems.append(f"{where}: field 'parent_id' must be a string or null")
    if (
        isinstance(row.get("start"), (int, float))
        and isinstance(row.get("end"), (int, float))
        and row["end"] < row["start"]
    ):
        problems.append(f"{where}: end {row['end']} precedes start {row['start']}")


def check_jsonl(path: str, allow_dangling: bool, problems: List[str]) -> None:
    spans = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:
                problems.append(f"{path}:{lineno}: not JSON ({exc})")
                continue
            check_span(row, f"{path}:{lineno}", problems)
            if isinstance(row, dict):
                spans.append((lineno, row))
    if not spans:
        problems.append(f"{path}: no spans")
        return
    ids = {row.get("span_id") for _, row in spans}
    if len(ids) != len(spans):
        problems.append(f"{path}: duplicate span ids")
    if not allow_dangling:
        for lineno, row in spans:
            parent = row.get("parent_id")
            if parent is not None and parent not in ids:
                problems.append(
                    f"{path}:{lineno}: parent_id {parent!r} not in this file"
                )


def check_chrome(path: str, problems: List[str]) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            problems.append(f"{path}: not JSON ({exc})")
            return
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        problems.append(f"{path}: expected an object with a 'traceEvents' list")
        return
    complete = 0
    for i, event in enumerate(doc["traceEvents"]):
        where = f"{path}:traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: event is not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "M"):
            problems.append(f"{where}: unsupported phase {ph!r}")
            continue
        for field in ("name", "pid", "tid"):
            if field not in event:
                problems.append(f"{where}: missing field {field!r}")
        if ph == "X":
            complete += 1
            for field in ("ts", "dur", "cat", "args"):
                if field not in event:
                    problems.append(f"{where}: missing field {field!r}")
            if isinstance(event.get("dur"), (int, float)) and event["dur"] < 0:
                problems.append(f"{where}: negative duration {event['dur']}")
            args = event.get("args")
            if isinstance(args, dict) and "span_id" not in args:
                problems.append(f"{where}: args carries no span_id")
    if not complete:
        problems.append(f"{path}: no complete ('X') events")
