"""``repro.obs`` — tracing, metrics and EXPLAIN for the serving stack.

The paper's experimental method is execution-time breakdowns; PR 1–5 grew
a serving stack whose stat carriers (``StoreStats``, ``CacheStats``,
``BatchMetrics``, ``VirtualClock.breakdown``) are cumulative and mutually
incompatible.  This package is the unified observability layer they now
share:

``repro.obs.trace``
    :class:`Tracer` / :class:`Span` — hierarchical spans
    (``query → plan → schedule → io[run] → refine → decode``) stamped with
    virtual-clock times, with :class:`TraceContext` propagation across
    ``mpisim`` ranks and a zero-allocation :data:`NULL_TRACER` default.

``repro.obs.metrics``
    :class:`MetricsRegistry` of counters and log2
    :class:`Histogram`\\ s (p50/p95/p99), with idempotent snapshot merging
    across ranks (:func:`merge_snapshots`) and per-partition / per-shard
    query-heat counters recorded by the engine and the sharded server.

``repro.obs.export``
    JSONL and Chrome ``trace_event`` exporters (``chrome://tracing`` /
    Perfetto).

``repro.obs.explain``
    EXPLAIN-style reports built from recorded spans + stats deltas; the
    builders behind ``SpatialDataStore.explain`` and
    ``DistributedStoreServer.explain_batch``.
"""

from .explain import (
    DistributedExplainReport,
    ExplainReport,
    build_distributed_explain,
    build_store_explain,
)
from .export import chrome_trace, spans_to_jsonl, write_chrome_trace, write_jsonl
from .metrics import Counter, Histogram, MetricsRegistry, merge_snapshots
from .trace import NULL_TRACER, NullTracer, Span, TraceContext, Tracer

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceContext",
    "Tracer",
    "chrome_trace",
    "spans_to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "DistributedExplainReport",
    "ExplainReport",
    "build_distributed_explain",
    "build_store_explain",
]
