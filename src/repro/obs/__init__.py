"""``repro.obs`` — tracing, metrics and EXPLAIN for the serving stack.

The paper's experimental method is execution-time breakdowns.  This
package is the one observability layer of the serving stack: every store
counter (``StoreStats``, ``CacheStats``) is a counter in a store's
:class:`MetricsRegistry`, and spans plus registry movement answer where
the time of any run went, a single query or a distributed batch:

``repro.obs.trace``
    :class:`Tracer` / :class:`Span` — hierarchical spans
    (``query → plan → schedule → io[run] → refine → decode``) stamped with
    virtual-clock times, with :class:`TraceContext` propagation across
    ``mpisim`` ranks and a zero-allocation :data:`NULL_TRACER` default.

``repro.obs.metrics``
    :class:`MetricsRegistry` of counters, with idempotent snapshot merging
    across ranks (:func:`merge_snapshots`, counters summed by
    :func:`summed`), and the log2 :class:`Histogram` behind p50/p95/p99
    latency summaries.  The sharded server keeps one ledger per shard — the
    live store's registry plus the final snapshots of the stores failover
    retired — and reads its aggregates, its I/O charge and EXPLAIN's
    per-shard rows from it; its per-shard ``server.shard_heat`` counters
    give EXPLAIN's per-shard entry counts.

``repro.obs.export``
    JSONL and Chrome ``trace_event`` exporters (``chrome://tracing`` /
    Perfetto).

``repro.obs.explain``
    One :class:`ExplainReport` and one builder (:func:`build_explain`):
    recorded spans folded into plan / schedule / refine / cache sections
    plus the run's stats delta.  ``SpatialDataStore.explain`` folds one
    store's spans; ``DistributedStoreServer.explain_batch`` folds every
    rank's and fills in the routing, per-shard and per-rank rows.
"""

from .explain import ExplainReport, build_explain
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
    "ExplainReport",
    "build_explain",
]
