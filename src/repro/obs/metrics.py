"""Unified metrics registry: counters, plus a log2 latency histogram.

The repo's serving layers each grew their own stat carrier —
``StoreStats``, ``CacheStats``, ``BatchMetrics``, the virtual clock's
``breakdown`` dict — none of which compose: you cannot merge them across
ranks without bespoke code.  This module is the common substrate the store
counters now sit on:

* :class:`Counter` — monotone totals, optionally labelled
  (``registry.counter("server.shard_heat", shard=3)``).
* :class:`MetricsRegistry` — the get-or-create namespace of counters one
  store or server rank owns.  :meth:`MetricsRegistry.snapshot` emits plain
  JSON-able dicts; :func:`merge_snapshots` combines any number of them
  (counters sum); and because snapshots are **absolute** values,
  aggregation over ranks through the existing collectives is idempotent —
  calling it twice can never double-count.
* :class:`Histogram` — a fixed-bucket base-2 histogram answering
  p50/p95/p99 over a list of latencies (the front-end's
  ``FrontendResult.summary()`` and the benchmarks).  Bucket *i* covers
  ``(lo·2^(i-1), lo·2^i]``, so 96 buckets span nanoseconds to centuries.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Mapping

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "summed",
]


def metric_key(name: str, labels: Mapping[str, Any]) -> str:
    """Canonical flat key: ``name`` or ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotone total (float-valued so simulated seconds fit too)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount


#: upper edge of a histogram's bucket 0 (seconds: a nanosecond)
HIST_LO = 1e-9
#: histogram buckets: 96 doublings span nanoseconds to centuries
HIST_BUCKETS = 96


class Histogram:
    """Fixed-bucket base-2 histogram good enough for p50/p95/p99.

    Bucket *i* holds values in ``(lo·2^(i-1), lo·2^i]`` (bucket 0 takes
    everything ``<= lo``, *lo* being :data:`HIST_LO`); the exact count,
    sum, min and max ride along, so a percentile answer is the containing
    bucket's upper edge clamped to the observed range — at most a factor-2
    overestimate.
    """

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self) -> None:
        #: sparse bucket index -> count (most workloads touch a few buckets)
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # ------------------------------------------------------------------ #
    def _bucket(self, value: float) -> int:
        if value <= HIST_LO:
            return 0
        idx = int(math.ceil(math.log2(value / HIST_LO)))
        # ceil(log2) can round a value sitting exactly on an edge up one
        # bucket through float noise; nudge back down when it did
        if idx > 0 and value <= HIST_LO * 2.0 ** (idx - 1):
            idx -= 1
        return min(idx, HIST_BUCKETS - 1)

    def record(self, value: float) -> None:
        value = float(value)
        idx = self._bucket(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    # ------------------------------------------------------------------ #
    def percentile(self, q: float) -> float:
        """Upper bucket edge of the *q*-th percentile (0 <= q <= 100),
        clamped to the observed min/max."""
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100]")
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(self.count * q / 100.0))
        cum = 0
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            if cum >= target:
                edge = HIST_LO * 2.0 ** idx if idx > 0 else HIST_LO
                return max(self.min, min(edge, self.max))
        return self.max  # pragma: no cover - cum always reaches count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able buckets and totals plus the percentile summary."""
        return {
            "type": "histogram",
            "buckets": {str(i): c for i, c in sorted(self.buckets.items())},
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Get-or-create namespace of counters.

    One registry per observed component (a store, a server rank); the same
    ``(name, labels)`` pair always returns the same counter, so hot paths
    can cache the handle and skip the lookup.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    # ------------------------------------------------------------------ #
    def counter(self, name: str, **labels: Any) -> Counter:
        key = metric_key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """Absolute JSON-able state of every counter (the merge currency)."""
        return {"counters": {k: c.value for k, c in sorted(self._counters.items())}}


def summed(rows: Iterable[Mapping[str, float]]) -> Dict[str, float]:
    """Key-wise sum of counter *rows* (keys in first-seen order)."""
    total: Dict[str, float] = {}
    for row in rows:
        for key, value in row.items():
            total[key] = total.get(key, 0) + value
    return total


def merge_snapshots(snapshots: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Merge registry snapshots: counters sum.  Input snapshots are absolute
    state, so merging the output with more snapshots later, or re-merging
    the same inputs, behaves like set union over the underlying event
    streams."""
    counters = summed(snap.get("counters", {}) for snap in snapshots)
    return {"counters": dict(sorted(counters.items()))}
