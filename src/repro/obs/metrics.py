"""Unified metrics registry: counters and log2 latency histograms.

The repo's serving layers each grew their own stat carrier —
``StoreStats``, ``CacheStats``, ``BatchMetrics``, the virtual clock's
``breakdown`` dict — none of which compose: you cannot merge them across
ranks without bespoke code, and none can answer a percentile question.
This module is the common substrate they all now sit on:

* :class:`Counter` — monotone totals, optionally labelled
  (``registry.counter("shard_heat", shard=3)``).
* :class:`Histogram` — fixed-bucket base-2 histograms.  Bucket *i* covers
  ``(lo·2^(i-1), lo·2^i]``, so 96 buckets span nanoseconds to centuries and
  merging two histograms is element-wise addition — which is what makes
  p50/p95/p99 queries exact over *merged* data (bucket resolution, not
  sampling, is the only error source).
* :class:`MetricsRegistry` — the get-or-create namespace one store, server
  rank or front-end owns.  :meth:`MetricsRegistry.snapshot` emits plain
  JSON-able dicts; :func:`merge_snapshots` combines any number of them
  (sum counters, add histogram buckets); and because snapshots
  are **absolute** values, aggregation over ranks through the existing
  collectives is idempotent — calling it twice can never double-count.

Per-partition / per-shard **query-heat** counters (the future rebalancer's
input) are ordinary labelled counters in these registries; see
``StoreEngine`` and ``DistributedStoreServer``.
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


class Histogram:
    """Fixed-bucket base-2 histogram good enough for p50/p95/p99.

    Bucket *i* holds values in ``(lo·2^(i-1), lo·2^i]`` (bucket 0 takes
    everything ``<= lo``); the exact count, sum, min and max ride along, so
    a percentile answer is the containing bucket's upper edge clamped to
    the observed range — at most a factor-2 overestimate, and *identical*
    whether computed before or after merging (the merge is element-wise
    bucket addition).
    """

    __slots__ = ("lo", "nbuckets", "buckets", "count", "total", "min", "max")

    def __init__(self, lo: float = 1e-9, nbuckets: int = 96) -> None:
        if lo <= 0:
            raise ValueError("lo must be positive")
        if nbuckets < 2:
            raise ValueError("need at least 2 buckets")
        self.lo = lo
        self.nbuckets = nbuckets
        #: sparse bucket index -> count (most workloads touch a few buckets)
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # ------------------------------------------------------------------ #
    def _bucket(self, value: float) -> int:
        if value <= self.lo:
            return 0
        idx = int(math.ceil(math.log2(value / self.lo)))
        # ceil(log2) can round a value sitting exactly on an edge up one
        # bucket through float noise; nudge back down when it did
        if idx > 0 and value <= self.lo * 2.0 ** (idx - 1):
            idx -= 1
        return min(idx, self.nbuckets - 1)

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
                edge = self.lo * 2.0 ** idx if idx > 0 else self.lo
                return max(self.min, min(edge, self.max))
        return self.max  # pragma: no cover - cum always reaches count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    # ------------------------------------------------------------------ #
    def merge(self, other: "Histogram") -> None:
        """Element-wise merge; equals the histogram of the combined stream."""
        if other.lo != self.lo or other.nbuckets != self.nbuckets:
            raise ValueError("cannot merge histograms with different bucketing")
        for idx, c in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + c
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def state(self) -> Dict[str, Any]:
        """JSON-able absolute state (the snapshot/merge currency)."""
        return {
            "type": "histogram",
            "lo": self.lo,
            "nbuckets": self.nbuckets,
            "buckets": {str(i): c for i, c in sorted(self.buckets.items())},
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }

    def as_dict(self) -> Dict[str, Any]:
        """:meth:`state` plus the ready-to-read percentile summary."""
        out = self.state()
        out.update(
            mean=self.mean,
            p50=self.percentile(50),
            p95=self.percentile(95),
            p99=self.percentile(99),
        )
        return out

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "Histogram":
        hist = cls(lo=state.get("lo", 1e-9), nbuckets=state.get("nbuckets", 96))
        hist.buckets = {int(i): int(c) for i, c in state.get("buckets", {}).items()}
        hist.count = int(state.get("count", 0))
        hist.total = float(state.get("sum", 0.0))
        if hist.count:
            hist.min = float(state["min"])
            hist.max = float(state["max"])
        return hist


class MetricsRegistry:
    """Get-or-create namespace of counters and histograms.

    One registry per observed component (a store, a server rank, a
    front-end); the same ``(name, labels)`` pair always returns the same
    metric object, so hot paths can cache the handle and skip the lookup.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    def counter(self, name: str, **labels: Any) -> Counter:
        key = metric_key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = metric_key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram()
        return metric

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """Absolute JSON-able state of every metric (the merge currency)."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "histograms": {
                k: h.state() for k, h in sorted(self._histograms.items())
            },
        }


def summed(rows: Iterable[Mapping[str, float]]) -> Dict[str, float]:
    """Key-wise sum of counter *rows* (keys in first-seen order)."""
    total: Dict[str, float] = {}
    for row in rows:
        for key, value in row.items():
            total[key] = total.get(key, 0) + value
    return total


def merge_snapshots(snapshots: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Merge registry snapshots: counters sum, histograms merge bucket-wise.
    Input snapshots are absolute state, so
    merging the output with more snapshots later, or re-merging the same
    inputs, behaves like set union over the underlying event streams."""
    snapshots = list(snapshots)
    counters = summed(snap.get("counters", {}) for snap in snapshots)
    histograms: Dict[str, Histogram] = {}
    for snap in snapshots:
        for key, state in snap.get("histograms", {}).items():
            hist = Histogram.from_state(state)
            if key in histograms:
                histograms[key].merge(hist)
            else:
                histograms[key] = hist
    return {
        "counters": dict(sorted(counters.items())),
        "histograms": {k: h.state() for k, h in sorted(histograms.items())},
    }
