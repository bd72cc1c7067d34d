"""Unit battery for the unified metrics layer: counters, the log2
latency histogram and idempotent cross-rank snapshot aggregation."""

import math
import random

import pytest

from repro import mpisim
from repro.obs import Counter, Histogram, MetricsRegistry, merge_snapshots
from repro.obs.metrics import metric_key


class TestMetricKey:
    def test_unlabelled_is_bare_name(self):
        assert metric_key("store.pages_read", {}) == "store.pages_read"

    def test_labels_sorted_and_braced(self):
        key = metric_key("heat", {"shard": 3, "gen": 1})
        assert key == "heat{gen=1,shard=3}"

    def test_distinct_labels_distinct_counters(self):
        reg = MetricsRegistry()
        reg.counter("heat", shard=0).inc()
        reg.counter("heat", shard=1).inc(2)
        snap = reg.snapshot()
        assert snap["counters"] == {"heat{shard=0}": 1, "heat{shard=1}": 2}

    def test_same_key_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a=1) is reg.counter("x", a=1)


class TestCounter:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5


class TestHistogram:
    def test_percentiles_bounded_by_factor_two(self):
        """A bucket answer is the bucket's upper edge: never below the true
        percentile, never more than 2x above it (and clamped to min/max)."""
        rng = random.Random(5)
        values = [rng.uniform(1e-5, 2.0) for _ in range(500)]
        hist = Histogram()
        for v in values:
            hist.record(v)
        values.sort()
        for q in (50, 95, 99):
            true = values[max(0, math.ceil(len(values) * q / 100.0) - 1)]
            got = hist.percentile(q)
            assert true <= got <= 2.0 * true or got in (hist.min, hist.max)
        assert hist.min <= hist.percentile(0) <= 2.0 * hist.min
        assert hist.percentile(100) == hist.max

    def test_empty_histogram(self):
        hist = Histogram()
        assert hist.percentile(50) == 0.0
        assert hist.mean == 0.0
        assert hist.as_dict()["count"] == 0

    def test_as_dict_summary(self):
        hist = Histogram()
        for v in (0.5, 1.0, 2.0):
            hist.record(v)
        d = hist.as_dict()
        assert d["type"] == "histogram"
        assert d["count"] == 3
        assert d["p50"] <= d["p95"] <= d["p99"]
        assert d["mean"] == pytest.approx(3.5 / 3)


class TestSnapshotMerging:
    def test_merge_snapshots_sums_counters(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        b.counter("d").inc()
        assert merge_snapshots([a.snapshot(), b.snapshot()]) == {"counters": {"c": 5, "d": 1}}

    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_cross_rank_merge_is_idempotent(self, nprocs):
        """Merging allgathered absolute snapshots (what
        ``DistributedStoreServer.aggregate_metrics`` does) never
        double-counts, however often it is repeated."""

        def prog(comm):
            reg = MetricsRegistry()
            reg.counter("events", rank=comm.rank).inc(comm.rank + 1)
            reg.counter("events.total").inc(comm.rank + 1)
            first = merge_snapshots(comm.allgather(reg.snapshot()))
            second = merge_snapshots(comm.allgather(reg.snapshot()))
            return first, second

        first, second = mpisim.run_spmd(prog, nprocs).values[0]
        assert first == second
        assert first["counters"]["events.total"] == sum(range(1, nprocs + 1))
        for rank in range(nprocs):
            assert first["counters"][f"events{{rank={rank}}}"] == rank + 1
        # every rank computed the identical aggregate (it's an allgather)
        ranks = mpisim.run_spmd(prog, nprocs).values
        assert all(v[0] == first for v in ranks)

