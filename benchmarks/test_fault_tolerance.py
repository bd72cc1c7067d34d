"""Fault-tolerance benchmarks — the cost of surviving bad storage.

Not a figure of the paper: this benchmark extends the perf trajectory to
PR 7's fault-tolerance layer.  One property is pinned:

* **tail latency degrades gracefully under faults** — the same query
  stream served through :class:`repro.faults.FaultyFilesystem` at 0%, 1%
  and 10% seeded transient-read-fault rates returns identical results at
  every rate, while the per-query simulated-I/O latency histograms record
  how much the retry/backoff machinery pays for the recovery
  (p50/p95/p99 ride ``benchmark.extra_info``).

Set ``FAULTS_QUICK=1`` for the CI smoke variant (fewer queries).
"""

import os

import pytest

from repro.core import VectorIO
from repro.datasets import random_envelopes
from repro.faults import FaultRule, FaultyFilesystem
from repro.obs import Histogram
from repro.store import RetryPolicy, SpatialDataStore, bulk_load

QUICK = bool(os.environ.get("FAULTS_QUICK"))
NUM_QUERIES = 16 if QUICK else 48
FAULT_RATES = (0.0, 0.01, 0.1)

#: deeper-than-default retry budget: at a 10% per-read fault rate the
#: default 3 attempts would exhaust (0.1^3 per page read) somewhere in a
#: long benchmark run; 6 attempts make exhaustion negligible (1e-6)
FAULT_RETRY = RetryPolicy(max_attempts=6)


@pytest.fixture(scope="module")
def fault_stores(lustre, join_datasets):
    """A store over the uniform lakes layer plus a shared query batch."""
    geometries = VectorIO(lustre).sequential_read(join_datasets["lakes_uniform"]).geometries
    checked = bulk_load(lustre, "bench_ft_checked", geometries,
                        num_partitions=16, page_size=2048)
    queries = [
        (i, env)
        for i, env in enumerate(
            random_envelopes(NUM_QUERIES, extent=checked.manifest.extent,
                             max_size_fraction=0.08, seed=31)
        )
    ]
    return {"queries": queries}


def _ids(batches):
    return [sorted(h.record_id for h in hits) for hits in batches]


def test_tail_latency_under_fault_rates(lustre, fault_stores, benchmark, once):
    """Serve the same cold-cache query stream at 0/1/10% injected transient
    read-fault rates: results identical at every rate, retries strictly
    increasing with the rate, per-query simulated-I/O latency recorded."""
    queries = fault_stores["queries"]

    def serve_at(rate):
        faulty = FaultyFilesystem(lustre, rules=[FaultRule(
            path_pattern="stores/bench_ft_checked/*",
            read_error_rate=rate,
        )], seed=43)
        faulty.disarm()
        store = SpatialDataStore.open(
            faulty, "bench_ft_checked", cache_pages=512,
            retry_policy=FAULT_RETRY,
        )
        faulty.arm()
        hist = Histogram()
        results = []
        for qid, window in queries:
            before = store.stats.io_seconds
            results.append(store.range_query(window))
            hist.record(store.stats.io_seconds - before)
        retries = store.stats.retries
        injected = faulty.stats.read_errors
        store.close()
        return results, hist, retries, injected

    def driver():
        return {rate: serve_at(rate) for rate in FAULT_RATES}

    by_rate = once(driver)

    baseline, _, base_retries, base_injected = by_rate[0.0]
    assert base_retries == 0 and base_injected == 0
    for rate in FAULT_RATES[1:]:
        results, _, retries, injected = by_rate[rate]
        assert _ids(results) == _ids(baseline), (
            f"results diverged at fault rate {rate}"
        )
        assert retries >= injected
    # the 1% rate may legitimately inject nothing on a short run; at 10%
    # the stream is guaranteed to have been hit
    assert by_rate[0.1][3] >= 1

    # retry/backoff shows up as simulated I/O, so the faulted tails can
    # never undercut the fault-free ones
    p99 = {rate: by_rate[rate][1].percentile(99) for rate in FAULT_RATES}
    assert p99[0.1] >= p99[0.0]

    for rate in FAULT_RATES:
        _, hist, retries, injected = by_rate[rate]
        tag = f"{rate:g}".replace(".", "_")
        benchmark.extra_info[f"io_latency_rate_{tag}"] = hist.as_dict()
        benchmark.extra_info[f"retries_rate_{tag}"] = int(retries)
        benchmark.extra_info[f"injected_rate_{tag}"] = int(injected)
    benchmark.extra_info["num_queries"] = len(queries)
