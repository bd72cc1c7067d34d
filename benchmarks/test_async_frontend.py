"""Async multiplexing front-end — concurrency sweep and cost-model prefetch.

Not a figure of the paper: this benchmark extends the `repro.store` perf
trajectory to PR 4's staged engine and async front-end.

* **Concurrency sweep** — the same query batches served through one
  `DistributedStoreServer` at 1, 4 and 16 in-flight batches
  (`AsyncStoreFrontend`); a window of one is the no-overlap baseline on the
  same transport.  Expected shape: identical per-batch hits everywhere, and
  phase-overlapped virtual-clock throughput rising with the window — the
  windowed pipeline must beat the baseline at ≥ 4 in-flight batches.
* **Cost-model vs fixed prefetch** — the same window sweep served by one
  store under `io_policy="fixed"` (no readahead) and under
  `io_policy="cost_model"` (stripe-aligned readahead from the `repro.pfs`
  layout); both merge pages into the same cost-model-priced data sieves.
  Expected shape: identical hits with no more read requests.

Set ``ASYNC_FRONTEND_QUICK=1`` for the CI smoke variant (fewer batches,
fewer ranks).
"""

import os

import pytest

from repro import mpisim
from repro.bench.reporting import FigureReport
from repro.core import VectorIO
from repro.datasets import random_envelopes
from repro.store import (
    AsyncStoreFrontend,
    DistributedStoreServer,
    SpatialDataStore,
    bulk_load,
)

QUICK = bool(os.environ.get("ASYNC_FRONTEND_QUICK"))
NPROCS = 2 if QUICK else 4
NUM_BATCHES = 8 if QUICK else 16
PER_BATCH = 4 if QUICK else 8
WINDOWS = (1, 4) if QUICK else (1, 4, 16)


@pytest.fixture(scope="module")
def frontend_store(lustre, join_datasets):
    geometries = VectorIO(lustre).sequential_read(
        join_datasets["lakes_uniform"]
    ).geometries
    sharded = bulk_load(lustre, "bench_async_lakes", geometries,
                        num_shards=NPROCS, num_partitions=16,
                        page_size=4096)
    bulk_load(lustre, "bench_async_single", geometries, num_partitions=16,
              page_size=4096)
    envs = list(
        random_envelopes(NUM_BATCHES * PER_BATCH, extent=sharded.manifest.extent,
                         max_size_fraction=0.1, seed=71)
    )
    batches = [
        [(f"b{b}.q{i}", env)
         for i, env in enumerate(envs[b * PER_BATCH:(b + 1) * PER_BATCH])]
        for b in range(NUM_BATCHES)
    ]
    return {"batches": batches, "extent": sharded.manifest.extent}


def _serve(lustre, batches, window):
    """One cold-cache serving run; returns rank 0's FrontendResult."""

    def prog(comm):
        with DistributedStoreServer.open(
            comm, lustre, "bench_async_lakes", cache_pages=128
        ) as server:
            frontend = AsyncStoreFrontend(server, max_in_flight=window)
            return frontend.serve(batches if comm.rank == 0 else None)

    return mpisim.run_spmd(prog, NPROCS).values[0]


def test_async_frontend_concurrency_sweep(lustre, frontend_store, benchmark, once):
    batches = frontend_store["batches"]

    def driver():
        report = FigureReport(
            "AsyncServe", "Concurrent query batches over one sharded server",
            "in_flight", "value",
        )
        qps = report.add_series("queries_per_second")
        lat = report.add_series("mean_latency_ms")

        sweep = {}
        for window in WINDOWS:
            result = _serve(lustre, batches, window)
            sweep[window] = result
            qps.add(str(window), result.queries_per_second)
            lat.add(str(window), result.mean_latency * 1e3)

        report.note(
            f"{len(batches)} batches x {PER_BATCH} queries on {NPROCS} ranks; "
            + ", ".join(
                f"W={w}: {r.queries_per_second:.0f} q/s" for w, r in sweep.items()
            )
        )

        # noise-robust acceptance numbers: W=1 and W=4 re-measured in
        # interleaved rounds, best of each side — the virtual makespan
        # includes compute charges measured from real CPU time, so a single
        # paired measurement is at the mercy of ambient machine load
        w1_best = (sweep[1].queries_per_second, sweep[1].makespan)
        w4_best = (sweep[4].queries_per_second, sweep[4].makespan)
        for _ in range(1 if QUICK else 2):
            s = _serve(lustre, batches, 1)
            a = _serve(lustre, batches, 4)
            w1_best = (max(w1_best[0], s.queries_per_second),
                        min(w1_best[1], s.makespan))
            w4_best = (max(w4_best[0], a.queries_per_second),
                       min(w4_best[1], a.makespan))
        return report, sweep, w1_best, w4_best

    report, sweep, w1_best, w4_best = once(driver)
    report.print()
    baseline = sweep[1]

    # equal results first: the window changes when rank 0 gathers, never
    # what is computed (the retired collective loop is the oracle of
    # tests/store/test_frontend.py)
    baseline_keys = [
        [(h.query_id, h.record_id) for h in hits] for hits in baseline.batches
    ]
    for result in sweep.values():
        assert [
            [(h.query_id, h.record_id) for h in hits] for hits in result.batches
        ] == baseline_keys

    # the acceptance bar: ≥ 4 concurrent batches with phase-overlapped
    # virtual-clock throughput exceeding the no-overlap baseline.  The smoke
    # variant (2 ranks, small batches) has almost no overlap to exploit —
    # rank 0 both routes and serves — so it only checks W=4 stays within
    # noise of W=1; the full sweep enforces the strict win.
    if QUICK:
        assert w4_best[0] > w1_best[0] * 0.9
        assert w4_best[1] < w1_best[1] * 1.1
    else:
        assert w4_best[0] > w1_best[0]
        assert w4_best[1] < w1_best[1]

    benchmark.extra_info["num_batches"] = len(batches)
    benchmark.extra_info["queries_per_batch"] = PER_BATCH
    benchmark.extra_info["nprocs"] = NPROCS
    for window, result in sweep.items():
        benchmark.extra_info[f"in_flight_{window}"] = result.summary()
        benchmark.extra_info[f"speedup_{window}"] = (
            result.queries_per_second / baseline.queries_per_second
            if baseline.queries_per_second else float("inf")
        )


def test_cost_model_vs_fixed_prefetch(lustre, frontend_store, benchmark, once):
    extent = frontend_store["extent"]
    queries = [
        (i, env)
        for i, env in enumerate(
            random_envelopes(24 if QUICK else 60, extent=extent,
                             max_size_fraction=0.08, seed=93)
        )
    ]

    def serve(**open_kwargs):
        store = SpatialDataStore.open(lustre, "bench_async_single",
                                      cache_pages=256, **open_kwargs)
        hits = store.range_query_batch(queries, exact=False)
        stats = store.stats.as_dict()
        store.close()
        keys = [[h.record_id for h in per] for per in hits]
        return keys, stats

    def driver():
        report = FigureReport(
            "CostModelPrefetch", "Fixed heuristics vs cost-model I/O scheduling",
            "policy", "value",
        )
        reqs = report.add_series("read_requests")
        pre = report.add_series("pages_prefetched")
        io = report.add_series("io_milliseconds")

        fixed_keys, fixed = serve(io_policy="fixed")
        cost_keys, cost = serve(io_policy="cost_model")
        for label, stats in (("fixed", fixed), ("cost_model", cost)):
            reqs.add(label, stats["read_requests"])
            pre.add(label, stats["pages_prefetched"])
            io.add(label, stats["io_seconds"] * 1e3)

        report.note(
            f"{len(queries)} windows; read_requests fixed={fixed['read_requests']:.0f} "
            f"cost={cost['read_requests']:.0f}; "
            f"prefetched cost={cost['pages_prefetched']:.0f}"
        )
        return report, (fixed_keys, cost_keys), (fixed, cost)

    report, (fixed_keys, cost_keys), (fixed, cost) = once(driver)
    report.print()

    # identical answers under both policies; only the cost model reads ahead
    assert cost_keys == fixed_keys
    assert fixed["pages_prefetched"] == 0

    # both policies sieve by the same rule; readahead extends a fetch's final
    # sieve (no request of its own) and its pages are later cache hits
    assert cost["read_requests"] <= fixed["read_requests"]

    benchmark.extra_info["queries"] = len(queries)
    for label, stats in (("fixed", fixed), ("cost_model", cost)):
        benchmark.extra_info[label] = {
            "read_requests": float(stats["read_requests"]),
            "pages_prefetched": float(stats["pages_prefetched"]),
            "pages_read": float(stats["pages_read"]),
            "io_seconds": float(stats["io_seconds"]),
        }
