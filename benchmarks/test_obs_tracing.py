"""End-to-end query tracing — connected distributed traces, exporters, and
the no-op overhead guard for the ``repro.obs`` subsystem.

Not a figure of the paper: this benchmark extends the perf trajectory to
PR 6's observability layer.  Two properties are pinned:

* **one connected trace** — a traced sharded batch query produces spans on
  every rank under a *single* trace id, every ``parent_id`` resolving
  inside the gathered trace (the scatter carries the client's trace
  context, so worker-rank ``local_query`` subtrees reattach to rank 0's
  root ``query`` span).  The JSONL and Chrome ``trace_event`` exports are
  validated by ``scripts/check_trace_schema.py`` — the exact check CI runs;
* **free when off** — with the default :data:`~repro.obs.NULL_TRACER`,
  ``StoreEngine.execute`` (the one stage loop: null span scopes plus the
  outcome bookkeeping) must cost ≤ 2% over a span-free, outcome-free loop
  over the same stage objects, measured min-of-k on a warm cache so the
  comparison is pure CPU.

Set ``OBS_QUICK=1`` for the CI smoke variant (2 ranks, fewer queries).
Set ``OBS_TRACE_OUT=<dir>`` to keep the exported trace artifacts there
instead of the pytest tmp dir.
"""

import os
import pathlib
import subprocess
import sys
import time

import pytest

import repro.mpisim as mpisim
from repro.core import VectorIO
from repro.datasets import random_envelopes
from repro.obs import Histogram, Tracer, write_chrome_trace, write_jsonl
from repro.store import DistributedStoreServer, SpatialDataStore, bulk_load

QUICK = bool(os.environ.get("OBS_QUICK"))
NPROCS = 2 if QUICK else 4
NUM_QUERIES = 12 if QUICK else 48

CHECKER = pathlib.Path(__file__).parent.parent / "scripts" / "check_trace_schema.py"


@pytest.fixture(scope="module")
def obs_store(lustre, join_datasets):
    """One sharded store and one single store over the same uniform layer."""
    geometries = VectorIO(lustre).sequential_read(join_datasets["lakes_uniform"]).geometries
    sharded = bulk_load(lustre, "bench_obs_sharded", geometries,
                        num_shards=NPROCS, num_partitions=16, page_size=2048)
    single = bulk_load(lustre, "bench_obs_single", geometries,
                       num_partitions=16, page_size=2048)
    extent = single.manifest.extent
    queries = [
        (i, env)
        for i, env in enumerate(
            random_envelopes(NUM_QUERIES, extent=extent, max_size_fraction=0.08, seed=29)
        )
    ]
    return {"sharded": sharded, "single": single, "queries": queries}


def test_traced_distributed_query(lustre, obs_store, benchmark, once, tmp_path):
    """A traced NPROCS-rank batch query yields one connected trace, and the
    exported artifacts pass the schema checker."""
    queries = obs_store["queries"]

    def prog(comm):
        tracer = Tracer(clock=comm.clock, rank=comm.rank)
        with DistributedStoreServer.open(
            comm, lustre, "bench_obs_sharded", cache_pages=128, tracer=tracer
        ) as server:
            hits = server.range_query_batch(queries if comm.rank == 0 else None)
            spans = server.collect_trace()
            metrics = server.aggregate_metrics()
        return hits, spans, metrics

    def driver():
        return mpisim.run_spmd(prog, NPROCS).values[0]

    hits, spans, metrics = once(driver)
    assert hits, "the traced batch query returned no hits"
    assert spans, "collect_trace returned nothing on rank 0"

    # one connected trace: a single trace id, every rank contributing,
    # every parent resolving inside the gathered span set
    trace_ids = {s["trace_id"] for s in spans}
    assert len(trace_ids) == 1, f"expected one trace, got {sorted(trace_ids)}"
    assert {s["rank"] for s in spans} == set(range(NPROCS))
    ids = {s["span_id"] for s in spans}
    orphans = [s for s in spans if s["parent_id"] is not None and s["parent_id"] not in ids]
    assert not orphans, f"dangling parents: {orphans[:3]}"
    roots = [s for s in spans if s["parent_id"] is None]
    assert len(roots) == 1 and roots[0]["name"] == "query"
    names = {s["name"] for s in spans}
    assert {"query", "route", "scatter", "local_query", "plan", "refine", "gather"} <= names

    # the exported artifacts pass the exact validation CI runs
    out_dir = pathlib.Path(os.environ.get("OBS_TRACE_OUT") or tmp_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    jsonl = write_jsonl(spans, out_dir / "obs_sharded_query.jsonl")
    chrome = write_chrome_trace(spans, out_dir / "obs_sharded_query.json")
    check = subprocess.run(
        [sys.executable, str(CHECKER), jsonl, chrome],
        capture_output=True, text=True,
    )
    assert check.returncode == 0, check.stderr

    # aggregated heat counters cover every shard (idempotent cross-rank merge)
    shard_heat = {
        key: val for key, val in metrics["counters"].items()
        if key.startswith("server.shard_heat")
    }
    assert len(shard_heat) == NPROCS, f"heat keys: {sorted(shard_heat)}"

    benchmark.extra_info["nprocs"] = NPROCS
    benchmark.extra_info["num_queries"] = len(queries)
    benchmark.extra_info["num_spans"] = len(spans)
    benchmark.extra_info["num_hits"] = len(hits)
    benchmark.extra_info["span_names"] = sorted(names)


def test_noop_tracing_overhead(lustre, obs_store, benchmark, once):
    """With the tracer disabled (the default), ``engine.execute`` must stay
    within 2% of a stage loop that opens no spans and builds no outcome —
    pinned here so neither the observability layer nor the degraded-mode
    bookkeeping can ever tax the hot serving path."""
    queries = obs_store["queries"]
    rounds = 5 if QUICK else 9

    def driver():
        store = SpatialDataStore.open(lustre, "bench_obs_single", cache_pages=512)
        engine = store.engine
        assert not store.tracer.enabled

        def reference(queries, exact=True):
            """plan → fetch → refine over the engine's own stage objects,
            with no span scope and no outcome object."""
            results = [[] for _ in queries]
            plan = engine.planner.plan(queries)
            engine._record_heat(plan)
            held = {}
            if len(plan.touched_pages) <= store._cache.capacity:
                held = store._get_pages(plan.touched_pages)
            for j in plan.visit_order:
                entry = plan.entries[j]
                pages = held or store._get_pages(entry.by_page)
                results[entry.position] = engine.executor.refine(entry, pages, exact)
            return results

        # warm the cache so both measurements are pure CPU (no simulated I/O
        # bookkeeping differences), and establish the reference results
        expected = reference(queries, exact=True)
        via_execute = engine.execute(queries, exact=True)

        def timed(fn):
            t0 = time.perf_counter()
            fn(queries, exact=True)
            return time.perf_counter() - t0

        # paired rounds: both loops timed back to back each round, the
        # round with the lowest dispatched/direct ratio wins — genuine
        # overhead shows in every round, ambient machine noise (CI
        # neighbours, frequency scaling) only spikes single rounds
        direct, dispatched = 1.0, float("inf")
        for _ in range(rounds):
            d = min(timed(reference), timed(reference))
            v = min(timed(engine.execute), timed(engine.execute))
            if v / d < dispatched / direct:
                direct, dispatched = d, v

        # per-query latency distribution on the warm path (the histogram
        # summary rides benchmark.extra_info)
        hist = Histogram()
        for qid, window in queries:
            t0 = time.perf_counter()
            store.range_query(window, exact=True)
            hist.record(time.perf_counter() - t0)
        store.close()
        return expected, via_execute, direct, dispatched, hist

    expected, via_execute, direct, dispatched, hist = once(driver)

    # the scopes and the bookkeeping are transparent: identical results...
    assert [[h.record_id for h in hits] for hits in via_execute] == [
        [h.record_id for h in hits] for hits in expected
    ]
    # ...and within the 2% overhead budget on the warm path
    overhead = dispatched / direct if direct > 0 else 1.0
    assert overhead <= 1.02, (
        f"disabled-tracer stage-loop overhead {overhead:.4f} exceeds 1.02 "
        f"({dispatched * 1e6:.1f}µs vs {direct * 1e6:.1f}µs)"
    )

    benchmark.extra_info["noop_overhead_ratio"] = float(overhead)
    benchmark.extra_info["direct_seconds"] = float(direct)
    benchmark.extra_info["dispatched_seconds"] = float(dispatched)
    benchmark.extra_info["query_latency_seconds"] = hist.as_dict()
