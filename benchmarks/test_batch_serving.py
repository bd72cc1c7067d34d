"""Batched filter-and-refine serving — per-probe loop vs the batch front-end.

Not a figure of the paper: this benchmark extends the `repro.store` perf
trajectory to PR 3's vectorized serving path.  The same probe collection is
joined against the same store twice:

* **per-probe** — one independent ``range_query`` per probe (the PR 2
  formulation): every probe touches its pages through the cache on its own,
  so the filesystem sees one request per missed page and the page-touch
  count grows with the probe count;
* **batch** — ``SpatialDataStore.join`` routed through
  ``range_query_batch``: probe windows are Hilbert-ordered, page touches
  are deduped across the whole batch, and the missed pages are fetched in
  coalesced runs.

Expected shape: identical join pairs, with the batch path issuing *far*
fewer ``read_requests`` than the per-probe page-touch count, and decoding
only surviving slots either way (a page decodes per slot, on demand).

Set ``BATCH_SERVING_QUICK=1`` for the CI smoke variant (fewer probes).
"""

import os
import time

import pytest

from reporting import FigureReport
from repro.core import VectorIO
from repro.geometry import predicates
from repro.store import SpatialDataStore, bulk_load

QUICK = bool(os.environ.get("BATCH_SERVING_QUICK"))
NUM_PROBES = 40 if QUICK else 200


@pytest.fixture(scope="module")
def batch_store(lustre, join_datasets):
    """Bulk-load the uniform lakes layer once; probes come from cemetery."""
    geometries = VectorIO(lustre).sequential_read(join_datasets["lakes_uniform"]).geometries
    result = bulk_load(lustre, "bench_batch_lakes", geometries,
                       num_partitions=16, page_size=4096)
    probes = VectorIO(lustre).sequential_read(
        join_datasets["cemetery_uniform"]
    ).geometries[:NUM_PROBES]
    return {"result": result, "probes": probes}


def test_batch_join_vs_per_probe(lustre, batch_store, benchmark, once):
    probes = batch_store["probes"]

    def driver():
        report = FigureReport(
            "BatchServe", "Store join: per-probe loop vs batched front-end",
            "path", "value",
        )
        wall = report.add_series("wall_seconds")
        reqs = report.add_series("read_requests")

        # per-probe: the PR 2 formulation, one range query per probe
        loop_store = SpatialDataStore.open(lustre, "bench_batch_lakes", cache_pages=512)
        t0 = time.perf_counter()
        loop_pairs = []
        for probe in probes:
            for hit in loop_store.range_query(probe.envelope, exact=False):
                if predicates.intersects(probe, hit.geometry):
                    loop_pairs.append((id(probe), hit.record_id))
        wall.add("per_probe", time.perf_counter() - t0)
        loop_stats = loop_store.stats.as_dict()
        reqs.add("per_probe", loop_stats["read_requests"])
        # what the per-probe path asks of the page layer: one touch per
        # (probe, candidate page), the number the batch path must beat
        per_probe_touches = loop_stats["cache_hits"] + loop_stats["cache_misses"]
        loop_store.close()

        # batch: Hilbert-ordered, page-touch-deduped, coalesced
        batch = SpatialDataStore.open(lustre, "bench_batch_lakes", cache_pages=512)
        t0 = time.perf_counter()
        batch_pairs = [(id(p), h.record_id) for p, h in batch.join(probes)]
        batch_wall = time.perf_counter() - t0
        wall.add("batch", batch_wall)
        batch_stats = batch.stats.as_dict()
        reqs.add("batch", batch_stats["read_requests"])
        batch.close()

        report.note(
            f"{len(probes)} probes, {len(batch_pairs)} pairs; per-probe: "
            f"{per_probe_touches:.0f} page touches / "
            f"{loop_stats['read_requests']:.0f} requests, batch: "
            f"{batch_stats['read_requests']:.0f} requests, "
            f"{batch_stats['records_decoded']:.0f} records decoded"
        )
        throughput = len(probes) / batch_wall if batch_wall > 0 else float("inf")
        return report, loop_pairs, batch_pairs, loop_stats, batch_stats, \
            per_probe_touches, throughput

    (report, loop_pairs, batch_pairs, loop_stats, batch_stats,
     per_probe_touches, throughput) = once(driver)
    report.print()

    # equal results first: the batch path is an optimization, not a rewrite
    assert batch_pairs == loop_pairs
    assert len(batch_pairs) > 0

    # the acceptance bar: coalesced+deduped I/O strictly below the
    # per-probe page-touch count at equal results
    assert batch_stats["read_requests"] < per_probe_touches
    assert batch_stats["read_requests"] <= loop_stats["read_requests"]

    # per-slot decode holds on both paths: decodes track results, not pages;
    # the batch path never decodes more than the per-probe path
    assert batch_stats["records_decoded"] <= loop_stats["records_decoded"]

    benchmark.extra_info["probes"] = len(probes)
    benchmark.extra_info["pairs"] = len(batch_pairs)
    benchmark.extra_info["per_probe"] = {
        "read_requests": float(loop_stats["read_requests"]),
        "page_touches": float(per_probe_touches),
        "records_decoded": float(loop_stats["records_decoded"]),
    }
    benchmark.extra_info["batch"] = {
        "read_requests": float(batch_stats["read_requests"]),
        "records_decoded": float(batch_stats["records_decoded"]),
        "probes_per_second": float(throughput),
    }


def test_batch_query_page_dedup(lustre, batch_store, benchmark, once):
    """The same windows served twice in one batch touch each page once."""
    from repro.datasets import random_envelopes

    extent = batch_store["result"].manifest.extent
    base = list(random_envelopes(25, extent=extent, max_size_fraction=0.1, seed=17))
    queries = [(i, env) for i, env in enumerate(base + base)]

    def driver():
        store = SpatialDataStore.open(lustre, "bench_batch_lakes", cache_pages=512)
        results = store.range_query_batch(queries, exact=False)
        stats = store.stats.as_dict()
        store.close()
        return results, stats

    results, stats = once(driver)
    first, second = results[: len(base)], results[len(base):]
    assert [[h.record_id for h in hits] for hits in first] == [
        [h.record_id for h in hits] for hits in second
    ]
    # the duplicated half of the batch faulted in zero additional pages
    assert stats["pages_read"] <= batch_store["result"].num_pages
    assert stats["read_requests"] < stats["cache_hits"] + stats["cache_misses"]
    benchmark.extra_info["pages_read"] = float(stats["pages_read"])
    benchmark.extra_info["read_requests"] = float(stats["read_requests"])


def test_warm_filter_path_speedup(lustre, batch_store, benchmark, once):
    """PR 9: the vectorized surviving-slot filter vs the scalar per-slot
    loop it replaced, on this benchmark's serving data packed into fat
    (64 KiB) pages — the layout the envelope-column pass targets.

    The filter stage is timed in isolation over warm pages (see
    ``test_hot_path.py`` for the helpers and the end-to-end refine parity
    benchmark); hit materialization and geometry decode are identical on
    both sides and excluded.
    """
    import test_hot_path as hot

    geometries = VectorIO(lustre).sequential_read(
        "datasets/lakes_uniform.wkt"
    ).geometries
    if not lustre.exists("stores/bench_batch_lakes_fat/manifest.json"):
        bulk_load(lustre, "bench_batch_lakes_fat", geometries,
                  num_partitions=4, page_size=65536)

    def driver():
        store = SpatialDataStore.open(lustre, "bench_batch_lakes_fat",
                                      cache_pages=512)
        work, slots = hot.filter_workload(store, 12 if QUICK else 24)
        executor = store.engine.executor
        tombs = store._tombstone_gen
        flat = lambda out: sorted(
            (key, slot) for key, kept in out for slot in kept
        )
        for entry, pages in work:
            assert flat(hot.bulk_filter(executor, tombs, entry, pages)) == \
                flat(hot.scalar_filter(executor, tombs, entry, pages))

        scalar_s, bulk_s = hot.time_filters(
            executor, tombs, work, 5 if QUICK else 20
        )
        store.close()
        return slots, scalar_s, bulk_s

    slots, scalar_s, bulk_s = once(driver)
    speedup = scalar_s / bulk_s
    print(
        f"\nwarm filter path: {slots} slots/pass, scalar "
        f"{slots / scalar_s:,.0f} slots/s vs bulk {slots / bulk_s:,.0f} "
        f"slots/s -> {speedup:.1f}x"
    )
    assert speedup >= (2.5 if QUICK else 5.0)
    benchmark.extra_info["slots_per_pass"] = float(slots)
    benchmark.extra_info["scalar_slots_per_second"] = float(slots / scalar_s)
    benchmark.extra_info["bulk_slots_per_second"] = float(slots / bulk_s)
    benchmark.extra_info["speedup"] = float(speedup)
