"""Append vs compact — per-query I/O across delta generation counts.

Not a figure of the paper: this benchmark extends the `repro.store` perf
trajectory to PR 5's mutable stores.  The same logical dataset is served
from stores in four physical states:

* **gen0** — one fresh bulk load of all records (the write-once baseline);
* **gen1 / gen4** — the same records arriving as a smaller bulk load plus
  1 / 4 incremental appends: queries plan candidates across base + deltas,
  so coalesced ``read_requests`` and ``pages_read`` grow with the
  generation count (each generation is its own container file);
* **compacted** — the gen4 store after ``compact_store``: generations are
  merged back into one SFC-packed container.

Expected shape: identical query results in every state (the acceptance
battery's equality), I/O growing with generation count, and compaction
restoring ``read_requests``/``pages_read`` to within ~10% of the fresh bulk
load — the acceptance bar of the PR.

Set ``APPEND_COMPACT_QUICK=1`` for the CI smoke variant (fewer records and
queries).
"""

import os
import random

import pytest

from reporting import FigureReport
from repro.datasets import random_envelopes
from repro.geometry import Envelope, LineString, Point, Polygon
from repro.store import (
    SpatialDataStore,
    StoreAppender,
    bulk_load,
    compact_store,
)

QUICK = bool(os.environ.get("APPEND_COMPACT_QUICK"))
NUM_RECORDS = 160 if QUICK else 480
NUM_QUERIES = 20 if QUICK else 60
EXTENT = Envelope(0.0, 0.0, 100.0, 100.0)
PAGE_SIZE = 1024
PARTITIONS = 16


def make_geometries(count, seed=7):
    rng = random.Random(seed)
    out = []
    for i, env in enumerate(
        random_envelopes(count, extent=EXTENT, max_size_fraction=0.05, seed=seed)
    ):
        kind = rng.random()
        if kind < 0.6:
            out.append(Polygon.from_envelope(env, userdata=i))
        elif kind < 0.85:
            out.append(LineString([(env.minx, env.miny), (env.maxx, env.maxy)],
                                  userdata=i))
        else:
            out.append(Point(env.minx, env.miny, userdata=i))
    return out


def build_store(fs, name, geoms, num_appends):
    """Load *geoms* as a base bulk load plus *num_appends* equal deltas."""
    if num_appends == 0:
        bulk_load(fs, name, geoms, num_partitions=PARTITIONS, page_size=PAGE_SIZE)
        return
    delta = len(geoms) // (num_appends + 2)  # deltas smaller than the base
    base_count = len(geoms) - num_appends * delta
    bulk_load(fs, name, geoms[:base_count], num_partitions=PARTITIONS,
              page_size=PAGE_SIZE)
    appender = StoreAppender(fs, name)
    for k in range(num_appends):
        start = base_count + k * delta
        appender.append(geoms[start:start + delta])


def serve_batch(fs, name, queries):
    """Cold-cache batch serving; returns per-query ids + I/O counters."""
    with SpatialDataStore.open(fs, name, cache_pages=1024) as store:
        per_query = store.range_query_batch(queries, exact=False)
        ids = [[h.record_id for h in hits] for hits in per_query]
        stats = store.stats.as_dict()
        generations = store.num_generations
    return ids, stats, generations


def test_append_vs_compact_io(lustre, benchmark, once):
    geoms = make_geometries(NUM_RECORDS)
    queries = [
        (i, env)
        for i, env in enumerate(
            random_envelopes(NUM_QUERIES, extent=EXTENT, max_size_fraction=0.12,
                             seed=31)
        )
    ]

    def driver():
        report = FigureReport(
            "AppendCompact",
            "Per-batch I/O at 0/1/4 delta generations vs post-compaction",
            "store state", "value",
        )
        reqs = report.add_series("read_requests")
        pages = report.add_series("pages_read")
        decoded = report.add_series("records_decoded")

        results = {}
        for label, appends in (("gen0", 0), ("gen1", 1), ("gen4", 4)):
            name = f"bench_mut_{label}"
            build_store(lustre, name, geoms, appends)
            ids, stats, generations = serve_batch(lustre, name, queries)
            assert generations == appends
            results[label] = (ids, stats)
            reqs.add(label, stats["read_requests"])
            pages.add(label, stats["pages_read"])
            decoded.add(label, stats["records_decoded"])

        compaction = compact_store(lustre, "bench_mut_gen4")
        ids, stats, generations = serve_batch(lustre, "bench_mut_gen4", queries)
        assert generations == 0 and compaction.merged_generations == 4
        results["compacted"] = (ids, stats)
        reqs.add("compacted", stats["read_requests"])
        pages.add("compacted", stats["pages_read"])
        decoded.add("compacted", stats["records_decoded"])

        report.note(
            f"{NUM_RECORDS} records, {NUM_QUERIES} queries; gen4: "
            f"{results['gen4'][1]['read_requests']:.0f} requests vs "
            f"{results['gen0'][1]['read_requests']:.0f} fresh, compacted: "
            f"{results['compacted'][1]['read_requests']:.0f}"
        )
        return report, results

    report, results = once(driver)
    report.print()

    # equality first: every physical state answers identically
    fresh_ids = results["gen0"][0]
    for label in ("gen1", "gen4", "compacted"):
        assert results[label][0] == fresh_ids, f"{label} diverged from fresh"
    assert sum(len(ids) for ids in fresh_ids) > 0

    fresh = results["gen0"][1]
    gen4 = results["gen4"][1]
    compacted = results["compacted"][1]

    # generations cost I/O: more containers, more read requests
    assert gen4["read_requests"] >= fresh["read_requests"]
    assert gen4["pages_read"] >= fresh["pages_read"]

    # the acceptance bar: compaction restores per-query I/O to within ~10%
    # of a fresh bulk load of the same records
    for key in ("read_requests", "pages_read"):
        assert compacted[key] <= fresh[key] * 1.1, (
            f"compacted {key}={compacted[key]:.0f} vs fresh {fresh[key]:.0f}"
        )

    benchmark.extra_info["records"] = NUM_RECORDS
    benchmark.extra_info["queries"] = NUM_QUERIES
    for label, (_ids, stats) in results.items():
        benchmark.extra_info[label] = {
            "read_requests": float(stats["read_requests"]),
            "pages_read": float(stats["pages_read"]),
            "records_decoded": float(stats["records_decoded"]),
            "bytes_read": float(stats["bytes_read"]),
        }


def test_append_write_amplification(lustre, benchmark, once):
    """Appending writes only the delta, not the base container."""

    def driver():
        geoms = make_geometries(NUM_RECORDS, seed=13)
        half = len(geoms) // 2
        result = bulk_load(lustre, "bench_mut_amp", geoms[:half],
                           num_partitions=PARTITIONS, page_size=PAGE_SIZE)
        append = StoreAppender(lustre, "bench_mut_amp").append(geoms[half:])
        return result, append

    result, append = once(driver)
    # the delta holds half the records but the append never rewrote the
    # base container: delta bytes stay well below a full re-bulk-load
    assert 0 < append.data_bytes < result.data_bytes * 1.5
    assert append.num_records == NUM_RECORDS - NUM_RECORDS // 2
    benchmark.extra_info["base_data_bytes"] = float(result.data_bytes)
    benchmark.extra_info["delta_data_bytes"] = float(append.data_bytes)
    benchmark.extra_info["delta_write_seconds"] = float(append.write_seconds)
