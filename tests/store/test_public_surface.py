"""The knob count of ``repro.store``, as a reviewed table.

Every parameter of the store's write entry points and of its serving
constructors, query entry points and reports is pinned here by
``inspect.signature``.  A new keyword on any of them fails this test until
the table is edited — so a new store knob is a reviewed diff of this file,
the way ``scripts/store_loc.py --max`` makes the package's size a reviewed
number (ROADMAP: a PR that adds a knob must say which existing knob it
retires).
"""

import inspect

import pytest

from repro.store import (
    AsyncStoreFrontend,
    DistributedStoreServer,
    IOScheduler,
    RefineExecutor,
    SpatialDataStore,
    StoreAppender,
    StoreEngine,
    bulk_load,
    compact_store,
    upgrade_store,
)
from repro.store.writer import pack_partitions, write_generation, write_store_files

SURFACE = [
    # --- write entry points: Hilbert order, index fan-out 16 and the per-page
    # CRC32 table are facts of the format, not parameters
    (
        bulk_load,
        "fs name geometries num_partitions page_size num_shards read_replicas",
    ),
    (pack_partitions, "cells grid page_size"),
    (write_generation, "fs paths packed page_size"),
    (write_store_files, "fs name packed page_size extent grid next_record_id"),
    (StoreAppender.__init__, "self fs name tracer"),
    (StoreAppender.append, "self geometries deletes record_ids"),
    # compaction re-loads with the store's own shard count, page size,
    # partition count and read replicas
    (compact_store, "fs name tracer"),
    (upgrade_store, "fs name"),
    # --- serving: one fixed in-flight window, max-over-ranks phases, and the
    # serving keywords declared once (open() and the sharded server forward);
    # hits are decoded values, answers land on rank 0 only, and the
    # coalescing gap and readahead follow io_policy
    (AsyncStoreFrontend.__init__, "self server max_in_flight"),
    (DistributedStoreServer.phase_breakdown, "self"),
    (
        SpatialDataStore.__init__,
        "self fs name manifest generations cache_pages io_policy tracer "
        "retry_policy",
    ),
    (SpatialDataStore.range_query, "self window exact"),
    (SpatialDataStore.range_query_batch, "self queries exact"),
    (StoreEngine.execute, "self queries exact"),
    (StoreEngine.execute_outcome, "self queries exact partial_ok budget"),
    (
        DistributedStoreServer.range_query_batch,
        "self queries exact partial_ok deadline",
    ),
    (DistributedStoreServer.join, "self probes predicate"),
    (RefineExecutor.refine, "self entry pages exact"),
    (IOScheduler.__init__, "self pages gap layout cost_model cache_capacity"),
    (IOScheduler.cost_aware, "pages layout cost_model cache_capacity"),
]


@pytest.mark.parametrize(
    "func, params", SURFACE, ids=[func.__qualname__ for func, _ in SURFACE]
)
def test_parameters_are_exactly_the_reviewed_set(func, params):
    assert list(inspect.signature(func).parameters) == params.split()
