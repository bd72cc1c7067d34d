"""The knob count of ``repro.store``, as a reviewed table.

Every parameter of the store's write entry points and of the three serving
constructors/reports that have shed options is pinned here by
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
    ShardedStoreAppender,
    SpatialDataStore,
    StoreAppender,
    bulk_load,
    compact_sharded_store,
    compact_store,
    sharded_bulk_load,
    upgrade_store,
)
from repro.store.writer import pack_partitions, write_generation, write_store_files

SURFACE = [
    # --- write entry points: Hilbert order and index fan-out 16 are facts of
    # the format, not parameters
    (bulk_load, "fs name geometries num_partitions page_size checksums"),
    (
        sharded_bulk_load,
        "fs name geometries num_shards num_partitions page_size read_replicas",
    ),
    (pack_partitions, "cells grid page_size"),
    (write_generation, "fs paths packed page_size checksums"),
    (
        write_store_files,
        "fs name packed page_size extent grid next_record_id checksums",
    ),
    (
        StoreAppender.__init__,
        "self fs name grid allowed_partitions count_deletes tracer",
    ),
    (StoreAppender.append, "self geometries deletes record_ids id_ceiling"),
    (ShardedStoreAppender.__init__, "self fs name"),
    (ShardedStoreAppender.append, "self geometries deletes"),
    # compaction re-packs with the store's own page size and partition count
    (compact_store, "fs name tracer"),
    (compact_sharded_store, "fs name"),
    (upgrade_store, "fs name"),
    # --- serving: one fixed in-flight window, max-over-ranks phases, and the
    # serving keywords declared once (open() and the sharded server forward)
    (AsyncStoreFrontend.__init__, "self server max_in_flight"),
    (DistributedStoreServer.phase_breakdown, "self"),
    (
        SpatialDataStore.__init__,
        "self fs name manifest generations cache_pages coalesce_gap "
        "prefetch_pages io_policy tracer metrics retry_policy",
    ),
]


@pytest.mark.parametrize(
    "func, params", SURFACE, ids=[func.__qualname__ for func, _ in SURFACE]
)
def test_parameters_are_exactly_the_reviewed_set(func, params):
    assert list(inspect.signature(func).parameters) == params.split()
