#!/usr/bin/env python
"""Serving queries from the persistent datastore (`repro.store`).

The paper's pipeline re-reads, re-parses, re-partitions and re-indexes the
raw dataset on every run.  This example bulk-loads a synthetic "lakes" layer
into a `SpatialDataStore` once, then serves a batch of range queries three
ways and compares them:

* **from scratch** — parse the WKT file and bulk-build an STR-tree, the
  one-shot pipeline's cost, paid on every run;
* **cold store**  — open the store (manifest + page directory + packed
  index, no parsing, no tree build) and run the batch, faulting pages in;
* **warm store**  — run the same batch again, served from the page cache.

Run it with::

    python examples/datastore_serving.py
"""

from __future__ import annotations

import tempfile
import time

from repro.core import VectorIO
from repro.datasets import generate_dataset, random_envelopes
from repro.index import STRtree
from repro.pfs import LustreFilesystem
from repro.store import SpatialDataStore, bulk_load

NUM_QUERIES = 60


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-store-") as root:
        fs = LustreFilesystem(root, ost_count=16)
        path = generate_dataset(fs, "lakes", scale=0.5)
        print(f"dataset: {path} ({fs.file_size(path) / 1024:.1f} KiB)")

        # ---------------------------------------------------------------- #
        # one-time bulk load (the preprocessing step of §4.1, made durable)
        # ---------------------------------------------------------------- #
        geometries = VectorIO(fs).sequential_read(path).geometries
        t0 = time.perf_counter()
        result = bulk_load(fs, "lakes", geometries, num_partitions=16, page_size=4096)
        load_wall = time.perf_counter() - t0
        print(
            f"bulk load: {result.num_records} records -> {result.num_pages} pages "
            f"in {result.num_partitions} partitions "
            f"({result.data_bytes / 1024:.1f} KiB data, "
            f"{result.index_bytes / 1024:.1f} KiB index) in {load_wall * 1e3:.1f} ms"
        )

        queries = [
            (i, env)
            for i, env in enumerate(
                random_envelopes(NUM_QUERIES, extent=result.manifest.extent,
                                 max_size_fraction=0.1, seed=42)
            )
        ]

        # ---------------------------------------------------------------- #
        # baseline: the from-scratch path every run of the pipeline pays
        # ---------------------------------------------------------------- #
        t0 = time.perf_counter()
        report = VectorIO(fs).sequential_read(path)
        tree = STRtree((g.envelope, g) for g in report.geometries)
        scratch_matches = sum(len(tree.query(env)) for _, env in queries)
        scratch_wall = time.perf_counter() - t0

        # ---------------------------------------------------------------- #
        # cold store: open + query (no parsing, no index build)
        # ---------------------------------------------------------------- #
        t0 = time.perf_counter()
        store = SpatialDataStore.open(fs, "lakes", cache_pages=256)
        cold_matches = sum(len(hits) for hits in store.range_query_batch(queries))
        cold_wall = time.perf_counter() - t0
        cold = store.stats.as_dict()

        # ---------------------------------------------------------------- #
        # warm store: identical batch, served from the page cache
        # ---------------------------------------------------------------- #
        t0 = time.perf_counter()
        warm_matches = sum(len(hits) for hits in store.range_query_batch(queries))
        warm_wall = time.perf_counter() - t0
        warm = store.stats.as_dict()

        print(f"\n{'path':<14} {'wall (ms)':>10} {'matches':>8} {'pages read':>11}")
        print("-" * 47)
        print(f"{'from scratch':<14} {scratch_wall * 1e3:>10.1f} {scratch_matches:>8} {'n/a':>11}")
        print(f"{'cold store':<14} {cold_wall * 1e3:>10.1f} {cold_matches:>8} {cold['pages_read']:>11.0f}")
        warm_pages = warm["pages_read"] - cold["pages_read"]
        print(f"{'warm store':<14} {warm_wall * 1e3:>10.1f} {warm_matches:>8} {warm_pages:>11.0f}")

        print(
            f"\ncache: {warm['cache_hits']:.0f} hits / {warm['cache_misses']:.0f} misses "
            f"(hit rate {warm['cache_hit_rate']:.1%}), "
            f"simulated I/O {warm['io_seconds'] * 1e3:.2f} ms total"
        )
        print(
            f"warm speedup vs from-scratch: {scratch_wall / max(warm_wall, 1e-9):.1f}x "
            f"(exact matches served: {warm_matches})"
        )
        store.close()


if __name__ == "__main__":
    main()
