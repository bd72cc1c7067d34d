#!/usr/bin/env python
"""Async multiplexed serving from a sharded datastore (`repro.store.frontend`).

`DistributedStoreServer.range_query_batch` serves one batch at a time: each
batch pays send → local-query → gather end to end, and every serving rank
idles while rank 0 answers its own shards and merges the batch.
The `AsyncStoreFrontend` runs many batches through the server's same serving
loop with several in flight at once: rank 0 sends each whole batch ahead
with tagged point-to-point sends, serving ranks pipeline receive →
local-query (each picking the queries its shards' extents meet) → send, and
completion is windowed — so the route/scatter/local-query/gather phases of
*different* batches overlap on the `mpisim` virtual clock.

This example bulk-loads a synthetic "lakes" layer with ``num_shards=4`` (four
shard stores under one `shards.json`), then serves the same 16 query
batches:

* sequentially, one `range_query_batch` call per batch — the reference,
* through the async front-end at 1, 4 and 16 in-flight batches; a window of
  one is the no-overlap baseline on the same transport.

Every window is checked for per-batch results identical to the sequential
calls, and reported with its virtual makespan, aggregate throughput and mean
per-batch latency.

Run it with::

    python examples/async_serving.py
"""

from __future__ import annotations

import tempfile

from repro import mpisim
from repro.core import VectorIO
from repro.datasets import generate_dataset, random_envelopes
from repro.pfs import LustreFilesystem
from repro.store import AsyncStoreFrontend, DistributedStoreServer, bulk_load

NUM_SHARDS = 4
NPROCS = 4
NUM_BATCHES = 16
PER_BATCH = 6
WINDOWS = (1, 4, 16)


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-async-") as root:
        fs = LustreFilesystem(root, ost_count=16)
        path = generate_dataset(fs, "lakes", scale=0.5)
        geometries = VectorIO(fs).sequential_read(path).geometries
        sharded = bulk_load(
            fs, "lakes", geometries, num_partitions=16, num_shards=NUM_SHARDS
        )
        print(
            f"dataset: {path} ({len(geometries)} geometries) -> "
            f"{sharded.manifest.num_shards} shards, {sharded.num_records} records"
        )

        envs = list(
            random_envelopes(NUM_BATCHES * PER_BATCH, extent=sharded.manifest.extent,
                             max_size_fraction=0.1, seed=7)
        )
        batches = [
            [(f"b{b}.q{i}", env)
             for i, env in enumerate(envs[b * PER_BATCH:(b + 1) * PER_BATCH])]
            for b in range(NUM_BATCHES)
        ]
        print(f"workload: {NUM_BATCHES} batches x {PER_BATCH} windows on "
              f"{NPROCS} ranks\n")

        def run(body):
            def prog(comm):
                with DistributedStoreServer.open(
                    comm, fs, "lakes", cache_pages=128
                ) as server:
                    return body(comm, server)

            return mpisim.run_spmd(prog, NPROCS).values[0]

        # the reference: one range_query_batch call per batch
        oracle = [
            [(h.query_id, h.record_id) for h in hits]
            for hits in run(
                lambda comm, server: [
                    server.range_query_batch(batch if comm.rank == 0 else None)
                    for batch in batches
                ]
            )
        ]

        print(f"{'mode':>14} {'makespan (ms)':>14} {'batches/s':>10} "
              f"{'queries/s':>10} {'mean latency (ms)':>18} {'identical':>10}")
        print("-" * 82)

        baseline = best = None
        for window in WINDOWS:
            result = run(
                lambda comm, server: AsyncStoreFrontend(
                    server, max_in_flight=window
                ).serve(batches if comm.rank == 0 else None)
            )
            keys = [
                [(h.query_id, h.record_id) for h in hits] for hits in result.batches
            ]
            identical = keys == oracle
            print(
                f"{f'async W={window}':>14} {result.makespan * 1e3:>14.3f} "
                f"{result.batches_per_second:>10.0f} "
                f"{result.queries_per_second:>10.0f} "
                f"{result.mean_latency * 1e3:>18.3f} {str(identical):>10}"
            )
            if not identical:
                raise SystemExit(f"async results diverged at window={window}")
            if baseline is None:
                baseline = best = result  # W=1: no two batches ever overlap
            elif result.queries_per_second > best.queries_per_second:
                best = result

        speedup = (
            best.queries_per_second / baseline.queries_per_second
            if baseline.queries_per_second else float("inf")
        )
        print(
            f"\nall windows returned results identical to sequential submission; "
            f"best aggregate throughput {best.queries_per_second:.0f} queries/s "
            f"({speedup:.1f}x over the W=1 baseline) with phase-overlapped serving"
        )


if __name__ == "__main__":
    main()
