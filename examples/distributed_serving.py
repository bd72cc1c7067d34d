#!/usr/bin/env python
"""Distributed serving from a sharded datastore (`repro.store.sharded`).

`SpatialDataStore` serves queries from a single process; the paper's
end-to-end applications are multi-rank.  Every store carries a
`shards.json` routing manifest over its shard stores; this example
bulk-loads a synthetic "lakes" layer once with ``num_shards=4`` (and once
with the default single shard, as the baseline), then serves the same query
batch through a `DistributedStoreServer` on 1, 2, 4 and 8 simulated MPI
ranks:

* rank 0 sends every rank the whole batch as one tagged point-to-point
  message on the simulated communicator,
* every rank keeps the queries whose window meets one of its shards' data
  extents and answers them through its own SIEVE page cache,
* the answers are sent back to rank 0 and merged (each record is stored in
  one shard, so nothing is de-duplicated).

Each rank count is checked against the single-store answer and reported with
its virtual-clock phase breakdown (route / scatter / local query / gather).
Last, a three-query batch is EXPLAINed at 4 ranks: the report a single
store's EXPLAIN prints, folded over every rank's spans, plus routing,
per-shard and per-rank rows.

Run it with::

    python examples/distributed_serving.py
"""

from __future__ import annotations

import tempfile

from repro import mpisim
from repro.core import VectorIO
from repro.datasets import generate_dataset, random_envelopes
from repro.pfs import LustreFilesystem
from repro.store import DistributedStoreServer, SpatialDataStore, bulk_load

NUM_QUERIES = 40
NUM_SHARDS = 4
RANK_COUNTS = (1, 2, 4, 8)


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-shards-") as root:
        fs = LustreFilesystem(root, ost_count=16)
        path = generate_dataset(fs, "lakes", scale=0.5)
        geometries = VectorIO(fs).sequential_read(path).geometries
        print(f"dataset: {path} ({len(geometries)} geometries)")

        # ---------------------------------------------------------------- #
        # one-time loads: one shard (baseline) and NUM_SHARDS shards
        # ---------------------------------------------------------------- #
        single = bulk_load(fs, "lakes_single", geometries, num_partitions=16)
        sharded = bulk_load(
            fs, "lakes", geometries, num_partitions=16, num_shards=NUM_SHARDS
        )
        print(
            f"sharded load: {sharded.num_records} records "
            f"-> {sharded.manifest.num_shards} shards: "
            + ", ".join(
                f"#{s.shard_id}={s.num_records}r/{s.num_pages}p"
                for s in sharded.manifest.shards
            )
        )

        queries = [
            (i, env)
            for i, env in enumerate(
                random_envelopes(NUM_QUERIES, extent=sharded.manifest.extent,
                                 max_size_fraction=0.12, seed=42)
            )
        ]

        with SpatialDataStore.open(fs, "lakes_single", cache_pages=256) as store:
            baseline_key = sorted(
                (qid, hit.geometry.userdata)
                for (qid, _), hits in zip(queries, store.range_query_batch(queries))
                for hit in hits
            )
        print(f"single-store baseline: {len(baseline_key)} matches\n")

        # ---------------------------------------------------------------- #
        # serve the same batch on every rank count, SPMD-style
        # ---------------------------------------------------------------- #
        print(f"{'ranks':>5} {'matches':>8} {'identical':>10} {'sim total (ms)':>15}  "
              f"phase breakdown (ms, max over ranks)")
        print("-" * 95)
        for nprocs in RANK_COUNTS:

            def prog(comm):
                with DistributedStoreServer.open(comm, fs, "lakes", cache_pages=128) as server:
                    matches = server.range_query_batch(queries if comm.rank == 0 else None)
                    phases = server.phase_breakdown()
                    stats = server.aggregate_stats()["aggregate"]
                return matches, phases, stats

            result = mpisim.run_spmd(prog, nprocs)
            matches, phases, stats = result.values[0]
            key = sorted((m.query_id, m.geometry.userdata) for m in matches)
            identical = key == baseline_key
            phase_str = "  ".join(f"{name}={phases[name] * 1e3:.3f}" for name in
                                  ("route", "scatter", "local_query", "gather"))
            print(
                f"{nprocs:>5} {len(matches):>8} {str(identical):>10} "
                f"{result.max_time * 1e3:>15.3f}  {phase_str}"
            )
            if not identical:
                raise SystemExit(f"distributed results diverged at nprocs={nprocs}")

        print(
            f"\nall rank counts returned results identical to the single store "
            f"({len(baseline_key)} matches, each record from the one shard storing it)"
        )
        print(
            f"aggregate serving stats at {RANK_COUNTS[-1]} ranks: "
            f"{stats['pages_read']:.0f} pages read, "
            f"cache hit rate {stats['cache_hit_rate']:.1%}, "
            f"simulated I/O {stats['io_seconds'] * 1e3:.2f} ms"
        )

        # ---------------------------------------------------------------- #
        # where one small batch's work went, shard by shard and rank by rank
        # ---------------------------------------------------------------- #
        def explain(comm):
            with DistributedStoreServer.open(comm, fs, "lakes", cache_pages=128) as server:
                return server.explain_batch(queries[:3] if comm.rank == 0 else None)

        print(f"\n{mpisim.run_spmd(explain, 4).values[0]}")


if __name__ == "__main__":
    main()
