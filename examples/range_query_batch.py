#!/usr/bin/env python
"""Batch range queries over a point layer (disaster-response style workload).

The paper motivates MPI-Vector-IO with time-critical scenarios — e.g. finding
every feature inside a set of affected areas after a hurricane.  This example
reads an "all nodes" point layer in parallel and evaluates a batch of window
queries (the affected areas) with the distributed filter-and-refine framework.

Run it with::

    python examples/range_query_batch.py
"""

from __future__ import annotations

import random
import tempfile

from repro import mpisim
from repro.core import GridPartitionConfig, PartitionConfig, RangeQuery
from repro.datasets import generate_dataset
from repro.geometry import Envelope
from repro.pfs import GPFSFilesystem

NPROCS = 4
NUM_QUERIES = 12


def make_queries(seed: int = 5):
    """A batch of rectangular 'affected areas' spread over the world."""
    rng = random.Random(seed)
    queries = []
    for i in range(NUM_QUERIES):
        cx, cy = rng.uniform(-150, 150), rng.uniform(-70, 70)
        w, h = rng.uniform(5, 25), rng.uniform(5, 25)
        queries.append((f"area-{i}", Envelope(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)))
    return queries


def rank_program(comm: mpisim.Communicator, fs: GPFSFilesystem, queries):
    rq = RangeQuery(
        fs,
        queries,
        partition_config=PartitionConfig(block_size=64 * 1024, level=1),
        grid_config=GridPartitionConfig(num_cells=64),
    )
    matches = rq.execute(comm, "datasets/all_nodes.wkt")

    counts = {}
    for m in matches:
        counts[m.query_id] = counts.get(m.query_id, 0) + 1
    merged = comm.gather(counts, root=0)
    if comm.rank == 0:
        totals = {}
        for chunk in merged:
            for qid, n in chunk.items():
                totals[qid] = totals.get(qid, 0) + n
        print("features inside each affected area:")
        for qid, _ in queries:
            print(f"  {qid:<8} {totals.get(qid, 0):>6}")
    return len(matches)


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="mpi-vector-io-query-") as root:
        fs = GPFSFilesystem(root)
        path = generate_dataset(fs, "all_nodes", scale=0.3)
        print(f"all_nodes: {fs.file_size(path) / 1024:.1f} KiB")

        queries = make_queries()
        run = mpisim.run_spmd(rank_program, NPROCS, fs, queries)
        total = sum(run.values)
        print(f"\ntotal matches across ranks: {total}")
        print(f"simulated end-to-end time: {run.max_time:.4f} s")


if __name__ == "__main__":
    main()
