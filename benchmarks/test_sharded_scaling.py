"""Sharded-store serving — rank scaling with per-phase virtual-time breakdowns.

The distributed analogue of `test_store_cold_vs_warm`: one sharded bulk load,
then the same query batch served by a `DistributedStoreServer` on 1/2/4/8
simulated ranks, cold (pages faulted in) and warm (identical batch from the
per-rank page caches).  The interesting outputs are the **simulated** phase
times (route / scatter / local_query / gather, maxima over ranks — the
paper's Fig. 9-style convention), attached to the pytest-benchmark row via
``benchmark.extra_info``.

Expected shape: local query time shrinks as ranks/shards are added (each
rank decodes fewer pages), while scatter/gather grow with the rank count —
the classic serving trade-off the paper's communication figures show.

Set ``SHARDED_SCALING_QUICK=1`` to run the CI quick variant (1 and 2 ranks,
cold only).
"""

import os

import pytest

from repro import mpisim
from repro.bench.reporting import FigureReport
from repro.core import VectorIO
from repro.datasets import random_envelopes
from repro.store import DistributedStoreServer, sharded_bulk_load

NUM_QUERIES = 50
NUM_SHARDS = 8

QUICK = bool(os.environ.get("SHARDED_SCALING_QUICK"))
RANK_COUNTS = (1, 2) if QUICK else (1, 2, 4, 8)
MODES = ("cold",) if QUICK else ("cold", "warm")


@pytest.fixture(scope="module")
def sharded_dataset(lustre, join_datasets):
    """Shard the uniform lakes layer once per session (8 shards)."""
    geometries = VectorIO(lustre).sequential_read(join_datasets["lakes_uniform"]).geometries
    result = sharded_bulk_load(
        lustre, "bench_lakes_sharded", geometries,
        num_shards=NUM_SHARDS, num_partitions=32, page_size=4096,
    )
    queries = [
        (i, env)
        for i, env in enumerate(
            random_envelopes(NUM_QUERIES, extent=result.manifest.extent,
                             max_size_fraction=0.1, seed=17)
        )
    ]
    return {"result": result, "queries": queries}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("nranks", RANK_COUNTS)
def test_sharded_serving_scaling(lustre, sharded_dataset, benchmark, once, nranks, mode):
    queries = sharded_dataset["queries"]
    benchmark.group = f"sharded_scaling_{mode}"

    def driver():
        def prog(comm):
            with DistributedStoreServer.open(
                comm, lustre, "bench_lakes_sharded", cache_pages=256
            ) as server:
                matches = server.range_query_batch(queries if comm.rank == 0 else None)
                if mode == "warm":
                    # measure only the warm pass: identical batch, phases reset
                    for key in server.phases:
                        server.phases[key] = 0.0
                    matches = server.range_query_batch(queries if comm.rank == 0 else None)
                phases = server.phase_breakdown()
                stats = server.aggregate_stats()["aggregate"]
            return matches, phases, stats

        result = mpisim.run_spmd(prog, nranks)
        matches, phases, stats = result.values[0]
        return result, matches, phases, stats

    result, matches, phases, stats = once(driver)

    report = FigureReport(
        "ShardScale",
        f"Distributed serving, {mode} caches, {nranks} rank(s) x {NUM_SHARDS} shards",
        "phase", "simulated seconds",
    )
    series = report.add_series(f"{mode}_{nranks}ranks")
    for name in ("route", "scatter", "local_query", "gather"):
        series.add(name, phases[name])
    report.note(
        f"{len(matches)} matches; {stats['pages_read']:.0f} pages read, "
        f"cache hit rate {stats['cache_hit_rate']:.1%}, "
        f"simulated makespan {result.max_time * 1e3:.2f} ms"
    )
    report.print()

    # the per-phase virtual-time breakdown rides the pytest-benchmark row
    benchmark.extra_info["nranks"] = nranks
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["phases_sim_seconds"] = {k: float(v) for k, v in phases.items()}
    benchmark.extra_info["sim_makespan_seconds"] = float(result.max_time)
    benchmark.extra_info["matches"] = len(matches)

    # every rank count answers the batch identically (count is enough here;
    # the exact-equality battery lives in tests/store/test_sharded.py)
    assert len(matches) > 0
    assert phases["local_query"] > 0.0
    if mode == "warm":
        # the warm pass faults in no new pages
        assert stats["cache_hits"] > 0


def test_sharded_scaling_reduces_local_query_time(lustre, sharded_dataset):
    """More ranks -> less per-rank local query time (the scaling claim)."""
    queries = sharded_dataset["queries"]

    def serve(nranks):
        def prog(comm):
            with DistributedStoreServer.open(
                comm, lustre, "bench_lakes_sharded", cache_pages=256
            ) as server:
                matches = server.range_query_batch(queries if comm.rank == 0 else None)
                return matches, server.phase_breakdown()

        result = mpisim.run_spmd(prog, nranks)
        return result.values[0]

    lo_matches, lo_phases = serve(RANK_COUNTS[0])
    hi_matches, hi_phases = serve(RANK_COUNTS[-1])
    assert len(lo_matches) == len(hi_matches)
    assert sorted((m.query_id, m.geometry.wkt()) for m in lo_matches) == sorted(
        (m.query_id, m.geometry.wkt()) for m in hi_matches
    )
    assert hi_phases["local_query"] < lo_phases["local_query"]
