"""What the benchmark measures: workloads, metrics, bounds and the predicted
interactions between them.  ``BENCHMARK.json`` is generated from this module
(``python perf/catalog.py``) and the smoke test keeps the two in step.

Every number names its clock:

* ``host``  — real CPU seconds of the Python (``time.process_time``, all rank
  threads; the GIL serialises rank threads, so CPU, not wall, is the host
  clock);
* ``wall``  — ``time.perf_counter`` (per-call latencies, set-up);
* ``sim``   — ``mpisim`` virtual-clock seconds whose value embeds
  ``clock.compute`` blocks, i.e. measured thread CPU (noisy);
* ``exact`` — cost-model charges and counts: identical to the last digit for
  a fixed seed.

Host, wall and sim numbers are in *calibrated* seconds: measured seconds times
(nominal / measured) time of a fixed pure-Python kernel timed beside every
round (``workloads.calibration_kernel``), which takes the shared sandbox's
speed swings out of them.  Exact numbers are never rescaled.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["WORKLOADS", "END_TO_END", "PER_LAYER", "Metric", "driver_metrics", "benchmark_json"]

#: seconds one driver run measures (``BENCHMARK.json`` ``run_seconds``)
RUN_SECONDS = 10

#: workload -> the one-line reason it exists
WORKLOADS: Dict[str, str] = {
    "pipeline_join": (
        "the paper's Fig 17-19 pipeline (4-rank WKT read, parse, grid partition, alltoall, join): "
        "io, pfs, geometry, core and mpisim do all the work, repro.store none"
    ),
    "serve_warm": (
        "single store with a page cache larger than the data: pure plan + refine CPU "
        "(index probe, engine, page columns, predicates); pfs, io, mpisim and WKT bypassed"
    ),
    "serve_cold": (
        "fresh open per round with a cache of 11% of the pages and skewed windows: open, "
        "scheduler coalescing, pfs cost model, CRC, page admission and eviction do the work"
    ),
    "serve_sharded": (
        "the serve_warm windows through a 4-rank sharded server and async front-end: adds "
        "routing, tagged p2p scatter/gather, pickling and the rank-0 merge (mpisim + store.sharded)"
    ),
    "mutate_serve": (
        "appends with deletes and updates beside fresh-open query passes, then compaction: "
        "write path, multi-generation planning and shadow sets on the same store layer"
    ),
}

_ALL = tuple(WORKLOADS)
_QUERYING = ("serve_warm", "serve_cold", "mutate_serve")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    clock: str
    what: str
    #: end-to-end only: share of the base median it may worsen by (0 = exact match)
    bound: Optional[float] = None
    #: workloads it applies to (end-to-end) / on which its layer does work (per layer)
    workloads: Tuple[str, ...] = _ALL
    #: per layer only: the end-to-end metrics it should move
    moves: str = ""


#: Regression bound of every CPU-derived metric.  The issue asked for 10 %; the
#: shared 2-core sandbox does not support it: even calibrated, ten same-code
#: runs of one workload spread (quartile distance / median) by 4-16 %
#: (perf/README.md, noise floor), and the driver refuses a benchmark whose
#: spread exceeds its bound.
_CPU_BOUND = 0.25

#: The 11 end-to-end metrics.  The six that apply to every workload and are
#: never 0 form ``BENCHMARK.json``'s ``end_to_end`` (the driver requires every
#: listed metric on every workload); the other five are printed, written to
#: ``--out`` and gated by ``compare.py`` on the workloads they apply to.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", "wall",
           "median time to build the workload's fixtures (generation, parse, bulk loads, oracle)",
           bound=0.25),
    Metric("host_s", "s", "lower", "host",
           "median over timed rounds of process CPU for one round", bound=_CPU_BOUND),
    Metric("host_ops_per_s", "ops/s", "higher", "host", "stated ops / host_s", bound=_CPU_BOUND),
    Metric("sim_makespan_s", "s", "lower", "sim",
           "median over rounds of virtual seconds for one round: max-over-ranks clock advance "
           "on the mpisim workloads; on the single-process store workloads the sharded "
           "server's own charge rule (thread CPU of the calls + cost-model I/O seconds)",
           bound=_CPU_BOUND),
    Metric("sim_ops_per_s", "ops/s", "higher", "sim", "stated ops / sim_makespan_s",
           bound=_CPU_BOUND),
    Metric("peak_rss_mb", "MiB", "lower", "host",
           "resident high-water mark (VmHWM) of the child process that runs the workload", bound=0.10),
    Metric("host_query_p50_us", "us", "lower", "wall",
           "median latency of single range_query calls pooled over timed rounds",
           bound=_CPU_BOUND, workloads=_QUERYING),
    Metric("host_query_p95_us", "us", "lower", "wall",
           "95th percentile of the same pool", bound=_CPU_BOUND, workloads=_QUERYING),
    Metric("sim_io_s", "s", "lower", "exact",
           "cost-model I/O seconds per round (stats.io_seconds delta plus write seconds, or "
           "max-over-ranks io category); exactly 0 on serve_warm and serve_sharded",
           bound=0.0),
    Metric("sim_batch_p50_s", "s", "lower", "sim",
           "median of raw BatchMetrics.latency pooled over rounds (not summary(), whose log2 "
           "buckets quantise by 2x)", bound=_CPU_BOUND, workloads=("serve_sharded",)),
    Metric("error_rate", "ratio", "lower", "exact",
           "failed / attempted ops; an op whose result mismatches the oracle is failed",
           bound=0.0),
]

_JOIN = ("pipeline_join",)
_STORE = ("serve_warm", "serve_cold", "serve_sharded", "mutate_serve")
_MISSES = ("serve_cold", "mutate_serve")
_SHARDED = ("serve_sharded",)
_MUTATE = ("mutate_serve",)
_MPI = ("pipeline_join", "serve_sharded")


def _layer(names: str, unit: str, better: str, clock: str, what: str,
           workloads: Tuple[str, ...], moves: str) -> List[Metric]:
    return [Metric(n, unit, better, clock, what, None, workloads, moves) for n in names.split()]


_PARSE = "host_s, sim_makespan_s"
_HOST = "host_s, host_ops_per_s"
_SERVE = "host_s, host_query_p50_us, host_query_p95_us"
_COLD = "host_s, host_query_p95_us, sim_io_s"
_DIST = "sim_makespan_s, sim_batch_p50_s, sim_ops_per_s, host_s"
_WRITE = "host_s, sim_io_s, host_query_p50_us"

#: Per-layer metrics (layers are the ``src/repro`` packages).  ``*_host_s`` is
#: span self time (duration minus child spans, ``time.thread_time``) summed
#: over one traced round, median over the traced rounds; counts come from
#: public stats.  A layer that does no work on a workload reads 0 there.
PER_LAYER: List[Metric] = [
    *_layer("geometry.wkt_parse_host_s", "s", "lower", "host", "wkt.loads self time", _JOIN, _PARSE),
    *_layer("geometry.wkt_parse_mb_per_host_s", "MB/s", "higher", "host",
            "WKT text bytes parsed / wkt_parse_host_s", _JOIN, _PARSE),
    *_layer("geometry.wkb_decode_host_s geometry.wkb_encode_host_s", "s", "lower", "host",
            "wkb.loads / wkb.dumps self time", _ALL, _HOST),
    *_layer("geometry.predicate_host_s", "s", "lower", "host", "predicates.intersects self time",
            _ALL, _SERVE),
    *_layer("geometry.predicate_calls", "count", "lower", "exact", "exact predicate evaluations",
            _ALL, _SERVE),
    *_layer("geometry.predicate_true_ratio", "ratio", "higher", "exact",
            "predicate calls returning true / calls", _ALL, _SERVE),
    *_layer("index.strtree_build_host_s", "s", "lower", "host", "STRtree.__init__ self time",
            _JOIN + _MUTATE, _HOST),
    *_layer("index.strtree_query_host_s", "s", "lower", "host", "STRtree.query self time", _ALL, _SERVE),
    *_layer("index.strtree_query_calls", "count", "lower", "exact", "STRtree.query calls", _ALL, _SERVE),
    *_layer("index.strtree_candidates_per_query", "count", "lower", "exact",
            "payloads returned per STRtree.query", _ALL, _SERVE),
    *_layer("index.from_packed_host_s", "s", "lower", "host",
            "load_index + STRtree.from_packed self time (open path)", _MISSES, _COLD),
    *_layer("mpisim.p2p_messages mpisim.collectives", "count", "lower", "exact",
            "sends / collective participations over all ranks (comm.attach_metrics)", _MPI, _DIST),
    *_layer("mpisim.p2p_bytes mpisim.collective_bytes", "B", "lower", "exact",
            "payload bytes of the same", _MPI, _DIST),
    *_layer("mpisim.comm_host_s", "s", "lower", "host",
            "self time of Communicator p2p + collective calls", _MPI, _DIST),
    *_layer("mpisim.sim_comm_s mpisim.sim_wait_s", "s", "lower", "sim",
            "max-over-ranks comm category (cost-model transfers + waiting for a message to "
            "arrive) / wait category (skew between ranks at collectives)", _MPI, _DIST),
    *_layer("mpisim.armed_overhead_ratio", "ratio", "lower", "host",
            "one extra round under the lockstep collective check / unarmed host_s", _SHARDED, "host_s"),
    *_layer("pfs.read_time_calls", "count", "lower", "exact", "SimulatedFilesystem.read_time calls",
            _JOIN + _MISSES, _COLD),
    *_layer("pfs.cost_model_host_s", "s", "lower", "host", "read_time + write_time self time",
            _JOIN + _MISSES, _COLD),
    *_layer("pfs.pread_calls", "count", "lower", "exact", "FileHandle.pread calls", _JOIN + _MISSES, _COLD),
    *_layer("pfs.pread_bytes", "B", "lower", "exact", "bytes those calls returned", _JOIN + _MISSES, _COLD),
    *_layer("io.read_calls", "count", "lower", "exact", "File.read_at* calls", _JOIN, "host_s"),
    *_layer("io.read_bytes", "B", "lower", "exact", "bytes those calls returned", _JOIN, "host_s"),
    *_layer("io.read_host_s", "s", "lower", "host",
            "File.read_at* self time (view expansion lives here; never charged to the clock)",
            _JOIN, "host_s"),
    *_layer("io.read_mb_per_host_s", "MB/s", "higher", "host", "io.read_bytes / io.read_host_s",
            _JOIN, "host_s"),
    *_layer("core.partition_host_s core.grid_assign_host_s core.exchange_host_s core.refine_host_s",
            "s", "lower", "host",
            "self time of MessagePartitioner.read / assign_to_cells / exchange_cells / SpatialJoin.refine",
            _JOIN, "host_s, sim_makespan_s, sim_ops_per_s"),
    *_layer("core.exchange_bytes", "B", "lower", "exact", "alltoall payload bytes", _JOIN,
            "sim_makespan_s"),
    *_layer("core.replication_factor", "ratio", "lower", "exact",
            "geometries held after the exchange / input geometries", _JOIN, "host_s, sim_makespan_s"),
    *_layer("core.join_pairs", "count", "higher", "exact", "result pairs", _JOIN, ""),
    *_layer("core.sim_io_s", "s", "lower", "exact",
            "the Figure 17-20 I/O bar: PhaseBreakdown maximum over ranks", _JOIN, "sim_io_s"),
    *_layer("core.sim_parse_s core.sim_partition_s core.sim_communication_s core.sim_refine_s",
            "s", "lower", "sim",
            "the other Figure 17-20 bars: PhaseBreakdown maxima over ranks", _JOIN, "sim_makespan_s"),
    *_layer("store.open_host_s", "s", "lower", "host", "SpatialDataStore.open self time", _MISSES, _COLD),
    *_layer("store.engine_host_s store.plan_host_s store.refine_host_s", "s", "lower", "host",
            "self time of range_query(_batch) stage loop / QueryPlanner.plan / RefineExecutor.refine",
            _STORE, _SERVE),
    *_layer("store.schedule_host_s store.fetch_host_s store.page_admit_host_s", "s", "lower", "host",
            "self time of IOScheduler.schedule / _fetch_missing / CachedPage.__init__ (CRC + columns)",
            _MISSES, _COLD),
    *_layer("store.pages_read store.read_requests store.pages_prefetched store.cache_evictions",
            "count", "lower", "exact", "StoreStats / CacheStats deltas of one round", _MISSES, _COLD),
    *_layer("store.bytes_read", "B", "lower", "exact", "StoreStats.bytes_read delta", _MISSES, _COLD),
    *_layer("store.records_decoded store.slots_scanned", "count", "lower", "exact",
            "StoreStats deltas of one round", _STORE, _SERVE),
    *_layer("store.hits_returned", "count", "higher", "exact", "hits returned by one round", _STORE, ""),
    *_layer("store.cache_hit_rate", "ratio", "higher", "exact", "cache hits / accesses of one round",
            _STORE, _COLD),
    *_layer("store.filter_selectivity", "ratio", "higher", "exact", "hits / slots scanned", _STORE, _SERVE),
    *_layer("store.coalesce_ratio", "ratio", "higher", "exact", "pages read / read requests", _MISSES, _COLD),
    *_layer("store.read_amp", "ratio", "lower", "exact",
            "bytes read / WKB bytes of the returned hits", ("serve_cold",), _COLD),
    *_layer("store.scheduler.cost_model_sim_io_ratio", "ratio", "lower", "exact",
            "sim_io_s of one extra round with io_policy=cost_model / fixed", ("serve_cold",), "sim_io_s"),
    *_layer("store.sharded.sim_route_s store.sharded.sim_scatter_s store.sharded.sim_local_query_s "
            "store.sharded.sim_gather_s", "s", "lower", "sim", "phase_breakdown() maxima of one round",
            _SHARDED, _DIST),
    *_layer("store.sharded.rank_imbalance", "ratio", "lower", "sim",
            "max / mean local-query seconds over ranks", _SHARDED, "sim_makespan_s"),
    *_layer("store.sharded.root_host_share", "ratio", "lower", "host",
            "rank 0 thread CPU / all rank threads", _SHARDED, "sim_makespan_s, host_s"),
    *_layer("store.sharded.host_overhead_ratio", "ratio", "lower", "host",
            "host_s per query / the same windows on the single store", _SHARDED, "host_s"),
    *_layer("store.frontend.sim_batch_p95_s", "s", "lower", "sim",
            "95th percentile of BatchMetrics.latency (too few samples beyond it to gate)",
            _SHARDED, "sim_batch_p50_s"),
    *_layer("store.frontend.window_mean", "count", "higher", "exact",
            "mean in-flight window at submission", _SHARDED, "sim_makespan_s"),
    *_layer("store.mutable.append_host_s store.mutable.compact_host_s", "s", "lower", "host",
            "StoreAppender.append / compact_store self time", _MUTATE, _WRITE),
    *_layer("store.mutable.sim_write_s", "s", "lower", "exact", "write seconds of appends + compaction",
            _MUTATE, "sim_io_s"),
    *_layer("store.mutable.bytes_written", "B", "lower", "exact",
            "data + index bytes written by appends + compaction", _MUTATE, "sim_io_s"),
    *_layer("store.mutable.write_amp", "ratio", "lower", "exact",
            "bytes written / user WKB bytes appended", _MUTATE, _WRITE),
    *_layer("store.mutable.space_amp", "ratio", "lower", "exact",
            "bytes on disk / live user WKB bytes at the last generation", _MUTATE, _WRITE),
    *_layer("store.mutable.read_amp_g8", "ratio", "lower", "exact",
            "pages read by the query pass at the last generation / after compaction", _MUTATE, _WRITE),
    *_layer("obs.recording_overhead_ratio", "ratio", "lower", "host",
            "one extra round with a recording repro.obs Tracer / untraced host_s", _SHARDED, "host_s"),
    *_layer("harness.trace_overhead_ratio", "ratio", "lower", "host",
            "host_s of the span-traced rounds / untraced rounds of the same run", _ALL, ""),
    *_layer("harness.wall_over_cpu", "ratio", "lower", "host",
            "round wall / round CPU (above 1 flags blocking)", _ALL, ""),
    *_layer("harness.unattributed_host_share", "ratio", "lower", "host",
            "traced round CPU inside no layer span", _ALL, ""),
    *_layer("harness.uncharged_host_share", "ratio", "lower", "host",
            "host CPU never charged to the virtual clock (mpisim workloads)", _MPI, ""),
    *_layer("harness.round_iqr_ratio", "ratio", "lower", "host",
            "quartile distance / median of the untraced rounds' host_s", _ALL, ""),
    *_layer("harness.calibration_s", "s", "lower", "host",
            "raw median time of the calibration kernel beside the traced rounds (nominal 0.1 s)",
            _ALL, ""),
]


def driver_metrics(trace: bool) -> List[Metric]:
    """The metrics the driver's result line carries for ``--trace`` 0 / 1."""
    if trace:
        return PER_LAYER
    return [m for m in END_TO_END if m.workloads == _ALL and m.bound]


def benchmark_json() -> str:
    doc = {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in driver_metrics(False)
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in driver_metrics(True)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


if __name__ == "__main__":
    sys.stdout.write(benchmark_json())
