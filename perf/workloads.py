"""The five closed-loop, single-client workloads (child-process side).

Each workload is built over an on-disk fixture (see :mod:`fixtures`) and
exposes ``measure(seconds, **variant)``: prepare the system under test, run
one warm-up round, then timed rounds until *seconds* have passed (at least
one), ``gc.collect()`` before each.  A round returns a :class:`Round`; the
timed region is exactly the calls into ``repro`` plus reading the record ids
out of the results — digests and oracle checks happen after the clock stops.

There is no think time and one client.  ``serve_sharded`` additionally keeps
the front-end's own window of 4 batches in flight on the virtual clock.  Four
rank threads on two cores are the system under test, not the load generator,
so wall-clock scaling is not reported — only the virtual clock's.
"""

from __future__ import annotations

import gc
import shutil
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.runtime import collective_check
from repro.core import GridPartitionConfig, PartitionConfig, SpatialJoin
from repro.geometry import Envelope, predicates, wkt
from repro.mpisim import Communicator, run_spmd
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.store import (
    AsyncStoreFrontend,
    DistributedStoreServer,
    SpatialDataStore,
    StoreAppender,
    compact_store,
)

import fixtures
from catalog import PER_LAYER
from fixtures import digest
from spans import HARNESS, Recorder

__all__ = ["Round", "WORKLOADS", "Workload"]

NPROCS = 4
#: time of :func:`calibration_kernel` on a quiet run of the reference box
CAL_NOMINAL_S = 0.1
#: per-round counters that are virtual seconds made of measured thread CPU
CPU_DERIVED_COUNTERS = frozenset(
    {m.name for m in PER_LAYER if m.clock == "sim" and m.unit == "s"} | {"_charged_cpu_s"})
#: clock categories that are not ``clock.compute`` blocks (cost-model charges
#: and waiting); every other category is measured thread CPU
NON_COMPUTE_CATEGORIES = ("io", "comm", "wait")


@dataclass
class Round:
    host_s: float
    wall_s: float
    sim_s: float
    sim_io_s: float
    digest: str
    #: ops of this round whose result disagrees with the oracle
    failed: int
    #: wall latency of every single range_query call (us)
    lat_us: List[float] = field(default_factory=list)
    #: virtual latency of every front-end batch (s)
    batch_lat_s: List[float] = field(default_factory=list)
    #: counts and virtual-clock shares for the per-layer table, keyed by
    #: metric name (a leading ``_`` marks an input of a derived ratio)
    counters: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: raw seconds the calibration kernel took beside this round
    cal_s: float = CAL_NOMINAL_S

    def calibrate(self, cal_s: float) -> None:
        """Rescale every CPU-derived number to calibrated seconds; exact
        cost-model charges (``sim_io_s``) and counts stay as they are."""
        self.cal_s = cal_s
        k = CAL_NOMINAL_S / cal_s
        self.host_s *= k
        self.wall_s *= k
        self.sim_s = (self.sim_s - self.sim_io_s) * k + self.sim_io_s
        self.lat_us = [v * k for v in self.lat_us]
        self.batch_lat_s = [v * k for v in self.batch_lat_s]
        for name in CPU_DERIVED_COUNTERS.intersection(self.counters):
            self.counters[name] *= k


_KERNEL_WORDS = [repr(i * 7919 % 10007 / 97.0) for i in range(3000)]


class _KernelBox:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        self.lo, self.hi = lo, hi

    def ordered(self) -> bool:
        return self.lo <= self.hi


def calibration_kernel() -> float:
    """Thread CPU seconds of a fixed piece of pure Python: the machine-speed
    probe.

    The sandbox shares its host: within minutes the same code runs up to 2x
    slower and back.  Timing this kernel beside every round and reporting
    ``seconds x nominal / kernel`` takes that common mode out of every
    CPU-derived number.  Half of it is an arithmetic loop, half the kind of
    work the library does (float parsing, tuples, dict stores, sorting,
    struct packing, small objects) — each half alone tracked one workload
    well and another badly.
    """
    start = time.thread_time()
    x = 0
    for i in range(1_000_000):
        x += i * i % 7
    for _ in range(10):
        values = [float(word) for word in _KERNEL_WORDS]
        pairs = [(values[i], values[i + 1]) for i in range(len(values) - 1)]
        table = {}
        for i, pair in enumerate(pairs):
            table[i & 511] = pair
        pairs.sort()
        struct.unpack(f"<{len(values)}d", struct.pack(f"<{len(values)}d", *values))
        sum(box.lo for box in [_KernelBox(lo, hi) for lo, hi in pairs] if box.ordered())
    return time.thread_time() - start


def timed_rounds(
    round_fn: Callable[[], Any],
    seconds: float,
    mark: Callable[[int], None],
    decide: Callable[[bool], bool] = lambda go: go,
    root: bool = True,
) -> List[Any]:
    """One warm-up round, then rounds until *seconds* have passed, with the
    calibration kernel timed before each and after the last; every round
    comes back calibrated by the two kernel times around it.

    Inside ``run_spmd`` every rank runs this loop; *decide* broadcasts rank
    0's verdict so all ranks stop together, and only *root* collects garbage,
    times the kernel and stamps the round id (while its peers wait in that
    broadcast).
    """
    round_fn()
    rounds: List[Any] = []
    kernel: List[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        go = not rounds or time.perf_counter() < deadline
        if root:
            gc.collect()
            kernel.append(calibration_kernel())
            mark(len(rounds) if go else -1)
        if not decide(go):
            break
        rounds.append(round_fn())
    if root:
        for i, result in enumerate(rounds):
            result.calibrate((kernel[i] + kernel[i + 1]) / 2)
    return rounds


def _sample_failures(ids: Sequence[Sequence[int]], oracle: Dict[str, List[int]]) -> int:
    return sum(sorted(ids[int(i)]) != expected for i, expected in oracle.items())


def _clock_problems(clocks: Sequence[Any]) -> List[str]:
    return [
        f"rank {rank}: clock categories sum to {sum(c.breakdown.values())!r}, now is {c.now!r}"
        for rank, c in enumerate(clocks)
        if abs(sum(c.breakdown.values()) - c.now) > 1e-9 * max(1.0, c.now)
    ]


#: per-layer metric -> the ``comm.attach_metrics`` counter it sums over ranks
_COMM_COUNTERS = {
    "mpisim.p2p_messages": "comm.messages",
    "mpisim.p2p_bytes": "comm.bytes_sent",
    "mpisim.collectives": "comm.collectives",
    "mpisim.collective_bytes": "comm.bytes_collective",
}


def _comm_counts(snapshots: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Every rank's ``comm.attach_metrics`` counters, summed."""
    return {name: sum(snap.get(key, 0) for snap in snapshots)
            for name, key in _COMM_COUNTERS.items()}


def _clock_shares(before: Sequence[Dict[str, float]],
                  after: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Virtual-clock movement over ranks: the ``comm`` / ``wait`` maxima and
    the summed CPU share (everything ``clock.compute`` charged)."""
    moved = [{cat: a[cat] - b.get(cat, 0.0) for cat in a} for b, a in zip(before, after)]
    return {
        "mpisim.sim_comm_s": max(m.get("comm", 0.0) for m in moved),
        "mpisim.sim_wait_s": max(m.get("wait", 0.0) for m in moved),
        "_charged_cpu_s": sum(seconds for m in moved for cat, seconds in m.items()
                              if cat not in NON_COMPUTE_CATEGORIES),
    }


def _store_counts(stats: Dict[str, float], ids: List[List[int]],
                  wkb_len: Optional[List[int]] = None) -> Dict[str, float]:
    """Per-layer counts of one round from a ``StoreStats.as_dict()`` movement
    and the record ids returned per query."""
    out = {f"store.{key}": stats[key] for key in (
        "pages_read", "bytes_read", "read_requests", "pages_prefetched",
        "records_decoded", "slots_scanned", "cache_evictions")}
    out.update({
        "store.hits_returned": sum(len(q) for q in ids),
        "_cache_hits": stats["cache_hits"],
        "_cache_misses": stats["cache_misses"],
        "_hit_wkb_bytes": sum(wkb_len[rid] for q in ids for rid in q) if wkb_len else 0,
    })
    return out


def _answer(ids: List[List[int]]) -> str:
    """Digest of a pass: every ``(query, record id)`` it returned."""
    return digest((q, rid) for q, hits in enumerate(ids) for rid in hits)


class Workload:
    def __init__(self, fixture: Dict[str, Any], root: Path) -> None:
        self.fx = fixture
        self.root = root
        self.fs = fixtures.open_fs(root)
        self.ops: int = fixture["ops"]
        #: span recorder of the traced pass (``None`` = untraced)
        self.rec: Optional[Recorder] = None

    def measure(self, seconds: float, **variant: Any) -> List[Round]:
        raise NotImplementedError

    def mark(self, rnd: int) -> None:
        if self.rec is not None:
            self.rec.round = rnd

    def rooted(self, fn: Callable) -> Callable:
        """*fn* under a ``harness`` root span when tracing (one per thread
        per round), so CPU outside every layer span is still accounted."""
        return self.rec.wrap(HARNESS, fn) if self.rec is not None else fn


# ---------------------------------------------------------------------- #
class PipelineJoin(Workload):
    """``SpatialJoin.run`` Lakes x Cemetery: WKT on the Lustre model, 4 ranks,
    64 cells, 64 KiB blocks, message strategy."""

    def measure(self, seconds: float) -> List[Round]:
        return timed_rounds(self.round, seconds, self.mark)

    def _rank(self, comm: Communicator, registries: List[MetricsRegistry]) -> Tuple:
        if self.rec is not None:
            comm.attach_metrics(registries[comm.rank])
        join = SpatialJoin(
            self.fs,
            predicate=predicates.intersects,
            partition_config=PartitionConfig(block_size=64 * 1024),
            grid_config=GridPartitionConfig(num_cells=64),
            strategy="message",
        )
        result = join.run(comm, "datasets/lakes.wkt", "datasets/cemetery.wkt")
        return ([pair.keys() for pair in result.local_results],
                result.local_geometries, result.breakdown.as_dict())

    def round(self) -> Round:
        registries = [MetricsRegistry() for _ in range(NPROCS)]
        launch = self.rooted(lambda: run_spmd(self.rooted(self._rank), NPROCS, registries))
        cpu0, wall0 = time.process_time(), time.perf_counter()
        run = launch()
        host, wall = time.process_time() - cpu0, time.perf_counter() - wall0

        pairs = [pair for value in run.values for pair in value[0]]
        found = digest(pairs)
        phases = [value[2] for value in run.values]
        counters = {f"core.sim_{p}_s": max(ph[p] for ph in phases)
                    for p in ("io", "parse", "partition", "communication", "refine")}
        if self.rec is not None:
            counters.update(_comm_counts([r.snapshot()["counters"] for r in registries]))
        counters.update(_clock_shares([{}] * NPROCS, [c.breakdown for c in run.clocks]))
        counters.update({
            "core.join_pairs": len(pairs),
            "core.replication_factor": sum(value[1] for value in run.values) / self.ops,
        })
        return Round(host, wall, run.max_time, run.max_category("io"), found,
                     0 if found == self.fx["digest"] else self.ops,
                     counters=counters, problems=_clock_problems(run.clocks))


# ---------------------------------------------------------------------- #
class _SingleStore(Workload):
    """Shared by the single-process store workloads: a pass of single
    ``range_query`` calls, each timed on the wall clock."""

    def __init__(self, fixture: Dict[str, Any], root: Path) -> None:
        super().__init__(fixture, root)
        self.windows = [Envelope(*w) for w in fixture["windows"]]

    def query_pass(self, store: SpatialDataStore) -> Tuple[List[float], List[List[int]]]:
        latencies: List[float] = []
        ids: List[List[int]] = []
        query = store.range_query
        clock = time.perf_counter
        for window in self.windows:
            start = clock()
            hits = query(window)
            latencies.append((clock() - start) * 1e6)
            ids.append([hit.record_id for hit in hits])
        return latencies, ids

    def open_and_serve(self, fs: Any, name: str, cache_pages: int,
                       **knobs: Any) -> Tuple[List[float], List[List[int]], Dict[str, float]]:
        """Fresh open, one pass, close: ``(latencies, ids, the store's stats)``."""
        with SpatialDataStore.open(fs, name, cache_pages=cache_pages, **knobs) as store:
            latencies, ids = self.query_pass(store)
            return latencies, ids, store.stats.as_dict()


class ServeWarm(_SingleStore):
    """One store opened once with a cache larger than the data and
    pre-warmed; a round is one pass over the windows."""

    cache_pages = 4096

    def measure(self, seconds: float) -> List[Round]:
        if self.fx["num_pages"] >= self.cache_pages:
            raise ValueError("serve_warm needs a cache larger than the store")
        with SpatialDataStore.open(self.fs, "lakes", cache_pages=self.cache_pages) as store:
            return timed_rounds(lambda: self.round(store), seconds, self.mark)

    def round(self, store: SpatialDataStore) -> Round:
        before = store.stats.as_dict()
        run = self.rooted(self.query_pass)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        latencies, ids = run(store)
        host, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        after = store.stats.as_dict()
        delta = {key: after[key] - before[key] for key in after}
        return Round(host, wall, host + delta["io_seconds"], delta["io_seconds"],
                     _answer(ids), _sample_failures(ids, self.fx["oracle"]),
                     lat_us=latencies,
                     counters=_store_counts(delta, ids))


class ServeCold(_SingleStore):
    """Every round a fresh open with a cache well below the working set
    (11 % of the pages), then the windows (half uniform, half around 8 hot
    spots)."""

    def measure(self, seconds: float, io_policy: str = "fixed") -> List[Round]:
        return timed_rounds(lambda: self.round(io_policy), seconds, self.mark)

    def round(self, io_policy: str) -> Round:
        run = self.rooted(self.open_and_serve)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        latencies, ids, stats = run(self.fs, "lakes", self.fx["cold_cache_pages"],
                                    io_policy=io_policy)
        host, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        problems = []
        if io_policy == "fixed" and not 0.3 <= stats["cache_hit_rate"] <= 0.7:
            problems.append(f"cache hit rate {stats['cache_hit_rate']:.3f} left [0.3, 0.7]: "
                            "the cache no longer sits below the working set")
        return Round(host, wall, host + stats["io_seconds"], stats["io_seconds"],
                     _answer(ids), _sample_failures(ids, self.fx["oracle"]),
                     lat_us=latencies,
                     counters=_store_counts(stats, ids, self.fx["wkb_len"]),
                     problems=problems)


# ---------------------------------------------------------------------- #
class ServeSharded(Workload):
    """The serve_warm windows in batches through ``AsyncStoreFrontend`` over a
    4-shard ``DistributedStoreServer``, inside one ``run_spmd``."""

    def __init__(self, fixture: Dict[str, Any], root: Path) -> None:
        super().__init__(fixture, root)
        windows = [Envelope(*w) for w in fixture["windows"]]
        size = fixture["batch"]
        self.batches = [
            [(start + i, env) for i, env in enumerate(windows[start:start + size])]
            for start in range(0, len(windows), size)
        ]

    def measure(self, seconds: float, armed: bool = False, obs: bool = False) -> List[Round]:
        """*armed* runs under the lockstep collective verifier, *obs* with a
        recording ``repro.obs`` tracer on every rank."""
        with collective_check(armed):
            run = run_spmd(self._rank, NPROCS, seconds, obs, timeout=None)
        return run.values[0]

    def _rank(self, comm: Communicator, seconds: float, obs: bool) -> List[Round]:
        tracer = Tracer(clock=comm.clock, rank=comm.rank) if obs else None
        with DistributedStoreServer.open(comm, self.fs, "lakes4", cache_pages=2048,
                                         tracer=tracer) as server:
            frontend = AsyncStoreFrontend(server, max_in_flight=4)
            return timed_rounds(
                lambda: self._round(comm, server, frontend, tracer),
                seconds, self.mark,
                decide=lambda go: comm.bcast(go, root=0), root=comm.rank == 0,
            )

    def _round(self, comm: Communicator, server: DistributedStoreServer,
               frontend: AsyncStoreFrontend, tracer: Optional[Tracer]) -> Optional[Round]:
        # the collectives that collect statistics run outside the timed
        # region and outside the window the counters and clocks are read in
        stats0 = server.aggregate_stats()["aggregate"]
        if tracer is not None:
            tracer.clear()
        registry = MetricsRegistry()
        serve = self.rooted(frontend.serve)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        # no rank starts serving before rank 0 has read its clocks
        comm.barrier()
        if self.rec is not None:
            comm.attach_metrics(registry)
        before = (dict(server.phases), dict(comm.clock.breakdown))
        result = serve(self.batches if comm.rank == 0 else None)
        host, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        after = (dict(server.phases), dict(comm.clock.breakdown))
        comm.detach_metrics()
        ranks = comm.allgather((before, after, registry.snapshot()["counters"]))
        stats1 = server.aggregate_stats()["aggregate"]
        if result is None:
            return None

        ids: List[List[int]] = [[] for _ in range(self.ops)]
        for hits in result.batches:
            for hit in hits:
                ids[hit.query_id].append(hit.record_id)
        delta = {key: stats1[key] - stats0.get(key, 0.0) for key in stats1}
        per_rank = [{name: p1[name] - p0[name] for name in p1}
                    for (p0, _), (p1, _), _ in ranks]
        local = [p["local_query"] for p in per_rank]
        counters = _store_counts(delta, ids)
        counters.update({f"store.sharded.sim_{name}_s": max(p[name] for p in per_rank)
                         for name in per_rank[0]})
        if self.rec is not None:
            counters.update(_comm_counts([sent for _, _, sent in ranks]))
        counters.update(_clock_shares([c0 for (_, c0), _, _ in ranks],
                                      [c1 for _, (_, c1), _ in ranks]))
        counters.update({
            "store.sharded.rank_imbalance": max(local) / (sum(local) / len(local)),
            "store.frontend.window_mean": sum(result.windows) / len(result.windows),
        })
        return Round(host, wall, result.makespan, delta["io_seconds"],
                     _answer(ids), _sample_failures(ids, self.fx["oracle"]),
                     batch_lat_s=[m.latency for m in result.metrics], counters=counters)


# ---------------------------------------------------------------------- #
class MutateServe(_SingleStore):
    """On a private copy of the base store: per step one ``StoreAppender.append``
    (new records + deletes + updates) and a fresh-open query pass; then
    ``compact_store`` and one more pass."""

    def __init__(self, fixture: Dict[str, Any], root: Path) -> None:
        super().__init__(fixture, root)
        self.steps = [
            ([wkt.loads(record) for record in step["records"]], step["record_ids"],
             step["deletes"], step["oracle"])
            for step in fixture["steps"]
        ]

    def measure(self, seconds: float) -> List[Round]:
        return timed_rounds(self.round, seconds, self.mark)

    def _mutate_and_serve(self, fs: Any) -> Tuple[List[Any], List[Tuple], int]:
        """The timed region: what every append and the compaction reported,
        every query pass, and the store's size on disk before compaction."""
        writes: List[Any] = []
        passes: List[Tuple] = []
        for geoms, record_ids, deletes, _ in self.steps:
            writes.append(StoreAppender(fs, "mut").append(geoms, deletes=deletes,
                                                          record_ids=record_ids))
            passes.append(self.open_and_serve(fs, "mut", 256))
        disk_bytes = sum(p.stat().st_size for p in fs.backing_path("stores/mut").iterdir())
        writes.append(compact_store(fs, "mut"))
        passes.append(self.open_and_serve(fs, "mut", 256))
        return writes, passes, disk_bytes

    def round(self) -> Round:
        private = self.root / "private"
        shutil.copytree(self.root / "fs", private / "fs")
        try:
            run = self.rooted(self._mutate_and_serve)
            cpu0, wall0 = time.process_time(), time.perf_counter()
            writes, passes, disk_bytes = run(fixtures.open_fs(private))
            host, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        finally:
            shutil.rmtree(private)

        # the pass after compaction must answer like the last generation did
        oracles = [step[3] for step in self.steps] + [self.steps[-1][3]]
        failed = sum(_sample_failures(ids, oracle) for (_, ids, _), oracle in zip(passes, oracles))
        failed += sum(before != after for before, after in zip(passes[-2][1], passes[-1][1]))
        stats: Dict[str, float] = {}
        for _, _, pass_stats in passes:
            for key, value in pass_stats.items():
                stats[key] = stats.get(key, 0.0) + value
        ids = [hits for _, pass_ids, _ in passes for hits in pass_ids]
        written = sum(w.data_bytes + w.index_bytes for w in writes)
        write_s = sum(w.write_seconds for w in writes)
        sim_io = stats["io_seconds"] + write_s
        counters = _store_counts(stats, ids)
        counters.update({
            "store.mutable.sim_write_s": write_s,
            "store.mutable.bytes_written": written,
            "store.mutable.write_amp": written / self.fx["appended_user_bytes"],
            "store.mutable.space_amp": disk_bytes / self.fx["live_user_bytes"],
            "store.mutable.read_amp_g8":
                passes[-2][2]["pages_read"] / max(1, passes[-1][2]["pages_read"]),
        })
        return Round(host, wall, host + sim_io, sim_io, _answer(ids), failed,
                     lat_us=[v for latencies, _, _ in passes for v in latencies],
                     counters=counters)


WORKLOADS = {
    "pipeline_join": PipelineJoin,
    "serve_warm": ServeWarm,
    "serve_cold": ServeCold,
    "serve_sharded": ServeSharded,
    "mutate_serve": MutateServe,
}
