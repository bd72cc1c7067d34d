"""Distributed serving of `repro.store`.

The single-process :class:`~repro.store.datastore.SpatialDataStore` serves
one shard directory from one page cache; the paper's end-to-end
applications (§5–§6) are multi-rank.  This module closes the gap:

* :func:`read_shards_manifest` reads a store's ``shards.json`` — every store
  has one (:func:`~repro.store.writer.bulk_load` splits the grid into
  contiguous runs of partitions balanced by record count, each shard a
  normal ``data.bin``/``index.bin``/``manifest.json`` triple).
* :class:`DistributedStoreServer` opens one shard (run) per ``mpisim`` rank
  and serves batch range queries and joins SPMD-style: the router prunes the
  shard list via per-shard extents, query batches are scattered with the
  existing :class:`~repro.mpisim.comm.Communicator` collectives, ranks
  answer locally through their LRU page caches, and results are gathered and
  de-duplicated on logical ``record_id`` (replicas of a geometry may live in
  multiple shards).

Every serving call records a virtual-clock phase breakdown
(``route`` / ``scatter`` / ``local_query`` / ``gather``) so benchmarks can
report per-phase time like the paper's Fig. 9-style breakdowns.
"""

from __future__ import annotations

import pickle
import struct
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from ..geometry import Envelope, Geometry, predicates
from ..geometry.wkb import encoded_size
from ..mpisim import Communicator, payload_nbytes
from ..obs.explain import DistributedExplainReport, build_distributed_explain
from ..obs.metrics import MetricsRegistry, merge_snapshots
from ..obs.trace import NULL_TRACER, Tracer
from ..pfs import ReadRequest, SimulatedFilesystem
from .datastore import QueryHit, SpatialDataStore
from .engine import BatchOutcome, DeadlineExceeded
from .format import StoreError, StoreFormatError
from .manifest import ShardInfo, ShardsManifest, shards_path
from .router import ShardRouter, shard_assignment
from .scheduler import DEFAULT_RETRY, RetryPolicy, read_with_retry

__all__ = [
    "DistributedHit",
    "DistributedStoreServer",
    "QueryResult",
    "ShardError",
    "read_shards_manifest",
]


class ShardError(StoreError):
    """A store failure attributed to one shard of a sharded store."""

    def __init__(self, message: str, shard_id: int, store: str) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.store = store

Predicate = Callable[[Geometry, Geometry], bool]

#: one matched record on the wire: ``(batch position, record id, shard,
#: partition, page, geometry)`` — the query id stays with rank 0's batch
Row = Tuple[int, int, int, int, int, Geometry]
#: wire bytes of a row's five 8-byte id columns
ROW_ID_BYTES = 40
#: wire bytes of a range-query plan entry: its batch position and the window
#: (the paper's ``MPI_RECT``, four doubles)
WINDOW_ENTRY_BYTES = 8 + 32
#: one unserved shard portion: ``(shard, missing partitions, affected batch
#: positions, cause, fatal)``
Failure = Tuple[int, List[int], List[int], str, bool]

#: phase names every serving call charges (in order)
SERVING_PHASES = ("route", "scatter", "local_query", "gather")

#: low-level exceptions a corrupted shard file may surface as; the server
#: converts them into a StoreError naming the shard.  StoreError covers
#: checksum / quarantine / retry-exhaustion failures raised by the page
#: cache itself, so a bit-flipped page is still attributed to its shard.
_SHARD_DECODE_ERRORS = (
    StoreError,
    StoreFormatError,
    struct.error,
    pickle.UnpicklingError,
    EOFError,
    IndexError,
    ValueError,
)


def read_shards_manifest(
    fs: SimulatedFilesystem, name: str, policy: RetryPolicy = DEFAULT_RETRY
) -> Tuple[ShardsManifest, float]:
    """Read store *name*'s ``shards.json`` — the one reader of that file,
    shared by serving, appends and compaction.

    Transient faults are absorbed under *policy* (exhausted attempts raise
    :class:`~repro.store.format.StoreError` naming the path).  Returns the
    manifest and the simulated seconds the read cost: retry backoff plus the
    open and the whole-file read.
    """
    path = shards_path(name)
    if not fs.exists(path):
        raise FileNotFoundError(f"store {name!r} is missing {path!r}; run bulk_load first")
    with fs.open(path) as fh:
        raw, seconds, _ = read_with_retry(fh, policy=policy)
    seconds += fs.open_time()
    seconds += fs.read_time(path, [ReadRequest(0, ((0, len(raw)),))])
    return ShardsManifest.from_json(raw), seconds


# --------------------------------------------------------------------------- #
# serving
# --------------------------------------------------------------------------- #
class DistributedHit(NamedTuple):
    """One de-duplicated record matched by a distributed query."""

    query_id: Any
    record_id: int
    geometry: Geometry
    shard_id: int
    partition_id: int
    page_id: int


@dataclass
class QueryResult:
    """A distributed batch answer with explicit completeness accounting.

    Returned by :meth:`DistributedStoreServer.range_query_batch` when the
    caller opts into degraded serving (``partial_ok`` and/or ``deadline``).
    ``complete=True`` means the hits are exactly what a fault-free run would
    return; otherwise ``missing_shards`` / ``missing_partitions`` name the
    data that could not be consulted and ``degraded_queries`` lists the
    batch positions whose answers may be missing records.
    """

    hits: List[DistributedHit]
    complete: bool = True
    missing_shards: List[int] = field(default_factory=list)
    missing_partitions: List[int] = field(default_factory=list)
    degraded_queries: List[int] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    def __iter__(self) -> Iterator[DistributedHit]:
        return iter(self.hits)

    def __len__(self) -> int:
        return len(self.hits)


def body_nbytes(geom: Geometry) -> int:
    """Wire bytes of one geometry: the WKB a real exchange would ship (by
    arithmetic, nothing is encoded) plus its userdata."""
    return encoded_size(geom) + payload_nbytes(geom.userdata)


def entry_nbytes(entry: Tuple[int, Optional[Geometry], Envelope]) -> int:
    """Wire bytes of one plan entry ``(batch position, probe, window)``: a
    range query has no probe and ships :data:`WINDOW_ENTRY_BYTES`; a join
    entry ships its position and the probe, which carries the window."""
    return WINDOW_ENTRY_BYTES if entry[1] is None else 8 + body_nbytes(entry[1])


class SizedList(list):
    """A list that knows its wire size.  ``mpisim`` hands payloads between
    rank threads by reference and prices a message by its ``nbytes``, so a
    sized payload is never pickled just to be measured."""

    __slots__ = ("nbytes",)

    def __init__(self, items: Iterable[Any] = (), nbytes: int = 0) -> None:
        super().__init__(items)
        self.nbytes = nbytes


class ShardRows(SizedList):
    """One rank's answer to one batch — the gather payload of every serving
    call: its :data:`Row` tuples plus the shard portions it could not serve
    (``failures``, empty in strict mode).  ``nbytes`` is
    :data:`ROW_ID_BYTES` + :func:`body_nbytes` per row, and per failure 16 +
    8 per listed partition and batch position + the cause text."""

    __slots__ = ("failures",)

    def __init__(self) -> None:
        super().__init__()
        self.failures: List[Failure] = []

    def add_hits(self, idx: int, sid: int, hits: Sequence[QueryHit]) -> None:
        """Append shard *sid*'s *hits* of the plan entry at batch position *idx*."""
        self.nbytes += ROW_ID_BYTES * len(hits) + sum(body_nbytes(h.geometry) for h in hits)
        self.extend(
            [(idx, h.record_id, sid, h.partition_id, h.page_id, h.geometry) for h in hits]
        )

    def fail(
        self, sid: int, partitions: List[int], positions: List[int], cause: str, fatal: bool
    ) -> None:
        self.failures.append((sid, partitions, positions, cause, fatal))
        self.nbytes += 16 + 8 * (len(partitions) + len(positions)) + payload_nbytes(cause)


def merge_rows(payloads: Iterable[List[Row]], qids: Sequence[Any]) -> List[DistributedHit]:
    """De-duplicate gathered rows on ``(batch position, record id)``: one
    sort on the id columns, the first row of each run kept — the lowest
    ``(shard, partition, page)`` replica wins by construction.  *qids* maps
    a batch position to its query id, which never travelled."""
    hits: List[DistributedHit] = []
    last = None
    # the key stops at the page column: geometries are never compared
    for row in sorted(chain.from_iterable(payloads), key=itemgetter(0, 1, 2, 3, 4)):
        if row[:2] != last:
            last = row[:2]
            idx, record_id, sid, partition, page, geom = row
            hits.append(DistributedHit(qids[idx], record_id, geom, sid, partition, page))
    return hits


class DistributedStoreServer:
    """SPMD facade serving one sharded store across ``mpisim`` ranks.

    Construct it inside an SPMD target function via :meth:`open`; every rank
    of the communicator must participate in every serving call (they are
    collectives).  Rank 0 is the *router*: it supplies the query batch,
    receives the gathered results and performs the record-id de-dup; other
    ranks pass ``None`` batches and receive ``None`` results.

    Shards are assigned to ranks contiguously (see
    :func:`repro.store.router.shard_assignment`); with fewer ranks than
    shards a rank serves several shards, with more ranks than shards the
    extra ranks only take part in the collectives.
    """

    def __init__(
        self,
        comm: Communicator,
        fs: SimulatedFilesystem,
        manifest: ShardsManifest,
        tracer=None,
        allow_degraded: bool = False,
        **store_options: Any,
    ) -> None:
        self.comm = comm
        self.fs = fs
        self.manifest = manifest
        self.router = ShardRouter(manifest)
        self.assignment = shard_assignment(manifest.num_shards, comm.size)
        self.my_shards = sorted(
            sid for sid, rank in self.assignment.items() if rank == comm.rank
        )
        #: this rank's span recorder (:data:`~repro.obs.trace.NULL_TRACER`
        #: unless one is injected); shard stores share it, so engine spans
        #: nest under the serving phases
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: server-level metrics (per-shard query heat etc.) — distinct from
        #: the per-store registries, merged by :meth:`aggregate_metrics`
        self.metrics = MetricsRegistry()
        self._shard_heat: Dict[int, Any] = {}
        self.stores: Dict[int, SpatialDataStore] = {}
        #: cumulative per-phase simulated seconds on this rank
        self.phases: Dict[str, float] = {name: 0.0 for name in SERVING_PHASES}
        self.queries_served = 0
        #: with ``allow_degraded`` a shard whose primary *and* every replica
        #: fail is recorded here instead of aborting the open/serving call;
        #: degraded-mode queries report its partitions as missing
        self.allow_degraded = allow_degraded
        self.dead_shards: Dict[int, ShardError] = {}
        #: serving keywords of :class:`SpatialDataStore` (``cache_pages``,
        #: ``io_policy``, ``retry_policy``), forwarded to every shard store
        #: this rank opens
        self._store_options = store_options
        #: remaining untried replica store names per shard, in failover order
        self._spare_stores: Dict[int, List[str]] = {
            sid: list(manifest.shards[sid].replica_stores) for sid in self.my_shards
        }
        self._failovers = self.metrics.counter("server.failovers")
        self._degraded = self.metrics.counter("server.degraded_queries")
        #: final metric snapshots of stores retired by failover — without
        #: them a failed primary's retries / checksum failures would vanish
        #: from :meth:`aggregate_metrics` the moment it is replaced
        self._retired_metrics: List[Dict[str, Any]] = []
        for sid in self.my_shards:
            self._open_with_failover(manifest.shards[sid])

    # ------------------------------------------------------------------ #
    @classmethod
    def open(
        cls,
        comm: Communicator,
        fs: SimulatedFilesystem,
        name: str,
        **options: Any,
    ) -> "DistributedStoreServer":
        """Collectively open a store: rank 0 reads ``shards.json`` and
        broadcasts it, then every rank opens its assigned shards (delta
        generations stacked by :class:`~repro.store.mutable.StoreAppender`
        included — each shard store opens its own deltas, so distributed
        serving reads appended data with no extra plumbing).  *options*
        are the keywords of :meth:`__init__`: the serving keywords of
        :class:`SpatialDataStore` are forwarded to every shard's
        :meth:`SpatialDataStore.open`.

        *tracer* is this rank's :class:`~repro.obs.trace.Tracer` (e.g.
        ``Tracer(clock=comm.clock, rank=comm.rank)``); the default null
        tracer keeps serving allocation-free."""
        # A missing or unreadable shards.json rides the manifest broadcast
        # instead of raising on rank 0 alone (SPMD005): every rank learns of
        # the failure from the same bcast and raises in lockstep, rather than
        # workers blocking in a collective their root already abandoned.
        manifest: Optional[ShardsManifest] = None
        error: Optional[Exception] = None
        if comm.rank == 0:
            try:
                manifest, seconds = read_shards_manifest(
                    fs, name, options.get("retry_policy") or DEFAULT_RETRY
                )
                comm.clock.advance(seconds, category="io")
            except (FileNotFoundError, StoreError) as exc:
                error = exc
        manifest, error = comm.bcast((manifest, error), root=0)
        if error is not None:
            raise error
        return cls(comm, fs, manifest, **options)

    def close(self) -> None:
        for store in self.stores.values():
            store.close()

    def __enter__(self) -> "DistributedStoreServer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # error containment
    # ------------------------------------------------------------------ #
    @contextmanager
    def _shard_guard(self, shard: ShardInfo, action: str) -> Iterator[None]:
        """Convert low-level decode failures into a ShardError naming the
        shard, so corruption never surfaces as a raw struct/pickle exception
        in the middle of a collective."""
        try:
            yield
        except ShardError:  # already attributed by a nested guard
            raise
        except _SHARD_DECODE_ERRORS as exc:
            raise ShardError(
                f"shard {shard.shard_id} ({shard.store!r}) of store "
                f"{self.manifest.name!r} failed during {action}: {exc}",
                shard_id=shard.shard_id,
                store=shard.store,
            ) from exc

    # ------------------------------------------------------------------ #
    # replica failover
    # ------------------------------------------------------------------ #
    def _open_store(self, shard: ShardInfo, store_name: str) -> SpatialDataStore:
        store = SpatialDataStore.open(
            self.fs, store_name, tracer=self.tracer, **self._store_options
        )
        self.comm.clock.advance(store.stats.io_seconds, category="io")
        return store

    def _open_copy(
        self, shard: ShardInfo, names: Sequence[str], action: str
    ) -> Tuple[Optional[SpatialDataStore], Optional[ShardError]]:
        """Install the first store of *names* that opens as *shard*'s
        serving copy; returns it (or ``None`` plus the first error).  Every
        replica tried is struck off the shard's spare list for good, and a
        replica that opens counts one failover and emits the ``failover``
        span."""
        sid = shard.shard_id
        spares = self._spare_stores.get(sid, [])
        first_error: Optional[ShardError] = None
        for store_name in names:
            is_replica = store_name in spares
            if is_replica:
                spares.remove(store_name)
            try:
                with self._shard_guard(shard, f"{action} ({store_name!r})"):
                    try:
                        store = self._open_store(shard, store_name)
                    except OSError as exc:  # missing/unreadable file
                        raise StoreError(str(exc)) from exc
            except ShardError as exc:
                first_error = first_error or exc
                continue
            if is_replica:
                self._failovers.inc()
                with self.tracer.span(
                    "failover", shard=sid, replica=store_name, action=action
                ):
                    pass
            self.stores[sid] = store
            return store, None
        return None, first_error

    def _mark_dead(self, sid: int, error: ShardError) -> None:
        """Shard *sid* is out of copies: raise *error*, or record the shard
        dead when degraded mode allows."""
        if not self.allow_degraded:
            raise error
        self.dead_shards[sid] = error

    def _open_with_failover(self, shard: ShardInfo) -> Optional[SpatialDataStore]:
        """Open *shard* from its primary store, falling back to each read
        replica in order.  All copies failing raises the primary's
        ShardError — unless ``allow_degraded``, which records the shard as
        dead and returns None (degraded queries then report its partitions
        as missing instead of aborting)."""
        sid = shard.shard_id
        store, error = self._open_copy(
            shard, [shard.store] + self._spare_stores.get(sid, []), "open"
        )
        if store is None:
            self._mark_dead(sid, error)
        return store

    def _failover(self, sid: int, cause: Exception, action: str) -> bool:
        """Replace shard *sid*'s store with the next untried replica after a
        serving-time failure.  Returns True when a replacement is in place
        (caller should retry), False when the shard is out of copies (it is
        then recorded dead if degraded mode allows, else *cause* re-raises).
        """
        old = self.stores.pop(sid, None)
        if old is not None:
            self._retired_metrics.append(old.metrics.snapshot())
            old.close()
        shard = self.manifest.shards[sid]
        store, _ = self._open_copy(shard, list(self._spare_stores.get(sid, ())), action)
        if store is not None:
            return True
        self._mark_dead(
            sid,
            cause if isinstance(cause, ShardError) else ShardError(
                f"shard {sid} ({shard.store!r}) of store {self.manifest.name!r} "
                f"failed during {action}: {cause}",
                shard_id=sid,
                store=shard.store,
            ),
        )
        return False

    # ------------------------------------------------------------------ #
    # phase bookkeeping
    # ------------------------------------------------------------------ #
    def _charge_phase(self, name: str, since: float) -> float:
        now = self.comm.clock.now
        self.phases[name] += now - since
        return now

    def _store_io_seconds(self) -> float:
        return sum(store.stats.io_seconds for store in self.stores.values())

    def phase_breakdown(self) -> Dict[str, float]:
        """Per-phase simulated seconds, the maximum over all ranks
        (collective) — the convention of the paper's stacked phase plots."""
        gathered = self.comm.allgather(dict(self.phases))
        return {name: max(g[name] for g in gathered) for name in SERVING_PHASES}

    def aggregate_stats(self) -> Dict[str, Any]:
        """Serving statistics aggregated across all ranks (collective).

        Each rank contributes one snapshot per shard store it owns — a
        rank's page cache is counted exactly once no matter how many times
        this is called, because snapshots are absolute counters, not deltas.
        The cache hit rate is recomputed from the summed counters (a mean of
        per-rank rates would weight idle ranks equally with busy ones).
        """
        local: Dict[str, float] = {}
        for store in self.stores.values():
            for key, value in store.stats.as_dict().items():
                local[key] = local.get(key, 0.0) + value
        local.pop("cache_hit_rate", None)
        per_rank = self.comm.allgather(local)
        total: Dict[str, float] = {}
        for snapshot in per_rank:
            for key, value in snapshot.items():
                total[key] = total.get(key, 0.0) + value
        accesses = total.get("cache_hits", 0.0) + total.get("cache_misses", 0.0)
        total["cache_hit_rate"] = total.get("cache_hits", 0.0) / accesses if accesses else 0.0
        return {"aggregate": total, "per_rank": per_rank}

    def aggregate_metrics(self) -> Dict[str, Any]:
        """Merged metrics snapshot over every rank's server **and** store
        registries (collective).  Counters sum, histograms merge
        bucket-wise; snapshots are absolute state, so
        repeated calls are idempotent — the ``aggregate_stats`` convention,
        now for every metric including per-partition / per-shard heat
        (partition and shard ids are global, so same-key counters from
        different ranks sum into one coherent heat map).
        """
        local = merge_snapshots(
            [self.metrics.snapshot()]
            + [store.metrics.snapshot() for store in self.stores.values()]
            + self._retired_metrics
        )
        return merge_snapshots(self.comm.allgather(local))

    def collect_trace(
        self, clear: bool = False
    ) -> Optional[List[Dict[str, Any]]]:
        """Gather every rank's finished spans on rank 0 (collective), sorted
        by ``(start, span_id)``.  ``clear=True`` also drops each rank's local
        span buffer afterwards, so successive serving calls can be collected
        batch by batch.  Returns ``None`` on non-root ranks.
        """
        local = self.tracer.export() if self.tracer.enabled else []
        gathered = self.comm.gather(local, root=0)
        if clear and self.tracer.enabled:
            self.tracer.clear()
        if self.comm.rank != 0:
            return None
        spans = [span for chunk in gathered or [] for span in chunk]
        spans.sort(key=lambda s: (s["start"], s["span_id"]))
        return spans

    def explain_batch(
        self,
        queries: Optional[Sequence[Tuple[Any, Envelope]]],
        exact: bool = True,
    ) -> Optional[DistributedExplainReport]:
        """EXPLAIN-by-executing for a distributed batch (collective).

        Every rank swaps in a recording tracer (server + its shard stores),
        serves the batch through :meth:`range_query_batch` for real, and
        ships its spans plus per-shard stats deltas to rank 0, which folds
        them into a :class:`~repro.obs.explain.DistributedExplainReport`
        whose ``stats_delta`` equals the batch's aggregate
        :class:`~repro.store.datastore.StoreStats` movement by construction.
        Rank 0 supplies *queries* and receives the report; other ranks pass
        ``None`` and get ``None``.
        """
        tracer = Tracer(clock=self.comm.clock, rank=self.comm.rank)
        saved_server = self.tracer
        saved_stores = {sid: st.tracer for sid, st in self.stores.items()}
        self.tracer = tracer
        for store in self.stores.values():
            store.tracer = tracer
        stats_before = {sid: st.stats.as_dict() for sid, st in self.stores.items()}
        heat_before = {
            sid: self.metrics.counter("server.shard_heat", shard=sid).value
            for sid in self.my_shards
        }
        try:
            hits = self.range_query_batch(queries, exact=exact)
        finally:
            self.tracer = saved_server
            for sid, store in self.stores.items():
                store.tracer = saved_stores[sid]

        rank_delta: Dict[str, float] = {}
        shards: Dict[int, Dict[str, Any]] = {}
        for sid, store in self.stores.items():
            after = store.stats.as_dict()
            delta = {
                key: after[key] - stats_before[sid].get(key, 0)
                for key in after
                if not key.endswith("hit_rate")
            }
            for key, value in delta.items():
                rank_delta[key] = rank_delta.get(key, 0) + value
            shards[sid] = {
                "rank": self.comm.rank,
                "entries": int(
                    self.metrics.counter("server.shard_heat", shard=sid).value
                    - heat_before[sid]
                ),
                "records_decoded": delta.get("records_decoded", 0),
                "read_requests": delta.get("read_requests", 0),
                "slots_scanned": delta.get("slots_scanned", 0),
                "bulk_filter_batches": delta.get("bulk_filter_batches", 0),
            }
        payload = {
            "rank": self.comm.rank,
            "spans": tracer.export(),
            "stats_delta": rank_delta,
            "shards": shards,
        }
        gathered = self.comm.gather(payload, root=0)
        if self.comm.rank != 0:
            return None
        return build_distributed_explain(
            num_queries=len(queries) if queries is not None else 0,
            num_hits=len(hits) if hits is not None else 0,
            num_shards=self.manifest.num_shards,
            num_ranks=self.comm.size,
            per_rank_payloads=gathered or [],
        )

    # ------------------------------------------------------------------ #
    # local serving
    # ------------------------------------------------------------------ #
    def _heat_counter(self, sid: int) -> Any:
        # per-shard query heat: one tick per batch entry this shard actually
        # serves (the rebalancer-facing twin of the engine's partition heat)
        counter = self._shard_heat.get(sid)
        if counter is None:
            counter = self._shard_heat[sid] = self.metrics.counter(
                "server.shard_heat", shard=sid
            )
        return counter

    def _serve_shards(
        self,
        entries: List[Tuple[Any, ...]],
        exact: bool,
        collect: bool = False,
        deadline: Optional[float] = None,
        action: str = "query",
        refine: Optional[Callable[[Any, List[QueryHit]], List[QueryHit]]] = None,
    ) -> ShardRows:
        """The shard-serving loop: this rank's shards over plan *entries*
        ``(batch position, probe, window)``; returns the rank's
        :class:`ShardRows`.

        Per shard, entries outside the shard extent are dropped and the rest
        are served in one batched pass through the shard store's staged
        engine (shared Hilbert visit order, page touches deduped, reads
        coalesced, per-slot refine) under the shard guard, replaying the batch
        on the next replica after a failure.  *refine* filters one entry's
        hits by its probe **outside** the guard, so a join's user predicate
        is never misreported as corruption.

        Strict mode (*collect* false) **raises** the first failure that
        replica failover cannot repair, so ``failures`` stays empty.  With
        *collect* the store is entered through its collecting path
        (:meth:`SpatialDataStore.query_outcome`): page failures are gathered
        instead of raised, replica failover is still attempted for hard
        faults, and whatever cannot be recovered is reported as a failure
        tuple ``(shard_id, missing_partitions, affected_batch_positions,
        cause, fatal)`` — *fatal* is False when only the per-shard I/O
        *deadline* (simulated seconds) was exceeded, so callers can tell
        truncation from corruption.
        """
        rows = ShardRows()
        for sid in self.my_shards:
            shard = self.manifest.shards[sid]
            if shard.extent.is_empty:
                continue
            kept = [e for e in entries if shard.extent.intersects(e[-1])]
            if not kept:
                continue
            self._heat_counter(sid).inc(len(kept))
            windows = [(None, e[-1]) for e in kept]
            error: Optional[Exception] = self.dead_shards.get(sid)
            outcome: Optional[BatchOutcome] = None
            while error is None and outcome is None:
                try:
                    with self._shard_guard(shard, action):
                        store = self.stores[sid]
                        if collect:
                            outcome = store.query_outcome(
                                windows, exact=exact, partial_ok=True, budget=deadline
                            )
                        else:
                            outcome = BatchOutcome(
                                store.range_query_batch(windows, exact=exact), True
                            )
                except ShardError as exc:
                    # a replica may still hold an intact copy of the bad
                    # page: replay the batch on it
                    if not self._failover(sid, exc, action):
                        error = exc
                    continue
                if not outcome.complete and self._spare_stores.get(sid):
                    hard = [
                        exc
                        for _, exc in outcome.failed_pages
                        if not isinstance(exc, DeadlineExceeded)
                    ]
                    if hard:
                        outcome = None
                        if not self._failover(sid, hard[0], action):
                            error = self.dead_shards[sid]
            if error is not None:
                if not collect:
                    raise error
                rows.fail(
                    sid,
                    list(shard.partition_ids),
                    sorted({e[0] for e in kept}),
                    str(error),
                    True,
                )
                continue
            for (idx, probe, _), hits in zip(kept, outcome.hits):
                rows.add_hits(idx, sid, hits if refine is None else refine(probe, hits))
            if not outcome.complete:
                rows.fail(
                    sid,
                    list(outcome.missing_partitions),
                    sorted({kept[pos][0] for pos in outcome.incomplete_queries}),
                    str(outcome.failed_pages[0][1]) if outcome.failed_pages else "incomplete",
                    any(
                        not isinstance(exc, DeadlineExceeded)
                        for _, exc in outcome.failed_pages
                    ),
                )
        return rows

    def _local_phase(
        self,
        entries: List[Tuple[Any, ...]],
        ctx: Any,
        serve: Callable[[List[Tuple[Any, ...]]], ShardRows],
        **attrs: Any,
    ) -> ShardRows:
        """One rank's local-query phase, shared by the collective and the
        pipelined skeletons: *serve* (a :meth:`_serve_shards` call) runs as
        ``local_query`` compute, the shard stores' simulated I/O is charged
        to the virtual clock and the phase accumulates in :attr:`phases`.
        With a recording tracer the phase gets a ``local_query`` span; a
        *ctx* shipped with the plan (serving ranks) re-parents it — and the
        engine spans nested inside — under the client's trace.  Returns the
        rank's gather payload."""
        clock = self.comm.clock
        tracer = self.tracer
        since = clock.now
        io_before = self._store_io_seconds()
        with ExitStack() as stack:
            if tracer.enabled and ctx is not None and self.comm.rank != 0:
                stack.enter_context(tracer.adopt(ctx))
            span = stack.enter_context(tracer.span("local_query"))
            with clock.compute(category="local_query"):
                rows = serve(entries)
            if tracer.enabled:
                span.set(
                    rank=self.comm.rank, entries=len(entries), rows=len(rows), **attrs
                )
        clock.advance(self._store_io_seconds() - io_before, category="io")
        self._charge_phase("local_query", since)
        return rows

    def _gather_phase(
        self,
        payloads: List[ShardRows],
        assemble: Callable[[List[ShardRows]], Any],
        **attrs: Any,
    ) -> Any:
        """Rank 0's merge of one batch's per-rank gather payloads as
        ``gather`` compute."""
        tracer = self.tracer
        with tracer.span("gather") as span:
            with self.comm.clock.compute(category="gather"):
                result = assemble(payloads)
            if tracer.enabled:
                span.set(rows=sum(len(rows) for rows in payloads), **attrs)
        return result

    def _plan(
        self, items: Sequence[Tuple[Optional[Geometry], Envelope]]
    ) -> List[SizedList]:
        """Rank 0's scatter plan for ``(probe, window)`` *items*: per rank
        the list of ``(batch position, probe, window)`` entries it must
        answer, sized by :func:`entry_nbytes`."""
        return [
            SizedList(entries, sum(map(entry_nbytes, entries)))
            for entries in self.router.plan(items, self.assignment, self.comm.size)
        ]

    def _plan_windows(self, queries: Sequence[Tuple[Any, Envelope]]) -> List[SizedList]:
        """:meth:`_plan` of a ``(query_id, window)`` batch; the ids stay here."""
        self.queries_served += len(queries)
        return self._plan([(None, window) for _, window in queries])

    # ------------------------------------------------------------------ #
    # collective serving calls
    # ------------------------------------------------------------------ #
    def _collective_serve(
        self,
        build_plan: Callable[[], List[SizedList]],
        serve: Callable[[List[Any]], ShardRows],
        assemble: Callable[[List[ShardRows]], Any],
    ) -> Any:
        """The collective route → scatter → local_query → gather skeleton.

        *build_plan* runs on rank 0 and returns the per-rank scatter lists
        (:meth:`_plan`); *serve* answers one rank's list with its
        :class:`ShardRows`; *assemble* runs on rank 0 over the gathered
        payloads; the other ranks return ``None``.  Every phase is charged
        to the virtual clock and accumulated in :attr:`phases`; every
        payload knows its wire size.

        **Trace propagation** rides the scatter: each per-rank list is
        shipped as a ``(ctx, entries)`` pair where *ctx* is rank 0's
        :class:`~repro.obs.trace.TraceContext` (``None`` when rank 0 is not
        recording).  Serving ranks :meth:`~repro.obs.trace.Tracer.adopt`
        the context around their local work, so their ``local_query`` spans
        — and the engine spans nested inside — carry the client's trace id
        and parent under the client's ``query`` span.  The payload shape is
        the same whether tracing is on or off, so mixed configurations
        cannot desynchronise the collective.
        """
        clock = self.comm.clock
        tracer = self.tracer
        is_root = self.comm.rank == 0
        t = clock.now
        payload: Optional[List[Tuple[Any, List[Any]]]] = None
        with ExitStack() as stack:
            if is_root and tracer.enabled:
                # one trace per serving call: the root "query" span is the
                # ancestor of every span on every rank
                tracer.new_trace()
                stack.enter_context(tracer.span("query", phase="serve"))
            if is_root:
                with tracer.span("route"):
                    with clock.compute(category="route"):
                        plan = build_plan()
                ctx = tracer.context() if tracer.enabled else None
                payload = [(ctx, entries) for entries in plan]
            t = self._charge_phase("route", t)

            if is_root:
                with tracer.span("scatter"):
                    mine_ctx, mine = self.comm.scatter(payload, root=0)
            else:
                mine_ctx, mine = self.comm.scatter(payload, root=0)
            self._charge_phase("scatter", t)

            local = self._local_phase(mine, mine_ctx, serve)
            t = clock.now

            gathered = self.comm.gather(local, root=0)
            result: Any = None
            if is_root:
                result = self._gather_phase(gathered, assemble)
            self._charge_phase("gather", t)
        return result

    def range_query_batch(
        self,
        queries: Optional[Sequence[Tuple[Any, Envelope]]],
        exact: bool = True,
        partial_ok: bool = False,
        deadline: Optional[float] = None,
    ) -> Optional[Any]:
        """Serve a batch of ``(query_id, window)`` range queries (collective).

        Rank 0 supplies *queries* and receives the de-duplicated hits sorted
        by ``(batch position, record_id)``; other ranks pass ``None`` and get
        ``None`` back.

        With ``partial_ok`` and/or ``deadline`` set (collectively — every
        rank must pass the same values) the call returns a
        :class:`QueryResult` instead of a plain hit list: page faults that
        survive retry and replica failover, dead shards (see
        ``allow_degraded``) and per-shard I/O budget exhaustion
        (``deadline``, simulated seconds per shard) no longer abort the
        collective but are reported through ``complete`` /
        ``missing_shards`` / ``missing_partitions`` / ``degraded_queries``.
        ``partial_ok=False`` with a *deadline* tolerates truncation but
        still raises on hard faults.
        """

        qids: List[Any] = []

        def build_plan() -> List[SizedList]:
            if queries is None:
                raise ValueError("rank 0 must supply the query batch")
            qids.extend(qid for qid, _ in queries)
            return self._plan_windows(queries)

        outcome = partial_ok or deadline is not None
        return self._collective_serve(
            build_plan,
            lambda mine: self._serve_shards(mine, exact, outcome, deadline),
            lambda payloads: self._assemble(payloads, qids, outcome, partial_ok),
        )

    def _assemble(
        self, payloads: List[ShardRows], qids: Sequence[Any], outcome: bool, partial_ok: bool
    ) -> Any:
        """Merge every rank's :class:`ShardRows`: the de-duplicated hits
        (``query_id`` filled from *qids* here, at rank 0), wrapped with their
        completeness account as a :class:`QueryResult` in *outcome* mode."""
        failures = [f for rows in payloads for f in rows.failures]
        if not partial_ok:
            for sid, _, _, cause, fatal in failures:
                if fatal:
                    shard = self.manifest.shards[sid]
                    raise ShardError(
                        f"shard {sid} ({shard.store!r}) of store "
                        f"{self.manifest.name!r} failed during query: {cause}",
                        shard_id=sid,
                        store=shard.store,
                    )
        hits = merge_rows(payloads, qids)
        if not outcome:
            return hits
        degraded = sorted({pos for _, _, positions, _, _ in failures for pos in positions})
        if degraded:
            self._degraded.inc(len(degraded))
        return QueryResult(
            hits=hits,
            complete=not failures,
            missing_shards=sorted(
                {sid for sid, parts, _, _, fatal in failures if fatal and parts}
            ),
            missing_partitions=sorted(
                {p for _, parts, _, _, _ in failures for p in parts if p >= 0}
            ),
            degraded_queries=degraded,
            failures=[f"shard {sid}: {cause}" for sid, _, _, cause, _ in failures],
        )

    def join(
        self,
        probes: Optional[Sequence[Geometry]],
        predicate: Predicate = predicates.intersects,
    ) -> Optional[List[Tuple[Geometry, DistributedHit]]]:
        """Filter-and-refine join of in-memory *probes* against the shards
        (collective).  Rank 0 supplies *probes* and receives ``(probe, hit)``
        pairs de-duplicated on ``(probe, record_id)``; other ranks pass
        ``None`` and get ``None`` back.
        """
        probe_list: List[Geometry] = []

        def build_plan() -> List[SizedList]:
            if probes is None:
                raise ValueError("rank 0 must supply the probe collection")
            probe_list.extend(probes)
            # ship the probe geometry with the plan so ranks can refine
            return self._plan([(p, p.envelope) for p in probe_list])

        def refine(probe: Geometry, hits: List[QueryHit]) -> List[QueryHit]:
            # the shard pass is the MBR filter; the user predicate refines
            return [h for h in hits if predicate(probe, h.geometry)]

        return self._collective_serve(
            build_plan,
            lambda mine: self._serve_shards(mine, exact=False, action="join", refine=refine),
            lambda payloads: [
                (probe_list[hit.query_id], hit)
                for hit in self._assemble(payloads, range(len(probe_list)), False, False)
            ],
        )

    # ------------------------------------------------------------------ #
    # store-backed pipeline input
    # ------------------------------------------------------------------ #
    def local_records(self) -> List[Tuple[int, Geometry]]:
        """This rank's *owned* records, each exactly once across all ranks.

        A record replicated into several shards is yielded only by the shard
        holding its home partition (lowest overlapping global grid cell) —
        the ownership rule every rank derives from ``shards.json`` alone, so
        no communication is needed and the union over ranks is exactly the
        logical dataset.
        """
        io_before = self._store_io_seconds()
        out: List[Tuple[int, Geometry]] = []
        for sid in self.my_shards:
            shard = self.manifest.shards[sid]
            if sid in self.dead_shards:  # scans need every owned record
                raise self.dead_shards[sid]
            owned = set(shard.partition_ids)
            store = self.stores[sid]
            with self._shard_guard(shard, "scan"):
                for record_id, geom in store.scan():
                    if self.router.home_partition(geom.envelope) in owned:
                        out.append((record_id, geom))
        self.comm.clock.advance(self._store_io_seconds() - io_before, category="io")
        return out

    def local_geometries(self) -> List[Geometry]:
        """The geometries of :meth:`local_records` (pipeline input form)."""
        return [geom for _, geom in self.local_records()]
