"""Distributed serving of `repro.store`.

The single-process :class:`~repro.store.datastore.SpatialDataStore` serves
one shard directory from one page cache; the paper's end-to-end
applications (§5–§6) are multi-rank.  This module closes the gap:

* :func:`read_shards_manifest` reads a store's ``shards.json`` — every store
  has one (:func:`~repro.store.writer.bulk_load` splits the grid into
  contiguous runs of partitions balanced by record count, each shard a
  normal ``data.bin``/``manifest.json`` pair, its packed index inside the
  container).
* :class:`DistributedStoreServer` opens one shard (run) per ``mpisim`` rank
  and serves batch range queries and joins SPMD-style, like the paper's
  batch range query (§4.3): rank 0 sends every rank the whole batch as one
  tagged point-to-point message, each rank keeps the queries whose window
  meets a shard extent of its own and answers them through its SIEVE page
  caches, and rank 0 concatenates the answers it gets back (every record is
  stored in one shard, so nothing is de-duplicated).  A rank ships
  finished :class:`DistributedHit` lists, one :data:`Chunk` per served
  query; rank 0 sorts on record id only the batch positions that two chunks
  both answered.  One loop (``_serve``) does this for every serving call,
  over one request shape — ``(query_id, window)`` pairs whose window is an
  :class:`~repro.geometry.Envelope` or a :class:`~repro.geometry.Geometry`:
  a range batch is one batch through it, a join the range batch whose
  windows are its probes, the async front-end (:mod:`repro.store.frontend`)
  many batches, with up to ``max_in_flight`` sent ahead.

Every serving call records a virtual-clock phase breakdown
(``route`` / ``scatter`` / ``local_query`` / ``gather``) so benchmarks can
report per-phase time like the paper's Fig. 9-style breakdowns; ``route``
is rank 0's sizing of the message.
"""

from __future__ import annotations

from collections import deque
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import (
    Any, Callable, Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

from ..geometry import Envelope, Geometry
from ..geometry.wkb import encoded_size
from ..mpisim import Communicator, payload_nbytes
from ..obs.explain import ExplainReport, build_explain, stats_movement
from ..obs.metrics import MetricsRegistry, merge_snapshots, summed
from ..obs.trace import NULL_TRACER, Tracer, span_order
from ..pfs import SimulatedFilesystem
from .datastore import QueryHit, SpatialDataStore, stats_from_counters
from .engine import BatchOutcome, DeadlineExceeded, DistributedHit, _matched
from .format import StoreError
from .manifest import ShardInfo, ShardsManifest, shards_path
from .scheduler import DEFAULT_RETRY, RetryPolicy, read_file

__all__ = [
    "DistributedHit",
    "DistributedStoreServer",
    "QueryResult",
    "ShardError",
    "read_shards_manifest",
    "shard_assignment",
]


class ShardError(StoreError):
    """A store failure attributed to one shard of a sharded store."""

    def __init__(self, message: str, shard_id: int, store: str) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.store = store


#: one shard's answer to one query of a batch on the wire: ``(batch
#: position, hits)`` — *hits* is the serving rank's finished
#: :class:`DistributedHit` list, in the engine's order (record ids unique and
#: ascending)
Chunk = Tuple[int, List[DistributedHit]]
#: wire bytes of a hit's five 8-byte id columns (query, record, shard,
#: partition, page)
ROW_ID_BYTES = 40
#: wire bytes of one envelope query of a batch message: its query id and the
#: window (the paper's ``MPI_RECT``, four doubles); its position is implicit.
#: A geometry window ships its query id and the geometry instead:
#: 8 + :func:`body_nbytes`
WINDOW_QUERY_BYTES = 8 + 32
#: the window of one query: an envelope, or a geometry refined by ``intersects``
Window = Union[Envelope, Geometry]
#: one unserved shard portion: ``(shard, missing partitions, affected batch
#: positions, cause, fatal)``
Failure = Tuple[int, List[int], List[int], str, bool]

#: phase names every serving call charges (in order)
SERVING_PHASES = ("route", "scatter", "local_query", "gather")
#: tag of batch *b*'s message; its rows go back on the next tag
_TAG_BASE = 0x4153_0000
#: the merge's sort key of a hit
_RECORD_ID = attrgetter("record_id")

def shard_assignment(num_shards: int, nranks: int) -> Dict[int, int]:
    """Contiguous balanced mapping of shards onto serving ranks.

    With ``nranks >= num_shards`` every shard gets its own rank (the extra
    ranks serve nothing but still take part in every serving call);
    otherwise each rank serves a contiguous run of shards, so neighbouring
    partitions stay on one rank.
    """
    if num_shards < 0 or nranks < 1:
        raise ValueError("need num_shards >= 0 and nranks >= 1")
    return {sid: sid * nranks // num_shards for sid in range(num_shards)}


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
    raw, seconds, _ = read_file(fs, path, policy)
    return ShardsManifest.from_json(raw), seconds


# --------------------------------------------------------------------------- #
# serving
# --------------------------------------------------------------------------- #
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
    call: one :data:`Chunk` of finished hits per served query plus the
    shard portions it could not serve (``failures``, empty in strict mode).
    ``nbytes`` is :data:`ROW_ID_BYTES` + :func:`body_nbytes` per hit, and
    per failure 16 + 8 per listed partition and batch position + the cause
    text."""

    __slots__ = ("failures",)

    def __init__(self) -> None:
        super().__init__()
        self.failures: List[Failure] = []

    def add_hits(self, idx: int, qid: Any, sid: int, hits: List[QueryHit],
                 sizes: List[Dict[int, Dict[int, int]]]) -> None:
        """Append shard *sid*'s engine *hits* of the query at batch
        position *idx*, query id *qid*, as one chunk of :class:`DistributedHit`
        (each body, decoded or lazy, handed through).  Each record is priced
        from its :class:`QueryHit` through *sizes*, the shard store's memo
        of :func:`body_nbytes`: per generation one dict by page id of dicts
        by record id.  A record body is immutable while its store is open,
        so a record is priced once while its page stays cached.  A hit's
        geometry is read only to price a record the memo lacks, so a hit the
        engine proved undecoded stays undecoded on a warm memo."""
        nbytes = ROW_ID_BYTES * len(hits)
        for hit in hits:
            page_id = hit.page_id
            memo = sizes[hit.generation].get(page_id)
            if memo is None:
                memo = sizes[hit.generation][page_id] = {}
            record_id = hit.record_id
            size = memo.get(record_id)
            if size is None:
                size = memo[record_id] = body_nbytes(hit.geometry)
            nbytes += size
        self.nbytes += nbytes
        self.append((idx, _matched(qid, sid, hits)))

    def num_hits(self) -> int:
        return sum(len(chunk[1]) for chunk in self)

    def fail(
        self, sid: int, partitions: List[int], positions: List[int], cause: str, fatal: bool
    ) -> None:
        self.failures.append((sid, partitions, positions, cause, fatal))
        self.nbytes += 16 + 8 * (len(partitions) + len(positions)) + payload_nbytes(cause)


def merge_chunks(payloads: Iterable[List[Chunk]]) -> List[DistributedHit]:
    """Gathered chunks in ``(batch position, record id)`` order.  Chunks are
    grouped by position (never by query id, which may repeat or be
    unhashable).  A position with one non-empty chunk is that chunk's list
    as it stands — no new hit, no sort: the serving rank built the hits and
    the engine's ids are unique and ascending.  A position answered by
    several is sorted on record id; each record lives in one shard, so no
    two chunks hold the same one."""
    by_position: Dict[int, List[List[DistributedHit]]] = {}
    for idx, found in chain.from_iterable(payloads):
        if found:
            by_position.setdefault(idx, []).append(found)
    hits: List[DistributedHit] = []
    for _, lists in sorted(by_position.items()):
        hits += lists[0] if len(lists) == 1 else sorted(chain.from_iterable(lists), key=_RECORD_ID)
    return hits


def _hard_faults(outcome: BatchOutcome) -> List[Exception]:
    """The page failures of *outcome* that an exhausted deadline did not
    cause — what a replica may repair and what makes a failure fatal."""
    return [exc for _, exc in outcome.failed_pages if not isinstance(exc, DeadlineExceeded)]


class DistributedStoreServer:
    """SPMD facade serving one sharded store across ``mpisim`` ranks.

    Construct it inside an SPMD target function via :meth:`open`; every rank
    of the communicator must participate in every serving call (each opens
    with a header broadcast).  Rank 0 supplies the query batch, sends it
    whole to every rank, receives the gathered results and merges them;
    other ranks pass ``None`` batches and receive ``None`` results.  Each
    rank routes for itself: it serves a query on those of its shards whose
    extent the query's window meets.

    Shards are assigned to ranks contiguously (see
    :func:`shard_assignment`); with fewer ranks than shards a rank serves
    several shards, with more ranks than shards the extra ranks serve
    nothing.
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
        assignment = shard_assignment(manifest.num_shards, comm.size)
        self.my_shards = [sid for sid, rank in assignment.items() if rank == comm.rank]
        #: this rank's span recorder (:data:`~repro.obs.trace.NULL_TRACER`
        #: unless one is injected); shard stores share it, so engine spans
        #: nest under the serving phases
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: server-level metrics (per-shard query heat etc.) — distinct from
        #: the per-store registries, merged by :meth:`aggregate_metrics`
        self.metrics = MetricsRegistry()
        self.stores: Dict[int, SpatialDataStore] = {}
        #: cumulative per-phase simulated seconds on this rank
        self.phases: Dict[str, float] = {name: 0.0 for name in SERVING_PHASES}
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
        #: per shard, the final registry snapshots of the stores failover
        #: retired for it — with the live store's registry, the shard's
        #: ledger (:meth:`_ledger`), so a failed primary's retries, checksum
        #: failures and I/O seconds stay counted after it is replaced
        self._retired: Dict[int, List[Dict[str, Any]]] = {sid: [] for sid in self.my_shards}
        #: per shard, :func:`body_nbytes` of each record its serving store
        #: returned, by generation, page and record id; once it holds more
        #: pages than the store's page cache, the pages the cache let go
        #: leave it, and the memo is replaced with the store
        self._body_sizes: Dict[int, List[Dict[int, Dict[int, int]]]] = {}
        # each shard opens from its primary store, falling back to each read
        # replica in order; all copies failing raises the primary's
        # ShardError unless allow_degraded records the shard dead
        for sid in self.my_shards:
            shard = manifest.shards[sid]
            store, error = self._open_copy(shard, [shard.store] + self._spare_stores[sid], "open")
            if store is None:
                self._mark_dead(sid, error)
        comm.clock.advance(self._store_io_seconds(), category="io")

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
    def _shard_error(self, sid: int, action: str, cause: Any) -> ShardError:
        """The :class:`ShardError` naming shard *sid* that failed *action*."""
        store = self.manifest.shards[sid].store
        return ShardError(
            f"shard {sid} ({store!r}) of store {self.manifest.name!r} failed during "
            f"{action}: {cause}",
            shard_id=sid,
            store=store,
        )

    @contextmanager
    def _shard_guard(self, shard: ShardInfo, action: str) -> Iterator[None]:
        """Attribute a store failure to its shard: a :class:`StoreError`
        becomes a :class:`ShardError` naming the shard.  The format layer
        decides what is corrupt — every reader of the store's bytes turns a
        damaged header, manifest, index, page or record into a
        :class:`~repro.store.format.StoreFormatError`, and checksum,
        quarantine and retry-exhaustion failures are ``StoreError`` s too —
        so any other exception (a bug, or a predicate raising inside the
        refine loop) passes through unblamed."""
        try:
            yield
        except ShardError:  # already attributed by a nested guard
            raise
        except StoreError as exc:
            raise self._shard_error(shard.shard_id, action, exc) from exc

    # ------------------------------------------------------------------ #
    # replica failover
    # ------------------------------------------------------------------ #

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
                    # the open's I/O seconds are charged with the stores'
                    # others: by __init__, or by the phase whose failover
                    # opened it
                    try:
                        store = SpatialDataStore.open(
                            self.fs, store_name, tracer=self.tracer, **self._store_options
                        )
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
            self._body_sizes[sid] = [{} for _ in store.generations]
            return store, None
        return None, first_error

    def _mark_dead(self, sid: int, error: ShardError) -> None:
        """Shard *sid* is out of copies: raise *error*, or record the shard
        dead when degraded mode allows."""
        if not self.allow_degraded:
            raise error
        self.dead_shards[sid] = error

    def _failover(self, sid: int, cause: Exception) -> bool:
        """Replace shard *sid*'s store with the next untried replica after a
        failure while serving a query.  Returns True when a replacement is in place
        (caller should retry), False when the shard is out of copies (it is
        then recorded dead if degraded mode allows, else *cause* re-raises).
        """
        old = self.stores.pop(sid)
        self._retired[sid].append(old.metrics.snapshot())
        old.close()
        shard = self.manifest.shards[sid]
        store, _ = self._open_copy(shard, list(self._spare_stores.get(sid, ())), "query")
        if store is not None:
            return True
        self._mark_dead(
            sid, cause if isinstance(cause, ShardError) else self._shard_error(sid, "query", cause)
        )
        return False

    # ------------------------------------------------------------------ #
    # phase bookkeeping
    # ------------------------------------------------------------------ #
    def _charge_phase(self, name: str, since: float) -> float:
        now = self.comm.clock.now
        self.phases[name] += now - since
        return now

    def _ledger(self) -> Dict[int, List[Dict[str, Any]]]:
        """Per shard of this rank, the registry snapshots of every store
        that served it: those failover retired, then the live one (a dead
        shard has none).  Every rank-level number is read from here."""
        return {
            sid: self._retired[sid]
            + ([self.stores[sid].metrics.snapshot()] if sid in self.stores else [])
            for sid in self.my_shards
        }

    def _shard_stats(self) -> Dict[int, Dict[str, float]]:
        """Per shard of this rank, the :class:`StoreStats` view of its
        ledger."""
        return {
            sid: stats_from_counters(summed(snap["counters"] for snap in snaps))
            for sid, snaps in self._ledger().items()
        }

    def _store_io_seconds(self) -> float:
        """Simulated I/O seconds of every store this rank opened: the live
        stores' counters plus the retired snapshots of the ledger."""
        return sum(store.stats.io_seconds for store in self.stores.values()) + sum(
            snap["counters"]["store.io_seconds"] for snaps in self._retired.values() for snap in snaps
        )

    def phase_breakdown(self) -> Dict[str, float]:
        """Per-phase simulated seconds, the maximum over all ranks
        (collective) — the convention of the paper's stacked phase plots."""
        gathered = self.comm.allgather(dict(self.phases))
        return {name: max(g[name] for g in gathered) for name in SERVING_PHASES}

    def aggregate_stats(self) -> Dict[str, Any]:
        """Serving statistics aggregated across all ranks (collective).

        Each rank contributes the sum of its shards' ledgers — every store
        it opened, failover's retired ones included, counted exactly once
        no matter how many times this is called, because snapshots are
        absolute counters, not deltas.  ``per_rank`` holds each rank's
        counters (no hit rate; an idle rank's row is empty); the aggregate's
        cache hit rate is recomputed from the summed counters (a mean of
        per-rank rates would weight idle ranks equally with busy ones).
        """
        gathered = self.comm.allgather(
            summed(snap["counters"] for snaps in self._ledger().values() for snap in snaps)
        )
        per_rank = [stats_from_counters(counters) for counters in gathered]
        for row in per_rank:
            del row["cache_hit_rate"]
        return {"aggregate": stats_from_counters(summed(gathered)), "per_rank": per_rank}

    def aggregate_metrics(self) -> Dict[str, Any]:
        """Merged metrics snapshot over every rank's server **and** store
        registries (collective).  Counters sum; snapshots are absolute
        state, so repeated calls are idempotent — the ``aggregate_stats``
        convention, for every counter including the per-shard
        ``server.shard_heat`` (shard ids are global, so same-key counters
        from different ranks sum into one map).
        """
        local = merge_snapshots(
            [self.metrics.snapshot()] + [snap for snaps in self._ledger().values() for snap in snaps]
        )
        return merge_snapshots(self.comm.allgather(local))

    def collect_trace(self) -> Optional[List[Dict[str, Any]]]:
        """Every rank's finished spans on rank 0 (collective; an
        ``allgather``, which ``mpisim`` prices like a gather), sorted by
        :func:`~repro.obs.trace.span_order`: start, rank, then recording
        order.  Returns ``None`` on non-root ranks.
        """
        local = self.tracer.export() if self.tracer.enabled else []
        gathered = self.comm.allgather(local)
        if self.comm.rank != 0:
            return None
        spans = [span for chunk in gathered for span in chunk]
        spans.sort(key=span_order)
        return spans

    def explain_batch(
        self, queries: Optional[Sequence[Tuple[Any, Envelope]]]
    ) -> Optional[ExplainReport]:
        """EXPLAIN-by-executing for a distributed batch (collective).

        Every rank swaps in a recording tracer (server + its shard stores),
        serves the batch through :meth:`range_query_batch` for real, and
        ships its spans plus its shards' ledger movement to rank 0, which
        folds them into an :class:`~repro.obs.explain.ExplainReport` — the
        one a store's :meth:`~SpatialDataStore.explain` builds, over every
        rank's spans, with routing, per-shard and per-rank rows.  Its
        ``stats_delta`` is the batch's :meth:`aggregate_stats` movement,
        stores failover retired during the batch included.  Rank 0 supplies
        *queries* and receives the report; other ranks pass ``None`` and get
        ``None``.
        """
        tracer = Tracer(clock=self.comm.clock, rank=self.comm.rank)
        saved_server = self.tracer
        saved_stores = {sid: st.tracer for sid, st in self.stores.items()}
        self.tracer = tracer
        for store in self.stores.values():
            store.tracer = tracer
        before = self._shard_stats()
        heat = {sid: self.metrics.counter("server.shard_heat", shard=sid) for sid in self.my_shards}
        heat_before = {sid: counter.value for sid, counter in heat.items()}
        try:
            hits = self.range_query_batch(queries)
        finally:
            self.tracer = saved_server
            for sid, store in self.stores.items():
                store.tracer = saved_stores[sid]
        after = self._shard_stats()
        deltas = {sid: stats_movement(before[sid], after[sid]) for sid in self.my_shards}
        shards = {
            sid: {"rank": self.comm.rank, "entries": int(heat[sid].value - heat_before[sid]), **delta}
            for sid, delta in deltas.items()
        }
        spans = [span.as_dict() for span in tracer.spans]  # in recording order
        gathered = self.comm.allgather((spans, shards, summed(deltas.values())))
        if self.comm.rank != 0:
            return None
        return build_explain(
            query={"kind": "range_query_batch", "num_queries": len(queries), "exact": True},
            num_hits=len(hits),
            spans=[span for rank_spans, _, _ in gathered for span in rank_spans],
            stats_delta=summed(delta for _, _, delta in gathered),
            partitions_total=sum(len(shard.partition_ids) for shard in self.manifest.shards),
            shards={sid: row for _, rows, _ in gathered for sid, row in rows.items()},
            per_rank=[
                {"rank": rank, "spans": len(rank_spans), **delta}
                for rank, (rank_spans, _, delta) in enumerate(gathered)
            ],
        )

    # ------------------------------------------------------------------ #
    # local serving
    # ------------------------------------------------------------------ #
    def _serve_shards(
        self,
        entries: List[Tuple[int, Any, Window]],
        collect: bool = False,
        deadline: Optional[float] = None,
    ) -> ShardRows:
        """The shard-serving loop: this rank's shards over *entries*
        ``(batch position, query id, window)``; returns the rank's
        :class:`ShardRows`.

        Per shard, entries whose window's envelope misses the shard extent
        are dropped — the only routing of a serving call — and the rest are
        served in one batched pass through the shard store's stage loop
        (shared Hilbert visit order, page touches deduped, reads coalesced,
        per-slot refine: a geometry window is refined by ``intersects``
        there) under the shard guard, replaying the batch on the next
        replica after a failure.  The guard blames the shard for a
        ``StoreError`` only, so an exception of the join predicate passes
        through as itself.

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
        boxes = [w if isinstance(w, Envelope) else w.envelope for _, _, w in entries]
        for sid in self.my_shards:
            shard = self.manifest.shards[sid]
            if shard.extent.is_empty:
                continue
            kept = [e for e, box in zip(entries, boxes) if shard.extent.intersects(box)]
            if not kept:
                continue
            # per-shard query heat: one tick per query this shard serves
            # (EXPLAIN's per-shard ``entries``)
            self.metrics.counter("server.shard_heat", shard=sid).inc(len(kept))
            windows = [(None, window) for _, _, window in kept]
            error: Optional[Exception] = self.dead_shards.get(sid)
            outcome: Optional[BatchOutcome] = None
            while error is None and outcome is None:
                try:
                    with self._shard_guard(shard, "query"):
                        store = self.stores[sid]
                        if collect:
                            outcome = store.query_outcome(
                                windows, partial_ok=True, budget=deadline
                            )
                        else:
                            outcome = BatchOutcome(store.range_query_batch(windows), True)
                except ShardError as exc:
                    # a replica may still hold an intact copy of the bad
                    # page: replay the batch on it
                    if not self._failover(sid, exc):
                        error = exc
                    continue
                if not outcome.complete and self._spare_stores.get(sid):
                    hard = _hard_faults(outcome)
                    if hard:
                        outcome = None
                        if not self._failover(sid, hard[0]):
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
            sizes = self._body_sizes[sid]
            for (idx, qid, _), hits in zip(kept, outcome.hits):
                rows.add_hits(idx, qid, sid, hits, sizes)
            cache = self.stores[sid]._cache
            if sum(map(len, sizes)) > cache.capacity:  # bounded like the cache
                for gen, pages in enumerate(sizes):  # drop the pages it let go
                    sizes[gen] = {pid: memo for pid, memo in pages.items() if (gen, pid) in cache}
            if not outcome.complete:
                rows.fail(
                    sid,
                    list(outcome.missing_partitions),
                    sorted({kept[pos][0] for pos in outcome.incomplete_queries}),
                    str(outcome.failed_pages[0][1]) if outcome.failed_pages else "incomplete",
                    bool(_hard_faults(outcome)),
                )
        return rows

    def _local_phase(
        self,
        work: Sequence[Any],
        ctx: Any,
        serve: Callable[[Any], ShardRows],
        **attrs: Any,
    ) -> ShardRows:
        """One rank's local-query phase of the serving loop: ``serve(work)``
        (a :meth:`_serve_shards` call) runs as ``local_query`` compute, the
        shard stores' simulated I/O is charged to the virtual clock and the
        phase accumulates in :attr:`phases`.  With a recording tracer the
        phase gets a ``local_query`` span; a *ctx* shipped with the batch
        (serving ranks) re-parents it — and the engine spans nested inside —
        under the client's trace.  Returns the rank's rows."""
        clock = self.comm.clock
        tracer = self.tracer
        since = clock.now
        io_before = self._store_io_seconds()
        with ExitStack() as stack:
            if tracer.enabled and ctx is not None:
                stack.enter_context(tracer.adopt(ctx))
            span = stack.enter_context(tracer.span("local_query"))
            with clock.compute(category="local_query"):
                rows = serve(work)
            if tracer.enabled:
                span.set(
                    rank=self.comm.rank, entries=len(work), rows=rows.num_hits(), **attrs
                )
        clock.advance(self._store_io_seconds() - io_before, category="io")
        self._charge_phase("local_query", since)
        return rows

    # ------------------------------------------------------------------ #
    # the serving loop
    # ------------------------------------------------------------------ #
    def _serve(
        self,
        batches: Optional[Sequence[Sequence[Tuple[Any, Window]]]],
        window: int,
        partial_ok: bool,
        deadline: Optional[float],
    ) -> Optional[List[Tuple[Any, float, float]]]:
        """The route → scatter → local_query → gather loop of every serving
        call (collective), over tagged point-to-point messages, for batches
        of ``(query_id, window)`` queries.

        Rank 0 broadcasts the header ``(number of batches, partial_ok,
        deadline)`` — ``None`` when it got no *batches*, and then every rank
        raises together — so rank 0's *partial_ok* and *deadline* hold on
        every rank.  Rank 0 sends up to *window* batches ahead of the one it
        gathers: the ``route`` phase sizes a batch into its
        :class:`SizedList` message (:data:`WINDOW_QUERY_BYTES` an envelope
        query, 8 + :func:`body_nbytes` a geometry one), and every serving
        rank is sent the same ``(ctx, message)``, *ctx* rank 0's
        :class:`~repro.obs.trace.TraceContext` (``None`` when it is not
        recording), which the serving rank adopts around its local work so
        every rank's spans join the one trace of the call.  Serving ranks
        loop receive → :meth:`_local_phase` → send and never wait for a
        gather; rank 0 answers the oldest batch's message itself when the
        window is full, receives the other ranks' :class:`ShardRows` and
        merges them (:meth:`_assemble`).  Each rank serves its shards over
        the whole message (:meth:`_serve_shards` picks the queries), with
        the ids riding it, so the serving ranks return finished hits.  Every
        phase is charged to :attr:`phases`.

        Returns, on rank 0, one ``(result, submitted, completed)`` per
        batch: the virtual times its route began and its merge ended.  The
        other ranks get ``None``.
        """
        comm = self.comm
        clock = comm.clock
        tracer = self.tracer
        header = comm.bcast(
            (len(batches), partial_ok, deadline) if comm.rank == 0 and batches is not None else None,
            root=0,
        )
        if header is None:
            raise ValueError("rank 0 must supply the input to serve")
        num_batches, partial_ok, deadline = header
        collect = partial_ok or deadline is not None

        def local(message: SizedList) -> ShardRows:
            entries = [(idx, qid, w) for idx, (qid, w) in enumerate(message)]
            return self._serve_shards(entries, collect, deadline)

        if comm.rank != 0:
            for b in range(num_batches):
                t = clock.now
                ctx, message = comm.recv(source=0, tag=_TAG_BASE + 2 * b)
                self._charge_phase("scatter", t)
                rows = self._local_phase(message, ctx, local, batch=b)
                t = clock.now
                comm.send(rows, dest=0, tag=_TAG_BASE + 2 * b + 1)
                self._charge_phase("gather", t)
            return None

        done: List[Tuple[Any, float, float]] = []
        #: (message, submit time) of each batch sent, not gathered
        in_flight: Deque[Tuple[SizedList, float]] = deque()

        def gather_oldest() -> None:
            message, submitted = in_flight.popleft()
            b = len(done)
            payloads = [self._local_phase(message, None, local, batch=b)]
            t = clock.now
            for rank in range(1, comm.size):
                payloads.append(comm.recv(source=rank, tag=_TAG_BASE + 2 * b + 1))
            with tracer.span("gather") as span:
                with clock.compute(category="gather"):
                    result = self._assemble(payloads, partial_ok, deadline)
                if tracer.enabled:
                    span.set(rows=sum(rows.num_hits() for rows in payloads), batch=b)
            self._charge_phase("gather", t)
            done.append((result, submitted, clock.now))

        with ExitStack() as stack:
            if tracer.enabled:
                # one trace per call: every batch's route/scatter/gather and
                # every rank's local_query nest under its query span
                tracer.new_trace()
                stack.enter_context(tracer.span("query", num_batches=num_batches))
            for b, batch in enumerate(batches):
                while len(in_flight) >= window:
                    gather_oldest()
                submitted = clock.now
                with tracer.span("route") as span:
                    with clock.compute(category="route"):
                        message = SizedList(batch, sum(
                            WINDOW_QUERY_BYTES if isinstance(w, Envelope) else 8 + body_nbytes(w)
                            for _, w in batch
                        ))
                    if tracer.enabled:
                        span.set(batch=b, num_queries=len(batch))
                t = self._charge_phase("route", submitted)
                sent = (tracer.context() if tracer.enabled else None, message)
                with tracer.span("scatter") as span:
                    for rank in range(1, comm.size):
                        comm.send(sent, dest=rank, tag=_TAG_BASE + 2 * b)
                    if tracer.enabled:
                        span.set(batch=b)
                self._charge_phase("scatter", t)
                in_flight.append((message, submitted))
            while in_flight:
                gather_oldest()
        return done

    def range_query_batch(
        self,
        queries: Optional[Sequence[Tuple[Any, Window]]],
        partial_ok: bool = False,
        deadline: Optional[float] = None,
    ) -> Optional[Any]:
        """Serve a batch of ``(query_id, window)`` queries (collective); a
        window is an :class:`~repro.geometry.Envelope` or a
        :class:`~repro.geometry.Geometry`, refined by ``intersects``.

        Rank 0 supplies *queries* and receives the hits sorted by ``(batch
        position, record_id)``; other ranks pass ``None`` and get
        ``None`` back.

        With ``partial_ok`` and/or ``deadline`` set the call returns a
        :class:`QueryResult` instead of a plain hit list: page faults that
        survive retry and replica failover, dead shards (see
        ``allow_degraded``) and per-shard I/O budget exhaustion
        (``deadline``, simulated seconds per shard) no longer abort the
        call but are reported through ``complete`` /
        ``missing_shards`` / ``missing_partitions`` / ``degraded_queries``.
        ``partial_ok=False`` with a *deadline* tolerates truncation but
        still raises on hard faults.  Rank 0's values of both hold on every
        rank: they ride the call's header broadcast.
        """
        served = self._serve(
            None if queries is None else [queries], 1, partial_ok, deadline
        )
        return None if served is None else served[0][0]

    def _assemble(
        self,
        payloads: List[ShardRows],
        partial_ok: bool,
        deadline: Optional[float],
    ) -> Any:
        """Merge one batch's :class:`ShardRows` from every rank into one hit
        list, wrapped with their completeness account as a
        :class:`QueryResult` when *partial_ok* or a *deadline* selected
        degraded serving.  The hits arrive finished (query ids included)."""
        failures = [f for rows in payloads for f in rows.failures]
        if not partial_ok:
            for sid, _, _, cause, fatal in failures:
                if fatal:
                    raise self._shard_error(sid, "query", cause)
        hits = merge_chunks(payloads)
        if not partial_ok and deadline is None:
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
        self, probes: Optional[Sequence[Geometry]]
    ) -> Optional[List[Tuple[Geometry, DistributedHit]]]:
        """Filter-and-refine ``intersects`` join of in-memory *probes*
        against the shards (collective): the range batch whose windows are
        the probes, each probe's query id its position.  Rank 0 supplies
        *probes* and receives ``(probe, hit)`` pairs, one per matching
        ``(probe, record_id)``; other ranks pass ``None`` and get ``None``
        back.
        """
        hits = self.range_query_batch(None if probes is None else list(enumerate(probes)))
        return None if hits is None else [(probes[hit.query_id], hit) for hit in hits]

    # ------------------------------------------------------------------ #
    # store-backed pipeline input
    # ------------------------------------------------------------------ #
    def local_records(self) -> List[Tuple[int, Geometry]]:
        """This rank's records, each exactly once across all ranks.

        Every record is stored in one shard (the one owning its home cell),
        so the union over ranks of their shards' scans is exactly the
        logical dataset, without any communication.
        """
        io_before = self._store_io_seconds()
        out: List[Tuple[int, Geometry]] = []
        for sid in self.my_shards:
            shard = self.manifest.shards[sid]
            if sid in self.dead_shards:  # scans need every owned record
                raise self.dead_shards[sid]
            with self._shard_guard(shard, "scan"):
                out += self.stores[sid].scan()
        self.comm.clock.advance(self._store_io_seconds() - io_before, category="io")
        return out
