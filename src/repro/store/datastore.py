"""`SpatialDataStore` — open once, serve range queries and joins forever.

The serving-side counterpart of the one-shot pipeline in ``repro.core``:
where `SpatialComputation.run` re-reads, re-parses, re-partitions and
re-indexes the raw dataset on every invocation, a store is bulk-loaded once
and every later open costs only the manifest, the page directory and the
packed index.  Queries prune with the packed index (its root rejects a
window that misses the data, its leaves name the pages and slots to read)
and decode **only the pages they touch**, through a SIEVE page cache.

A store may carry *delta generations* stacked by incremental appends
(:mod:`repro.store.mutable`): each generation is its own container file
with its own page directory, packed index and I/O scheduler, queries plan
``(generation, page, slot)`` candidates across all of them with
newest-generation shadowing and record-id tombstones, and ``compact()``
merges them back into one container.

All filesystem traffic goes through :class:`repro.pfs.SimulatedFilesystem`,
so the store's I/O is charged by the same cost model as the rest of the
reproduction; the accumulated simulated seconds are exposed via
:meth:`SpatialDataStore.stats`.
"""

from __future__ import annotations

import weakref
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..geometry import Envelope, Geometry
from ..index import STRtree
from ..obs.explain import ExplainReport, build_explain, stats_movement
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..pfs import FileHandle, ReadRequest, SimulatedFilesystem
from .cache import CacheStats, PageCache
from .engine import (BatchOutcome, DeadlineExceeded, PlanEntry, QueryHit, QueryPlan,
                     QueryPlanner, RefineExecutor)
from .format import (
    HEADER_SIZE,
    PageChecksumError,
    PageKey,
    PageMeta,
    StoreError,
    StoreFormatError,
    page_crc32,
    unpack_header,
    unpack_page_directory,
)
from .index_io import check_leaf_refs, load_index
from .manifest import StoreManifest, delta_paths, store_paths
from .page import CachedPage, check_page_crc
from .scheduler import DEFAULT_RETRY, IOScheduler, RetryPolicy, read_file, read_with_retry

__all__ = [
    "IO_POLICIES",
    "Generation",
    "QueryHit",
    "StoreStats",
    "SpatialDataStore",
]


#: I/O scheduling policies.  Both merge missing pages into data sieves
#: wherever the filesystem's cost model prices one request below two (see
#: :mod:`repro.store.scheduler`); they differ only in readahead:
#: ``"fixed"`` reads nothing ahead, ``"cost_model"`` (the default) reads
#: ahead to the stripe boundary of the data file's striping layout, into
#: free cache slots only
IO_POLICIES = ("fixed", "cost_model")


@dataclass
class Generation:
    """One generation of an open store: the base container (generation 0) or
    a delta container stacked by an incremental append.

    Each generation keeps its own page directory, packed index, file handle
    and :class:`~repro.store.scheduler.IOScheduler`, so a data sieve and its
    readahead never mix byte ranges of different files; the page cache and
    the statistics are shared store-wide (pages are addressed by
    :class:`~repro.store.format.PageKey`).
    """

    gen_id: int
    pages: List[PageMeta]
    index: STRtree
    scheduler: IOScheduler
    data_path: str
    #: tight MBR of the generation's records (delta-level pruning key;
    #: the base generation's index is always asked — its root is that test)
    extent: Envelope
    #: the container file :meth:`SpatialDataStore.open` read the directory
    #: through, kept for the page fetches; ``None`` once closed (a later
    #: fetch reopens it) and for a generation without a container
    handle: Optional[FileHandle] = None


def stats_from_counters(counters: Dict[str, float]) -> Dict[str, float]:
    """The :class:`StoreStats` view of registry *counters* — one store's, or
    any sum of stores' (the sharded server's ledgers): ``store.X`` is
    ``X``, ``cache.Y`` is ``cache_Y`` and ``cache_hit_rate`` is recomputed
    from the summed hits and misses."""
    out: Dict[str, float] = {}
    for key, value in counters.items():
        prefix, _, name = key.partition(".")
        if prefix in ("store", "cache"):
            out[name if prefix == "store" else f"cache_{name}"] = value
    accesses = out.get("cache_hits", 0) + out.get("cache_misses", 0)
    out["cache_hit_rate"] = out.get("cache_hits", 0) / accesses if accesses else 0.0
    return out


class StoreStats:
    """Cumulative serving statistics of one open store.

    ``pages_read`` counts demand-fetched pages (it equals the cache miss
    count); ``pages_prefetched`` counts pages read ahead of demand into free
    cache slots, CRC-checked but not parsed — a later demand for one of them
    is a cache hit, never a miss, and parses its columns then.  ``records_decoded``
    counts the refine loop's own decodes only — the slots the MBR proofs
    could not settle (decoded for the exact predicate) and the hits of
    MBR-only batches, each once per cached page image — not every record on
    every touched page, and not a later ``.geometry`` read of a hit the
    envelope column proved (that hit decodes itself, uncounted).
    ``read_requests`` counts the data sieves charged to the filesystem —
    one request each, which is why it can be far below ``pages_read`` — and
    ``bytes_read`` the bytes they span, the unwanted bytes between a
    sieve's pages included (the cost model charges them; the host reads
    only the pages).

    Since PR 6 this is a facade over ``store.*`` counters in a
    :class:`~repro.obs.metrics.MetricsRegistry` (the store's own registry,
    shared with its :class:`~repro.store.cache.CacheStats`), so store
    counters snapshot / merge / aggregate like every other metric while
    every existing ``stats.pages_read += n`` call site keeps working.
    """

    _COUNTERS = (
        "pages_read",
        "bytes_read",
        "records_decoded",
        "queries",
        #: data sieves issued (each one request covering a run of pages)
        "read_requests",
        #: pages read ahead of demand by the sequential readahead
        "pages_prefetched",
        #: read attempts re-issued after a transient fault (retry policy)
        "retries",
        #: pages whose payload failed its CRC32 check after every retry
        "checksum_failures",
        #: simulated seconds charged by the filesystem cost model (open + reads)
        "io_seconds",
        #: candidate slots examined by the bulk refine filter
        "slots_scanned",
        #: per-page bulk filter passes (one per (query entry, page) pair)
        "bulk_filter_batches",
    )

    __slots__ = ("registry", "cache") + tuple(f"_{n}" for n in _COUNTERS)

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        for name in self._COUNTERS:
            setattr(self, f"_{name}", self.registry.counter(f"store.{name}"))
        self.cache = CacheStats(self.registry)

    def as_dict(self) -> Dict[str, float]:
        return stats_from_counters(self.registry.snapshot()["counters"])

    def __repr__(self) -> str:  # pragma: no cover
        inner = ", ".join(f"{n}={getattr(self, n):g}" for n in self._COUNTERS)
        return f"StoreStats({inner})"


def _stats_counter_property(name: str) -> property:
    """Facade over one ``store.*`` counter (``+=`` keeps working): int-typed,
    except ``io_seconds``, the one float-valued counter (simulated seconds
    are not truncated)."""
    attr = f"_{name}"
    read = (lambda value: value) if name == "io_seconds" else int

    def fget(self: StoreStats) -> int:
        return read(getattr(self, attr).value)

    def fset(self: StoreStats, value: float) -> None:
        getattr(self, attr).value = value

    return property(fget, fset)


for _name in StoreStats._COUNTERS:
    setattr(StoreStats, _name, _stats_counter_property(_name))
del _name


class SpatialDataStore:
    """Persistent partitioned spatial datastore (facade over the store files).

    Example::

        result = bulk_load(fs, "lakes", geometries)      # once, offline
        with SpatialDataStore.open(fs, "lakes") as store:  # every serving run
            hits = store.range_query(Envelope(0, 0, 10, 10))
    """

    def __init__(
        self,
        fs: SimulatedFilesystem,
        name: str,
        manifest: StoreManifest,
        generations: Sequence[Tuple[List[PageMeta], STRtree, Optional[FileHandle]]],
        cache_pages: int = 64,
        io_policy: str = "cost_model",
        tracer=None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        """*generations* holds one ``(page directory, packed index, handle)``
        triple per generation as :meth:`open` read them: the base container
        first, then one per entry of ``manifest.generations``.  *handle* is
        the container file :meth:`open` read the directory through (``None``
        for a generation without one); the store owns it from here on and
        :meth:`close` releases it.

        The serving knobs are declared here and nowhere else —
        :meth:`open` and the sharded server forward them by keyword.
        *cache_pages* sizes the SIEVE page cache; *io_policy* picks the
        readahead (see :data:`IO_POLICIES`): under both policies missing
        pages merge into data sieves priced by the data file's striping
        layout and the filesystem's cost model; ``"fixed"`` reads nothing
        ahead, ``"cost_model"`` (the default) reads ahead to the stripe
        boundary into the cache slots still free after the fetch's demand
        pages, so readahead never evicts a page.

        *tracer* (a :class:`~repro.obs.trace.Tracer`; default the zero-cost
        null tracer) records query spans; *retry_policy* bounds the
        transient-fault retries of both the open path and the serving read
        path (default :data:`~repro.store.scheduler.DEFAULT_RETRY`).
        """
        if io_policy not in IO_POLICIES:
            raise ValueError(
                f"unknown io policy {io_policy!r} (use one of {IO_POLICIES})"
            )
        self.fs = fs
        self.name = name
        self.manifest = manifest
        self.io_policy = io_policy
        self.paths = store_paths(name)
        #: the store's metrics namespace (``store.*`` / ``cache.*`` counters)
        #: — one registry per store so two stores never share a counter
        self.metrics = MetricsRegistry()
        #: span recorder for the stage loop; :data:`NULL_TRACER` (zero
        #: overhead) unless a recording tracer is injected
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: bounded-retry policy for the read path (see
        #: :class:`~repro.store.scheduler.RetryPolicy`)
        self.retry_policy = retry_policy if retry_policy is not None else DEFAULT_RETRY
        #: pages that failed their checksum (or exhausted every retry) —
        #: known-bad, never re-read, never cached; a demand for one raises
        #: :class:`~repro.store.format.PageChecksumError` without I/O
        self._quarantined: Set[PageKey] = set()
        self.stats = StoreStats(self.metrics)
        self._cache: PageCache[PageKey, CachedPage] = PageCache(
            cache_pages, stats=self.stats.cache
        )

        #: generation 0 (base container) plus one entry per delta, indexed
        #: by generation id
        self.generations: List[Generation] = []
        self._partition_of_page: Dict[PageKey, int] = {}
        for gen_id, (info, (pages, index, handle)) in enumerate(
            zip([manifest, *manifest.generations], generations)
        ):
            if gen_id and info.gen_id != gen_id:
                raise StoreFormatError(
                    f"store {name!r} has non-contiguous generation ids: "
                    f"expected {gen_id}, got {info.gen_id}"
                )
            data_path = (delta_paths(name, gen_id) if gen_id else self.paths)["data"]
            self.generations.append(
                Generation(
                    gen_id=gen_id,
                    pages=pages,
                    index=index,
                    scheduler=IOScheduler(pages, fs.layout_of(data_path), fs.cost_model),
                    data_path=data_path,
                    extent=info.extent,
                    handle=handle,
                )
            )
            for pid, part in info.partition_of_page().items():
                self._partition_of_page[PageKey(gen_id, pid)] = part
        #: record id -> newest generation that tombstoned it (occurrences in
        #: strictly older generations are invisible)
        self._tombstone_gen: Dict[int, int] = manifest.tombstone_generations()
        #: the filter phase and the refine phase of :meth:`query_outcome`.
        #: The executor holds the store through a :func:`weakref.proxy`: a
        #: strong back-reference would make every store a reference cycle,
        #: and a closed, dropped store — its packed indexes and cached pages
        #: included — would wait for a full pass of the cyclic collector
        #: instead of being freed at once
        self.planner = QueryPlanner(manifest, self.index, self.generations[1:])
        self.executor = RefineExecutor(
            self._partition_of_page, self._tombstone_gen, weakref.proxy(self)
        )

    # the base generation's state lives only in generations[0]; these
    # aliases keep the single-container surface everyone already uses
    @property
    def pages(self) -> List[PageMeta]:
        """The base container's page directory."""
        return self.generations[0].pages

    @property
    def index(self) -> STRtree:
        """The base container's packed index."""
        return self.generations[0].index

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @classmethod
    def open(
        cls, fs: SimulatedFilesystem, name: str, **serving: Any
    ) -> "SpatialDataStore":
        """Open a persisted store: the manifest, then the header and metadata
        tail — packed index, page directory, checksum table — of the base
        container and of every delta container stacked by appends, one file
        each.

        This is the whole cold-start cost — no record is parsed and the
        R-tree is reconstituted, not rebuilt.  The *serving* keywords
        (``cache_pages``, ``io_policy``, ``tracer``, ``retry_policy``) are
        those of :meth:`__init__`, forwarded as given;
        ``retry_policy`` also bounds the retries of every read made here
        (:func:`~repro.store.scheduler.read_with_retry`).  Anything but the
        one container layout — another version, a header without exactly
        the checksum flag, a checksum table that does not end the file, a
        metadata tail that fails its CRC32 on every attempt —, a manifest
        without an id ceiling and an index leaf naming a page or slot its
        generation does not store are refused with a
        :class:`~repro.store.format.StoreFormatError` naming the file.
        """
        paths = store_paths(name)
        for key in ("data", "manifest"):
            if not fs.exists(paths[key]):
                raise FileNotFoundError(
                    f"store {name!r} is missing {paths[key]!r}; run bulk_load first"
                )

        policy = serving.get("retry_policy") or DEFAULT_RETRY
        raw, io_seconds, open_retries = read_file(fs, paths["manifest"], policy)
        manifest = StoreManifest.from_json(raw.decode("utf-8"))

        def _read(fh, offset: int, nbytes: int) -> bytes:
            """Bounded-retry read of *fh*; the backoff is charged here."""
            nonlocal io_seconds, open_retries
            data, waited, retries = read_with_retry(fh, offset, nbytes, policy)
            io_seconds += waited
            open_retries += retries
            return data

        def _read_container(path: str, opened: ExitStack):
            """Header + metadata tail (packed index, page directory, checksum
            table) of one container, charged as one open and one two-range
            request.  The tail must match the header's CRC before any of it
            is parsed; a mismatch re-reads both under *policy*, charged as a
            page checksum retry is (backoff plus the re-read).  The handle
            stays open (the store's first fetch pays no second open);
            *opened* closes it if the store is never built."""
            nonlocal io_seconds, open_retries
            fh = opened.enter_context(fs.open(path))
            io_seconds += fs.open_time()
            for attempt in range(1, policy.max_attempts + 1):
                if attempt > 1:
                    open_retries += 1
                    io_seconds += policy.backoff(attempt - 1)
                try:
                    header = unpack_header(_read(fh, 0, HEADER_SIZE), file_size=fh.size)
                except StoreFormatError as exc:
                    raise StoreFormatError(f"{path!r}: {exc}") from exc
                # a view, not a copy: the index region is most of the tail
                tail = memoryview(_read(fh, header.index_offset, fh.size - header.index_offset))
                requests = [ReadRequest(0, ((0, HEADER_SIZE), (header.index_offset, len(tail))))]
                io_seconds += fs.read_time(path, requests)
                if page_crc32(tail) == header.tail_crc:
                    break
            else:
                raise StoreFormatError(f"{path!r}: the packed index, page directory and "
                                       f"checksum table fail their CRC32 after {attempt} attempt(s)")
            pages = unpack_page_directory(tail[header.index_nbytes:], header.num_pages)
            index = load_index(tail[: header.index_nbytes])
            check_leaf_refs(index, pages, path)
            return header, pages, index, fh

        #: one (page directory, packed index, handle) triple per generation,
        #: base first
        generations: List[Tuple[List[PageMeta], STRtree, Optional[FileHandle]]] = []
        with ExitStack() as opened:
            for info in [manifest, *manifest.generations]:
                base = info is manifest
                if not base and info.num_pages == 0:
                    # tombstone-only generation: no delta container was written
                    generations.append(([], STRtree([]), None))
                    continue
                path = (paths if base else delta_paths(name, info.gen_id))["data"]
                header, pages, index, fh = _read_container(path, opened)
                if (header.num_pages, header.num_records) != (info.num_pages, info.num_records):
                    raise StoreFormatError(
                        f"manifest and container {path!r} disagree for "
                        f"store {name!r}: {info.num_pages}/{info.num_records} vs "
                        f"{header.num_pages}/{header.num_records} pages/records"
                    )
                generations.append((pages, index, fh))
            store = cls(fs, name, manifest, generations, **serving)
            # the store owns the handles now: close() releases them
            opened.pop_all()
        store.stats.io_seconds = io_seconds
        store.stats.retries = open_retries
        return store

    def close(self) -> None:
        for gen in self.generations:
            if gen.handle is not None:
                gen.handle.close()
                gen.handle = None

    def __enter__(self) -> "SpatialDataStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # basic introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Visible logical records across all generations (tombstones out)."""
        return self.manifest.num_live_records

    @property
    def extent(self) -> Envelope:
        out = self.manifest.extent
        for gen in self.generations[1:]:
            out = out.union(gen.extent)
        return out

    @property
    def num_pages(self) -> int:
        """Pages in the base container (see :attr:`total_pages` for all
        generations)."""
        return len(self.pages)

    @property
    def total_pages(self) -> int:
        return sum(len(gen.pages) for gen in self.generations)

    @property
    def num_generations(self) -> int:
        """Delta generations stacked on the base container (0 = compact)."""
        return len(self.generations) - 1

    # ------------------------------------------------------------------ #
    # page access (through the cache, with coalesced I/O)
    # ------------------------------------------------------------------ #
    def _fetch_missing(
        self,
        missing: List[PageKey],
        failed: Optional[List[Tuple[PageKey, Exception]]] = None,
    ) -> Dict[PageKey, CachedPage]:
        """Read the (sorted) *missing* pages through data sieves — ROMIO's
        data sieving on the serving path.

        Misses are grouped by generation (a sieve never spans container
        files); within each generation the sieves come from that
        generation's :class:`~repro.store.scheduler.IOScheduler`: two runs
        of missing pages merge wherever the cost model prices the bytes
        between them below the request the merge saves, and readahead
        extends the final sieve past the demand frontier to the stripe
        boundary under the cost-model policy (pages are laid out back to
        back, so the extension pays bandwidth, never extra latency).  The
        fetch reads ahead at most the cache slots still free after its
        demand pages, one budget shared by its generations, so readahead
        never evicts a page; readahead pages enter the cache undecoded
        (:meth:`_get_pages` parses one on its first demand).  The whole
        schedule is charged as one :class:`ReadRequest`, one range per
        sieve, and ``read_requests`` / ``bytes_read`` count the sieves; the
        host reads only the pages' bytes (:meth:`_read_run`), and only
        demand and readahead pages are checksummed, cached and counted.
        Only demand pages are returned.

        Transient read faults are retried per run under the store's
        :class:`~repro.store.scheduler.RetryPolicy`; pages still bad after
        every retry are quarantined.  With *failed* ``None`` (the default)
        the first unrecovered demand page raises; otherwise unrecovered
        demand pages are appended to *failed* as ``(key, cause)`` pairs and
        the surviving pages are returned — the degraded-mode contract.
        """
        by_gen: Dict[int, List[int]] = {}
        for key in missing:
            by_gen.setdefault(key.generation, []).append(key.page_id)

        tracer = self.tracer
        # spans open unconditionally (the null tracer hands back one shared
        # scope); only the attribute computation sits behind the flag
        traced = tracer.enabled
        out: Dict[PageKey, CachedPage] = {}
        ahead: Dict[PageKey, bytes] = {}
        bad: List[Tuple[PageKey, Exception]] = []
        cache = self._cache
        budget = 0
        if self.io_policy == "cost_model":
            budget = max(0, cache.capacity - len(cache) - len(missing))
        for gen_id in sorted(by_gen):
            gen = self.generations[gen_id]
            if gen.handle is None:
                gen.handle = self.fs.open(gen.data_path)
                self.stats.io_seconds += self.fs.open_time()

            schedule = gen.scheduler.schedule(
                sorted(by_gen[gen_id]),
                is_cached=lambda pid, g=gen_id: PageKey(g, pid) in cache,
                budget=budget,
            )
            budget -= schedule.num_prefetched

            for run in schedule.runs:
                with tracer.span("io") as span:
                    if traced:
                        span.set(
                            generation=gen_id,
                            pages=list(run.page_ids),
                            num_pages=len(run.page_ids),
                            nbytes=run.nbytes,
                            prefetched=run.num_prefetched,
                            policy=self.io_policy,
                            prefetch_stop=schedule.prefetch_stop,
                        )
                        before = self.stats.retries
                    self._read_run(gen, gen_id, run, out, ahead, bad)
                    if traced and self.stats.retries > before:
                        span.set(retries=int(self.stats.retries - before))

            self.stats.io_seconds += self.fs.read_time(
                gen.data_path, [schedule.read_request()]
            )
            self.stats.read_requests += len(schedule.runs)
            self.stats.bytes_read += schedule.total_bytes
            self.stats.pages_prefetched += schedule.num_prefetched
        self.stats.pages_read += len(missing) - len(bad)
        for key, page in out.items():
            cache.put(key, page)
        for key, payload in ahead.items():
            cache.put(key, payload)
        if bad:
            if failed is None:
                raise bad[0][1]
            failed.extend(bad)
        return out

    def _read_run(
        self,
        gen: Generation,
        gen_id: int,
        run,
        out: Dict[PageKey, CachedPage],
        ahead: Dict[PageKey, bytes],
        bad: List[Tuple[PageKey, Exception]],
    ) -> None:
        """Read one sieve's pages, verify checksums and slice the payloads
        into *out* (demand pages, parsed) and *ahead* (readahead pages, their
        payloads only), retrying the whole sieve on transient faults.

        The host reads only the pages' bytes — one ``pread`` per back-to-back
        stretch of them — never the gaps the cost model charged, the way
        :mod:`repro.io` charges an aggregator's covering extent but reads
        only the requested blocks.  Retryable: a raised ``OSError``, a short
        read and a page checksum mismatch (each retry re-reads the pages,
        charges the policy backoff plus the sieve's re-read to
        ``io_seconds`` and bumps ``stats.retries``).  Structural decode
        errors keep propagating immediately — a payload that parses wrong
        with a *valid* checksum re-parses identically, so a retry cannot
        help.  Pages still bad after the last attempt are quarantined and
        appended to *bad* with their cause; readahead-only pages among them
        are dropped silently (a later demand fails fast on the quarantine
        set).
        """
        policy = self.retry_policy
        demand = set(run.demand_ids)
        # [offset, nbytes, page ids] of each back-to-back stretch of the
        # sieve's pages
        stretches: List[list] = []
        for pid in run.page_ids:
            meta = gen.pages[pid]
            if stretches and stretches[-1][0] + stretches[-1][1] == meta.offset:
                stretches[-1][1] += meta.nbytes
                stretches[-1][2].append(pid)
            else:
                stretches.append([meta.offset, meta.nbytes, [pid]])
        nbytes = sum(n for _, n, _ in stretches)
        attempt = 1
        while True:
            run_error: Optional[Exception] = None
            page_errors: List[Tuple[int, Exception]] = []
            pages: Dict[int, Union[CachedPage, bytes]] = {}
            try:
                bufs = [gen.handle.pread(o, n) for o, n, _ in stretches]
            except OSError as exc:
                run_error = exc
            if run_error is None and sum(map(len, bufs)) != nbytes:
                run_error = StoreFormatError(
                    f"pages {run.page_ids[0]}..{run.page_ids[-1]} of "
                    f"generation {gen_id} of store {self.name!r} are "
                    f"truncated: got {sum(map(len, bufs))} of {nbytes} bytes"
                )
            if run_error is None:
                for buf, (offset, _, pids) in zip(bufs, stretches):
                    for pid in pids:
                        meta = gen.pages[pid]
                        payload = buf[meta.offset - offset : meta.offset - offset + meta.nbytes]
                        try:
                            if pid in demand:
                                pages[pid] = self._page(meta, payload, meta.crc32)
                            else:
                                check_page_crc(pid, payload, meta.crc32)
                                pages[pid] = payload
                        except PageChecksumError as exc:
                            exc.generation = gen_id
                            page_errors.append((pid, exc))
                if not page_errors:
                    for pid, page in pages.items():
                        (out if pid in demand else ahead)[PageKey(gen_id, pid)] = page
                    return

            if attempt < policy.max_attempts:
                self.stats.retries += 1
                self.stats.io_seconds += policy.backoff(attempt)
                self.stats.io_seconds += self.fs.read_time(
                    gen.data_path, [ReadRequest(0, ((run.offset, run.nbytes),))]
                )
                attempt += 1
                continue

            # out of attempts: quarantine what stayed bad, keep what healed
            if run_error is not None:
                page_errors = [
                    (
                        pid,
                        StoreError(
                            f"page {pid} of generation {gen_id} of store "
                            f"{self.name!r} unreadable after {attempt} "
                            f"attempt(s): {run_error}"
                        ),
                    )
                    for pid in run.page_ids
                ]
            else:
                for pid, page in pages.items():
                    (out if pid in demand else ahead)[PageKey(gen_id, pid)] = page
            for pid, exc in page_errors:
                key = PageKey(gen_id, pid)
                if key not in self._quarantined:
                    self._quarantined.add(key)
                    if isinstance(exc, PageChecksumError):
                        self.stats.checksum_failures += 1
                if pid in demand:
                    bad.append((key, exc))
            return

    def _page(self, meta: PageMeta, payload: bytes, crc: Optional[int]) -> CachedPage:
        """Parse *payload*, the page *meta* describes, into a page image
        (*crc* ``None``: already checked).  Its record count must be the
        directory's: the open checked every index leaf against the
        directory, so a page with fewer slots would let a leaf name one
        past its end.  The decode count goes straight to the counter: a page
        holding a method of the store would make the store a reference
        cycle (see :attr:`executor`)."""
        page = CachedPage(meta.page_id, payload, crc, on_decode=self.stats._records_decoded.inc)
        if page.count != meta.count:
            raise StoreFormatError(
                f"page {meta.page_id} of store {self.name!r} holds {page.count} records, "
                f"its directory entry {meta.count}"
            )
        return page

    def _get_pages(
        self,
        page_ids: Iterable[PageKey],
        failed: Optional[List[Tuple[PageKey, Exception]]] = None,
    ) -> Dict[PageKey, CachedPage]:
        """Resolve *page_ids* (:class:`PageKey` addresses) to cached page
        images, fetching misses in coalesced runs.  The returned
        dict holds strong references keyed by :class:`PageKey`, so the
        caller can evaluate against every page even when the cache is
        smaller than the working set.

        A page read ahead sits in the cache as its payload; its first
        demand parses it (a structural error raises
        :class:`~repro.store.format.StoreFormatError` here, as a demand read
        would) and replaces the cache entry with the page image.

        Quarantined pages fail without I/O.  With *failed* ``None`` a bad
        page raises; otherwise ``(key, cause)`` pairs are appended to
        *failed* and the surviving pages are returned (degraded mode).
        """
        tracer = self.tracer
        # one "schedule" span per resolution (its "io" children are the
        # data sieves the misses turned into)
        with tracer.span("schedule") as span:
            out: Dict[PageKey, CachedPage] = {}
            missing: List[PageKey] = []
            for key in sorted(set(page_ids)):
                if self._quarantined and key in self._quarantined:
                    self._fail_quarantined(key, failed)
                    continue
                page = self._cache.get(key)
                if page is None:
                    missing.append(key)
                    continue
                if page.__class__ is not CachedPage:  # read ahead: parse it now
                    meta = self.generations[key.generation].pages[key.page_id]
                    page = self._page(meta, page, None)
                    self._cache.put(key, page)
                out[key] = page
            if tracer.enabled:
                span.set(
                    requested=len(out) + len(missing),
                    cache_hits=len(out),
                    cache_misses=len(missing),
                )
            if missing:
                out.update(self._fetch_missing(missing, failed))
            return out

    def _fail_quarantined(
        self,
        key: PageKey,
        failed: Optional[List[Tuple[PageKey, Exception]]],
    ) -> None:
        exc = PageChecksumError(
            f"page {key.page_id} of generation {key.generation} of store "
            f"{self.name!r} is quarantined",
            page_id=key.page_id,
            generation=key.generation,
        )
        if failed is None:
            raise exc
        failed.append((key, exc))

    # ------------------------------------------------------------------ #
    # queries (all routed through the one stage loop, query_outcome)
    # ------------------------------------------------------------------ #
    def range_query(
        self, window: Union[Envelope, Geometry], exact: bool = True
    ) -> List[QueryHit]:
        """Records intersecting *window*, each once (newest version).

        A single-window batch through :meth:`query_outcome`: the planner
        selects exact ``(page, slot)`` candidates (the packed index prunes,
        from its root down), the I/O scheduler fetches only the touched
        pages in coalesced runs, and the refine executor decodes only
        candidate slots.  With ``exact`` the geometric predicate is
        evaluated (refine phase); otherwise the MBR test of the filter phase
        is the answer.
        """
        return self.query_outcome([(None, window)], exact).hits[0]

    def range_query_batch(
        self,
        queries: Sequence[Tuple[Any, Union[Envelope, Geometry]]],
        exact: bool = True,
    ) -> List[List[QueryHit]]:
        """Serve a batch of ``(query_id, window)`` queries in one pass.

        The batched front-end is where the filter-and-refine discipline pays
        across probes, not just within one — the plan stage orders windows
        along the shared Hilbert visit order (page-cache locality), dedupes
        page touches batch-wide, and bulk-fetches the working set in
        coalesced runs when the cache can hold it (with a disabled or
        undersized cache, fetching falls back to per-query coalesced runs so
        memory stays bounded by one query's working set); the refine stage
        memoises decoded slots per page, so two probes hitting the same
        record decode it once.

        Returns one ``range_query``-identical hit list per query, in the
        input order: the strict form of :meth:`query_outcome` (the first
        unreadable page raises).
        """
        return self.query_outcome(queries, exact).hits

    def _describe_plan(self, plan: QueryPlan, span) -> int:
        """Set the ``plan`` span's attributes; returns the candidate count."""
        part_of = self._partition_of_page
        partitions = {
            part_of.get(key, -1) for entry in plan.entries for key in entry.by_page
        }
        by_generation: Dict[int, int] = {}
        for entry in plan.entries:
            for key, slots in entry.by_page.items():
                by_generation[key.generation] = (
                    by_generation.get(key.generation, 0) + len(slots)
                )
        candidates = sum(by_generation.values())
        span.set(
            entries=len(plan.entries),
            touched_pages=len(plan.touched_pages),
            partitions_visited=len(partitions),
            candidates=candidates,
            candidates_by_generation=by_generation,
            generations=len(by_generation),
        )
        return candidates

    def query_outcome(
        self,
        queries: Sequence[Tuple[Any, Union[Envelope, Geometry]]],
        exact: bool = True,
        partial_ok: bool = False,
        budget: Optional[float] = None,
    ) -> BatchOutcome:
        """The store's one stage loop: plan → fetch → refine a batch of
        ``(query_id, window)`` queries, with an explicit outcome.

        The batch working set is bulk-fetched up front only when the cache
        can actually hold it; otherwise each query fetches its own pages
        (still coalesced per query) so memory stays bounded by one query's
        working set.

        With ``partial_ok`` an unreadable page (checksum quarantine, retry
        exhaustion) no longer aborts the batch: affected queries return the
        hits their surviving pages produce and the outcome records exactly
        which pages and partitions are missing.  *budget* bounds the batch's
        **simulated I/O seconds** (the store's ``io_seconds`` movement,
        backoff included): once spent (a zero budget is spent from the
        start), remaining entries are not fetched —
        ``partial_ok`` decides whether that degrades the outcome or raises
        :class:`~repro.store.engine.DeadlineExceeded`.  Without either knob
        the loop is strict: the first bad page raises and the outcome is
        trivially complete.

        The loop runs inside the span hierarchy ``query → plan → schedule →
        io → refine → decode`` (schedule/io spans come from the page-fetch
        path, decode spans from
        :meth:`~repro.store.engine.RefineExecutor.refine`).  The scopes are
        opened unconditionally — the null tracer hands back one shared no-op
        scope — and only the *computation* of span attributes sits behind
        ``tracer.enabled``.
        """
        tracer = self.tracer
        stats = self.stats
        queries = list(queries)
        stats.queries += len(queries)
        results: List[List[QueryHit]] = [[] for _ in queries]
        failed: List[Tuple[PageKey, Exception]] = []
        incomplete: List[int] = []
        collect = failed if partial_ok else None
        io_start = stats.io_seconds
        candidates = 0
        with tracer.span("query", num_queries=len(queries), exact=exact) as qspan:
            with tracer.span("plan") as pspan:
                plan = self.planner.plan(queries)
                if tracer.enabled:
                    candidates = self._describe_plan(plan, pspan)
            if plan.entries:
                held: Dict[PageKey, CachedPage] = {}
                touched = plan.touched_pages
                # bulk prefetch is skipped under a budget: the deadline is
                # checked between entries, so I/O has to be issued entry by
                # entry
                if budget is None and len(touched) <= self._cache.capacity:
                    held = self._get_pages(touched, failed=collect)
                with tracer.span("refine", candidates=candidates) as rspan:
                    for j in plan.visit_order:
                        entry = plan.entries[j]
                        if budget is not None and stats.io_seconds - io_start >= budget:
                            exc: Exception = DeadlineExceeded(
                                f"query batch on store {self.name!r} exceeded "
                                f"its {budget:g}s I/O budget"
                            )
                            if not partial_ok:
                                raise exc
                            failed.extend((key, exc) for key in entry.by_page)
                            incomplete.append(entry.position)
                            continue
                        pages = held or self._get_pages(entry.by_page, failed=collect)
                        # a page can only be absent after a collected failure
                        if failed and any(key not in pages for key in entry.by_page):
                            available = {
                                k: s for k, s in entry.by_page.items() if k in pages
                            }
                            incomplete.append(entry.position)
                            if not available:
                                continue
                            entry = PlanEntry(
                                entry.position, entry.query_id, entry.env,
                                entry.geom, available,
                            )
                        results[entry.position] = self.executor.refine(entry, pages, exact)
                    if tracer.enabled:
                        rspan.set(num_hits=sum(map(len, results)))
            if tracer.enabled:
                qspan.set(num_hits=sum(map(len, results)))

        if not failed and not incomplete:
            return BatchOutcome(results, True)
        # one cause per distinct page (entries may share a failed page)
        causes: Dict[PageKey, Exception] = {}
        for key, exc in failed:
            causes.setdefault(key, exc)
        return BatchOutcome(
            hits=results,
            complete=False,
            failed_pages=sorted(causes.items()),
            missing_partitions=sorted(
                {self._partition_of_page.get(key, -1) for key in causes}
            ),
            incomplete_queries=sorted(set(incomplete)),
        )

    def join(self, probes: Sequence[Geometry]) -> List[Tuple[Geometry, QueryHit]]:
        """Filter-and-refine join of in-memory *probes* against the store.

        A range batch whose windows are the probes: the store's packed index
        is the filter phase, and the executor's geometry-window refine
        (``intersects(probe, record)``, the paper's join predicate) is the
        refine phase.  Page touches are deduped and I/O is coalesced across
        the whole probe collection, and a record shared by several probes
        is decoded once.  Returns ``(probe, hit)`` pairs in probe order.
        """
        probes = list(probes)
        per_probe = self.range_query_batch(list(enumerate(probes)))
        return [(probe, hit) for probe, hits in zip(probes, per_probe) for hit in hits]

    def explain(self, window: Union[Envelope, Geometry]) -> ExplainReport:
        """EXPLAIN-by-executing: run ``range_query(window)`` under a
        recording tracer and report where it spent its effort.

        The report is assembled from the recorded span hierarchy plus the
        :class:`StoreStats` movement of the run, so
        ``report.stats_delta["records_decoded"]`` (and every other counter)
        is exactly what the query charged — the stats **do** move: EXPLAIN
        executes the query for real, against the real cache state.  The
        store's own tracer is restored afterwards, whatever it was.
        """
        tracer = Tracer(
            clock=getattr(self.tracer, "clock", None),
            rank=getattr(self.tracer, "rank", 0),
        )
        saved = self.tracer
        before = self.stats.as_dict()
        self.tracer = tracer
        try:
            hits = self.range_query(window)
        finally:
            self.tracer = saved
        return build_explain(
            query={"kind": "range_query", "window": str(window), "exact": True},
            num_hits=len(hits),
            spans=tracer.spans,
            stats_delta=stats_movement(before, self.stats.as_dict()),
            partitions_total=len(self.manifest.partitions),
        )

    def _iter_pages(self) -> Iterator[Tuple[int, CachedPage]]:
        """``(generation, page image)`` for every page, newest generation
        first, fetched in bounded runs (at most one cache capacity's worth
        at a time) so a full sweep's memory stays bounded by the page cache,
        not the container — the stage loop's bounded-memory contract."""
        run_len = self._cache.capacity if self._cache.capacity > 0 else 16
        for gen in reversed(self.generations):
            for start in range(0, len(gen.pages), run_len):
                keys = [
                    PageKey(gen.gen_id, pid)
                    for pid in range(start, min(start + run_len, len(gen.pages)))
                ]
                pages = self._get_pages(keys)
                for key in keys:
                    yield gen.gen_id, pages[key]

    def _visible(self) -> Iterator[Tuple[CachedPage, int]]:
        """``(page, slot)`` of every *visible* logical record exactly once:
        generations newest first (an updated record's newest version wins,
        older ones de-duplicated) and tombstoned ids dropped — the executor's
        refine-phase rule.  Pages stream through :meth:`_iter_pages`, so
        memory stays bounded by the page cache.  :meth:`scan` decodes these
        slots; compaction copies their frames."""
        seen: set = set()
        surviving_slots = self.executor._surviving_slots
        for gen_id, page in self._iter_pages():
            live, _, _ = surviving_slots(page, range(page.count), gen_id, seen)
            yield from ((page, slot) for slot in live)

    def scan(self) -> Iterator[Tuple[int, Geometry]]:
        """Every visible record exactly once, decoded (round-trip checks), in
        (generation desc, page, slot) order, not record-id order."""
        return (page.record(slot) for page, slot in self._visible())
