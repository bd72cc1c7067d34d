"""`SpatialDataStore` — open once, serve range queries and joins forever.

The serving-side counterpart of the one-shot pipeline in ``repro.core``:
where `SpatialComputation.run` re-reads, re-parses, re-partitions and
re-indexes the raw dataset on every invocation, a store is bulk-loaded once
and every later open costs only the manifest, the page directory and the
packed index.  Queries prune with the packed index (its root rejects a
window that misses the data, its leaves name the pages and slots to read)
and decode **only the pages they touch**, through an LRU page cache.

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

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..geometry import Envelope, Geometry, predicates
from ..index import STRtree
from ..obs.explain import ExplainReport, build_store_explain
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..pfs import FileHandle, ReadRequest, SimulatedFilesystem
from .cache import CacheStats, LRUPageCache
from .engine import BatchOutcome, QueryHit, StoreEngine
from .format import (
    HEADER_SIZE,
    VERSION,
    PageChecksumError,
    PageKey,
    PageMeta,
    StoreError,
    StoreFormatError,
    StoreHeader,
    unpack_header,
    unpack_page_checksums,
    unpack_page_directory,
)
from .index_io import load_index
from .manifest import StoreManifest, delta_paths, store_paths
from .page import CachedPage
from .scheduler import DEFAULT_RETRY, IOScheduler, RetryPolicy, read_with_retry

__all__ = [
    "IO_POLICIES",
    "Generation",
    "QueryHit",
    "StoreStats",
    "SpatialDataStore",
]

Predicate = Callable[[Geometry, Geometry], bool]

#: I/O scheduling policies: ``"fixed"`` coalesces across gaps of up to one
#: page and reads nothing ahead; ``"cost_model"`` derives the gap and a
#: stripe-aligned readahead from the data file's striping layout and the
#: filesystem's cost model (see :mod:`repro.store.scheduler`)
IO_POLICIES = ("fixed", "cost_model")


@dataclass
class Generation:
    """One generation of an open store: the base container (generation 0) or
    a delta container stacked by an incremental append.

    Each generation keeps its own page directory, packed index, file handle
    and :class:`~repro.store.scheduler.IOScheduler`, so read coalescing and
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
    handle: Optional[FileHandle] = None


class StoreStats:
    """Cumulative serving statistics of one open store.

    ``pages_read`` counts demand-fetched pages (it equals the cache miss
    count); ``pages_prefetched`` counts pages read ahead of demand — a later
    demand for one of them is a cache hit, never a miss.  ``records_decoded``
    counts refine-phase work only: with the per-slot page decode a query pays
    WKB/pickle for the slots it actually inspects, not for every record on
    every touched page.  ``read_requests`` counts coalesced read ranges
    issued to the filesystem, which is why it can be far below
    ``pages_read``.

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
        #: coalesced read ranges issued (each covers one run of adjacent pages)
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

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        cache: Optional[CacheStats] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        for name in self._COUNTERS:
            setattr(self, f"_{name}", self.registry.counter(f"store.{name}"))
        self.cache = cache if cache is not None else CacheStats(self.registry)

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            name: getattr(self, name) for name in self._COUNTERS
        }
        out.update({f"cache_{k}": v for k, v in self.cache.as_dict().items()})
        return out

    def reset(self) -> None:
        """Zero every counter, cache counters included."""
        for name in self._COUNTERS:
            getattr(self, f"_{name}").value = 0
        self.cache.reset()

    def __repr__(self) -> str:  # pragma: no cover
        inner = ", ".join(f"{n}={getattr(self, n):g}" for n in self._COUNTERS)
        return f"StoreStats({inner})"


def _stats_counter_property(name: str) -> property:
    """Int-typed facade over one ``store.*`` counter (``+=`` keeps working)."""
    attr = f"_{name}"

    def fget(self: StoreStats) -> int:
        return int(getattr(self, attr).value)

    def fset(self: StoreStats, value: float) -> None:
        getattr(self, attr).value = value

    return property(fget, fset)


for _name in StoreStats._COUNTERS:
    if _name == "io_seconds":
        # the one float-valued counter: do not truncate simulated seconds
        setattr(
            StoreStats,
            _name,
            property(
                lambda self: self._io_seconds.value,
                lambda self, value: setattr(self._io_seconds, "value", value),
            ),
        )
    else:
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
        generations: Sequence[Tuple[List[PageMeta], STRtree]],
        cache_pages: int = 64,
        io_policy: str = "fixed",
        tracer=None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        """*generations* holds one ``(page directory, packed index)`` pair
        per generation as :meth:`open` read them: the base container first,
        then one per entry of ``manifest.generations``.

        The serving knobs are declared here and nowhere else —
        :meth:`open` and the sharded server forward them by keyword.
        *cache_pages* sizes the LRU page cache; *io_policy* picks the
        coalescing gap and readahead (see :data:`IO_POLICIES`):
        ``"fixed"`` merges candidate pages up to one page apart and reads
        nothing ahead, ``"cost_model"`` derives both from the data file's
        striping layout and the filesystem's cost model, its readahead
        clamped so a fetch cannot evict its own demand pages from the cache.

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
        #: the store's metrics namespace (``store.*`` / ``cache.*`` counters,
        #: per-partition heat) — one registry per store so two stores never
        #: share a counter
        self.metrics = MetricsRegistry()
        #: span recorder for the staged engine; :data:`NULL_TRACER` (zero
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
        self._cache: LRUPageCache[PageKey, CachedPage] = LRUPageCache(
            cache_pages, stats=self.stats.cache
        )
        self._cache_pages = cache_pages

        #: generation 0 (base container) plus one entry per delta, indexed
        #: by generation id
        self.generations: List[Generation] = []
        self._partition_of_page: Dict[PageKey, int] = {}
        for gen_id, (info, (pages, index)) in enumerate(
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
                    scheduler=self._make_scheduler(pages, data_path),
                    data_path=data_path,
                    extent=info.extent,
                )
            )
            for pid, part in info.partition_of_page().items():
                self._partition_of_page[PageKey(gen_id, pid)] = part
        #: record id -> newest generation that tombstoned it (occurrences in
        #: strictly older generations are invisible)
        self._tombstone_gen: Dict[int, int] = manifest.tombstone_generations()
        self.engine = StoreEngine(self)

    def _make_scheduler(self, pages: List[PageMeta], path: str) -> IOScheduler:
        """Per-generation scheduler: coalescing and readahead never span
        container files."""
        if self.io_policy == "cost_model":
            return IOScheduler.cost_aware(
                pages,
                layout=self.fs.layout_of(path),
                cost_model=self.fs.cost_model,
                cache_capacity=self._cache_pages,
            )
        return IOScheduler(pages, gap=self.manifest.page_size)

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

    @property
    def scheduler(self) -> IOScheduler:
        """The base generation's I/O scheduler (deltas each have their own)."""
        return self.generations[0].scheduler

    @property
    def _handle(self) -> Optional[FileHandle]:
        return self.generations[0].handle

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @classmethod
    def open(
        cls, fs: SimulatedFilesystem, name: str, **serving: Any
    ) -> "SpatialDataStore":
        """Open a persisted store: manifest + page directory + packed index
        (for the base container and for every delta generation stacked by
        appends).

        This is the whole cold-start cost — no record is parsed and the
        R-tree is reconstituted, not rebuilt.  The *serving* keywords
        (``cache_pages``, ``io_policy``, ``tracer``, ``retry_policy``) are
        those of :meth:`__init__`, forwarded as given;
        ``retry_policy`` also bounds the retries of every read made here
        (:func:`~repro.store.scheduler.read_with_retry`).  A container in the
        retired v1 page layout is refused with a
        :class:`~repro.store.format.StoreFormatError` naming
        :func:`~repro.store.mutable.upgrade_store`.
        """
        paths = store_paths(name)
        for key in ("data", "index", "manifest"):
            if not fs.exists(paths[key]):
                raise FileNotFoundError(
                    f"store {name!r} is missing {paths[key]!r}; run bulk_load first"
                )

        policy = serving.get("retry_policy") or DEFAULT_RETRY
        io_seconds = 0.0
        open_retries = 0

        def _read(fh, offset: int = 0, nbytes: Optional[int] = None) -> bytes:
            """Bounded-retry read of *fh*; the backoff is charged here."""
            nonlocal io_seconds, open_retries
            data, waited, retries = read_with_retry(fh, offset, nbytes, policy)
            io_seconds += waited
            open_retries += retries
            return data

        def _read_file(path: str) -> bytes:
            """Whole-file read, charged: retry backoff, open, one read."""
            nonlocal io_seconds
            with fs.open(path) as fh:
                data = _read(fh)
            io_seconds += fs.open_time()
            io_seconds += fs.read_time(path, [ReadRequest(0, ((0, len(data)),))])
            return data

        manifest = StoreManifest.from_json(_read_file(paths["manifest"]).decode("utf-8"))

        def _read_container(path: str) -> Tuple[StoreHeader, List[PageMeta]]:
            """Header → page directory + checksum tail of one container."""
            nonlocal io_seconds
            with fs.open(path) as fh:
                header = unpack_header(_read(fh, 0, HEADER_SIZE), file_size=fh.size)
                if header.version != VERSION:
                    raise StoreFormatError(
                        f"{path!r} uses the retired page layout "
                        f"v{header.version}; rewrite it once with "
                        f"repro.store.upgrade_store(fs, {name!r})"
                    )
                tail_nbytes = header.dir_nbytes + header.checksum_nbytes
                tail = _read(fh, header.dir_offset, tail_nbytes)
                io_seconds += fs.open_time()
                io_seconds += fs.read_time(
                    path,
                    [ReadRequest(0, ((0, HEADER_SIZE), (header.dir_offset, tail_nbytes)))],
                )
            crcs: Sequence[int] = ()
            if header.has_checksums:
                crcs = unpack_page_checksums(tail[header.dir_nbytes :], header.num_pages)
            return header, unpack_page_directory(tail[: header.dir_nbytes], header.num_pages, crcs)

        #: one (page directory, packed index) pair per generation, base first
        generations: List[Tuple[List[PageMeta], STRtree]] = []
        for info in [manifest, *manifest.generations]:
            base = info is manifest
            if not base and info.num_pages == 0:
                # tombstone-only generation: no delta files were written
                generations.append(([], STRtree([])))
                continue
            gen_paths = paths if base else delta_paths(name, info.gen_id)
            header, pages = _read_container(gen_paths["data"])
            if (header.num_pages, header.num_records) != (info.num_pages, info.num_records):
                raise StoreFormatError(
                    f"manifest and container {gen_paths['data']!r} disagree for "
                    f"store {name!r}: {info.num_pages}/{info.num_records} vs "
                    f"{header.num_pages}/{header.num_records} pages/records"
                )
            generations.append((pages, load_index(_read_file(gen_paths["index"]))))

        store = cls(fs, name, manifest, generations, **serving)
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

    def describe(self) -> str:
        return (
            f"SpatialDataStore({self.name!r}: {len(self)} records, "
            f"{self.total_pages} pages, {len(self.manifest.partitions)} partitions, "
            f"{self.num_generations} delta generations on {self.fs.describe()})"
        )

    # ------------------------------------------------------------------ #
    # page access (through the cache, with coalesced I/O)
    # ------------------------------------------------------------------ #
    def _fetch_missing(
        self,
        missing: List[PageKey],
        failed: Optional[List[Tuple[PageKey, Exception]]] = None,
    ) -> Dict[PageKey, CachedPage]:
        """Read the (sorted) *missing* pages with coalesced, gap-tolerant
        read ranges — the two-phase-I/O analogue of the serving path.

        Misses are grouped by generation (coalescing never spans container
        files); within each generation the runs come from that generation's
        :class:`~repro.store.scheduler.IOScheduler`: adjacent or near pages
        merge into one range, the whole schedule is issued as a single
        :class:`ReadRequest` (so the cost model charges one run of requests
        instead of one RPC per page), and readahead extends the final run
        past the demand frontier to the stripe boundary under the
        cost-model policy (pages are laid out back to back, so the
        extension pays bandwidth, never extra latency).

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
        bad: List[Tuple[PageKey, Exception]] = []
        for gen_id in sorted(by_gen):
            gen = self.generations[gen_id]
            if gen.handle is None:
                gen.handle = self.fs.open(gen.data_path)
                self.stats.io_seconds += self.fs.open_time()

            schedule = gen.scheduler.schedule(
                sorted(by_gen[gen_id]),
                is_cached=lambda pid, g=gen_id: PageKey(g, pid) in self._cache,
            )

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
                            gap=gen.scheduler.gap,
                            prefetch_stop=schedule.prefetch_stop,
                        )
                        before = self.stats.retries
                    self._read_run(gen, gen_id, run, out, bad)
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
            self._cache.put(key, page)
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
        bad: List[Tuple[PageKey, Exception]],
    ) -> None:
        """Read one coalesced run, verify checksums and slice the payloads
        into *out*, retrying the whole run on transient faults.

        Retryable: a raised ``OSError``, a short read of the run and a page
        checksum mismatch (each retry re-reads the run's bytes, charges the
        policy backoff plus the re-read to ``io_seconds`` and bumps
        ``stats.retries``).  Structural decode errors keep propagating
        immediately — a payload that parses wrong with a *valid* checksum
        (or in a legacy container without checksums) re-parses identically,
        so a retry cannot help.  Pages still bad after the last attempt are
        quarantined and appended to *bad* with their cause; readahead-only
        pages among them are dropped silently (a later demand fails fast on
        the quarantine set).
        """
        policy = self.retry_policy
        demand = set(run.demand_ids)
        attempt = 1
        while True:
            run_error: Optional[Exception] = None
            page_errors: List[Tuple[int, Exception]] = []
            pages: Dict[int, CachedPage] = {}
            try:
                buf = gen.handle.pread(run.offset, run.nbytes)
            except OSError as exc:
                run_error = exc
                buf = b""
            if run_error is None and len(buf) != run.nbytes:
                run_error = StoreFormatError(
                    f"pages {run.page_ids[0]}..{run.page_ids[-1]} of "
                    f"generation {gen_id} of store {self.name!r} are "
                    f"truncated: got {len(buf)} of {run.nbytes} bytes"
                )
            if run_error is None:
                for pid in run.page_ids:
                    meta = gen.pages[pid]
                    payload = buf[
                        meta.offset - run.offset : meta.offset - run.offset + meta.nbytes
                    ]
                    try:
                        # the decode count goes straight to the counter: a
                        # page holding a method of the store would make the
                        # store a reference cycle (see StoreEngine)
                        pages[pid] = CachedPage(
                            pid,
                            payload,
                            on_decode=self.stats._records_decoded.inc,
                            expected_crc=meta.crc32,
                        )
                    except PageChecksumError as exc:
                        exc.generation = gen_id
                        page_errors.append((pid, exc))
                if not page_errors:
                    for pid, page in pages.items():
                        out[PageKey(gen_id, pid)] = page
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
                    out[PageKey(gen_id, pid)] = page
            for pid, exc in page_errors:
                key = PageKey(gen_id, pid)
                if key not in self._quarantined:
                    self._quarantined.add(key)
                    if isinstance(exc, PageChecksumError):
                        self.stats.checksum_failures += 1
                if pid in demand:
                    bad.append((key, exc))
            return

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

        Quarantined pages fail without I/O.  With *failed* ``None`` a bad
        page raises; otherwise ``(key, cause)`` pairs are appended to
        *failed* and the surviving pages are returned (degraded mode).
        """
        tracer = self.tracer
        # one "schedule" span per resolution (its "io" children are the
        # coalesced runs the misses turned into)
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
                else:
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

    @property
    def quarantined_pages(self) -> Set[PageKey]:
        """Snapshot of the known-bad page set (checksum/retry casualties)."""
        return set(self._quarantined)

    def partition_of_page(self, key: PageKey) -> Optional[int]:
        """Partition owning *key* (degraded-result accounting helper)."""
        return self._partition_of_page.get(key)

    # ------------------------------------------------------------------ #
    # queries (all routed through the staged engine)
    # ------------------------------------------------------------------ #
    def range_query(
        self, window: Union[Envelope, Geometry], exact: bool = True
    ) -> List[QueryHit]:
        """Records intersecting *window*, de-duplicated across replicas.

        A single-window batch through the :class:`~repro.store.engine.
        StoreEngine`: the planner selects exact ``(page, slot)`` candidates
        (the packed index prunes, from its root down), the I/O scheduler
        fetches only the touched pages in coalesced runs, and the refine
        executor decodes only candidate slots.  With ``exact`` the geometric
        predicate is evaluated (refine phase); otherwise the MBR test of the
        filter phase is the answer.
        """
        self.stats.queries += 1
        return self.engine.execute([(None, window)], exact=exact)[0]

    def range_query_batch(
        self,
        queries: Sequence[Tuple[Any, Union[Envelope, Geometry]]],
        exact: bool = True,
    ) -> List[List[QueryHit]]:
        """Serve a batch of ``(query_id, window)`` queries in one pass.

        The batched front-end is where the filter-and-refine discipline pays
        across probes, not just within one — the engine's plan stage orders
        windows along the shared Hilbert visit order (page-cache locality),
        dedupes page touches batch-wide, and bulk-fetches the working set in
        coalesced runs when the cache can hold it (with a disabled or
        undersized cache, fetching falls back to per-query coalesced runs so
        memory stays bounded by one query's working set); the refine stage
        memoises decoded slots per page, so two probes hitting the same
        record decode it once.

        Returns one ``range_query``-identical hit list per query, in the
        input order.
        """
        queries = list(queries)
        self.stats.queries += len(queries)
        return self.engine.execute(queries, exact=exact)

    def query_outcome(
        self,
        queries: Sequence[Tuple[Any, Union[Envelope, Geometry]]],
        exact: bool = True,
        partial_ok: bool = False,
        budget: Optional[float] = None,
    ) -> BatchOutcome:
        """:meth:`range_query_batch` with an explicit outcome — degraded-mode
        partial results (``partial_ok``) and a per-batch simulated-I/O-seconds
        deadline (*budget*); see :meth:`StoreEngine.execute_outcome`.
        """
        queries = list(queries)
        self.stats.queries += len(queries)
        return self.engine.execute_outcome(
            queries, exact=exact, partial_ok=partial_ok, budget=budget
        )

    def join(
        self,
        probes: Sequence[Geometry],
        predicate: Predicate = predicates.intersects,
    ) -> List[Tuple[Geometry, QueryHit]]:
        """Filter-and-refine join of in-memory *probes* against the store.

        The store's packed index is the filter phase; *predicate* is the
        refine phase.  Probes are served through :meth:`range_query_batch`,
        so page touches are deduped and I/O is coalesced across the whole
        probe collection.  Returns ``(probe, hit)`` pairs in probe order.
        """
        probes = list(probes)
        per_probe = self.range_query_batch(
            [(i, probe.envelope) for i, probe in enumerate(probes)], exact=False
        )
        pairs: List[Tuple[Geometry, QueryHit]] = []
        for probe, hits in zip(probes, per_probe):
            for hit in hits:
                if predicate(probe, hit.geometry):
                    pairs.append((probe, hit))
        return pairs

    def explain(
        self, window: Union[Envelope, Geometry], exact: bool = True
    ) -> ExplainReport:
        """EXPLAIN-by-executing: run ``range_query(window, exact)`` under a
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
            hits = self.range_query(window, exact=exact)
        finally:
            self.tracer = saved
        return build_store_explain(
            kind="range_query",
            window=str(window),
            exact=exact,
            num_hits=len(hits),
            spans=tracer.spans,
            stats_before=before,
            stats_after=self.stats.as_dict(),
            partitions_total=len(self.manifest.partitions),
        )

    def _iter_pages(self) -> Iterator[Tuple[int, CachedPage]]:
        """``(generation, page image)`` for every page, newest generation
        first, fetched in bounded runs (at most one cache capacity's worth
        at a time) so a full sweep's memory stays bounded by the page cache,
        not the container — the engine's bounded-memory contract."""
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

    def scan(self) -> Iterator[Tuple[int, Geometry]]:
        """Every *visible* logical record exactly once (round-trip checks).

        Generations are walked newest-first so an updated record yields its
        newest version; tombstoned ids never surface.  Pages stream through
        :meth:`_iter_pages`, so the scan's memory stays bounded by the page
        cache.  Records stream out in (generation desc, page, slot) order,
        not record-id order.
        """
        seen: set = set()
        # replica de-dup + tombstone shadowing: the engine's refine-phase rule
        surviving_slots = self.engine.executor._surviving_slots
        for gen_id, page in self._iter_pages():
            live, _, _ = surviving_slots(page, range(page.count), gen_id, seen)
            yield from map(page.record, live)
