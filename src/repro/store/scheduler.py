"""Cost-model-aware I/O scheduling — the *schedule* stage of the store engine.

The planner (:mod:`repro.store.engine`) decides **which** pages a query batch
must touch; this module decides **how** the missing ones reach memory.  An
:class:`IOScheduler` turns a sorted list of missing page ids into coalesced,
gap-tolerant :class:`ScheduledRun`\\ s — each run one contiguous byte range,
the whole schedule one :class:`~repro.pfs.ReadRequest` — and sizes the
sequential readahead past the demand frontier.

Two policies choose the coalescing gap and the readahead depth:

* **fixed** (the pre-engine heuristic): the gap is one page size and there is
  no readahead.
* **cost-model** (:func:`IOScheduler.cost_aware`): both are derived from
  the file's :class:`~repro.pfs.StripeLayout` and
  :class:`~repro.pfs.IOCostModel` — the paper's central observation that I/O
  strategy must follow the striping configuration, applied to serving.  The
  gap is the *break-even gap* (:func:`cost_model_gap`): wasted bytes between
  two runs are cheaper to read than a second RPC while
  ``gap / ost_bandwidth < ost_latency + request_overhead``.  Readahead
  extends the final run **to the stripe boundary** ("parallel file read
  access will be stripe aligned", §4.1): the extension stays on the OST the
  run already pays latency on, so it costs bandwidth only.

Both policies share the same hard safety rules: runs never read past the last
page (the page directory that follows the payloads is never touched),
readahead never duplicates a cached page, and a negative gap disables
merging entirely (one request per page — the measurement baseline).

:func:`read_with_retry` is the one bounded-retry loop of the metadata reads
(manifests, container headers and directories, packed indexes), and
:func:`read_file` the one charged whole-file read built on it; the serving
read path retries whole coalesced runs the same way in
:meth:`~repro.store.datastore.SpatialDataStore._read_run`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..pfs import IOCostModel, ReadRequest, StripeLayout
from .format import PageMeta, StoreError, StoreFormatError

__all__ = [
    "DEFAULT_RETRY",
    "IOSchedule",
    "IOScheduler",
    "NO_RETRY",
    "RetryPolicy",
    "ScheduledRun",
    "cost_model_gap",
    "read_file",
    "read_with_retry",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for transient read faults.

    The serving path re-issues a failed coalesced run up to
    ``max_attempts`` times in total; before retry *n* (1-based) it charges
    ``backoff(n)`` **virtual** seconds to the store's ``io_seconds`` — the
    simulated analogue of sleeping out a transient fault, so backoff shows
    up in latency distributions without ever stalling the real test run.
    Retryable faults are raised ``OSError``\\ s, short reads and page
    checksum mismatches; structural decode errors are not retried (the
    bytes parsed deterministically wrong, a re-read cannot help unless the
    checksum says the bytes themselves are suspect).
    """

    max_attempts: int = 3
    backoff_base: float = 0.002
    backoff_multiplier: float = 4.0
    backoff_max: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Virtual seconds to wait before retry *attempt* (1-based)."""
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_multiplier ** (attempt - 1),
        )


#: single-attempt policy: any read fault is immediately fatal
NO_RETRY = RetryPolicy(max_attempts=1)

#: serving default: 3 attempts, 2 ms / 8 ms virtual backoff
DEFAULT_RETRY = RetryPolicy()


def read_with_retry(
    fh, offset: int = 0, nbytes: Optional[int] = None,
    policy: RetryPolicy = DEFAULT_RETRY,
) -> Tuple[bytes, float, int]:
    """Read *nbytes* at *offset* of the open handle *fh* (default: to the end
    of the file), absorbing transient faults under *policy*.

    Only a read that returns less than the *file* can provide — a raised
    ``OSError`` or an injected short read — is retried; a genuinely short
    file still returns short bytes, so the format layer's truncation
    diagnostics stay intact.  Returns ``(data, backoff_seconds, retries)``
    — the caller charges the virtual backoff to its own I/O accounting.
    Exhausted attempts raise :class:`~repro.store.format.StoreError` naming
    the path, with the last fault chained.
    """
    available = max(0, fh.size - offset)
    if nbytes is None:
        nbytes = available
    waited = 0.0
    attempt = 1
    while True:
        err: Optional[Exception] = None
        data = b""
        try:
            data = fh.pread(offset, nbytes)
        except OSError as exc:
            err = exc
        if err is None and len(data) >= min(nbytes, available):
            return data, waited, attempt - 1
        if attempt >= policy.max_attempts:
            if err is None:
                err = StoreFormatError(
                    f"short read of {fh.path!r} at {offset}: got "
                    f"{len(data)} of {nbytes} bytes"
                )
            raise StoreError(
                f"reading {fh.path!r} failed after {attempt} attempt(s): {err}"
            ) from err
        waited += policy.backoff(attempt)
        attempt += 1


def read_file(fs, path: str, policy: RetryPolicy) -> Tuple[bytes, float, int]:
    """All of *path* on the filesystem *fs*, read through
    :func:`read_with_retry` under *policy* — the charged whole-file read
    of a store's manifest and packed indexes at open and of
    ``shards.json``.  Returns ``(data, seconds, retries)``: *seconds* is
    what the read cost, retry backoff plus the open and the one read the
    cost model charges."""
    with fs.open(path) as fh:
        data, seconds, retries = read_with_retry(fh, policy=policy)
    seconds += fs.open_time()
    seconds += fs.read_time(path, [ReadRequest(0, ((0, len(data)),))])
    return data, seconds, retries


def cost_model_gap(layout: StripeLayout, cost_model: IOCostModel) -> int:
    """Break-even coalescing gap for one file: merge two runs whenever the
    bytes between them cost less to read than issuing another request.

    A separate run pays one more OST RPC (``ost_latency``) plus one more
    client software overhead (``request_overhead``); bridging the gap pays
    ``gap / ost_bandwidth`` of wasted bandwidth.  The break-even point is
    capped at one stripe so a merged run never drags an extra OST in purely
    to avoid a request.
    """
    break_even = (
        cost_model.ost_latency + cost_model.request_overhead
    ) * cost_model.ost_bandwidth
    return int(min(break_even, layout.stripe_size))


@dataclass(frozen=True)
class ScheduledRun:
    """One contiguous read range covering a run of pages.

    The last ``num_prefetched`` entries of ``page_ids`` are readahead pages
    appended past the demand frontier; the rest are demand-fetched misses.
    """

    page_ids: Tuple[int, ...]
    offset: int
    nbytes: int
    num_prefetched: int = 0

    @property
    def demand_ids(self) -> Tuple[int, ...]:
        count = len(self.page_ids) - self.num_prefetched
        return self.page_ids[:count]


@dataclass
class IOSchedule:
    """The scheduler's output: the coalesced runs of one fetch.

    ``prefetch_stop`` records **why** readahead ended where it did — the
    EXPLAIN report surfaces it verbatim: ``"empty"`` (nothing missing, no
    frontier to extend), ``"budget"`` (page budget exhausted: the fixed
    policy's zero budget or the cost-model policy's cache-capacity guard),
    ``"container_end"`` (next page would be past the last payload page),
    ``"cached_page"`` (next page already cached) or ``"stripe_boundary"``
    (cost-model policy: next page crosses the stripe holding the frontier).
    """

    runs: List[ScheduledRun]
    prefetch_stop: str = "empty"

    @property
    def ranges(self) -> Tuple[Tuple[int, int], ...]:
        return tuple((run.offset, run.nbytes) for run in self.runs)

    @property
    def total_bytes(self) -> int:
        return sum(run.nbytes for run in self.runs)

    @property
    def num_prefetched(self) -> int:
        return sum(run.num_prefetched for run in self.runs)

    def read_request(self) -> ReadRequest:
        """The whole schedule as one (multi-range) filesystem request, so the
        cost model charges a run of requests instead of one RPC per page.
        ``read_request().nbytes`` equals :attr:`total_bytes` by construction —
        the invariant the accounting tests pin."""
        return ReadRequest(0, self.ranges)


class IOScheduler:
    """Schedules page fetches for one store container.

    Construct directly for the fixed policy (no readahead), or via
    :func:`cost_aware` to derive the knobs from a striping layout and cost
    model.  ``gap`` is the maximum byte distance between two page runs
    still merged into one read range (negative disables merging) — the one
    knob the two policies set differently.  The cost-model policy reads
    ahead to the stripe boundary, clamped by the ``cache_capacity``
    overflow guard: demand and readahead pages enter the cache together,
    and readahead past ``cache_capacity - demand`` would make one fetch
    insert more pages than the cache holds.
    """

    def __init__(
        self,
        pages: Sequence[PageMeta],
        gap: int,
        layout: Optional[StripeLayout] = None,
        cost_model: Optional[IOCostModel] = None,
        cache_capacity: Optional[int] = None,
    ) -> None:
        self.pages = pages
        self.gap = gap
        self.layout = layout
        self.cost_model = cost_model
        self.cache_capacity = cache_capacity

    # ------------------------------------------------------------------ #
    @classmethod
    def cost_aware(
        cls,
        pages: Sequence[PageMeta],
        layout: StripeLayout,
        cost_model: IOCostModel,
        cache_capacity: Optional[int] = None,
    ) -> "IOScheduler":
        """Scheduler with knobs derived from the striping configuration: the
        break-even gap and stripe-aligned readahead clamped by the
        *cache_capacity* overflow guard."""
        return cls(
            pages,
            gap=cost_model_gap(layout, cost_model),
            layout=layout,
            cost_model=cost_model,
            cache_capacity=cache_capacity,
        )

    @property
    def is_cost_aware(self) -> bool:
        return self.layout is not None and self.cost_model is not None

    # ------------------------------------------------------------------ #
    def _readahead_budget(
        self, frontier_end: int, num_demand: int
    ) -> Tuple[int, Optional[int]]:
        """``(max_pages, byte_ceiling)`` for readahead past *frontier_end*.

        Fixed policy: none.  Cost-model policy: as many pages as fit between
        the frontier and the end of the stripe holding it (zero when the
        frontier sits exactly on a stripe boundary — the run is already
        aligned), clamped to ``cache_capacity`` **minus the fetch's own
        demand pages** — demand and readahead enter the cache together, so
        a budget that ignored the demand count would let one fetch insert
        more pages than the cache holds.  (Under SIEVE that is the whole
        guarantee: when every older page has its visited bit set, a fetch's
        insertions may still evict one of its own fresh pages.)
        """
        if not self.is_cost_aware:
            return 0, None
        stripe = self.layout.stripe_size
        limit = len(self.pages)
        if self.cache_capacity is not None:
            limit = min(limit, self.cache_capacity - num_demand)
        return max(0, limit), ((frontier_end + stripe - 1) // stripe) * stripe

    def schedule(
        self,
        missing: Sequence[int],
        is_cached: Callable[[int], bool] = lambda pid: False,
    ) -> IOSchedule:
        """Coalesce the (sorted) *missing* page ids into gap-tolerant runs
        and extend the final run with readahead.

        Readahead stops at the container boundary (the last page — it can
        never read into the page directory), at the first already-cached
        page, and at the policy's budget.
        """
        runs: List[List[int]] = []
        for pid in missing:
            if runs:
                prev = self.pages[runs[-1][-1]]
                if self.pages[pid].offset - (prev.offset + prev.nbytes) <= self.gap:
                    runs[-1].append(pid)
                    continue
            runs.append([pid])

        prefetched = 0
        stop = "empty"
        if runs:
            frontier = self.pages[runs[-1][-1]]
            max_pages, byte_ceiling = self._readahead_budget(
                frontier.offset + frontier.nbytes, len(missing)
            )
            nxt = runs[-1][-1] + 1
            while True:
                if prefetched >= max_pages:
                    stop = "budget"
                    break
                if nxt >= len(self.pages):
                    stop = "container_end"
                    break
                if is_cached(nxt):
                    stop = "cached_page"
                    break
                meta = self.pages[nxt]
                if byte_ceiling is not None and meta.offset + meta.nbytes > byte_ceiling:
                    stop = "stripe_boundary"
                    break
                runs[-1].append(nxt)
                prefetched += 1
                nxt += 1

        scheduled: List[ScheduledRun] = []
        for i, run in enumerate(runs):
            first, last = self.pages[run[0]], self.pages[run[-1]]
            scheduled.append(
                ScheduledRun(
                    page_ids=tuple(run),
                    offset=first.offset,
                    nbytes=last.offset + last.nbytes - first.offset,
                    num_prefetched=prefetched if i == len(runs) - 1 else 0,
                )
            )
        return IOSchedule(scheduled, prefetch_stop=stop)
