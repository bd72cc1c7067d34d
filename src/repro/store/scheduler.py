"""Cost-model-priced I/O scheduling — the *schedule* stage of the store engine.

The planner (:mod:`repro.store.engine`) decides **which** pages a query batch
must touch; this module decides **how** the missing ones reach memory.  An
:class:`IOScheduler` turns a sorted list of missing page ids into
:class:`ScheduledRun`\\ s — each run one *data sieve* (ROMIO's data sieving,
Thakur, Gropp & Lusk 1999): one byte range, charged as one request, that
covers a run of missing pages and the unwanted bytes between them, the whole
schedule one :class:`~repro.pfs.ReadRequest` — and sizes the sequential
readahead past the demand frontier.

Both policies sieve by the same rule, priced by the data file's
:class:`~repro.pfs.StripeLayout` and :class:`~repro.pfs.IOCostModel` (the
paper's Figs 15–16: per-request latency, not bytes, dominates small
non-contiguous reads).  Two runs merge whenever reading the bytes between
them costs less than the request the merge saves:

* inside one stripe the merge saves an OST request and a client request —
  ``gap <= (ost_latency + request_overhead) * ost_bandwidth``, the
  *break-even gap* (:func:`cost_model_gap`);
* across a stripe boundary the merged range is split into one OST request
  per stripe anyway, so it saves only the client request —
  ``gap <= request_overhead * ost_bandwidth`` — and a gap spanning a whole
  stripe would add an OST request, which never pays.

The policies differ only in readahead: **fixed** reads nothing ahead;
**cost-model** extends the final run **to the stripe boundary** ("parallel
file read access will be stripe aligned", §4.1): the extension stays on the
OST the run already pays latency on, so it costs bandwidth only.  It reads
ahead at most the caller's *budget* of pages — the store passes the cache
slots still free after the fetch's demand pages (the fixed policy ``0``), so
readahead never evicts a page (Butt, Gniady & Hu, SIGMETRICS 2005:
prefetches that evict undo the replacement policy).

Both policies share the same hard safety rules: runs never read past the last
page (the packed index and page directory that follow the payloads are
never touched) and
readahead never duplicates a cached page.

:func:`read_with_retry` is the one bounded-retry loop of the metadata reads
(manifests, container headers and metadata tails), and
:func:`read_file` the one charged whole-file read built on it; the serving
read path retries whole sieves the same way in
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


#: virtual backoff before the first retry (seconds); each later retry waits
#: ``_BACKOFF_MULTIPLIER`` times longer, up to ``_BACKOFF_MAX``
_BACKOFF_BASE = 0.002
_BACKOFF_MULTIPLIER = 4.0
_BACKOFF_MAX = 0.25


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for transient read faults.

    The serving path re-issues a failed data sieve up to
    ``max_attempts`` times in total; before retry *n* (1-based) it charges
    ``backoff(n)`` **virtual** seconds to the store's ``io_seconds`` (2 ms,
    then ×4 per attempt, capped at 250 ms) — the
    simulated analogue of sleeping out a transient fault, so backoff shows
    up in latency distributions without ever stalling the real test run.
    Retryable faults are raised ``OSError``\\ s, short reads and page
    checksum mismatches; structural decode errors are not retried (the
    bytes parsed deterministically wrong, a re-read cannot help unless the
    checksum says the bytes themselves are suspect).
    """

    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Virtual seconds to wait before retry *attempt* (1-based)."""
        return min(_BACKOFF_MAX, _BACKOFF_BASE * _BACKOFF_MULTIPLIER ** (attempt - 1))


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
    of a store's manifest at open and of ``shards.json``.  Returns ``(data, seconds, retries)``: *seconds* is
    what the read cost, retry backoff plus the open and the one read the
    cost model charges."""
    with fs.open(path) as fh:
        data, seconds, retries = read_with_retry(fh, policy=policy)
    seconds += fs.open_time()
    seconds += fs.read_time(path, [ReadRequest(0, ((0, len(data)),))])
    return data, seconds, retries


def cost_model_gap(cost_model: IOCostModel) -> int:
    """Break-even sieve gap inside one stripe: merge two runs whenever the
    bytes between them cost less to read than another request.

    A separate run pays one more OST RPC (``ost_latency``) plus one more
    client software overhead (``request_overhead``); bridging the gap pays
    ``gap / ost_bandwidth`` of unwanted bandwidth.  Not capped at a stripe:
    a gap crossing a stripe boundary is priced lower by
    :meth:`IOScheduler._bridges`, so a sieve never drags in an OST request
    purely to avoid a client request.
    """
    break_even = (
        cost_model.ost_latency + cost_model.request_overhead
    ) * cost_model.ost_bandwidth
    return int(break_even)


@dataclass(frozen=True)
class ScheduledRun:
    """One data sieve: a byte range, charged as one request, covering a run
    of pages and the bytes between them that no page of the run holds (the
    host reads only the pages' bytes).

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
    """The scheduler's output: the data sieves of one fetch.

    ``prefetch_stop`` records **why** readahead ended where it did — the
    EXPLAIN report surfaces it verbatim: ``"empty"`` (nothing missing, no
    frontier to extend), ``"budget"`` (no free cache slot left for another
    page — always, under the fixed policy's zero budget),
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
    """Schedules page fetches for one store container, priced by its
    striping *layout* and the filesystem's *cost_model*: runs merge by the
    cost-model rule of :meth:`_bridges` (``gap`` is the break-even gap
    inside one stripe) and the final run reads ahead to the stripe
    boundary, at most the ``budget`` each :meth:`schedule` call is given.
    """

    def __init__(
        self,
        pages: Sequence[PageMeta],
        layout: StripeLayout,
        cost_model: IOCostModel,
    ) -> None:
        self.pages = pages
        self.gap = cost_model_gap(cost_model)
        self.layout = layout
        self.cost_model = cost_model

    def _bridges(self, end: int, start: int) -> bool:
        """Whether the run ending at byte *end* and the run starting at
        *start* are read as one sieve.

        Inside one stripe the gap may reach ``gap``.  The merged range is
        split into one OST request per stripe it touches, so each stripe
        boundary between the two runs takes back one OST request's worth
        of bytes (``ost_latency * ost_bandwidth``): across one boundary only
        the client request is saved (``request_overhead * ost_bandwidth``
        bytes), and each further boundary costs the merge one more OST
        request — never worth it while an OST request outprices a client
        request, as on every shipped cost model.  A run ending exactly on a
        boundary has its last byte in the stripe before it.
        """
        stripe, model = self.layout.stripe_size, self.cost_model
        crossed = start // stripe - (end - 1) // stripe
        return start - end <= self.gap - crossed * model.ost_latency * model.ost_bandwidth

    def schedule(
        self,
        missing: Sequence[int],
        is_cached: Callable[[int], bool] = lambda pid: False,
        budget: int = 0,
    ) -> IOSchedule:
        """Merge the (sorted) *missing* page ids into sieves
        (:meth:`_bridges`) and extend the final one with readahead.

        Readahead takes the pages that fit between the frontier and the end
        of the stripe holding it (none when the frontier sits exactly on a
        stripe boundary — the run is already aligned; a page ending exactly
        on the boundary still fits), at most *budget* of them.  The store
        passes the cache slots still free after the fetch's demand pages,
        so readahead only fills free slots and never evicts.  Readahead
        stops at the container boundary (the last page — it can never read
        into the page directory), at the first already-cached page, at the
        stripe boundary and at that budget.
        """
        runs: List[List[int]] = []
        for pid in missing:
            if runs:
                prev = self.pages[runs[-1][-1]]
                if self._bridges(prev.offset + prev.nbytes, self.pages[pid].offset):
                    runs[-1].append(pid)
                    continue
            runs.append([pid])

        prefetched = 0
        stop = "empty"
        if runs:
            nxt = runs[-1][-1] + 1
            stop = "budget"
            stripe = self.layout.stripe_size
            frontier_end = self.pages[nxt - 1].offset + self.pages[nxt - 1].nbytes
            byte_ceiling = ((frontier_end + stripe - 1) // stripe) * stripe
            while prefetched < budget:
                if nxt >= len(self.pages):
                    stop = "container_end"
                    break
                if is_cached(nxt):
                    stop = "cached_page"
                    break
                meta = self.pages[nxt]
                if meta.offset + meta.nbytes > byte_ceiling:
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
