"""The page-gap I/O scheduler that the data-sieving
:class:`repro.store.IOScheduler` replaced, kept as an oracle — the way
``_lru_cache_reference.py`` keeps the retired page cache.

It merged two runs of missing pages whenever the bytes between them were at
most one fixed ``gap``: one page size under the ``"fixed"`` policy (which
read nothing ahead), the stripe-capped break-even gap under
``"cost_model"``, whatever stripe boundaries that gap crossed.
``tests/store/test_scheduler.py`` checks that the sieved schedule returns the
same pages with the same bytes and is never charged more by the filesystem
cost model.  Not used by any serving path.
"""

from typing import Callable, List, Optional, Sequence

from repro.pfs import IOCostModel, StripeLayout
from repro.store import IOSchedule, ScheduledRun
from repro.store.format import PageMeta


class PageGapScheduler:
    """Coalesce sorted missing page ids across gaps of at most ``gap`` bytes
    (negative: one run per page); with a *layout* the final run reads ahead
    to its stripe boundary, at most ``cache_capacity`` minus the demand
    pages."""

    def __init__(
        self,
        pages: Sequence[PageMeta],
        gap: int,
        layout: Optional[StripeLayout] = None,
        cache_capacity: Optional[int] = None,
    ) -> None:
        self.pages = pages
        self.gap = gap
        self.layout = layout
        self.cache_capacity = cache_capacity

    @classmethod
    def cost_aware(
        cls,
        pages: Sequence[PageMeta],
        layout: StripeLayout,
        cost_model: IOCostModel,
        cache_capacity: Optional[int] = None,
    ) -> "PageGapScheduler":
        break_even = (
            cost_model.ost_latency + cost_model.request_overhead
        ) * cost_model.ost_bandwidth
        gap = int(min(break_even, layout.stripe_size))
        return cls(pages, gap, layout=layout, cache_capacity=cache_capacity)

    def schedule(
        self,
        missing: Sequence[int],
        is_cached: Callable[[int], bool] = lambda pid: False,
    ) -> IOSchedule:
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
            max_pages, byte_ceiling = 0, None
            if self.layout is not None:
                frontier = self.pages[runs[-1][-1]]
                stripe = self.layout.stripe_size
                end = frontier.offset + frontier.nbytes
                max_pages = len(self.pages)
                if self.cache_capacity is not None:
                    max_pages = max(0, min(max_pages, self.cache_capacity - len(missing)))
                byte_ceiling = ((end + stripe - 1) // stripe) * stripe
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
