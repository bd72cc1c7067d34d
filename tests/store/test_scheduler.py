"""Unit tests of the store's I/O scheduler (`repro.store.scheduler`).

The scheduler is the engine's I/O stage: it must coalesce exactly like the
pre-engine serving path (gap-tolerant runs, negative gap disables merging),
clamp readahead at the container boundary and at cached pages, and — under
the cost-model policy — derive its knobs from the striping layout so the
serving path finally consults the paper's central I/O insight.
"""

import pytest

from repro.geometry import Envelope
from repro.pfs import IOCostModel, StripeLayout
from repro.store import (
    DEFAULT_RETRY,
    NO_RETRY,
    IOScheduler,
    RetryPolicy,
    ScheduledRun,
    StoreError,
    StoreFormatError,
    cost_model_gap,
    read_with_retry,
)
from repro.store.format import PageMeta


def make_pages(sizes, start=64, gaps=None):
    """Contiguous PageMeta list (optional per-boundary byte gaps)."""
    pages = []
    offset = start
    for i, size in enumerate(sizes):
        if gaps and i > 0:
            offset += gaps[i - 1]
        pages.append(
            PageMeta(page_id=i, offset=offset, nbytes=size, count=1,
                     mbr=Envelope(0, 0, 1, 1), crc32=0)
        )
        offset += size
    return pages


class TestCoalescing:
    def test_adjacent_pages_merge_into_one_run(self):
        pages = make_pages([100] * 6)
        sched = IOScheduler(pages, gap=0).schedule([0, 1, 2, 3, 4, 5])
        assert len(sched.runs) == 1
        assert sched.runs[0].page_ids == (0, 1, 2, 3, 4, 5)
        assert sched.total_bytes == 600

    def test_gap_splits_runs(self):
        # pages 0-1 adjacent, then a 50-byte hole before pages 2-3
        pages = make_pages([100] * 4, gaps=[0, 50, 0])
        sched = IOScheduler(pages, gap=0).schedule([0, 1, 2, 3])
        assert [run.page_ids for run in sched.runs] == [(0, 1), (2, 3)]
        # a tolerant gap re-merges them (and pays the 50 wasted bytes)
        sched = IOScheduler(pages, gap=50).schedule([0, 1, 2, 3])
        assert len(sched.runs) == 1
        assert sched.total_bytes == 450

    def test_negative_gap_disables_merging(self):
        pages = make_pages([100] * 4)
        sched = IOScheduler(pages, gap=-1).schedule([0, 1, 2, 3])
        assert len(sched.runs) == 4
        assert all(len(run.page_ids) == 1 for run in sched.runs)

    def test_skipped_page_counts_as_gap(self):
        # demanding 0 and 2 leaves page 1's bytes as the gap between runs
        pages = make_pages([100] * 3)
        assert len(IOScheduler(pages, gap=0).schedule([0, 2]).runs) == 2
        assert len(IOScheduler(pages, gap=100).schedule([0, 2]).runs) == 1

    def test_empty_schedule(self):
        sched = IOScheduler(make_pages([100]), gap=0).schedule([])
        assert sched.runs == []
        assert sched.total_bytes == 0
        assert sched.num_prefetched == 0


class TestReadRequestConsistency:
    def test_nbytes_matches_runs(self):
        pages = make_pages([100, 200, 50, 400], gaps=[0, 1000, 0])
        sched = IOScheduler(pages, gap=0).schedule([0, 1, 2, 3])
        req = sched.read_request()
        assert req.nbytes == sched.total_bytes == sum(r.nbytes for r in sched.runs)
        assert req.num_requests == len(sched.runs)
        assert req.ranges == sched.ranges

    def test_ranges_cover_exactly_the_scheduled_pages(self):
        pages = make_pages([100] * 5)
        sched = IOScheduler(pages, gap=0).schedule([1, 2, 4])
        covered = []
        for run in sched.runs:
            for pid in run.page_ids:
                meta = pages[pid]
                assert run.offset <= meta.offset
                assert meta.offset + meta.nbytes <= run.offset + run.nbytes
                covered.append(pid)
        assert covered == [1, 2, 4]


class TestFixedPolicy:
    def test_reads_nothing_ahead(self):
        pages = make_pages([100] * 8)
        sched = IOScheduler(pages, gap=0).schedule([0, 1])
        assert sched.runs[-1].page_ids == (0, 1)
        assert sched.num_prefetched == 0
        assert sched.prefetch_stop == "budget"


class TestCostModelPolicy:
    def setup_method(self):
        self.model = IOCostModel()

    def test_break_even_gap_formula(self):
        layout = StripeLayout(stripe_size=1 << 20, stripe_count=4)
        expected = int(
            (self.model.ost_latency + self.model.request_overhead)
            * self.model.ost_bandwidth
        )
        assert cost_model_gap(layout, self.model) == min(expected, 1 << 20)

    def test_gap_capped_at_one_stripe(self):
        tiny = StripeLayout(stripe_size=4096, stripe_count=4)
        assert cost_model_gap(tiny, self.model) == 4096

    def test_cost_aware_uses_derived_gap(self):
        pages = make_pages([100] * 4)
        layout = StripeLayout(stripe_size=1 << 20, stripe_count=4)
        auto = IOScheduler.cost_aware(pages, layout, self.model)
        assert auto.gap == cost_model_gap(layout, self.model)
        assert auto.is_cost_aware

    def test_readahead_extends_to_stripe_boundary(self):
        # 100-byte pages from offset 64; stripe size 512: the first stripe
        # ends at 512, so a demand for page 0 (ends at 164) reads ahead
        # pages 1..3 (ends 264, 364, 464) but not page 4 (would end at 564)
        pages = make_pages([100] * 8)
        layout = StripeLayout(stripe_size=512, stripe_count=2)
        sched = IOScheduler.cost_aware(pages, layout, self.model).schedule([0])
        assert sched.runs[-1].page_ids == (0, 1, 2, 3)
        assert sched.num_prefetched == 3
        end = sched.runs[-1].offset + sched.runs[-1].nbytes
        assert end <= 512

    def test_no_readahead_at_stripe_boundary(self):
        # pages of 64 bytes: page 3 ends exactly at offset 320... use sizes
        # that land a frontier on the boundary
        pages = make_pages([448, 100, 100])  # page 0: 64..512 (boundary)
        layout = StripeLayout(stripe_size=512, stripe_count=2)
        sched = IOScheduler.cost_aware(pages, layout, self.model).schedule([0])
        assert sched.num_prefetched == 0

    def test_readahead_extends_final_run_only(self):
        # two runs split by a hole wider than the derived gap: readahead
        # extends the last one, the first stays pure demand
        pages = make_pages([100] * 8, gaps=[0, 1 << 20] + [0] * 5)
        layout = StripeLayout(stripe_size=1 << 22, stripe_count=2)
        sched = IOScheduler.cost_aware(pages, layout, self.model).schedule([0, 2])
        assert [run.page_ids for run in sched.runs] == [(0,), (2, 3, 4, 5, 6, 7)]
        assert [run.num_prefetched for run in sched.runs] == [0, 5]
        assert sched.runs[-1].demand_ids == (2,)

    def test_partial_clamp_near_the_end(self):
        pages = make_pages([100] * 4)
        layout = StripeLayout(stripe_size=1 << 20, stripe_count=2)
        sched = IOScheduler.cost_aware(pages, layout, self.model).schedule([2])
        assert sched.num_prefetched == 1  # only page 3 exists past the frontier
        assert sched.runs[-1].page_ids == (2, 3)
        assert sched.prefetch_stop == "container_end"

    def test_stops_at_cached_page(self):
        pages = make_pages([100] * 6)
        layout = StripeLayout(stripe_size=1 << 20, stripe_count=2)
        sched = IOScheduler.cost_aware(pages, layout, self.model).schedule(
            [0], is_cached=lambda pid: pid == 2
        )
        assert sched.runs[-1].page_ids == (0, 1)
        assert sched.num_prefetched == 1
        assert sched.prefetch_stop == "cached_page"

    def test_cache_capacity_guard_spares_demand_pages(self):
        # a fetch's readahead must never evict the fetch's own demand pages:
        # with capacity 8 and 3 demand pages at most 5 may be read ahead
        pages = make_pages([10] * 40)
        layout = StripeLayout(stripe_size=1 << 20, stripe_count=2)
        scheduler = IOScheduler.cost_aware(
            pages, layout, self.model, cache_capacity=8
        )
        sched = scheduler.schedule([0, 1, 2])
        assert len(sched.runs[0].demand_ids) == 3
        assert sched.num_prefetched == 5
        # demand alone at/above capacity leaves no readahead budget at all
        assert scheduler.schedule(list(range(8))).num_prefetched == 0
        assert scheduler.schedule(list(range(12))).num_prefetched == 0

    def test_cost_aware_respects_container_boundary(self):
        pages = make_pages([100] * 3)
        layout = StripeLayout(stripe_size=1 << 20, stripe_count=2)
        sched = IOScheduler.cost_aware(pages, layout, self.model).schedule([2])
        assert sched.num_prefetched == 0
        last = pages[-1]
        assert sched.runs[-1].offset + sched.runs[-1].nbytes == last.offset + last.nbytes


class TestCacheGuard:
    """Regression battery for the cache-overflow guard: a fetch's readahead
    may never exceed ``cache_capacity - demand``, or it would evict the very
    demand pages the fetch was issued for (the confirmed PR 5 bug: eight
    pages of readahead into a capacity-2 cache evicted their own demand
    pages).  The stripe is wide enough that only the guard and the
    container end bound the readahead."""

    def _scheduler(self, pages, cache_capacity=None):
        return IOScheduler.cost_aware(
            pages,
            StripeLayout(stripe_size=1 << 20, stripe_count=2),
            IOCostModel(),
            cache_capacity=cache_capacity,
        )

    def test_readahead_never_exceeds_capacity_minus_demand(self):
        pages = make_pages([100] * 40)
        for capacity in (1, 2, 4, 8):
            for demand in ([0], [0, 1], [0, 1, 2], list(range(6))):
                sched = self._scheduler(pages, capacity).schedule(demand)
                assert sched.num_prefetched <= max(0, capacity - len(demand)), (
                    f"{sched.num_prefetched} prefetched with capacity "
                    f"{capacity} and {len(demand)} demand pages"
                )

    def test_confirmed_repro_capacity_two(self):
        # two demand pages fill a capacity-2 cache: nothing may be read ahead
        pages = make_pages([100] * 12)
        sched = self._scheduler(pages, cache_capacity=2).schedule([0, 1])
        assert sched.num_prefetched == 0
        assert sched.runs[-1].page_ids == (0, 1)
        assert sched.prefetch_stop == "budget"

    def test_partial_budget(self):
        pages = make_pages([100] * 12)
        sched = self._scheduler(pages, cache_capacity=6).schedule([0, 1])
        assert sched.num_prefetched == 4  # 6 - 2 demand

    def test_unclamped_without_capacity(self):
        # a scheduler built without a cache (capacity unknown) reads ahead
        # to the stripe boundary or, as here, the container end
        pages = make_pages([100] * 12)
        sched = self._scheduler(pages).schedule([0, 1])
        assert sched.num_prefetched == 10

    def test_demand_above_capacity_never_goes_negative(self):
        pages = make_pages([100] * 12)
        sched = self._scheduler(pages, cache_capacity=2).schedule([0, 1, 2, 3])
        assert sched.num_prefetched == 0


class TestScheduledRun:
    def test_demand_ids_excludes_prefetch(self):
        run = ScheduledRun(page_ids=(3, 4, 5, 6), offset=0, nbytes=400, num_prefetched=2)
        assert run.demand_ids == (3, 4)


class ScriptedHandle:
    """A file handle whose successive preads misbehave as *script* says:
    ``"error"`` raises, ``"short"`` drops the last byte, ``"ok"`` reads."""

    path = "stores/scripted/data.bin"

    def __init__(self, data, script=()):
        self.data = data
        self.size = len(data)
        self.script = list(script)
        self.calls = []

    def pread(self, offset, nbytes):
        self.calls.append((offset, nbytes))
        step = self.script.pop(0) if self.script else "ok"
        if step == "error":
            raise OSError("injected")
        chunk = self.data[offset : offset + nbytes]
        return chunk[:-1] if step == "short" else chunk


class TestReadWithRetry:
    """The one bounded-retry loop behind every metadata read of the store."""

    DATA = bytes(range(100))

    def test_clean_read_defaults_to_the_rest_of_the_file(self):
        fh = ScriptedHandle(self.DATA)
        assert read_with_retry(fh) == (self.DATA, 0.0, 0)
        assert read_with_retry(fh, 90) == (self.DATA[90:], 0.0, 0)
        assert fh.calls == [(0, 100), (90, 10)]

    def test_ranged_read_asks_for_exactly_the_range(self):
        fh = ScriptedHandle(self.DATA)
        assert read_with_retry(fh, 10, 20)[0] == self.DATA[10:30]
        assert fh.calls == [(10, 20)]

    @pytest.mark.parametrize("fault", ["error", "short"])
    def test_transient_faults_are_retried_with_backoff(self, fault):
        fh = ScriptedHandle(self.DATA, [fault, fault])
        data, waited, retries = read_with_retry(fh, 5, 50)
        assert data == self.DATA[5:55]
        assert retries == 2
        assert waited == pytest.approx(DEFAULT_RETRY.backoff(1) + DEFAULT_RETRY.backoff(2))
        assert fh.calls == [(5, 50)] * 3

    def test_a_genuinely_short_file_is_not_retried(self):
        # asking past the end returns what the file holds, for the format
        # layer's truncation diagnostics to judge
        fh = ScriptedHandle(self.DATA)
        assert read_with_retry(fh, 80, 64) == (self.DATA[80:], 0.0, 0)
        assert len(fh.calls) == 1

    def test_exhausted_attempts_raise_naming_path_and_count(self):
        policy = RetryPolicy(max_attempts=4)
        fh = ScriptedHandle(self.DATA, ["error"] * 4)
        with pytest.raises(StoreError, match=f"{fh.path}.*4 attempt") as excinfo:
            read_with_retry(fh, policy=policy)
        assert isinstance(excinfo.value.__cause__, OSError)
        assert len(fh.calls) == 4

    def test_exhausted_short_read_chains_a_format_error(self):
        fh = ScriptedHandle(self.DATA, ["short"])
        with pytest.raises(StoreError, match="1 attempt") as excinfo:
            read_with_retry(fh, 0, 10, NO_RETRY)
        assert isinstance(excinfo.value.__cause__, StoreFormatError)
        assert "got 9 of 10 bytes" in str(excinfo.value.__cause__)
