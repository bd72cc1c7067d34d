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
from repro.store import IOScheduler, ScheduledRun, cost_model_gap
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
                     mbr=Envelope(0, 0, 1, 1))
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


class TestFixedReadahead:
    def test_extends_final_run(self):
        pages = make_pages([100] * 8)
        sched = IOScheduler(pages, gap=0, prefetch_pages=3).schedule([0, 1])
        assert sched.runs[-1].page_ids == (0, 1, 2, 3, 4)
        assert sched.num_prefetched == 3
        assert sched.runs[-1].demand_ids == (0, 1)

    def test_clamps_at_container_boundary(self):
        # demanding the last page leaves nothing to read ahead: the run must
        # never extend into the page directory that follows the payloads
        pages = make_pages([100] * 4)
        sched = IOScheduler(pages, gap=0, prefetch_pages=8).schedule([3])
        assert sched.num_prefetched == 0
        last = pages[-1]
        assert sched.runs[-1].offset + sched.runs[-1].nbytes == last.offset + last.nbytes

    def test_partial_clamp_near_the_end(self):
        pages = make_pages([100] * 4)
        sched = IOScheduler(pages, gap=0, prefetch_pages=8).schedule([2])
        assert sched.num_prefetched == 1  # only page 3 exists past the frontier
        assert sched.runs[-1].page_ids == (2, 3)

    def test_stops_at_cached_page(self):
        pages = make_pages([100] * 6)
        sched = IOScheduler(pages, gap=0, prefetch_pages=4).schedule(
            [0], is_cached=lambda pid: pid == 2
        )
        assert sched.runs[-1].page_ids == (0, 1)
        assert sched.num_prefetched == 1

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            IOScheduler(make_pages([100]), gap=0, prefetch_pages=-1)


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

    def test_cost_aware_uses_derived_gap_unless_overridden(self):
        pages = make_pages([100] * 4)
        layout = StripeLayout(stripe_size=1 << 20, stripe_count=4)
        auto = IOScheduler.cost_aware(pages, layout, self.model)
        assert auto.gap == cost_model_gap(layout, self.model)
        assert auto.is_cost_aware
        explicit = IOScheduler.cost_aware(pages, layout, self.model, gap=7)
        assert explicit.gap == 7

    def test_readahead_extends_to_stripe_boundary(self):
        # 100-byte pages from offset 64; stripe size 512: the first stripe
        # ends at 512, so a demand for page 0 (ends at 164) reads ahead
        # pages 1..3 (ends 264, 364, 464) but not page 4 (would end at 564)
        pages = make_pages([100] * 8)
        layout = StripeLayout(stripe_size=512, stripe_count=2)
        sched = IOScheduler.cost_aware(pages, layout, self.model, gap=0).schedule([0])
        assert sched.runs[-1].page_ids == (0, 1, 2, 3)
        assert sched.num_prefetched == 3
        end = sched.runs[-1].offset + sched.runs[-1].nbytes
        assert end <= 512

    def test_no_readahead_at_stripe_boundary(self):
        # pages of 64 bytes: page 3 ends exactly at offset 320... use sizes
        # that land a frontier on the boundary
        pages = make_pages([448, 100, 100])  # page 0: 64..512 (boundary)
        layout = StripeLayout(stripe_size=512, stripe_count=2)
        sched = IOScheduler.cost_aware(pages, layout, self.model, gap=0).schedule([0])
        assert sched.num_prefetched == 0

    def test_prefetch_limit_clamps_depth(self):
        pages = make_pages([10] * 40)
        layout = StripeLayout(stripe_size=1 << 20, stripe_count=2)
        sched = IOScheduler.cost_aware(
            pages, layout, self.model, gap=0, prefetch_limit=5
        ).schedule([0])
        assert sched.num_prefetched == 5

    def test_cache_capacity_guard_spares_demand_pages(self):
        # a fetch's readahead must never evict the fetch's own demand pages:
        # with capacity 8 and 3 demand pages at most 5 may be read ahead
        pages = make_pages([10] * 40)
        layout = StripeLayout(stripe_size=1 << 20, stripe_count=2)
        scheduler = IOScheduler.cost_aware(
            pages, layout, self.model, gap=0, cache_capacity=8
        )
        sched = scheduler.schedule([0, 1, 2])
        assert len(sched.runs[0].demand_ids) == 3
        assert sched.num_prefetched == 5
        # demand alone at/above capacity leaves no readahead budget at all
        assert scheduler.schedule(list(range(8))).num_prefetched == 0
        assert scheduler.schedule(list(range(12))).num_prefetched == 0

    def test_prefetch_limit_and_capacity_compose(self):
        pages = make_pages([10] * 40)
        layout = StripeLayout(stripe_size=1 << 20, stripe_count=2)
        sched = IOScheduler.cost_aware(
            pages, layout, self.model, gap=0, prefetch_limit=2, cache_capacity=8
        ).schedule([0, 1, 2])
        assert sched.num_prefetched == 2  # tighter of the two caps wins

    def test_cost_aware_respects_container_boundary(self):
        pages = make_pages([100] * 3)
        layout = StripeLayout(stripe_size=1 << 20, stripe_count=2)
        sched = IOScheduler.cost_aware(pages, layout, self.model, gap=0).schedule([2])
        assert sched.num_prefetched == 0
        last = pages[-1]
        assert sched.runs[-1].offset + sched.runs[-1].nbytes == last.offset + last.nbytes


class TestCacheGuardBothPolicies:
    """Regression battery for the cache-overflow guard: under **either**
    policy a fetch's readahead may never exceed ``cache_capacity - demand``,
    or it would evict the very demand pages the fetch was issued for.  The
    fixed policy once ignored the guard entirely (the confirmed PR 5 bug:
    ``prefetch_pages=8`` into a capacity-2 cache evicted its own demand
    pages)."""

    def _scheduler(self, policy, pages, cache_capacity, depth=8):
        if policy == "fixed":
            return IOScheduler(pages, gap=0, prefetch_pages=depth,
                               cache_capacity=cache_capacity)
        return IOScheduler.cost_aware(
            pages,
            StripeLayout(stripe_size=1 << 20, stripe_count=2),
            IOCostModel(),
            gap=0,
            prefetch_limit=depth,
            cache_capacity=cache_capacity,
        )

    @pytest.mark.parametrize("policy", ["fixed", "cost_model"])
    def test_readahead_never_exceeds_capacity_minus_demand(self, policy):
        pages = make_pages([100] * 40)
        for capacity in (1, 2, 4, 8):
            for demand in ([0], [0, 1], [0, 1, 2], list(range(6))):
                sched = self._scheduler(policy, pages, capacity).schedule(demand)
                assert sched.num_prefetched <= max(0, capacity - len(demand)), (
                    f"{policy}: {sched.num_prefetched} prefetched with "
                    f"capacity {capacity} and {len(demand)} demand pages"
                )

    def test_confirmed_repro_fixed_policy_capacity_two(self):
        # the exact repro from the issue: 8 pages of readahead into a
        # capacity-2 cache with 2 demand pages must be clamped to zero
        pages = make_pages([100] * 12)
        sched = IOScheduler(pages, gap=0, prefetch_pages=8,
                            cache_capacity=2).schedule([0, 1])
        assert sched.num_prefetched == 0
        assert sched.runs[-1].page_ids == (0, 1)

    def test_fixed_policy_partial_budget(self):
        pages = make_pages([100] * 12)
        sched = IOScheduler(pages, gap=0, prefetch_pages=8,
                            cache_capacity=6).schedule([0, 1])
        assert sched.num_prefetched == 4  # 6 - 2 demand

    def test_fixed_policy_unclamped_without_capacity(self):
        # schedulers built without a cache (capacity unknown) keep the
        # legacy behaviour: the constant depth alone
        pages = make_pages([100] * 12)
        sched = IOScheduler(pages, gap=0, prefetch_pages=8).schedule([0, 1])
        assert sched.num_prefetched == 8

    def test_demand_above_capacity_never_goes_negative(self):
        pages = make_pages([100] * 12)
        sched = IOScheduler(pages, gap=0, prefetch_pages=8,
                            cache_capacity=2).schedule([0, 1, 2, 3])
        assert sched.num_prefetched == 0


class TestScheduledRun:
    def test_demand_ids_excludes_prefetch(self):
        run = ScheduledRun(page_ids=(3, 4, 5, 6), offset=0, nbytes=400, num_prefetched=2)
        assert run.demand_ids == (3, 4)
