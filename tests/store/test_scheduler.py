"""Unit tests of the store's I/O scheduler (`repro.store.scheduler`).

The scheduler is the engine's I/O stage: priced by a striping layout and
a cost model, it merges runs into data sieves wherever one request is
cheaper than two, and the sieved schedule is held to the retired page-gap
scheduler (``_page_gap_scheduler_reference.py``): the same pages, never a
dearer charge.  Readahead is clamped at the container boundary, at cached
pages, at the stripe boundary and by the budget each fetch passes — the
cache slots still free after its demand pages, so readahead never evicts
(``TestReadaheadFreeSlots``, through real multi-generation stores).
"""

import random

import pytest
from _container_bytes import reseal
from _page_gap_scheduler_reference import PageGapScheduler  # the retired scheduler, kept next to this file
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.datasets import random_envelopes
from repro.faults import FaultRule, FaultyFilesystem
from repro.geometry import Envelope, Polygon
from repro.pfs import IOCostModel, LustreFilesystem, ReadRequest, StripeLayout
from repro.store import (
    DEFAULT_RETRY,
    NO_RETRY,
    IOScheduler,
    PageChecksumError,
    PageKey,
    RetryPolicy,
    ScheduledRun,
    SpatialDataStore,
    StoreAppender,
    StoreError,
    StoreFormatError,
    bulk_load,
    cost_model_gap,
    read_with_retry,
)
from repro.store import format as fmt
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


#: one stripe wider than any test layout: only the cost model's gap rules
WIDE = StripeLayout(stripe_size=1 << 30, stripe_count=1)


def priced(pages, gap):
    """A scheduler whose cost model prices one request at *gap* bytes of
    bandwidth and an OST request at nothing: its break-even gap is *gap*,
    whatever stripe boundaries lie between."""
    model = IOCostModel(ost_bandwidth=1.0, ost_latency=0.0, request_overhead=float(gap))
    return IOScheduler(pages, WIDE, model)


class TestCoalescing:
    def test_adjacent_pages_merge_into_one_run(self):
        pages = make_pages([100] * 6)
        sched = priced(pages, 0).schedule([0, 1, 2, 3, 4, 5])
        assert len(sched.runs) == 1
        assert sched.runs[0].page_ids == (0, 1, 2, 3, 4, 5)
        assert sched.total_bytes == 600

    def test_gap_splits_runs(self):
        # pages 0-1 adjacent, then a 50-byte hole before pages 2-3
        pages = make_pages([100] * 4, gaps=[0, 50, 0])
        sched = priced(pages, 0).schedule([0, 1, 2, 3])
        assert [run.page_ids for run in sched.runs] == [(0, 1), (2, 3)]
        # a dearer request re-merges them (and pays the 50 wasted bytes)
        sched = priced(pages, 50).schedule([0, 1, 2, 3])
        assert len(sched.runs) == 1
        assert sched.total_bytes == 450

    def test_negative_gap_disables_merging(self):
        # the retired scheduler's one-request-per-page baseline, which
        # test_serving_perf.py compares the live schedule with
        pages = make_pages([100] * 4)
        sched = PageGapScheduler(pages, gap=-1).schedule([0, 1, 2, 3])
        assert len(sched.runs) == 4
        assert all(len(run.page_ids) == 1 for run in sched.runs)

    def test_skipped_page_counts_as_gap(self):
        # demanding 0 and 2 leaves page 1's bytes as the gap between runs
        pages = make_pages([100] * 3)
        assert len(priced(pages, 0).schedule([0, 2]).runs) == 2
        assert len(priced(pages, 100).schedule([0, 2]).runs) == 1

    def test_empty_schedule(self):
        sched = priced(make_pages([100]), 0).schedule([], budget=8)
        assert sched.runs == []
        assert sched.total_bytes == 0
        assert sched.num_prefetched == 0


class TestReadRequestConsistency:
    def test_nbytes_matches_runs(self):
        pages = make_pages([100, 200, 50, 400], gaps=[0, 1000, 0])
        sched = priced(pages, 0).schedule([0, 1, 2, 3])
        req = sched.read_request()
        assert req.nbytes == sched.total_bytes == sum(r.nbytes for r in sched.runs)
        assert req.num_requests == len(sched.runs)
        assert req.ranges == sched.ranges

    def test_ranges_cover_exactly_the_scheduled_pages(self):
        pages = make_pages([100] * 5)
        sched = priced(pages, 0).schedule([1, 2, 4])
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
        # the fixed policy's budget is 0, the default
        pages = make_pages([100] * 8)
        sched = priced(pages, 0).schedule([0, 1])
        assert sched.runs[-1].page_ids == (0, 1)
        assert sched.num_prefetched == 0
        assert sched.prefetch_stop == "budget"


class TestCostModelPolicy:
    def setup_method(self):
        self.model = IOCostModel()

    def test_break_even_gap_formula(self):
        expected = int(
            (self.model.ost_latency + self.model.request_overhead)
            * self.model.ost_bandwidth
        )
        assert cost_model_gap(self.model) == expected

    def test_gap_is_not_capped_stripe_crossings_are_priced(self):
        # 4 KiB stripes: the in-stripe gap is the full break-even point, and
        # the rule, not a stripe cap, keeps a gap spanning a stripe unmerged
        tiny = StripeLayout(stripe_size=4096, stripe_count=4)
        assert IOScheduler([], tiny, self.model).gap == cost_model_gap(self.model)
        pages = make_pages([1000, 1000, 1000], start=0, gaps=[1000, 6000])
        sched = IOScheduler(pages, tiny, self.model).schedule([0, 1, 2])
        assert [run.page_ids for run in sched.runs] == [(0, 1), (2,)]

    def test_cost_aware_uses_derived_gap(self):
        pages = make_pages([100] * 4)
        layout = StripeLayout(stripe_size=1 << 20, stripe_count=4)
        auto = IOScheduler(pages, layout, self.model)
        assert auto.gap == cost_model_gap(self.model)

    def test_readahead_extends_to_stripe_boundary(self):
        # 100-byte pages from offset 64; stripe size 512: the first stripe
        # ends at 512, so a demand for page 0 (ends at 164) reads ahead
        # pages 1..3 (ends 264, 364, 464) but not page 4 (would end at 564)
        pages = make_pages([100] * 8)
        layout = StripeLayout(stripe_size=512, stripe_count=2)
        sched = IOScheduler(pages, layout, self.model).schedule([0], budget=8)
        assert sched.runs[-1].page_ids == (0, 1, 2, 3)
        assert sched.num_prefetched == 3
        end = sched.runs[-1].offset + sched.runs[-1].nbytes
        assert end <= 512

    def test_no_readahead_at_stripe_boundary(self):
        # pages of 64 bytes: page 3 ends exactly at offset 320... use sizes
        # that land a frontier on the boundary
        pages = make_pages([448, 100, 100])  # page 0: 64..512 (boundary)
        layout = StripeLayout(stripe_size=512, stripe_count=2)
        sched = IOScheduler(pages, layout, self.model).schedule([0], budget=8)
        assert sched.num_prefetched == 0

    def test_readahead_extends_final_run_only(self):
        # two runs split by a hole wider than the derived gap: readahead
        # extends the last one, the first stays pure demand
        pages = make_pages([100] * 8, gaps=[0, 1 << 20] + [0] * 5)
        layout = StripeLayout(stripe_size=1 << 22, stripe_count=2)
        sched = IOScheduler(pages, layout, self.model).schedule([0, 2], budget=8)
        assert [run.page_ids for run in sched.runs] == [(0,), (2, 3, 4, 5, 6, 7)]
        assert [run.num_prefetched for run in sched.runs] == [0, 5]
        assert sched.runs[-1].demand_ids == (2,)

    def test_partial_clamp_near_the_end(self):
        pages = make_pages([100] * 4)
        layout = StripeLayout(stripe_size=1 << 20, stripe_count=2)
        sched = IOScheduler(pages, layout, self.model).schedule([2], budget=8)
        assert sched.num_prefetched == 1  # only page 3 exists past the frontier
        assert sched.runs[-1].page_ids == (2, 3)
        assert sched.prefetch_stop == "container_end"

    def test_stops_at_cached_page(self):
        pages = make_pages([100] * 6)
        layout = StripeLayout(stripe_size=1 << 20, stripe_count=2)
        sched = IOScheduler(pages, layout, self.model).schedule(
            [0], is_cached=lambda pid: pid == 2, budget=8
        )
        assert sched.runs[-1].page_ids == (0, 1)
        assert sched.num_prefetched == 1
        assert sched.prefetch_stop == "cached_page"

    def test_budget_counts_readahead_pages_only(self):
        # the budget is what the cache has free after the demand pages: 5
        # free slots read 5 pages ahead of 3 demand pages
        pages = make_pages([10] * 40)
        layout = StripeLayout(stripe_size=1 << 20, stripe_count=2)
        scheduler = IOScheduler(pages, layout, self.model)
        sched = scheduler.schedule([0, 1, 2], budget=5)
        assert len(sched.runs[0].demand_ids) == 3
        assert sched.num_prefetched == 5
        assert scheduler.schedule(list(range(12)), budget=0).num_prefetched == 0

    def test_cost_aware_respects_container_boundary(self):
        pages = make_pages([100] * 3)
        layout = StripeLayout(stripe_size=1 << 20, stripe_count=2)
        sched = IOScheduler(pages, layout, self.model).schedule([2], budget=8)
        assert sched.num_prefetched == 0
        last = pages[-1]
        assert sched.runs[-1].offset + sched.runs[-1].nbytes == last.offset + last.nbytes


class TestReadaheadBudget:
    """The per-fetch readahead budget: the scheduler never reads more pages
    ahead than it is given (the store gives the cache slots still free
    after the fetch's demand pages; eight pages of readahead into a
    capacity-2 cache once evicted their own demand pages).
    The stripe is wide enough that only the budget and the container end
    bound the readahead."""

    def _scheduler(self, pages):
        return IOScheduler(
            pages, StripeLayout(stripe_size=1 << 20, stripe_count=2), IOCostModel()
        )

    def test_readahead_never_exceeds_the_budget(self):
        pages = make_pages([100] * 40)
        for budget in (0, 1, 2, 4, 8):
            for demand in ([0], [0, 1], [0, 1, 2], list(range(6))):
                sched = self._scheduler(pages).schedule(demand, budget=budget)
                assert sched.num_prefetched == budget, (
                    f"{sched.num_prefetched} prefetched with budget {budget}"
                )

    def test_zero_budget_reads_nothing_ahead(self):
        pages = make_pages([100] * 12)
        sched = self._scheduler(pages).schedule([0, 1], budget=0)
        assert sched.num_prefetched == 0
        assert sched.runs[-1].page_ids == (0, 1)
        assert sched.prefetch_stop == "budget"

    def test_partial_budget(self):
        pages = make_pages([100] * 12)
        sched = self._scheduler(pages).schedule([0, 1], budget=4)
        assert sched.num_prefetched == 4
        assert sched.prefetch_stop == "budget"

    def test_a_budget_past_the_container_end(self):
        # more budget than pages: the container end stops the readahead
        pages = make_pages([100] * 12)
        sched = self._scheduler(pages).schedule([0, 1], budget=64)
        assert sched.num_prefetched == 10
        assert sched.prefetch_stop == "container_end"


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


# --------------------------------------------------------------------------- #
# data sieving: the cost-model merge rule, held to the retired page-gap
# scheduler
# --------------------------------------------------------------------------- #
#: the fixtures' Lustre model: 495 000 B break-even inside a stripe,
#: 55 000 B across one stripe boundary
LUSTRE_MODEL = IOCostModel(ost_bandwidth=1.1e9, ost_latency=4.0e-4)


def _merged_pairs(schedule, pages):
    """Every two consecutive demand pages of one sieve (readahead pages are
    appended to the final sieve, not merged into it)."""
    return [
        (pages[a], pages[b])
        for run in schedule.runs
        for a, b in zip(run.demand_ids, run.demand_ids[1:])
    ]


class TestSieveRule:
    def _sched(self, pages, stripe):
        return IOScheduler(pages, StripeLayout(stripe_size=stripe, stripe_count=1), LUSTRE_MODEL)

    def test_inside_one_stripe_up_to_the_break_even_gap(self):
        pages = make_pages([1000, 1000, 1000], start=0, gaps=[494_000, 496_000])
        sched = self._sched(pages, 1 << 22).schedule([0, 1, 2])
        assert [run.page_ids for run in sched.runs] == [(0, 1), (2,)]
        # one range charged per sieve, the bytes between pages included
        assert sched.runs[0].nbytes == 496_000
        assert sched.read_request().num_requests == 2

    def test_across_one_stripe_boundary_only_the_client_request_is_saved(self):
        # page 0 ends 10 B before the 64 KiB boundary: a 54 000 B gap merges,
        # a 56 000 B one does not (the page-gap cost-model scheduler merged
        # anything up to one stripe, 65 536 B)
        for gap, merged in ((54_000, True), (56_000, False)):
            pages = make_pages([65_526, 1000], start=0, gaps=[gap])
            sched = self._sched(pages, 1 << 16).schedule([0, 1])
            assert (len(sched.runs) == 1) is merged

    def test_a_gap_spanning_a_whole_stripe_never_merges(self):
        # 4 KiB stripes: a 9 000 B gap crosses at least two boundaries, and
        # the merged range would pay an OST request for the stripe between
        pages = make_pages([1000, 1000], start=0, gaps=[9000])
        assert len(self._sched(pages, 4096).schedule([0, 1]).runs) == 2
        ref = PageGapScheduler(pages, gap=16_384).schedule([0, 1])
        assert len(ref.runs) == 1  # the page-gap rule merged it regardless

    def test_both_policies_share_the_rule_and_differ_in_readahead(self):
        pages = make_pages([1000] * 8, start=0, gaps=[0, 30_000] + [0] * 5)
        fixed = self._sched(pages, 1 << 20).schedule([0, 2], budget=0)
        cost = self._sched(pages, 1 << 20).schedule([0, 2], budget=64 - 2)
        assert fixed.runs[0].page_ids == (0, 2)
        assert cost.runs[0].page_ids == (0, 2, 3, 4, 5, 6, 7)
        assert (fixed.prefetch_stop, cost.prefetch_stop) == ("budget", "container_end")


@st.composite
def _sieve_cases(draw):
    """A page layout (1-8 KiB pages, back to back or with holes, at any
    alignment), its missing and cached pages, a stripe size of 4 KiB-1 MiB
    (stripe count 1, the only layout the writers produce) and the page size
    the retired fixed policy merged across."""
    n = draw(st.integers(1, 24))
    sizes = draw(st.lists(st.integers(1024, 8192), min_size=n, max_size=n))
    hole = st.one_of(st.just(0), st.integers(1, 8192), st.integers(8193, 520_000))
    holes = draw(st.one_of(st.just([0] * n), st.lists(hole, min_size=n, max_size=n)))
    pages = make_pages(sizes, start=draw(st.integers(0, 1 << 20)), gaps=holes)
    missing = sorted(draw(st.sets(st.integers(0, n - 1))))
    cached = draw(st.sets(st.integers(0, n - 1))) - set(missing)
    stripe = draw(st.integers(4096, 1 << 20))
    page_size = draw(st.integers(1024, 8192))
    capacity = draw(st.one_of(st.none(), st.integers(0, 40)))
    return pages, missing, cached, stripe, page_size, capacity


class TestSieveOracle:
    """Every fetch the sieving scheduler plans, against the retired
    page-gap scheduler on the same layout: the same pages come back with
    identical bytes, the filesystem never charges more, and every merged
    gap obeys the rule for its side of a stripe boundary."""

    @pytest.fixture(scope="class")
    def lustre(self, tmp_path_factory):
        return LustreFilesystem(tmp_path_factory.mktemp("sievefs"))

    @staticmethod
    def _served(schedule, pages, data):
        return {
            pid: data[run.offset : run.offset + run.nbytes][
                pages[pid].offset - run.offset : pages[pid].offset - run.offset + pages[pid].nbytes
            ]
            for run in schedule.runs
            for pid in run.page_ids
        }

    @settings(max_examples=300, deadline=None)
    @given(case=_sieve_cases())
    def test_same_pages_never_dearer_and_every_gap_by_the_rule(self, lustre, case):
        pages, missing, cached, stripe, page_size, capacity = case
        layout = StripeLayout(stripe_size=stripe, stripe_count=1)
        model = lustre.cost_model
        lustre.set_layout("sieve.bin", layout)
        data = random.Random(len(pages)).randbytes(pages[-1].offset + pages[-1].nbytes)

        sieving = IOScheduler(pages, layout, model)
        pairs = (
            (0, PageGapScheduler(pages, gap=page_size)),  # the fixed policy: no readahead
            (  # the retired capacity guard, as the budget it left
                len(pages) if capacity is None else max(0, capacity - len(missing)),
                PageGapScheduler.cost_aware(pages, layout, model, cache_capacity=capacity),
            ),
        )
        for budget, retired in pairs:
            new = sieving.schedule(missing, is_cached=cached.__contains__, budget=budget)
            old = retired.schedule(missing, is_cached=cached.__contains__)
            served = self._served(new, pages, data)
            assert served == self._served(old, pages, data)
            assert all(
                served[pid] == data[pages[pid].offset : pages[pid].offset + pages[pid].nbytes]
                for pid in served
            )
            assert (new.num_prefetched, new.prefetch_stop) == (
                old.num_prefetched, old.prefetch_stop,
            )
            # (1e-12 s: float rounding of equal charges summed differently)
            charge = lustre.read_time("sieve.bin", [new.read_request()])
            assert charge <= lustre.read_time("sieve.bin", [old.read_request()]) + 1e-12

            for a, b in _merged_pairs(new, pages):
                end = a.offset + a.nbytes
                gap, crossed = b.offset - end, b.offset // stripe - (end - 1) // stripe
                if crossed == 0:
                    assert gap <= (model.ost_latency + model.request_overhead) * model.ost_bandwidth
                else:
                    assert crossed == 1 and gap <= model.request_overhead * model.ost_bandwidth
            # and merging ends only where one more request is the cheaper side
            for first, second in zip(new.runs, new.runs[1:]):
                split = ReadRequest(0, ((first.offset, first.nbytes), (second.offset, second.nbytes)))
                joined = ReadRequest(
                    0, ((first.offset, second.offset + second.nbytes - first.offset),)
                )
                assert lustre.read_time("sieve.bin", [joined]) > (
                    lustre.read_time("sieve.bin", [split]) - 1e-12
                )


class TestSieveServing:
    """Sieves through a real store: faults inside a sieve are retried or
    quarantined page by page, and the host reads only the pages' bytes."""

    EXTENT = Envelope(0.0, 0.0, 1000.0, 1000.0)

    @pytest.fixture(scope="class")
    def loaded(self, tmp_path_factory):
        fs = LustreFilesystem(tmp_path_factory.mktemp("sieveserve"))
        geoms = [
            Polygon.from_envelope(env, userdata=i)
            for i, env in enumerate(random_envelopes(1500, extent=self.EXTENT,
                                                     max_size_fraction=0.004, seed=31))
        ]
        bulk_load(fs, "sieve", geoms, num_partitions=16, page_size=1024)
        return fs, geoms

    @pytest.mark.parametrize("io_policy", ["fixed", "cost_model"])
    def test_hot_spot_stream_under_faults_answers_like_brute_force(self, loaded, io_policy):
        fs, geoms = loaded
        faulty = FaultyFilesystem(fs, seed=13)
        faulty.add_rule(FaultRule(path_pattern="stores/sieve/data.bin", read_error_rate=0.05,
                                  short_read_rate=0.05, bitflip_rate=0.05))
        faulty.disarm()  # open clean; the faults hit the page reads
        with SpatialDataStore.open(faulty, "sieve", cache_pages=24, io_policy=io_policy,
                                   retry_policy=RetryPolicy(max_attempts=8)) as store:
            faulty.arm()
            rng = random.Random(7)
            centres = [(rng.uniform(100, 900), rng.uniform(100, 900)) for _ in range(4)]
            for i in range(200):
                size = 10.0 * (i % 5 + 1)
                if i % 2:
                    cx, cy = centres[rng.randrange(4)]
                    x, y = rng.gauss(cx, 10.0), rng.gauss(cy, 10.0)
                else:
                    x, y = rng.uniform(0, 1000 - size), rng.uniform(0, 1000 - size)
                window = Envelope(x, y, x + size, y + size)
                got = sorted(h.record_id for h in store.range_query(window))
                assert got == [rid for rid, g in enumerate(geoms)
                               if g.envelope.intersects(window)]
            assert store.stats.retries > 0 and not store._quarantined
        assert faulty.stats.read_errors and faulty.stats.short_reads and faulty.stats.bitflips

    def _sieve_over_a_gap(self, fs, retry_policy):
        store = SpatialDataStore.open(fs, "sieve", cache_pages=0, retry_policy=retry_policy)
        pages = store.pages
        assert pages[1].offset == pages[0].offset + pages[0].nbytes  # page 1 is the gap
        return store, [PageKey(0, 0), PageKey(0, 2)]

    def test_an_in_flight_flip_inside_a_sieve_is_caught_by_its_page_crc(self, loaded):
        fs, _ = loaded
        faulty = FaultyFilesystem(fs, seed=5)
        faulty.disarm()
        store, keys = self._sieve_over_a_gap(faulty, DEFAULT_RETRY)
        faulty.add_rule(FaultRule(path_pattern="stores/sieve/data.bin", bitflip_rate=1.0,
                                  max_faults=2))
        faulty.arm()
        with store:
            out = store._fetch_missing(keys)
            assert sorted(out) == keys
            assert store.stats.read_requests == 1 and store.stats.retries == 1
            assert not store._quarantined
        # one read per page, never page 1's bytes: each flip landed in a page
        path = store.generations[0].data_path
        assert faulty.stats.bitflip_sites == [(path, store.pages[0].offset),
                                              (path, store.pages[2].offset)]

    def test_a_poisoned_page_inside_a_sieve_is_quarantined_alone(self, loaded, tmp_path):
        fs, _ = loaded
        store, keys = self._sieve_over_a_gap(fs, NO_RETRY)
        meta = store.pages[2]
        with fs.open(store.generations[0].data_path, mode="r+") as fh:
            good = fh.pread(meta.offset, 1)
            fh.pwrite(meta.offset, bytes([good[0] ^ 0x40]))
        try:
            with store:
                failed = []
                out = store._fetch_missing(keys, failed)
                assert list(out) == [keys[0]]
                assert [key for key, _ in failed] == [keys[1]]
                assert isinstance(failed[0][1], PageChecksumError)
                assert store._quarantined == {keys[1]}
                assert store.stats.read_requests == 1
        finally:
            with fs.open(store.generations[0].data_path, mode="r+") as fh:
                fh.pwrite(meta.offset, good)


class TestStripeEdges:
    """Where a page boundary meets a stripe boundary (ROADMAP item 24's two
    surviving scheduler mutants)."""

    def test_a_run_ending_on_a_stripe_boundary_crosses_it(self):
        # page 0 ends exactly at the 1 MiB boundary, so a merge with page 1
        # (100 000 B into the next stripe) spans two stripes: it saves only
        # the client request (55 000 B), not the in-stripe 495 000 B
        pages = make_pages([1 << 20, 1000], start=0, gaps=[100_000])
        layout = StripeLayout(stripe_size=1 << 20, stripe_count=1)
        sched = IOScheduler(pages, layout, LUSTRE_MODEL).schedule([0, 1])
        assert [run.page_ids for run in sched.runs] == [(0,), (1,)]
        split = LUSTRE_MODEL.parallel_read_time(layout, [sched.read_request()])
        joined = LUSTRE_MODEL.parallel_read_time(
            layout, [ReadRequest(0, ((0, pages[1].offset + pages[1].nbytes),))]
        )
        assert split < joined

    def test_a_page_ending_on_the_stripe_boundary_is_read_ahead(self):
        # 128-byte pages from offset 0, 512-byte stripes: page 3 ends exactly
        # at 512 and still belongs to the frontier's stripe
        pages = make_pages([128] * 8, start=0)
        layout = StripeLayout(stripe_size=512, stripe_count=1)
        sched = IOScheduler(pages, layout, IOCostModel()).schedule([0], budget=8)
        assert sched.runs[-1].page_ids == (0, 1, 2, 3)
        assert sched.prefetch_stop == "stripe_boundary"


def _fetch_log(store):
    """Wrap *store*'s ``_fetch_missing`` to log, per fetch, the cache size
    before it, its demand keys, the keys it returned and the pages it read
    ahead and evictions it caused."""
    log = []
    fetch = store._fetch_missing

    def logged(missing, failed=None):
        before = (len(store._cache), store.stats.pages_prefetched, store.stats.cache.evictions)
        out = fetch(missing, failed)
        log.append((before[0], list(missing), sorted(out),
                    store.stats.pages_prefetched - before[1],
                    store.stats.cache.evictions - before[2]))
        return out

    store._fetch_missing = logged
    return log


def _damage(fs, path, page, payload_edit):
    """Replace page *page* of the container at *path* by ``payload_edit(payload)``
    (same length) and, when the edit returns ``(payload, True)``, rewrite its
    CRC table entry to match (and re-seal the metadata tail); returns the
    undo."""
    backing = fs.backing_path(path)
    blob = backing.read_bytes()
    header = fmt.unpack_header(blob, file_size=len(blob))
    tail = header.dir_offset + header.num_pages * fmt.PAGE_DIR_ENTRY.size  # the CRC table
    meta = fmt.unpack_page_directory(blob[header.dir_offset:], header.num_pages)[page]
    payload, recrc = payload_edit(blob[meta.offset : meta.offset + meta.nbytes])
    damaged = bytearray(blob)
    damaged[meta.offset : meta.offset + meta.nbytes] = payload
    if recrc:
        entry = tail + page * fmt.PAGE_CHECKSUM_ENTRY.size
        damaged[entry : entry + fmt.PAGE_CHECKSUM_ENTRY.size] = fmt.PAGE_CHECKSUM_ENTRY.pack(
            fmt.page_crc32(payload)
        )
        damaged = reseal(damaged)
    backing.write_bytes(bytes(damaged))
    return lambda: backing.write_bytes(blob)


def _huge_count(payload):
    """A page whose count prefix outruns its payload, CRC made valid."""
    return b"\xff\xff\x00\x00" + payload[4:], True


def _flipped(payload):
    """A page with one flipped byte and the old CRC."""
    return bytes([payload[0] ^ 0x40]) + payload[1:], False


class TestReadaheadFreeSlots:
    """Readahead only fills the cache slots still free after a fetch's demand
    pages, and enters the cache undecoded: multi-generation fetches through
    real stores, against the fixed policy's pages."""

    EXTENT = Envelope(0.0, 0.0, 1000.0, 1000.0)

    @pytest.fixture(scope="class")
    def layered(self, tmp_path_factory):
        """A base container and two delta generations of small pages."""
        fs = LustreFilesystem(tmp_path_factory.mktemp("freeslots"))

        def boxes(n, seed, first):
            envs = random_envelopes(n, extent=self.EXTENT, max_size_fraction=0.004, seed=seed)
            return [Polygon.from_envelope(env, userdata=first + i) for i, env in enumerate(envs)]

        bulk_load(fs, "layered", boxes(500, 17, 0), num_partitions=16, page_size=512)
        for step in range(2):
            StoreAppender(fs, "layered").append(boxes(150, 18 + step, 500 + 150 * step))
        return fs

    @settings(max_examples=40, deadline=None)
    @given(
        capacity=st.integers(0, 48),
        fetches=st.lists(
            st.lists(st.tuples(st.integers(0, 2), st.integers(0, 10_000)), max_size=12),
            min_size=1, max_size=8,
        ),
    )
    def test_readahead_fills_free_slots_only_and_never_evicts(self, layered, capacity, fetches):
        store = SpatialDataStore.open(layered, "layered", cache_pages=capacity)
        fixed = SpatialDataStore.open(layered, "layered", cache_pages=0, io_policy="fixed")
        assert store.num_generations == 2
        log = _fetch_log(store)
        with store, fixed:
            for draw in fetches:
                keys = sorted({PageKey(g, i % len(store.generations[g].pages)) for g, i in draw})
                pages = store._get_pages(keys)
                assert sorted(pages) == keys
                want = fixed._get_pages(keys)
                assert all(
                    (pages[k].payload, pages[k].record_ids) == (want[k].payload, want[k].record_ids)
                    for k in keys
                )
                assert len(store._cache) <= capacity
        for cached, demand, returned, prefetched, evictions in log:
            assert returned == demand  # demand pages only
            assert prefetched <= max(0, capacity - cached - len(demand))
            # only the demand pages' own insertions may evict
            assert evictions <= max(0, cached + len(demand) - capacity)
            assert not (prefetched and evictions)

    @settings(max_examples=12, deadline=None)
    @given(generation=st.integers(0, 2), page=st.integers(1, 10_000))
    def test_a_broken_column_behind_a_valid_crc_raises_on_first_demand(
        self, layered, generation, page
    ):
        store = SpatialDataStore.open(layered, "layered", cache_pages=64)
        page %= len(store.generations[generation].pages)
        path = store.generations[generation].data_path
        store.close()
        assume(page)
        undo = _damage(layered, path, page, _huge_count)
        try:
            with SpatialDataStore.open(layered, "layered", cache_pages=64) as store:
                key, prev = PageKey(generation, page), PageKey(generation, page - 1)
                store._get_pages([prev])  # reads the damaged page ahead, unparsed
                assume(key in store._cache)
                requests = store.stats.read_requests
                with pytest.raises(StoreFormatError):
                    store._get_pages([key])
                assert store.stats.read_requests == requests
            # as a demand read of the same page fails
            with SpatialDataStore.open(layered, "layered", io_policy="fixed") as store:
                with pytest.raises(StoreFormatError):
                    store._get_pages([PageKey(generation, page)])
        finally:
            undo()

    @settings(max_examples=12, deadline=None)
    @given(generation=st.integers(0, 2), page=st.integers(1, 10_000))
    def test_a_readahead_page_failing_its_crc_is_quarantined_silently(
        self, layered, generation, page
    ):
        store = SpatialDataStore.open(layered, "layered", cache_pages=64)
        page %= len(store.generations[generation].pages)
        path = store.generations[generation].data_path
        store.close()
        assume(page)
        undo = _damage(layered, path, page, _flipped)
        try:
            with SpatialDataStore.open(layered, "layered", cache_pages=64) as store:
                key, prev = PageKey(generation, page), PageKey(generation, page - 1)
                assert sorted(store._get_pages([prev])) == [prev]  # no error raised
                assume(key in store._quarantined)
                assert key not in store._cache
                assert store.stats.checksum_failures == 1
                assert store.stats.retries == DEFAULT_RETRY.max_attempts - 1
                before = store.stats.as_dict()
                with pytest.raises(PageChecksumError, match="quarantined"):
                    store._get_pages([key])
                after = store.stats.as_dict()
                for counter in ("read_requests", "bytes_read", "io_seconds", "retries"):
                    assert after[counter] == before[counter]
        finally:
            undo()
