"""Fault-tolerance battery for the serving stack.

Covers the full chain the fault-injection harness exercises: deterministic
seeded injection (`repro.faults`), per-page CRC32 checksums turning silent
bit-flips into :class:`PageChecksumError`, bounded retry/backoff absorbing
transient read errors, quarantine of poisoned pages, degraded-mode partial
results with exact missing-partition accounting, per-query I/O deadlines
and replica failover in the sharded server.
"""

import pytest

from repro import mpisim
from repro.datasets import random_envelopes
from repro.faults import (
    FaultRule,
    FaultyFilesystem,
    RankFaultInjector,
    TransientIOError,
)
from repro.geometry import Envelope, Polygon
from repro.pfs import LustreFilesystem
from repro.store import (
    DEFAULT_RETRY,
    DeadlineExceeded,
    DistributedStoreServer,
    NO_RETRY,
    PageChecksumError,
    PageKey,
    QueryResult,
    RetryPolicy,
    SpatialDataStore,
    StoreError,
    bulk_load,
    replica_store_name,
)

WINDOW = Envelope(0.0, 0.0, 100.0, 100.0)


def make_polygons(count, seed):
    return [
        Polygon.from_envelope(env, userdata=i)
        for i, env in enumerate(
            random_envelopes(count, extent=WINDOW, max_size_fraction=0.1, seed=seed)
        )
    ]


def flip_page_byte(fs, store):
    """Flip one payload byte of the first base page of an open store's
    container; returns the poisoned PageKey."""
    meta = store.generations[0].pages[0]
    path = store.generations[0].data_path
    with fs.open(path, mode="r+") as fh:
        byte = fh.pread(meta.offset, 1)
        fh.pwrite(meta.offset, bytes([byte[0] ^ 0x40]))
    return PageKey(0, meta.page_id)


# --------------------------------------------------------------------------- #
# injection harness
# --------------------------------------------------------------------------- #
class TestFaultyFilesystem:
    @pytest.fixture
    def fs(self, tmp_path):
        inner = LustreFilesystem(tmp_path / "pfs")
        inner.create_file("data/a.bin", bytes(range(256)) * 16)
        inner.create_file("data/b.bin", b"clean" * 100)
        return FaultyFilesystem(inner, seed=7)

    def test_unarmed_and_unmatched_reads_pass_through(self, fs):
        fs.add_rule(FaultRule(path_pattern="data/a.bin", read_error_rate=1.0))
        fs.disarm()
        with fs.open("data/a.bin") as fh:
            assert fh.pread(0, 16) == bytes(range(16))
        fs.arm()
        with fs.open("data/b.bin") as fh:  # pattern does not match
            assert fh.pread(0, 5) == b"clean"
        with pytest.raises(TransientIOError):
            with fs.open("data/a.bin") as fh:
                fh.pread(0, 16)

    def test_rank_filter_applies_outside_runtime_as_rank_zero(self, fs):
        fs.add_rule(
            FaultRule(path_pattern="*", ranks=[3], read_error_rate=1.0)
        )
        with fs.open("data/a.bin") as fh:  # main thread reads as rank 0
            assert len(fh.pread(0, 64)) == 64

    def test_max_faults_bounds_the_injection(self, fs):
        fs.add_rule(
            FaultRule(path_pattern="*", read_error_rate=1.0, max_faults=2)
        )
        failures = 0
        with fs.open("data/a.bin") as fh:
            for _ in range(10):
                try:
                    fh.pread(0, 8)
                except TransientIOError:
                    failures += 1
        assert failures == 2
        assert fs.stats.read_errors == 2

    def test_bitflip_changes_exactly_one_bit(self, fs):
        fs.add_rule(FaultRule(path_pattern="*", bitflip_rate=1.0, max_faults=1))
        with fs.open("data/a.bin") as fh:
            flipped = fh.pread(0, 64)
        clean = (bytes(range(256)) * 16)[:64]
        diff = [i for i in range(64) if flipped[i] != clean[i]]
        assert len(diff) == 1
        assert bin(flipped[diff[0]] ^ clean[diff[0]]).count("1") == 1
        assert fs.stats.bitflip_sites == [("data/a.bin", 0)]

    def test_seeded_replay_is_deterministic(self, fs):
        def run(faulty):
            faulty.add_rule(
                FaultRule(path_pattern="*", read_error_rate=0.3, bitflip_rate=0.3)
            )
            outcomes = []
            with faulty.open("data/a.bin") as fh:
                for i in range(50):
                    try:
                        outcomes.append(fh.pread(i, 8))
                    except TransientIOError:
                        outcomes.append("error")
            return outcomes, (faulty.stats.read_errors, faulty.stats.bitflips)

        first = run(fs)
        assert run(FaultyFilesystem(fs.inner, seed=fs.seed)) == first

    def test_latency_spikes_add_virtual_seconds(self, fs):
        from repro.pfs import ReadRequest

        fs.add_rule(
            FaultRule(
                path_pattern="*",
                latency_spike_rate=1.0,
                latency_spike_seconds=0.25,
            )
        )
        base = fs.inner.read_time("data/a.bin", [ReadRequest(0, ((0, 64),))])
        spiked = fs.read_time("data/a.bin", [ReadRequest(0, ((0, 64),))])
        assert spiked == pytest.approx(base + 0.25)
        assert fs.stats.latency_spikes == 1

    def test_rank_fault_injector_kills_the_configured_rank(self):
        def prog(comm):
            comm.attach_fault_hook(RankFaultInjector(fail_rank=1, after_calls=2))
            for _ in range(5):
                comm.allreduce(1, mpisim.ops.SUM)
            return comm.rank

        with pytest.raises(mpisim.RankFaultError, match="rank 1"):
            mpisim.run_spmd(prog, 4)


# --------------------------------------------------------------------------- #
# checksums, retry, quarantine (single store)
# --------------------------------------------------------------------------- #
class TestChecksumsAndRetry:
    @pytest.fixture
    def loaded(self, tmp_path):
        fs = LustreFilesystem(tmp_path / "pfs")
        geoms = make_polygons(80, seed=11)
        bulk_load(fs, "faulty", geoms, num_partitions=16, page_size=512)
        return fs, geoms

    def test_backoff_schedule_is_bounded_exponential(self):
        policy = RetryPolicy(max_attempts=6)
        assert policy.backoff(1) == pytest.approx(0.002)
        assert policy.backoff(2) == pytest.approx(0.008)
        assert policy.backoff(3) == pytest.approx(0.032)
        assert policy.backoff(4) == pytest.approx(0.128)
        assert policy.backoff(5) == pytest.approx(0.25)  # capped
        assert policy.backoff(6) == pytest.approx(0.25)
        assert NO_RETRY.max_attempts == 1

    def test_transient_read_errors_are_retried_and_counted(self, loaded):
        fs, geoms = loaded
        faulty = FaultyFilesystem(fs, seed=3)
        faulty.add_rule(
            FaultRule(
                path_pattern="stores/faulty/*", read_error_rate=1.0, max_faults=2
            )
        )
        with SpatialDataStore.open(faulty, "faulty", cache_pages=256) as store:
            hits = store.range_query(WINDOW)
            assert sorted(h.record_id for h in hits) == list(range(len(geoms)))
            assert store.stats.retries >= 2
            assert store.stats.checksum_failures == 0
            assert faulty.stats.read_errors == 2

    def test_retry_backoff_charges_virtual_io_seconds(self, loaded):
        fs, _ = loaded
        with SpatialDataStore.open(fs, "faulty", cache_pages=256) as store:
            store.range_query(WINDOW)
            clean_io = store.stats.io_seconds
        faulty = FaultyFilesystem(fs, seed=3)
        faulty.add_rule(
            FaultRule(
                path_pattern="stores/faulty/data.bin",
                read_error_rate=1.0,
                max_faults=1,
            )
        )
        with SpatialDataStore.open(faulty, "faulty", cache_pages=256) as store:
            store.range_query(WINDOW)
            assert store.stats.retries == 1
            # the injected backoff, on top of the clean run's reads
            assert store.stats.io_seconds == pytest.approx(
                clean_io + DEFAULT_RETRY.backoff(1)
            )

    def test_retry_exhaustion_raises_store_error(self, loaded):
        fs, _ = loaded
        faulty = FaultyFilesystem(fs, seed=3)
        faulty.add_rule(
            FaultRule(path_pattern="stores/faulty/data.bin", read_error_rate=1.0)
        )
        faulty.disarm()  # open clean, then let every page read fail
        with SpatialDataStore.open(faulty, "faulty", cache_pages=256) as store:
            faulty.arm()
            with pytest.raises(StoreError, match="attempt"):
                store.range_query(WINDOW)

    def test_bitflip_is_detected_and_quarantined(self, loaded):
        fs, geoms = loaded
        with SpatialDataStore.open(fs, "faulty", cache_pages=256) as store:
            key = flip_page_byte(fs, store)

        with SpatialDataStore.open(fs, "faulty", cache_pages=256) as store:
            with pytest.raises(PageChecksumError) as excinfo:
                store.range_query(WINDOW)
            assert excinfo.value.page_id == key.page_id
            assert key in store._quarantined
            assert store.stats.checksum_failures == 1
            # fail-fast on the quarantined page: no fresh I/O, counted once
            reads_before = store.stats.read_requests
            with pytest.raises(PageChecksumError, match="quarantined"):
                store.range_query(WINDOW)
            assert store.stats.read_requests == reads_before
            assert store.stats.checksum_failures == 1

    def test_in_flight_bitflip_is_retried_from_clean_bytes(self, loaded):
        # a torn/bit-flipped *read* (backing file intact) must be absorbed
        # by re-reading, not quarantined
        fs, geoms = loaded
        faulty = FaultyFilesystem(fs, seed=5)
        faulty.add_rule(
            FaultRule(
                path_pattern="stores/faulty/data.bin",
                bitflip_rate=1.0,
                max_faults=1,
            )
        )
        faulty.disarm()  # flip a page read, not the open-time header read
        with SpatialDataStore.open(faulty, "faulty", cache_pages=256) as store:
            faulty.arm()
            hits = store.range_query(WINDOW)
            assert sorted(h.record_id for h in hits) == list(range(len(geoms)))
            assert store.stats.retries >= 1
            assert not store._quarantined

    def test_partial_ok_collects_failures_with_partition_accounting(self, loaded):
        fs, geoms = loaded
        with SpatialDataStore.open(fs, "faulty", cache_pages=256) as store:
            key = flip_page_byte(fs, store)

        with SpatialDataStore.open(fs, "faulty", cache_pages=256) as store:
            outcome = store.query_outcome([(0, WINDOW)], partial_ok=True)
            assert not outcome.complete
            assert [k for k, _ in outcome.failed_pages] == [key]
            assert all(
                isinstance(exc, PageChecksumError)
                for _, exc in outcome.failed_pages
            )
            assert key.generation == 0
            assert outcome.missing_partitions == [store.manifest.partition_of_page()[key.page_id]]
            assert outcome.incomplete_queries == [0]
            # the surviving hits are exactly the full answer minus the
            # records of the poisoned page
            full = set(range(len(geoms)))
            got = {h.record_id for h in outcome.hits[0]}
            assert got < full
            lost = full - got
            assert lost  # the page held records

    def test_deadline_truncates_with_deadline_exceeded(self, loaded):
        fs, geoms = loaded
        with SpatialDataStore.open(fs, "faulty", cache_pages=256) as store:
            outcome = store.query_outcome(
                [(0, WINDOW)], partial_ok=True, budget=0.0
            )
            assert not outcome.complete
            assert outcome.incomplete_queries == [0]
            assert any(
                isinstance(exc, DeadlineExceeded)
                for _, exc in outcome.failed_pages
            )
            with pytest.raises(DeadlineExceeded):
                store.query_outcome([(0, WINDOW)], partial_ok=False, budget=0.0)

    def test_generous_deadline_changes_nothing(self, loaded):
        fs, geoms = loaded
        with SpatialDataStore.open(fs, "faulty", cache_pages=256) as store:
            outcome = store.query_outcome([(0, WINDOW)], budget=1e9)
            assert outcome.complete
            assert sorted(h.record_id for h in outcome.hits[0]) == list(
                range(len(geoms))
            )


# --------------------------------------------------------------------------- #
# replica failover and degraded serving (sharded)
# --------------------------------------------------------------------------- #
class TestReplicaFailover:
    NAME = "ft"

    @pytest.fixture
    def sharded(self, tmp_path):
        fs = LustreFilesystem(tmp_path / "pfs")
        geoms = make_polygons(60, seed=21)
        result = bulk_load(
            fs, self.NAME, geoms, num_shards=4, num_partitions=16, page_size=512,
            read_replicas=1,
        )
        return fs, geoms, result

    def _serve(self, fs, nprocs=4, allow_degraded=False, partial_ok=False,
               deadline=None):
        def prog(comm):
            with DistributedStoreServer.open(
                comm, fs, self.NAME, allow_degraded=allow_degraded
            ) as server:
                res = server.range_query_batch(
                    [(0, WINDOW)] if comm.rank == 0 else None,
                    partial_ok=partial_ok,
                    deadline=deadline,
                )
                snapshot = server.aggregate_metrics()
                return res, snapshot

        out = mpisim.run_spmd(prog, nprocs)
        return out.values[0]

    def _poison_store(self, fs, store_name):
        """Zero the payload bytes of a shard store's container (header and
        metadata tail kept, so only page fetches fail — via checksums)."""
        from repro.store.format import HEADER_SIZE, unpack_header

        path = f"stores/{store_name}/data.bin"
        with fs.open(path) as fh:
            raw = fh.pread(0, fh.size)
        header = unpack_header(raw[:HEADER_SIZE])
        fs.create_file(
            path,
            raw[:HEADER_SIZE]
            + b"\x00" * (header.index_offset - HEADER_SIZE)
            + raw[header.index_offset:],
        )

    def test_manifest_records_replica_stores(self, sharded):
        fs, _, result = sharded
        for shard in result.manifest.shards:
            expected = [replica_store_name(self.NAME, shard.shard_id, 0)]
            assert shard.replica_stores == expected
            assert fs.exists(f"stores/{expected[0]}/manifest.json")

    @pytest.mark.parametrize("nprocs", (1, 2, 4))
    def test_poisoned_primary_fails_over_to_replica(self, sharded, nprocs):
        fs, geoms, result = sharded
        victim = next(s for s in result.manifest.shards if s.num_pages > 0)
        self._poison_store(fs, victim.store)

        hits, metrics = self._serve(fs, nprocs=nprocs)
        assert sorted(h.record_id for h in hits) == list(range(len(geoms)))
        assert metrics["counters"]["server.failovers"] >= 1

    def _serve_poisoned(self, sharded, nprocs, measure):
        """One full-extent batch at *nprocs* ranks after zeroing a primary's
        pages; rank 0's ``measure(server, comm, serve)``."""
        fs, _, result = sharded
        victim = next(s for s in result.manifest.shards if s.num_pages > 0)
        self._poison_store(fs, victim.store)

        def prog(comm):
            with DistributedStoreServer.open(comm, fs, self.NAME) as server:
                return measure(
                    server, comm,
                    lambda: server.range_query_batch([(0, WINDOW)] if comm.rank == 0 else None),
                )

        return mpisim.run_spmd(prog, nprocs).values[0]

    def test_aggregate_stats_keeps_the_store_failover_retired(self, sharded):
        # the retired primary's failed reads stay in aggregate_stats, which
        # then agrees with aggregate_metrics on every store counter
        def measure(server, comm, serve):
            serve()
            return server.aggregate_stats()["aggregate"], server.aggregate_metrics()["counters"]

        stats, counters = self._serve_poisoned(sharded, 4, measure)
        assert counters["server.failovers"] == 1
        assert stats["checksum_failures"] == counters["store.checksum_failures"] > 0
        assert stats["retries"] == counters["store.retries"] > 0
        assert stats["cache_misses"] == counters["cache.misses"]
        assert stats["io_seconds"] == pytest.approx(counters["store.io_seconds"], rel=1e-12)

    @pytest.mark.parametrize("nprocs", (1, 4))
    def test_explain_batch_delta_is_the_aggregate_movement_across_a_failover(
        self, sharded, nprocs
    ):
        # EXPLAIN reads the same per-shard ledger as aggregate_stats: the
        # batch that fails the primary over reports the retired primary's
        # failed reads, retries and backoff, and the replica's open and
        # reads, in the victim shard's row and in the total
        def measure(server, comm, serve):
            before = server.aggregate_stats()["aggregate"]
            report = server.explain_batch([(0, WINDOW)] if comm.rank == 0 else None)
            after = server.aggregate_stats()["aggregate"]
            return report, before, after, server.aggregate_metrics()["counters"]

        report, before, after, counters = self._serve_poisoned(sharded, nprocs, measure)
        assert counters["server.failovers"] == 1
        moved = {key: after[key] - before[key] for key in after if key != "cache_hit_rate"}
        assert set(report.stats_delta) == set(moved)
        for key, value in moved.items():
            assert report.stats_delta[key] == pytest.approx(value, rel=1e-12), key
        for key in ("io_seconds", "retries", "checksum_failures", "cache_misses"):
            assert report.stats_delta[key] > 0, key
        victim = next(s for s in sharded[2].manifest.shards if s.num_pages > 0)
        row = report.shards[victim.shard_id]
        assert row["checksum_failures"] == report.stats_delta["checksum_failures"]
        assert row["retries"] == report.stats_delta["retries"]
        for key in ("io_seconds", "cache_misses", "records_decoded"):
            assert sum(info[key] for info in report.shards.values()) == pytest.approx(
                report.stats_delta[key], rel=1e-12
            )
            assert sum(rank.get(key, 0) for rank in report.per_rank) == pytest.approx(
                report.stats_delta[key], rel=1e-12
            )

    def test_virtual_clock_charges_the_store_failover_retired(self, sharded):
        # every simulated I/O second the batch cost — the primary's failed
        # reads and retry backoff, the replica's open and reads — is charged
        # to the rank's clock exactly once
        def measure(server, comm, serve):
            io_before = server.aggregate_metrics()["counters"]["store.io_seconds"]
            clock_before = comm.clock.breakdown["io"]
            serve()
            charged = comm.clock.breakdown["io"] - clock_before
            return charged, server.aggregate_metrics()["counters"]["store.io_seconds"] - io_before

        charged, store_io = self._serve_poisoned(sharded, 1, measure)
        assert charged == pytest.approx(store_io, rel=1e-12) and store_io > 0

    def test_retry_policy_reaches_shard_stores_and_failover_replicas(self, sharded):
        # regression: DistributedStoreServer.open took no retry_policy (a
        # TypeError), so every shard store was stuck with DEFAULT_RETRY
        fs, _, result = sharded
        victim = next(s for s in result.manifest.shards if s.num_pages > 0)
        self._poison_store(fs, victim.store)

        def prog(comm):
            with DistributedStoreServer.open(
                comm, fs, self.NAME, retry_policy=NO_RETRY
            ) as server:
                opened = {sid: st.retry_policy for sid, st in server.stores.items()}
                server.range_query_batch([(0, WINDOW)] if comm.rank == 0 else None)
                serving = {
                    sid: (st.name, st.retry_policy) for sid, st in server.stores.items()
                }
                return opened, serving

        opened, serving = {}, {}
        for rank_opened, rank_serving in mpisim.run_spmd(prog, 2).values:
            opened.update(rank_opened)
            serving.update(rank_serving)
        assert sorted(opened) == [0, 1, 2, 3]
        assert all(policy is NO_RETRY for policy in opened.values())
        # the victim now serves from the replica failover opened
        assert serving[victim.shard_id] == (victim.replica_stores[0], NO_RETRY)

    def test_unknown_serving_keyword_is_a_type_error_naming_it(self, sharded):
        fs, _, result = sharded
        with pytest.raises(TypeError, match="'admission'"):
            SpatialDataStore.open(fs, result.manifest.shards[0].store, admission="all")

        def prog(comm):
            DistributedStoreServer.open(comm, fs, self.NAME, admission="all")

        with pytest.raises(TypeError, match="'admission'"):
            mpisim.run_spmd(prog, 2)

    def test_failover_results_match_fault_free(self, sharded):
        fs, geoms, result = sharded
        clean, _ = self._serve(fs)
        for shard in result.manifest.shards:
            if shard.num_pages > 0:
                self._poison_store(fs, shard.store)
        degraded, metrics = self._serve(fs)
        assert [(h.record_id, h.geometry.wkt()) for h in degraded] == [
            (h.record_id, h.geometry.wkt()) for h in clean
        ]
        assert metrics["counters"]["server.failovers"] >= sum(
            1 for s in result.manifest.shards if s.num_pages > 0
        )

    def test_dead_shard_partial_ok_reports_missing_partitions(self, sharded):
        fs, geoms, result = sharded
        victim = next(s for s in result.manifest.shards if s.num_pages > 0)
        self._poison_store(fs, victim.store)
        for replica in victim.replica_stores:
            self._poison_store(fs, replica)

        res, metrics = self._serve(
            fs, nprocs=4, allow_degraded=True, partial_ok=True
        )
        assert isinstance(res, QueryResult)
        assert not res.complete
        assert res.missing_shards == [victim.shard_id]
        assert res.missing_partitions == sorted(victim.partition_ids)
        assert res.degraded_queries == [0]
        assert res.failures and f"shard {victim.shard_id}" in res.failures[0]
        assert metrics["counters"]["server.degraded_queries"] == 1
        # every record outside the dead shard's partitions is still served
        got = {h.record_id for h in res}
        missing = set(range(len(geoms))) - got
        assert missing  # something was genuinely lost
        for h in res:
            assert h.shard_id != victim.shard_id

    def test_dead_shard_without_partial_ok_raises(self, sharded):
        fs, _, result = sharded
        victim = next(s for s in result.manifest.shards if s.num_pages > 0)
        self._poison_store(fs, victim.store)
        for replica in victim.replica_stores:
            self._poison_store(fs, replica)

        with pytest.raises(StoreError, match=rf"shard {victim.shard_id}"):
            self._serve(fs, nprocs=4, allow_degraded=True, partial_ok=False)

    def test_complete_result_under_partial_ok_is_flagged_complete(self, sharded):
        fs, geoms, _ = sharded
        res, _ = self._serve(fs, nprocs=4, partial_ok=True)
        assert isinstance(res, QueryResult)
        assert res.complete
        assert res.missing_shards == []
        assert res.missing_partitions == []
        assert sorted(h.record_id for h in res) == list(range(len(geoms)))

    def test_zero_deadline_yields_incomplete_but_no_failover(self, sharded):
        fs, _, _ = sharded
        res, metrics = self._serve(fs, nprocs=2, partial_ok=True, deadline=0.0)
        assert not res.complete
        assert res.degraded_queries == [0]
        assert res.missing_shards == []  # truncation, not shard death
        assert metrics["counters"]["server.failovers"] == 0

    def _shards_json_faults(self, fs, **rule):
        faulty = FaultyFilesystem(fs, seed=9)
        faulty.add_rule(
            FaultRule(path_pattern=f"stores/{self.NAME}/shards.json", **rule)
        )
        return faulty

    def test_transient_shards_json_fault_is_absorbed_by_open(self, sharded):
        # regression: DistributedStoreServer.open read shards.json by hand,
        # without the retry the appender and the compactor already had, so
        # one transient fault killed rank 0 with a raw TransientIOError
        fs, _, _ = sharded
        clean, _ = self._serve(fs, nprocs=2)
        faulty = self._shards_json_faults(fs, read_error_rate=1.0, max_faults=1)
        hits, _ = self._serve(faulty, nprocs=2)
        assert faulty.stats.read_errors == 1
        assert [(h.record_id, h.geometry.wkt()) for h in hits] == [
            (h.record_id, h.geometry.wkt()) for h in clean
        ]

    def test_unreadable_shards_json_is_a_store_error_naming_the_path(self, sharded):
        fs, _, _ = sharded
        faulty = self._shards_json_faults(fs, read_error_rate=1.0)
        with pytest.raises(StoreError, match=rf"stores/{self.NAME}/shards\.json"):
            self._serve(faulty, nprocs=2)

    def test_shards_json_retry_backoff_is_charged_to_the_clock(self, sharded):
        fs, _, _ = sharded

        def open_io(target):
            def prog(comm):
                with DistributedStoreServer.open(comm, target, self.NAME):
                    return comm.clock.category("io")

            return mpisim.run_spmd(prog, 2).values[0]

        faulty = self._shards_json_faults(fs, read_error_rate=1.0, max_faults=1)
        assert open_io(faulty) == pytest.approx(open_io(fs) + DEFAULT_RETRY.backoff(1))
