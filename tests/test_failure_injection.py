"""Failure-injection tests: the SPMD pipeline must fail loudly (not hang or
silently corrupt data) when components misbehave."""

import pytest

import time

from repro import mpisim
from repro.core import (
    GridPartitionConfig,
    PartitionConfig,
    SpatialJoin,
    VectorIO,
    WKTParser,
)
from repro.datasets import generate_dataset, random_envelopes
from repro.faults import FaultRule, FaultyFilesystem
from repro.geometry import Envelope, Polygon
from repro.mpisim import MPIAbortError, ops
from repro.pfs import LustreFilesystem
from repro.store import (
    DistributedStoreServer,
    QueryResult,
    StoreError,
    bulk_load,
)


@pytest.fixture
def lustre(tmp_path):
    fs = LustreFilesystem(tmp_path / "lustre")
    generate_dataset(fs, "cemetery", scale=0.1)
    return fs


class TestMissingAndCorruptInputs:
    def test_missing_file_aborts_all_ranks(self, lustre):
        def prog(comm):
            vio = VectorIO(lustre)
            return vio.read_geometries(comm, "datasets/does_not_exist.wkt")

        with pytest.raises(FileNotFoundError):
            mpisim.run_spmd(prog, 4)

    def test_corrupt_records_are_skipped_not_fatal(self, lustre):
        # inject garbage lines into an otherwise valid dataset
        with lustre.open("datasets/cemetery.wkt", mode="r+") as fh:
            size = fh.size
            fh.pwrite(size, b"THIS IS NOT WKT\nPOLYGON ((broken\n")

        def prog(comm):
            report = VectorIO(lustre).read_geometries(comm, "datasets/cemetery.wkt")
            return comm.allreduce(report.num_geometries, ops.SUM)

        res = mpisim.run_spmd(prog, 2)
        assert res.values[0] == 40  # the 40 valid records survive

    def test_strict_parser_propagates_failure(self, lustre):
        with lustre.open("datasets/cemetery.wkt", mode="r+") as fh:
            fh.pwrite(fh.size, b"GARBAGE RECORD\n")

        def prog(comm):
            vio = VectorIO(lustre)
            return vio.read_geometries(comm, "datasets/cemetery.wkt", WKTParser(skip_invalid=False))

        with pytest.raises(Exception):
            mpisim.run_spmd(prog, 2)


class TestRankFailures:
    def test_rank_crash_mid_join_propagates(self, lustre):
        generate_dataset(lustre, "lakes", scale=0.02)

        class FaultyJoin(SpatialJoin):
            def refine(self, cell, left, right):
                raise RuntimeError("refine blew up")

        def prog(comm):
            join = FaultyJoin(lustre, grid_config=GridPartitionConfig(num_cells=4))
            return join.run(comm, "datasets/lakes.wkt", "datasets/cemetery.wkt")

        with pytest.raises(RuntimeError, match="refine blew up"):
            mpisim.run_spmd(prog, 3)

    def test_single_rank_death_does_not_hang_collectives(self):
        def prog(comm):
            if comm.rank == comm.size - 1:
                # spmd: ignore[SPMD005] deliberate divergence: exercises abort waking blocked peers
                raise ValueError("dead rank")
            # all other ranks are stuck in a collective until the abort fires
            return comm.allreduce(1, ops.SUM)

        with pytest.raises(ValueError, match="dead rank"):
            mpisim.run_spmd(prog, 6)

    def test_mismatched_block_configuration_is_detected(self, lustre):
        # a block size smaller than the largest record must fail loudly
        def prog(comm):
            vio = VectorIO(lustre, PartitionConfig(block_size=16))
            return vio.read_geometries(comm, "datasets/cemetery.wkt")

        with pytest.raises(mpisim.MPIError):
            mpisim.run_spmd(prog, 2)


class TestCorruptShardServing:
    """Distributed serving must convert shard-file corruption into a clean
    ``StoreError`` naming the shard — never a raw struct/pickle exception
    escaping mid-collective."""

    NAME = "corrupt"

    @pytest.fixture
    def sharded(self, tmp_path):
        fs = LustreFilesystem(tmp_path / "lustre")
        geoms = [
            Polygon.from_envelope(env, userdata=i)
            for i, env in enumerate(
                random_envelopes(60, extent=Envelope(0.0, 0.0, 100.0, 100.0),
                                 max_size_fraction=0.1, seed=6)
            )
        ]
        result = bulk_load(fs, self.NAME, geoms, num_shards=4,
                           num_partitions=16, page_size=512)
        return fs, result

    def _serve(self, fs, nprocs=4):
        def prog(comm):
            with DistributedStoreServer.open(comm, fs, self.NAME) as server:
                window = Envelope(0.0, 0.0, 100.0, 100.0)
                return server.range_query_batch(
                    [(0, window)] if comm.rank == 0 else None
                )

        return mpisim.run_spmd(prog, nprocs)

    def test_corrupted_shard_data_header_names_the_shard(self, sharded):
        fs, result = sharded
        victim = result.manifest.shards[1]
        with fs.open(f"stores/{victim.store}/data.bin", mode="r+") as fh:
            fh.pwrite(0, b"GARBAGE!" * 8)  # clobber magic + header fields

        with pytest.raises(StoreError, match=r"shard 1") as excinfo:
            self._serve(fs)
        assert victim.store in str(excinfo.value)

    def test_stale_shard_manifest_names_the_shard(self, sharded):
        # a manifest that disagrees with its container raises inside the
        # shard store's own open(), with the shard's store name embedded in
        # the message — the guard must still attribute it to the shard
        # (regression: a substring heuristic once let this escape unwrapped)
        import json

        from repro.store import ShardError

        fs, result = sharded
        victim = result.manifest.shards[1]
        path = f"stores/{victim.store}/manifest.json"
        with fs.open(path) as fh:
            doc = json.loads(fh.pread(0, fh.size).decode("utf-8"))
        doc["num_pages"] += 1
        fs.create_file(path, json.dumps(doc).encode("utf-8"))

        with pytest.raises(StoreError, match=r"shard 1 ") as excinfo:
            self._serve(fs)
        assert isinstance(excinfo.value, ShardError)
        assert excinfo.value.shard_id == 1
        assert excinfo.value.store == victim.store

    def test_truncated_shard_index_names_the_shard(self, sharded):
        fs, result = sharded
        victim = result.manifest.shards[2]
        path = f"stores/{victim.store}/index.bin"
        with fs.open(path) as fh:
            raw = fh.pread(0, fh.size)
        fs.create_file(path, raw[: max(1, len(raw) // 2)])

        with pytest.raises(StoreError, match=r"shard 2") as excinfo:
            self._serve(fs)
        assert victim.store in str(excinfo.value)

    def test_truncated_shard_data_pages_fail_cleanly_mid_query(self, sharded):
        fs, result = sharded
        # pick a shard that actually holds pages, cut its data file just
        # after the header so page reads (not the open) hit the truncation
        victim = next(s for s in result.manifest.shards if s.num_pages > 0)
        path = f"stores/{victim.store}/data.bin"
        with fs.open(path) as fh:
            raw = fh.pread(0, fh.size)
        # keep header + page directory (at the tail we must preserve the
        # directory offset region read at open, so rebuild: header + zeroed
        # payload + directory) — zero the payload bytes instead of cutting
        from repro.store.format import HEADER_SIZE, unpack_header

        header = unpack_header(raw[:HEADER_SIZE])
        corrupted = (
            raw[:HEADER_SIZE]
            + b"\x00" * (header.dir_offset - HEADER_SIZE)
            + raw[header.dir_offset:]
        )
        fs.create_file(path, corrupted)

        with pytest.raises(StoreError, match=rf"shard {victim.shard_id}"):
            self._serve(fs)

    def test_intact_store_still_serves_after_failure_tests(self, sharded):
        fs, result = sharded
        res = self._serve(fs)
        assert sorted(h.record_id for h in res.values[0]) == list(
            range(result.num_records)
        )


class TestInjectedFaultServing:
    """End-to-end fault drills over a replicated sharded store: seeded
    transient read errors and silent record-body bit-flips injected under
    distributed serving must be absorbed — retried, caught by the page
    checksums, quarantined, recovered from read replicas — without changing
    query results."""

    NAME = "drill"
    WINDOW = Envelope(0.0, 0.0, 100.0, 100.0)

    @pytest.fixture
    def replicated(self, tmp_path):
        fs = LustreFilesystem(tmp_path / "lustre")
        geoms = [
            Polygon.from_envelope(env, userdata=i)
            for i, env in enumerate(
                random_envelopes(60, extent=self.WINDOW,
                                 max_size_fraction=0.1, seed=6)
            )
        ]
        result = bulk_load(
            fs, self.NAME, geoms, num_shards=4, num_partitions=16, page_size=512,
            read_replicas=1,
        )
        return fs, result

    def _serve(self, fs, nprocs=4, faulty=None, allow_degraded=False,
               partial_ok=False):
        """Serve the full window once; with *faulty*, faults are armed for
        the query phase only (rank 0 flips the shared switch between
        barriers) so injection hits the serving path, not the opens."""

        def prog(comm):
            with DistributedStoreServer.open(
                comm, faulty if faulty is not None else fs, self.NAME,
                allow_degraded=allow_degraded,
            ) as server:
                comm.barrier()
                if faulty is not None and comm.rank == 0:
                    faulty.arm()
                comm.barrier()
                res = server.range_query_batch(
                    [(0, self.WINDOW)] if comm.rank == 0 else None,
                    partial_ok=partial_ok,
                )
                comm.barrier()
                if faulty is not None and comm.rank == 0:
                    faulty.disarm()
                comm.barrier()
                return res, server.aggregate_metrics()

        if faulty is not None:
            faulty.disarm()
        return mpisim.run_spmd(prog, nprocs).values[0]

    @staticmethod
    def _ids(hits):
        return sorted((h.record_id, h.shard_id) for h in hits)

    @pytest.mark.parametrize("nprocs", (1, 2, 4))
    def test_bitflips_detected_quarantined_and_recovered(self, replicated, nprocs):
        fs, result = replicated
        clean, _ = self._serve(fs, nprocs=nprocs)
        # flip one bit in every record-body read of every *primary* shard
        # container (the ???? pattern leaves the replica copies clean)
        faulty = FaultyFilesystem(fs, rules=[FaultRule(
            path_pattern=f"stores/{self.NAME}/shard-????/data.bin",
            bitflip_rate=1.0,
        )], seed=11)

        hits, metrics = self._serve(fs, nprocs=nprocs, faulty=faulty)
        assert self._ids(hits) == self._ids(clean)
        counters = metrics["counters"]
        assert counters["store.checksum_failures"] >= 1
        assert counters["server.failovers"] >= 1
        assert faulty.stats.bitflips >= 1
        assert not faulty.armed  # the drill disarmed after the query phase

    def test_ten_percent_read_faults_match_fault_free_at_4_ranks(self, replicated):
        fs, result = replicated
        clean, _ = self._serve(fs, nprocs=4)
        faulty = FaultyFilesystem(fs, rules=[FaultRule(
            path_pattern=f"stores/{self.NAME}/*",
            read_error_rate=0.1,
        )], seed=13)

        hits, metrics = self._serve(fs, nprocs=4, faulty=faulty)
        assert self._ids(hits) == self._ids(clean)
        assert faulty.stats.read_errors >= 1
        assert metrics["counters"]["store.retries"] >= 1

    def test_injected_dead_shard_partial_ok_reports_exact_partitions(self, replicated):
        fs, result = replicated
        victim = next(s for s in result.manifest.shards if s.num_pages > 0)
        # every read of the victim's primary AND replica containers fails,
        # so retry, then failover, then degraded mode all get exercised
        faulty = FaultyFilesystem(fs, rules=[FaultRule(
            path_pattern=f"stores/{victim.store}*/data.bin",
            read_error_rate=1.0,
        )], seed=17)

        res, metrics = self._serve(
            fs, nprocs=4, faulty=faulty, allow_degraded=True, partial_ok=True
        )
        assert isinstance(res, QueryResult)
        assert not res.complete
        assert res.missing_shards == [victim.shard_id]
        assert res.missing_partitions == sorted(victim.partition_ids)
        assert metrics["counters"]["server.degraded_queries"] == 1
        assert {h.shard_id for h in res}.isdisjoint({victim.shard_id})
        assert self._ids(res.hits)  # the surviving shards still answered


class TestTimeoutDiagnosis:
    """On timeout the launcher must say whether the live ranks are deadlocked
    in communication or merely still computing — the two need opposite
    fixes."""

    def test_deadlock_names_blocked_ranks(self):
        def prog(comm):
            # circular wait: each rank receives from a peer that never sends
            return comm.recv(source=(comm.rank + 1) % comm.size)

        with pytest.raises(mpisim.MPIError, match="deadlock") as excinfo:
            mpisim.run_spmd(prog, 2, timeout=0.75)
        msg = str(excinfo.value)
        assert "rank 0 in recv" in msg
        assert "rank 1 in recv" in msg

    def test_long_computation_is_not_reported_as_deadlock(self):
        def prog(comm):
            if comm.rank == 1:
                deadline = time.monotonic() + 1.5
                while time.monotonic() < deadline:
                    time.sleep(0.05)
            return comm.rank

        with pytest.raises(mpisim.MPIError, match="still running") as excinfo:
            mpisim.run_spmd(prog, 2, timeout=0.5)
        msg = str(excinfo.value)
        assert "rank(s) [1]" in msg
        assert "all live ranks blocked" not in msg
