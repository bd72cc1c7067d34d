"""File-partitioning tests (Algorithm 1 and the overlap strategy)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mpisim
from repro.core import (
    MessagePartitioner,
    PartitionConfig,
    read_records,
)
from repro.pfs import LustreFilesystem


@pytest.fixture
def lustre(tmp_path):
    return LustreFilesystem(tmp_path / "lustre")


def make_records(n, variable=True, seed=3):
    import random

    rng = random.Random(seed)
    records = []
    for i in range(n):
        if variable:
            length = rng.choice([5, 20, 80, 300])
        else:
            length = 20
        payload = f"rec{i:05d}:" + "x" * length
        records.append(payload.encode())
    return records


def write_dataset(fs, records, path="data.txt", trailing_newline=True):
    data = b"\n".join(records)
    if trailing_newline:
        data += b"\n"
    fs.create_file(path, data)
    return path


def run_partition(fs, path, nprocs, strategy="message", **cfg_kwargs):
    config = PartitionConfig(**cfg_kwargs)

    def prog(comm):
        result = read_records(comm, fs, path, config, strategy)
        return result

    return mpisim.run_spmd(prog, nprocs)


class TestMessagePartitioner:
    """Algorithm 1 — no record may be lost, duplicated or split."""

    @pytest.mark.parametrize("nprocs", [1, 2, 3, 5, 8])
    def test_all_records_recovered(self, lustre, nprocs):
        records = make_records(200)
        path = write_dataset(lustre, records)
        res = run_partition(lustre, path, nprocs)
        recovered = [r for out in res.values for r in out.records]
        assert sorted(recovered) == sorted(records)

    def test_records_unsplit_with_small_blocks(self, lustre):
        records = make_records(150)
        path = write_dataset(lustre, records)
        res = run_partition(lustre, path, 4, block_size=512)
        recovered = [r for out in res.values for r in out.records]
        assert sorted(recovered) == sorted(records)
        assert all(out.iterations > 1 for out in res.values)

    def test_no_trailing_newline(self, lustre):
        records = make_records(37)
        path = write_dataset(lustre, records, trailing_newline=False)
        res = run_partition(lustre, path, 3, block_size=512)
        recovered = [r for out in res.values for r in out.records]
        assert sorted(recovered) == sorted(records)

    def test_block_size_larger_than_file(self, lustre):
        records = make_records(10)
        path = write_dataset(lustre, records)
        res = run_partition(lustre, path, 4, block_size=1 << 20)
        recovered = [r for out in res.values for r in out.records]
        assert sorted(recovered) == sorted(records)

    def test_record_larger_than_block_is_rejected(self, lustre):
        # Algorithm 1 assumes every block holds at least one delimiter; a
        # record larger than the block size violates that and must fail loudly
        # rather than silently corrupting records.
        big = b"G" * 5000
        records = [b"small-1", big, b"small-2"]
        path = write_dataset(lustre, records)
        with pytest.raises(mpisim.MPIError, match="delimiter"):
            run_partition(lustre, path, 4, block_size=512)

    def test_large_record_with_adequate_block(self, lustre):
        big = b"G" * 5000
        records = [b"small-1", big, b"small-2"]
        path = write_dataset(lustre, records)
        res = run_partition(lustre, path, 4, block_size=8192)
        recovered = [r for out in res.values for r in out.records]
        assert sorted(recovered) == sorted(records)

    def test_single_rank_record_spanning_iterations(self, lustre):
        # With one rank the carry accumulates across iterations, so even a
        # record much larger than the block size is reassembled.
        big = b"G" * 5000
        records = [b"small-1", big, b"small-2"]
        path = write_dataset(lustre, records)
        res = run_partition(lustre, path, 1, block_size=512)
        recovered = [r for out in res.values for r in out.records]
        assert sorted(recovered) == sorted(records)

    def test_level1_collective_reads(self, lustre):
        records = make_records(120)
        path = write_dataset(lustre, records)
        res = run_partition(lustre, path, 4, block_size=1024, level=1)
        recovered = [r for out in res.values for r in out.records]
        assert sorted(recovered) == sorted(records)

    def test_iteration_count_matches_formula(self, lustre):
        """§5.1.1's example: iterations = ceil(fileSize / (N * blockSize))."""
        records = make_records(400, variable=False)
        path = write_dataset(lustre, records)
        file_size = lustre.file_size(path)
        nprocs, block = 4, 512
        res = run_partition(lustre, path, nprocs, block_size=block)
        expected = math.ceil(file_size / (nprocs * block))
        assert all(out.iterations == expected for out in res.values)

    def test_bytes_read_equals_file_size(self, lustre):
        """The message strategy reads every byte exactly once (no halo)."""
        records = make_records(100)
        path = write_dataset(lustre, records)
        res = run_partition(lustre, path, 4, block_size=1024)
        assert sum(out.bytes_read for out in res.values) == lustre.file_size(path)

    def test_fragment_exceeding_bound_raises(self, lustre):
        big = b"G" * 5000
        path = write_dataset(lustre, [big, b"x"])
        with pytest.raises(mpisim.MPIError):
            run_partition(lustre, path, 2, block_size=512, max_geometry_size=100)

    def test_empty_file(self, lustre):
        lustre.create_file("empty.txt", b"")
        res = run_partition(lustre, "empty.txt", 3)
        assert all(out.records == [] for out in res.values)

    @given(
        lengths=st.lists(st.integers(min_value=1, max_value=120), min_size=1, max_size=60),
        nprocs=st.integers(min_value=1, max_value=6),
        block=st.sampled_from([128, 256, 1024]),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_random_record_lengths(self, lengths, nprocs, block):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            fs = LustreFilesystem(tmp)
            records = [bytes([65 + (i % 26)]) * n for i, n in enumerate(lengths)]
            path = write_dataset(fs, records)
            res = run_partition(fs, path, nprocs, block_size=block)
            recovered = [r for out in res.values for r in out.records]
            assert sorted(recovered) == sorted(records)


class TestOverlapPartitioner:
    @pytest.mark.parametrize("nprocs", [1, 2, 4, 7])
    def test_all_records_recovered(self, lustre, nprocs):
        records = make_records(150)
        path = write_dataset(lustre, records)
        res = run_partition(lustre, path, nprocs, strategy="overlap", max_geometry_size=2048)
        recovered = [r for out in res.values for r in out.records]
        assert sorted(recovered) == sorted(records)

    def test_no_trailing_newline(self, lustre):
        records = make_records(33)
        path = write_dataset(lustre, records, trailing_newline=False)
        res = run_partition(lustre, path, 3, strategy="overlap", max_geometry_size=2048)
        recovered = [r for out in res.values for r in out.records]
        assert sorted(recovered) == sorted(records)

    def test_redundant_reading_vs_message(self, lustre):
        """The overlap strategy reads more bytes than the message strategy —
        the reason Figure 10 finds it slower."""
        records = make_records(300)
        path = write_dataset(lustre, records)
        halo = 4096
        overlap = run_partition(
            lustre, path, 4, strategy="overlap", block_size=2048, max_geometry_size=halo
        )
        message = run_partition(lustre, path, 4, strategy="message", block_size=2048)
        overlap_bytes = sum(o.bytes_read for o in overlap.values)
        message_bytes = sum(o.bytes_read for o in message.values)
        assert overlap_bytes > message_bytes
        # both still recover the same records
        assert sorted(r for o in overlap.values for r in o.records) == sorted(
            r for o in message.values for r in o.records
        )

    def test_record_longer_than_halo_raises(self, lustre):
        big = b"G" * 5000
        path = write_dataset(lustre, [b"a", big, b"b"])
        with pytest.raises(mpisim.MPIError):
            run_partition(lustre, path, 2, strategy="overlap", block_size=512, max_geometry_size=256)

    def test_ownership_no_duplicates(self, lustre):
        records = make_records(97)
        path = write_dataset(lustre, records)
        res = run_partition(lustre, path, 5, strategy="overlap", max_geometry_size=4096)
        recovered = [r for out in res.values for r in out.records]
        assert len(recovered) == len(records)


class TestConfigValidation:
    def test_unknown_strategy(self, lustre):
        lustre.create_file("x.txt", b"a\nb\n")

        def prog(comm):
            return read_records(comm, lustre, "x.txt", strategy="bogus")

        with pytest.raises(ValueError):
            mpisim.run_spmd(prog, 1)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            MessagePartitioner(PartitionConfig(level=3))

    def test_invalid_block_size(self):
        cfg = PartitionConfig(block_size=-1)
        with pytest.raises(ValueError):
            cfg.resolve_block_size(100, 2)

    def test_wkt_partition_parse_roundtrip(self, lustre):
        """End to end: WKT dataset partitioned then parsed on every rank."""
        from repro.core import VectorIO
        from repro.datasets import generate_dataset

        generate_dataset(lustre, "cemetery", scale=0.2)

        def prog(comm):
            vio = VectorIO(lustre, PartitionConfig(block_size=4096))
            report = vio.read_geometries(comm, "datasets/cemetery.wkt")
            return report.num_geometries

        res = mpisim.run_spmd(prog, 4)
        assert sum(res.values) == 80  # 400 * 0.2
