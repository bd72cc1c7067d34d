"""MPI-IO File layer tests (Levels 0, 1 and 3)."""

import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mpisim
from repro.io import MAX_IO_BYTES, File, Info, plan_collective_read
from repro.mpisim import (
    MPI_BYTE,
    MPI_DOUBLE,
    MPI_FLOAT,
    MPI_INT,
    CountLimitError,
    create_contiguous,
    create_indexed,
    create_struct,
    create_vector,
)
from repro.pfs import GPFSFilesystem, LustreFilesystem, ReadRequest


@pytest.fixture
def lustre(tmp_path):
    return LustreFilesystem(tmp_path / "lustre")


def make_text_file(fs, path="data.txt", nlines=100):
    lines = [f"record-{i:06d}\n".encode() for i in range(nlines)]
    data = b"".join(lines)
    fs.create_file(path, data)
    return data


class TestInfo:
    def test_set_get(self):
        info = Info(cb_nodes=4, cb_buffer_size=1 << 20)
        assert info.get_int("cb_nodes", 0) == 4
        assert info.get_int("cb_buffer_size", 0) == 1 << 20
        assert info.get_int("striping_factor", 7) == 7
        assert "cb_nodes" in info

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError):
            Info(bogus_hint=1)

    def test_copy_independent(self):
        a = Info(cb_nodes=2)
        b = a.copy()
        b.set("cb_nodes", 8)
        assert a.get_int("cb_nodes", 0) == 2


class TestIndependentRead:
    def test_each_rank_reads_its_chunk(self, lustre):
        data = make_text_file(lustre)

        def prog(comm):
            fh = File.Open(comm, lustre, "data.txt")
            size = fh.Get_size()
            chunk = size // comm.size
            out = fh.read_at(comm.rank * chunk, chunk)
            fh.Close()
            return out

        res = mpisim.run_spmd(prog, 4)
        assert b"".join(res.values) == data

    def test_read_clamped_at_eof(self, lustre):
        make_text_file(lustre, nlines=1)

        def prog(comm):
            fh = File.Open(comm, lustre, "data.txt")
            return fh.read_at(0, 10_000)

        res = mpisim.run_spmd(prog, 1)
        assert res.values[0] == b"record-000000\n"

    def test_count_limit_enforced(self, lustre):
        make_text_file(lustre)

        def prog(comm):
            fh = File.Open(comm, lustre, "data.txt")
            fh.read_at(0, 3 << 30)

        with pytest.raises(CountLimitError):
            mpisim.run_spmd(prog, 1)

    def test_io_time_charged(self, lustre):
        make_text_file(lustre, nlines=1000)

        def prog(comm):
            fh = File.Open(comm, lustre, "data.txt")
            fh.read_at(0, 1000)
            return comm.clock.category("io")

        res = mpisim.run_spmd(prog, 2)
        assert all(t > 0 for t in res.values)

    def test_concurrency_hint_changes_time(self, lustre):
        lustre.create_file("big.dat", b"\x00" * (1 << 20))
        lustre.setstripe("big.dat", stripe_size=1 << 18, stripe_count=4)

        def prog(comm, concurrency):
            info = Info(independent_concurrency=concurrency)
            fh = File.Open(comm, lustre, "big.dat", info=info)
            fh.read_at(0, 1 << 18)
            return comm.clock.category("io")

        solo = mpisim.run_spmd(prog, 8, 1).values[0]
        crowded = mpisim.run_spmd(prog, 8, 8).values[0]
        assert crowded >= solo

    def test_write_then_read_roundtrip(self, lustre):
        lustre.create_file("out.bin", b"\x00" * 64)

        def prog(comm):
            fh = File.Open(comm, lustre, "out.bin", mode="r+")
            payload = bytes([comm.rank + 65]) * 16
            fh.write_at(comm.rank * 16, payload)
            comm.barrier()
            return fh.read_at(comm.rank * 16, 16)

        res = mpisim.run_spmd(prog, 4)
        assert res.values == [b"A" * 16, b"B" * 16, b"C" * 16, b"D" * 16]


class TestCollectiveRead:
    def test_read_at_all_returns_correct_data(self, lustre):
        data = make_text_file(lustre, nlines=64)

        def prog(comm):
            fh = File.Open(comm, lustre, "data.txt")
            chunk = fh.Get_size() // comm.size
            return fh.read_at_all(comm.rank * chunk, chunk)

        res = mpisim.run_spmd(prog, 4)
        assert b"".join(res.values) == data

    def test_collective_records_plan(self, lustre):
        lustre.create_file("big.dat", b"\x00" * (1 << 20))
        lustre.setstripe("big.dat", stripe_size=1 << 16, stripe_count=64)

        def prog(comm):
            fh = File.Open(comm, lustre, "big.dat")
            chunk = (1 << 20) // comm.size
            fh.read_at_all(comm.rank * chunk, chunk)
            return (fh.last_plan.num_aggregators, fh.last_plan.total_bytes)

        res = mpisim.run_spmd(prog, 8)
        aggs, total = res.values[0]
        assert total == 1 << 20
        assert 1 <= aggs <= 8

    def test_cb_nodes_hint_controls_aggregators(self, lustre):
        lustre.create_file("f.dat", b"\x00" * 4096)

        def prog(comm):
            fh = File.Open(comm, lustre, "f.dat", info=Info(cb_nodes=2))
            fh.read_at_all(comm.rank * 1024, 1024)
            return fh.last_plan.num_aggregators

        res = mpisim.run_spmd(prog, 4)
        assert res.values == [2, 2, 2, 2]

    def test_collective_clocks_synchronised(self, lustre):
        make_text_file(lustre, nlines=256)

        def prog(comm):
            fh = File.Open(comm, lustre, "data.txt")
            chunk = fh.Get_size() // comm.size
            fh.read_at_all(comm.rank * chunk, chunk)
            return comm.clock.now

        res = mpisim.run_spmd(prog, 4)
        assert max(res.values) - min(res.values) < 1e-9

    def test_write_at_all(self, lustre):
        lustre.create_file("wout.bin", b"\x00" * 32)

        def prog(comm):
            fh = File.Open(comm, lustre, "wout.bin", mode="r+")
            fh.write_at_all(comm.rank * 8, bytes([48 + comm.rank]) * 8)
            comm.barrier()
            return fh.read_at(0, 32)

        res = mpisim.run_spmd(prog, 4)
        assert res.values[0] == b"0" * 8 + b"1" * 8 + b"2" * 8 + b"3" * 8


class TestFileViews:
    def test_vector_view_round_robin(self, lustre):
        """Figure 4's non-contiguous pattern: each process reads every Nth
        record through a vector filetype."""
        nprocs = 4
        nrecords = 32
        record_size = 8
        records = [struct.pack("<d", float(i)) for i in range(nrecords)]
        lustre.create_file("records.bin", b"".join(records))

        def prog(comm):
            fh = File.Open(comm, lustre, "records.bin")
            filetype = create_vector(
                count=nrecords // comm.size, blocklength=1, stride=comm.size, oldtype=MPI_DOUBLE
            )
            fh.Set_view(disp=comm.rank * record_size, etype=MPI_DOUBLE, filetype=filetype)
            data = fh.read_all((nrecords // comm.size) * record_size)
            return list(struct.unpack(f"<{nrecords // comm.size}d", data))

        res = mpisim.run_spmd(prog, nprocs)
        for rank, values in enumerate(res.values):
            assert values == [float(i) for i in range(rank, nrecords, nprocs)]

    def test_contiguous_view_with_displacement(self, lustre):
        lustre.create_file("disp.bin", b"HEADERxxABCDEFGH")

        def prog(comm):
            fh = File.Open(comm, lustre, "disp.bin")
            fh.Set_view(disp=8)
            return fh.read_at(0, 8)

        res = mpisim.run_spmd(prog, 1)
        assert res.values[0] == b"ABCDEFGH"

    def test_seek_and_pointer(self, lustre):
        lustre.create_file("seek.bin", bytes(range(64)))

        def prog(comm):
            fh = File.Open(comm, lustre, "seek.bin")
            fh.Seek(10)
            first = fh.read_all(4)
            second = fh.read_all(4)
            return (first, second, fh.Get_position())

        res = mpisim.run_spmd(prog, 1)
        first, second, pos = res.values[0]
        assert first == bytes([10, 11, 12, 13])
        assert second == bytes([14, 15, 16, 17])
        assert pos == 18

    def test_invalid_view_rejected(self, lustre):
        lustre.create_file("v.bin", b"\x00" * 64)

        def prog(comm):
            fh = File.Open(comm, lustre, "v.bin")
            fh.Set_view(etype=MPI_DOUBLE, filetype=MPI_FLOAT)

        with pytest.raises(mpisim.MPIError):
            mpisim.run_spmd(prog, 1)

    def test_noncontiguous_slower_than_contiguous(self, lustre):
        """Figure 15's headline: contiguous collective reads beat
        non-contiguous ones, and larger NC block sizes help."""
        nrecords = 4096
        record = struct.pack("<4f", 1, 2, 3, 4)
        lustre.create_file("mbrs.bin", record * nrecords)
        lustre.setstripe("mbrs.bin", stripe_size=1 << 20, stripe_count=8)
        mbr_type = create_contiguous(4, MPI_FLOAT)

        def contiguous(comm):
            fh = File.Open(comm, lustre, "mbrs.bin")
            per_rank = nrecords // comm.size * 16
            fh.read_at_all(comm.rank * per_rank, per_rank)
            return comm.clock.category("io")

        def noncontiguous(comm, block_records):
            fh = File.Open(comm, lustre, "mbrs.bin")
            filetype = create_vector(
                count=nrecords // comm.size // block_records,
                blocklength=block_records,
                stride=block_records * comm.size,
                oldtype=mbr_type,
            )
            fh.Set_view(disp=comm.rank * block_records * 16, etype=MPI_FLOAT, filetype=filetype)
            fh.read_all(nrecords // comm.size * 16)
            return comm.clock.category("io")

        t_contig = max(mpisim.run_spmd(contiguous, 4).values)
        t_nc_small = max(mpisim.run_spmd(noncontiguous, 4, 4).values)
        t_nc_large = max(mpisim.run_spmd(noncontiguous, 4, 64).values)
        assert t_contig < t_nc_small
        assert t_nc_large < t_nc_small


#: filetypes of the view-expansion property: basic, contiguous, gapped
#: vector, uneven indexed runs (given out of order) and a padded struct
VIEW_FILETYPES = {
    "byte": MPI_BYTE,
    "double": MPI_DOUBLE,
    "contiguous": create_contiguous(3, MPI_INT),
    "vector": create_vector(count=3, blocklength=2, stride=5, oldtype=MPI_INT),
    "indexed": create_indexed([3, 1, 0, 5], [9, 2, 4, 20], MPI_BYTE),
    "struct": create_struct([1, 2, 1], [0, 8, 28], [MPI_INT, MPI_DOUBLE, MPI_INT]),
}
VIEW_FILE = bytes((7 * i + i // 256) % 256 for i in range(4096))


def oracle_blocks(disp, etype, ft, start_etypes, nbytes):
    """Brute force: map every view data byte to its file offset, then merge
    neighbours."""
    data_to_tile = [off + i for off, length in ft.blocks() for i in range(length)]
    first = start_etypes * etype.size
    offsets = [
        disp + (k // ft.size) * ft.extent + data_to_tile[k % ft.size]
        for k in range(first, first + nbytes)
    ]
    blocks = []
    for off in offsets:
        if blocks and blocks[-1][0] + blocks[-1][1] == off:
            blocks[-1] = (blocks[-1][0], blocks[-1][1] + 1)
        else:
            blocks.append((off, 1))
    return blocks


class TestViewExpansion:
    """``File._view_blocks`` against a per-byte oracle, and its cost contract."""

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(sorted(VIEW_FILETYPES)),
        disp=st.integers(0, 64),
        wide_etype=st.booleans(),
        start=st.integers(0, 40),
        nbytes=st.integers(0, 300),
    )
    def test_blocks_and_bytes_match_oracle(self, tmp_path_factory, name, disp, wide_etype, start, nbytes):
        ft = VIEW_FILETYPES[name]
        etype = MPI_INT if wide_etype and ft.size % MPI_INT.size == 0 else MPI_BYTE
        fs = LustreFilesystem(tmp_path_factory.mktemp("view"))
        fs.create_file("view.bin", VIEW_FILE)
        expected = oracle_blocks(disp, etype, ft, start, nbytes)
        expected_bytes = b"".join(VIEW_FILE[off : off + length] for off, length in expected)

        def prog(comm):
            fh = File.Open(comm, fs, "view.bin")
            fh.Set_view(disp=disp, etype=etype, filetype=ft)
            blocks = fh._view_blocks(start, nbytes)
            at = fh.read_at(start, nbytes)
            fh.Seek(start)
            through_pointer = fh.read_all(nbytes)
            return blocks, at, through_pointer

        blocks, at, through_pointer = mpisim.run_spmd(prog, 1).values[0]
        assert blocks == expected
        assert at == through_pointer == expected_bytes

    def test_default_view_is_one_block_at_the_romio_limit(self, lustre):
        """O(blocks), not O(bytes): a per-byte expansion of 2 GiB never ends."""
        lustre.create_file("small.bin", b"x")

        def prog(comm):
            fh = File.Open(comm, lustre, "small.bin")
            plain = fh._view_blocks(0, MAX_IO_BYTES)
            fh.Set_view(disp=5, etype=MPI_DOUBLE, filetype=create_contiguous(4, MPI_DOUBLE))
            return plain, fh._view_blocks(3, MAX_IO_BYTES)

        plain, displaced = mpisim.run_spmd(prog, 1).values[0]
        assert plain == [(0, 2**31 - 1)]
        assert displaced == [(5 + 3 * 8, 2**31 - 1)]

    def test_big_byte_datatypes_build_without_per_byte_allocation(self):
        tracemalloc.start()
        try:
            contiguous = create_contiguous(1 << 20, MPI_BYTE)
            indexed = create_indexed([1 << 20], [7], MPI_BYTE)
            vector = create_vector(4, 1 << 18, 1 << 19, MPI_BYTE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert contiguous.blocks() == [(0, 1 << 20)]
        assert indexed.blocks() == [(7, 1 << 20)]
        assert vector.blocks() == [(i << 19, 1 << 18) for i in range(4)]
        assert indexed.layout(2) == [(7, 1 << 20), (7 + indexed.extent, 1 << 20)]
        assert peak < 1 << 20


class TestCollectivePlanning:
    def test_plan_aggregator_rule_on_lustre(self, lustre):
        lustre.create_file("plan.dat", b"\x00" * (1 << 20))
        lustre.setstripe("plan.dat", stripe_size=1 << 16, stripe_count=64)
        # 24 "nodes" worth of ranks at 16 ppn is impractical here; instead use
        # a cluster of 1 proc per node to exercise the divisor rule directly.
        lustre.cost_model.cluster.procs_per_node = 1
        reqs = [ReadRequest(rank=r, ranges=((r * 1024, 1024),)) for r in range(24)]
        plan = plan_collective_read(lustre, "plan.dat", reqs)
        assert plan.num_aggregators == 16  # largest divisor of 64 <= 24

    def test_plan_cycles_follow_cb_buffer(self, lustre):
        lustre.create_file("cyc.dat", b"\x00" * (1 << 20))
        reqs = [ReadRequest(rank=0, ranges=((0, 1 << 20),))]
        small = plan_collective_read(lustre, "cyc.dat", reqs, Info(cb_buffer_size=1 << 16))
        big = plan_collective_read(lustre, "cyc.dat", reqs, Info(cb_buffer_size=1 << 22))
        assert small.cycles > big.cycles
        assert big.cycles == 1

    def test_empty_plan(self, lustre):
        lustre.create_file("e.dat", b"")
        plan = plan_collective_read(lustre, "e.dat", [])
        assert plan.total_bytes == 0
