"""Binary fixed-record readers must reject partial records loudly."""

import struct

import pytest

from repro.datasets import (
    random_envelopes,
    read_mbr_file,
    read_mbr_records,
    validate_record_file,
    write_mbr_file,
)
from repro.pfs import LustreFilesystem


@pytest.fixture
def fs(tmp_path):
    return LustreFilesystem(tmp_path / "fs", ost_count=4)


class TestByteLevelReaders:
    def test_mbr_round_trip(self):
        envs = random_envelopes(10, seed=1)
        data = b"".join(struct.pack("<4f", *e.as_tuple()) for e in envs)
        assert len(read_mbr_records(data)) == 10

    def test_mbr_partial_record_raises_with_sizes(self):
        data = b"\x00" * 35  # 2 records of 16 bytes + 3 trailing bytes
        with pytest.raises(ValueError) as exc:
            read_mbr_records(data)
        assert "35 bytes" in str(exc.value)
        assert "3 trailing" in str(exc.value)

    def test_mistyped_precision_is_refused_on_read(self, fs):
        # "f32" used to fall through to doubles and decode 32-byte records
        with pytest.raises(ValueError, match="'float32' or 'float64'.*'f32'"):
            read_mbr_records(b"\x00" * 32, precision="f32")
        write_mbr_file(fs, "data/ok.bin", random_envelopes(2, seed=6))
        with pytest.raises(ValueError, match="'float32' or 'float64'"):
            read_mbr_file(fs, "data/ok.bin", precision="double")


class TestFileLevelReaders:
    def test_mbr_file_round_trip(self, fs):
        envs = random_envelopes(25, seed=2)
        write_mbr_file(fs, "data/mbrs.bin", envs, precision="float64")
        back = read_mbr_file(fs, "data/mbrs.bin", precision="float64")
        assert back == envs

    def test_mistyped_precision_is_refused_on_write(self, fs):
        with pytest.raises(ValueError, match="'float32' or 'float64'.*'f32'"):
            write_mbr_file(fs, "data/bad.bin", random_envelopes(2, seed=7), precision="f32")
        assert not fs.exists("data/bad.bin")

    def test_truncated_mbr_file_raises_and_names_file(self, fs):
        envs = random_envelopes(4, seed=3)
        write_mbr_file(fs, "data/trunc.bin", envs)
        whole = fs.backing_path("data/trunc.bin").read_bytes()
        fs.create_file("data/trunc.bin", whole[:-5])
        with pytest.raises(ValueError) as exc:
            read_mbr_file(fs, "data/trunc.bin")
        assert "data/trunc.bin" in str(exc.value)
        assert "trailing" in str(exc.value)

    def test_validate_record_file(self, fs):
        fs.create_file("data/ok.bin", b"\x00" * 64)
        assert validate_record_file(fs, "data/ok.bin", 16) == 4
        fs.create_file("data/bad.bin", b"\x00" * 65)
        with pytest.raises(ValueError):
            validate_record_file(fs, "data/bad.bin", 16)
        with pytest.raises(ValueError):
            validate_record_file(fs, "data/ok.bin", 0)


class TestNoncontigReader:
    def test_fixed_roundrobin_rejects_partial_records(self, fs):
        from repro.core import MPI_RECT, read_fixed_records_roundrobin
        from repro.mpisim import run_spmd

        envs = random_envelopes(8, seed=4)
        write_mbr_file(fs, "data/rr.bin", envs, precision="float64")
        whole = fs.backing_path("data/rr.bin").read_bytes()
        fs.create_file("data/rr.bin", whole[:-7])

        def prog(comm):
            with pytest.raises(ValueError, match="trailing"):
                read_fixed_records_roundrobin(comm, fs, "data/rr.bin", MPI_RECT, 2)
            return True

        assert all(run_spmd(prog, 2).values)

    def test_fixed_roundrobin_still_reads_whole_files(self, fs):
        from repro.core import MPI_RECT, read_fixed_records_roundrobin, unpack_rects
        from repro.mpisim import run_spmd

        envs = random_envelopes(10, seed=5)
        write_mbr_file(fs, "data/rr_ok.bin", envs, precision="float64")

        def prog(comm):
            data = read_fixed_records_roundrobin(comm, fs, "data/rr_ok.bin", MPI_RECT, 2)
            return unpack_rects(data)

        ranks = run_spmd(prog, 2).values
        got = sorted(e.as_tuple() for rank in ranks for e in rank)
        assert got == sorted(e.as_tuple() for e in envs)
