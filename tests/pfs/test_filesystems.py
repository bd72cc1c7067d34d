"""Simulated filesystem (Lustre / GPFS) tests."""

import pytest

from repro.pfs import GPFSFilesystem, LustreFilesystem, ReadRequest, StripeLayout


@pytest.fixture
def lustre(tmp_path):
    return LustreFilesystem(tmp_path / "lustre")


@pytest.fixture
def gpfs(tmp_path):
    return GPFSFilesystem(tmp_path / "gpfs")


class TestFileOperations:
    def test_create_and_read(self, lustre):
        lustre.create_file("data/test.wkt", b"POINT (1 2)\n")
        assert lustre.exists("data/test.wkt")
        assert lustre.file_size("data/test.wkt") == 12
        with lustre.open("data/test.wkt") as fh:
            assert fh.pread(0, 5) == b"POINT"
            assert fh.pread(6, 100) == b"(1 2)\n"  # clamped at EOF
            assert fh.size == 12

    def test_missing_file(self, lustre):
        with pytest.raises(FileNotFoundError):
            lustre.open("nope.txt")

    def test_write_requires_mode(self, lustre):
        lustre.create_file("f.bin", b"abcdef")
        with lustre.open("f.bin") as fh:
            with pytest.raises(PermissionError):
                fh.pwrite(0, b"xx")
        with lustre.open("f.bin", mode="r+") as fh:
            fh.pwrite(0, b"XY")
        with lustre.open("f.bin") as fh:
            assert fh.pread(0, 6) == b"XYcdef"

    def test_open_time_positive(self, lustre):
        assert lustre.open_time() > 0


class TestLustreStriping:
    def test_setstripe_layout_of(self, lustre):
        lustre.create_file("big.dat", b"\x00" * 1024)
        layout = lustre.setstripe("big.dat", stripe_size=64 << 20, stripe_count=64)
        assert layout.stripe_count == 64
        assert lustre.layout_of("big.dat").stripe_size == 64 << 20

    def test_stripe_count_clamped_to_osts(self, lustre):
        lustre.create_file("x.dat", b"")
        layout = lustre.setstripe("x.dat", stripe_size=1 << 20, stripe_count=500)
        assert layout.stripe_count == lustre.ost_count

    def test_invalid_ost_count(self, tmp_path):
        with pytest.raises(ValueError):
            LustreFilesystem(tmp_path / "bad", ost_count=0)
        with pytest.raises(ValueError):
            LustreFilesystem(tmp_path / "bad2", ost_count=1000)

    def test_read_time_improves_with_stripes(self, lustre):
        lustre.create_file("f.dat", b"\x00" * (1 << 20))
        block = 32 << 20
        reqs = [ReadRequest(rank=r, ranges=((r * block, block),)) for r in range(16)]
        lustre.setstripe("f.dat", stripe_size=32 << 20, stripe_count=2)
        slow = lustre.read_time("f.dat", reqs)
        lustre.setstripe("f.dat", stripe_size=32 << 20, stripe_count=64)
        fast = lustre.read_time("f.dat", reqs)
        assert fast < slow


class TestGPFS:
    def test_layout_is_fixed(self, gpfs):
        gpfs.create_file("data.bin", b"\x00" * 100)
        before = gpfs.layout_of("data.bin")
        gpfs.set_layout("data.bin", StripeLayout(1 << 10, 1))
        after = gpfs.layout_of("data.bin")
        assert before.stripe_count == after.stripe_count == gpfs.num_servers

    def test_read_time_scales_with_processes(self, gpfs):
        """I/O performance scales with processes up to a point (Figure 14)."""
        gpfs.create_file("big.bin", b"")
        total = 2 << 30

        def time_for(nprocs):
            block = total // nprocs
            reqs = [ReadRequest(rank=r, ranges=((r * block, block),)) for r in range(nprocs)]
            return gpfs.read_time("big.bin", reqs)

        t10, t40, t160 = time_for(10), time_for(40), time_for(160)
        assert t40 < t10
        # sub-linear scaling: 4x the processes buys clearly less than a 4x
        # speed-up because the storage servers saturate
        assert t160 > t40 / 4
        # and the makespan can never beat the aggregate disk bandwidth floor
        aggregate = gpfs.num_servers * gpfs.cost_model.ost_bandwidth
        assert t160 >= total / aggregate * 0.99

    def test_describe(self, gpfs, lustre):
        assert "gpfs" in gpfs.describe()
        assert "lustre" in lustre.describe()
