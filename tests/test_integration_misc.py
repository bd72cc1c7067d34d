"""Cross-cutting integration tests covering paths the focused unit suites do
not reach: alternative access levels and strategies end to end, file-view
writes, custom filter-and-refine computations, and runtime utilities."""

import pytest

from repro import mpisim
from repro.core import (
    GridPartitionConfig,
    PartitionConfig,
    SpatialComputation,
    SpatialJoin,
    VectorIO,
    WKTParser,
)
from repro.datasets import SyntheticConfig, generate_dataset
from repro.io import File, Info
from repro.mpisim import ops, payload_nbytes
from repro.pfs import LustreFilesystem


@pytest.fixture
def lustre(tmp_path):
    fs = LustreFilesystem(tmp_path / "lustre")
    cfg = SyntheticConfig(seed=21, clusters=3)
    generate_dataset(fs, "lakes", scale=0.04, config=cfg)
    generate_dataset(fs, "cemetery", scale=0.2, config=cfg)
    return fs


def count_pairs(comm, join):
    """Join pairs of the lakes/cemetery layers summed over every rank."""
    local = join.run(comm, "datasets/lakes.wkt", "datasets/cemetery.wkt")
    return comm.allreduce(len(local.local_results), ops.SUM)


class TestAccessLevelAndStrategyMatrix:
    """Every combination of access level and partitioning strategy must return
    the same set of geometries."""

    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("strategy", ["message", "overlap"])
    def test_read_matrix(self, lustre, level, strategy):
        def prog(comm):
            vio = VectorIO(
                lustre,
                PartitionConfig(block_size=32 * 1024, level=level, max_geometry_size=1 << 20),
                strategy=strategy,
            )
            report = vio.read_geometries(comm, "datasets/lakes.wkt")
            return comm.allreduce(report.num_geometries, ops.SUM)

        res = mpisim.run_spmd(prog, 3)
        assert res.values[0] == 160  # 4000 * 0.04

    def test_join_with_overlap_strategy_and_window(self, lustre):
        def prog(comm, strategy, window):
            join = SpatialJoin(
                lustre,
                partition_config=PartitionConfig(block_size=32 * 1024, max_geometry_size=1 << 20),
                grid_config=GridPartitionConfig(num_cells=16),
                strategy=strategy,
                exchange_window=window,
            )
            return count_pairs(comm, join)

        baseline = mpisim.run_spmd(prog, 2, "message", None).values[0]
        overlap = mpisim.run_spmd(prog, 2, "overlap", None).values[0]
        windowed = mpisim.run_spmd(prog, 2, "message", 4).values[0]
        assert baseline == overlap == windowed


class TestCustomComputation:
    def test_single_layer_histogram_computation(self, lustre):
        """A user-defined SpatialComputation: per-cell geometry counts."""

        class CellHistogram(SpatialComputation):
            def refine(self, cell, left, right):
                return [(cell.cell_id, len(left))]

        def prog(comm):
            comp = CellHistogram(lustre, grid_config=GridPartitionConfig(num_cells=9))
            result = comp.run(comm, "datasets/cemetery.wkt")
            return result.local_results

        res = mpisim.run_spmd(prog, 3)
        total = sum(count for chunk in res.values for _, count in chunk)
        # every parsed geometry is counted at least once (replicas possible)
        parser = WKTParser()
        with lustre.open("datasets/cemetery.wkt") as fh:
            expected = len(parser.parse_buffer(fh.pread(0, fh.size)))
        assert total >= expected


class TestFileViewWrites:
    def test_write_all_through_view(self, lustre):
        lustre.create_file("out.bin", b"\x00" * 64)

        def prog(comm):
            fh = File.Open(comm, lustre, "out.bin", mode="r+")
            fh.Set_view(disp=comm.rank * 16)
            fh.write_all(bytes([65 + comm.rank]) * 16)
            comm.barrier()
            fh.Set_view(disp=0)
            return fh.read_at(0, 64)

        res = mpisim.run_spmd(prog, 4)
        assert res.values[0] == b"A" * 16 + b"B" * 16 + b"C" * 16 + b"D" * 16

    def test_independent_read_without_contention_model(self, lustre):
        lustre.create_file("small.bin", b"0123456789abcdef")

        def prog(comm):
            fh = File.Open(comm, lustre, "small.bin")
            return fh.read_at_nb(4, 4)

        assert mpisim.run_spmd(prog, 2).values[0] == b"4567"

    def test_seek_negative_rejected(self, lustre):
        lustre.create_file("s.bin", b"xy")

        def prog(comm):
            fh = File.Open(comm, lustre, "s.bin")
            fh.Seek(-1)

        with pytest.raises(mpisim.MPIError):
            mpisim.run_spmd(prog, 1)


class TestRuntimeUtilities:
    def test_payload_nbytes_variants(self):
        assert payload_nbytes(None) == 0
        assert payload_nbytes(b"abc") == 3
        assert payload_nbytes("abcd") == 4
        assert payload_nbytes(3.14) == 8
        assert payload_nbytes([b"ab", b"cd"]) == 4
        assert payload_nbytes({"k": list(range(100))}) > 0

    def test_spmd_breakdown_reports_categories(self, lustre):
        def prog(comm):
            vio = VectorIO(lustre)
            vio.read_geometries(comm, "datasets/cemetery.wkt")

        result = mpisim.run_spmd(prog, 2)
        io, parse = result.max_category("io"), result.max_category("parse")
        assert io > 0
        assert parse > 0
        assert result.max_time >= max(io, parse)

    def test_info_hint_flows_through_partitioner(self, lustre):
        def prog(comm):
            cfg = PartitionConfig(block_size=32 * 1024, level=1, info=Info(cb_nodes=1))
            vio = VectorIO(lustre, cfg)
            report = vio.read_geometries(comm, "datasets/cemetery.wkt")
            return report.num_geometries

        res = mpisim.run_spmd(prog, 2)
        assert sum(res.values) == 80
