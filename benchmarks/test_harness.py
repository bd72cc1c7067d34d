"""Benchmark-harness and reporting tests (fast, small configurations)."""

import pytest

from harness import (
    algorithm1_read_time,
    collective_contiguous_read_time,
    ensure_dataset,
    level0_bandwidth_figure,
    message_vs_overlap_figure,
    noncontiguous_read_time,
    overlap_read_time,
    run_indexing_breakdown,
    run_join_breakdown,
    sequential_parse_table,
    union_reduce_scan_figure,
)
from reporting import FigureReport, Series, bandwidth_gbps, format_table
from repro.pfs import ClusterConfig, GPFSFilesystem, IOCostModel, LustreFilesystem, StripeLayout


@pytest.fixture
def lustre(tmp_path):
    return LustreFilesystem(tmp_path / "lustre")


class TestReporting:
    def test_series_and_rows(self):
        s = Series("bw")
        s.add(4, 1.5)
        s.add(8, 3.0)
        assert s.as_rows() == [["bw", 4, 1.5], ["bw", 8, 3.0]]
        assert s.max() == 3.0 and s.min() == 1.5

    def test_format_table_alignment(self):
        text = format_table(["a", "b"], [["x", 1.23456], ["yy", 2.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.235" in text

    def test_figure_report_roundtrip(self):
        report = FigureReport("Figure X", "demo", "n", "t")
        s = report.add_series("one")
        s.add(1, 0.5)
        report.note("hello")
        text = report.to_text()
        assert "Figure X" in text and "hello" in text
        assert report.series_by_label("one") is s
        with pytest.raises(KeyError):
            report.series_by_label("missing")

    def test_bandwidth_gbps(self):
        assert bandwidth_gbps(2e9, 2.0) == pytest.approx(1.0)
        assert bandwidth_gbps(1, 0.0) == float("inf")


class TestPatternDrivers:
    COST = IOCostModel(cluster=ClusterConfig(procs_per_node=16))
    LAYOUT = StripeLayout(32 << 20, 32)

    def test_algorithm1_faster_with_more_ranks(self):
        small = algorithm1_read_time(self.COST, self.LAYOUT, 8 << 30, 32, 32 << 20)
        large = algorithm1_read_time(self.COST, self.LAYOUT, 8 << 30, 256, 32 << 20)
        assert large < small

    def test_overlap_costs_more_than_message(self):
        msg = algorithm1_read_time(self.COST, self.LAYOUT, 4 << 30, 64, 32 << 20)
        ovl = overlap_read_time(self.COST, self.LAYOUT, 4 << 30, 64, 32 << 20)
        assert msg < ovl

    def test_collective_slower_than_independent(self, lustre):
        lustre.create_file("v.dat", b"")
        lustre.setstripe("v.dat", stripe_size=32 << 20, stripe_count=32)
        level0 = algorithm1_read_time(self.COST, lustre.layout_of("v.dat"), 4 << 30, 64, 32 << 20)
        level1 = collective_contiguous_read_time(lustre, "v.dat", 4 << 30, 64, 32 << 20)
        assert level0 < level1

    def test_noncontiguous_improves_with_block_size(self, lustre):
        lustre.create_file("nc.dat", b"")
        small = noncontiguous_read_time(lustre, "nc.dat", 100_000, 16, 8, 16)
        large = noncontiguous_read_time(lustre, "nc.dat", 100_000, 16, 8, 1024)
        assert large < small

    def test_level0_bandwidth_figure_structure(self):
        report = level0_bandwidth_figure(1 << 30, [(16 << 20, 16)], [2, 4], procs_per_node=4)
        assert len(report.series) == 1
        assert len(report.series[0].x) == 2
        assert all(v > 0 for v in report.series[0].y)

    def test_message_vs_overlap_figure_structure(self):
        report = message_vs_overlap_figure(1 << 30, 16 << 20, [16], [2, 4], block_size=16 << 20)
        assert {s.label for s in report.series} == {"message OST=16", "overlap OST=16"}


class TestFullSimulationDrivers:
    def test_sequential_parse_table_small(self, lustre):
        report = sequential_parse_table(lustre, scale=0.02)
        times = dict(zip(report.series[0].x, report.series[0].y))
        assert len(times) == 6
        assert all(v > 0 for v in times.values())

    def test_join_breakdown_keys(self, lustre):
        left = ensure_dataset(lustre, "lakes", 0.02)
        right = ensure_dataset(lustre, "cemetery", 0.1)
        breakdown = run_join_breakdown(lustre, left, right, nprocs=2, num_cells=9)
        assert set(breakdown) == {"io", "parse", "partition", "communication", "refine", "total"}
        assert breakdown["total"] > 0

    def test_indexing_breakdown_keys(self, lustre):
        path = ensure_dataset(lustre, "road_network", 0.01)
        breakdown = run_indexing_breakdown(lustre, path, nprocs=2, num_cells=8)
        assert breakdown["total"] >= breakdown["refine"]

    def test_union_reduce_scan_small(self):
        report = union_reduce_scan_figure([1_000, 2_000], nprocs=3)
        reduce_series = report.series_by_label("MPI_Reduce")
        assert reduce_series.y[1] > 0

    def test_ensure_dataset_idempotent(self, lustre):
        p1 = ensure_dataset(lustre, "cemetery", 0.05)
        size1 = lustre.file_size(p1)
        p2 = ensure_dataset(lustre, "cemetery", 0.5)  # already exists: not regenerated
        assert p1 == p2
        assert lustre.file_size(p2) == size1
