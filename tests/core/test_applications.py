"""End-to-end application tests: spatial join, distributed indexing, range
query, and consistency against sequential baselines."""

import pytest

from repro import mpisim
from repro.core import (
    DistributedIndex,
    GridPartitionConfig,
    PartitionConfig,
    RangeQuery,
    SpatialJoin,
    VectorIO,
    WKTParser,
    join_cell,
)
from repro.geometry import Envelope, Point, Polygon, predicates
from repro.index import GridCell, UniformGrid
from repro.mpisim import ops


def sequential_join(fs, left_path, right_path):
    """Brute-force single-process join used as ground truth."""
    parser = WKTParser()

    def read(path):
        with fs.open(path) as fh:
            data = fh.pread(0, fh.size)
        return parser.parse_buffer(data)

    left = read(left_path)
    right = read(right_path)
    pairs = set()
    for lg in left:
        for rg in right:
            if predicates.intersects(lg, rg):
                pairs.add((lg.wkt(), rg.wkt()))
    return pairs


class TestJoinCell:
    def make_cell(self, minx=0, miny=0, maxx=100, maxy=100):
        return GridCell(0, 0, 0, Envelope(minx, miny, maxx, maxy))

    def test_basic_pairs(self):
        cell = self.make_cell()
        left = [Polygon.box(0, 0, 10, 10, userdata="L0"), Polygon.box(50, 50, 60, 60, userdata="L1")]
        right = [Polygon.box(5, 5, 15, 15, userdata="R0"), Polygon.box(90, 90, 95, 95, userdata="R1")]
        pairs = join_cell(cell, left, right)
        assert [(p.left.userdata, p.right.userdata) for p in pairs] == [("L0", "R0")]

    def test_empty_inputs(self):
        cell = self.make_cell()
        assert join_cell(cell, [], [Point(1, 1)]) == []
        assert join_cell(cell, [Point(1, 1)], []) == []

    def test_duplicate_avoidance_reference_point(self):
        # the pair's reference point (lower-left of the MBR intersection) is
        # (5, 5); only the cell containing that point may report the pair
        left = [Polygon.box(0, 0, 10, 10)]
        right = [Polygon.box(5, 5, 15, 15)]
        cell_with_ref = GridCell(0, 0, 0, Envelope(0, 0, 10, 10))
        cell_without_ref = GridCell(1, 0, 1, Envelope(10, 0, 20, 10))
        assert len(join_cell(cell_with_ref, left, right)) == 1
        assert len(join_cell(cell_without_ref, left, right)) == 0

    def test_filter_false_positive_removed_by_refine(self):
        # MBRs overlap but the exact geometries do not intersect
        cell = self.make_cell()
        tri_left = Polygon([(0, 0), (10, 0), (0, 10)])
        tri_right = Polygon([(10, 10), (9.5, 9.9), (9.9, 9.5)])
        assert tri_left.envelope.intersects(tri_right.envelope)
        assert join_cell(cell, [tri_left], [tri_right]) == []


class TestSpatialJoinDistributed:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_matches_sequential_baseline(self, small_datasets, nprocs):
        fs = small_datasets["fs"]
        expected = sequential_join(fs, small_datasets["lakes"], small_datasets["cemetery"])

        def prog(comm):
            join = SpatialJoin(
                fs,
                partition_config=PartitionConfig(block_size=16_384),
                grid_config=GridPartitionConfig(num_cells=16),
            )
            result = join.run(comm, small_datasets["lakes"], small_datasets["cemetery"])
            return [(p.left.wkt(), p.right.wkt()) for p in result.local_results]

        res = mpisim.run_spmd(prog, nprocs)
        got = set()
        for chunk in res.values:
            for pair in chunk:
                assert pair not in got, "pair reported by more than one rank"
                got.add(pair)
        assert got == expected

    def test_grid_cells_do_not_change_result(self, small_datasets):
        fs = small_datasets["fs"]

        def prog(comm, cells):
            join = SpatialJoin(fs, grid_config=GridPartitionConfig(num_cells=cells))
            local = join.run(comm, small_datasets["lakes"], small_datasets["cemetery"])
            return comm.allreduce(len(local.local_results), ops.SUM)

        counts = {
            cells: mpisim.run_spmd(prog, 2, cells).values[0] for cells in (4, 16, 64)
        }
        assert len(set(counts.values())) == 1

    def test_breakdown_has_all_phases(self, small_datasets):
        fs = small_datasets["fs"]

        def prog(comm):
            join = SpatialJoin(fs, grid_config=GridPartitionConfig(num_cells=16))
            result = join.run(comm, small_datasets["lakes"], small_datasets["cemetery"])
            return result.breakdown.as_dict()

        res = mpisim.run_spmd(prog, 2)
        b = res.values[0]
        assert b["io"] > 0
        assert b["parse"] > 0
        assert b["total"] >= b["io"] + b["parse"]


class TestDistributedIndex:
    def test_indexed_count_includes_every_geometry(self, small_datasets):
        fs = small_datasets["fs"]

        def prog(comm):
            index = DistributedIndex(fs, grid_config=GridPartitionConfig(num_cells=16))
            report = index.build(comm, small_datasets["lakes"])
            return index.total_indexed(comm, report)

        res = mpisim.run_spmd(prog, 4)
        # replication can only add copies, never lose geometries
        parser = WKTParser()
        with fs.open(small_datasets["lakes"]) as fh:
            total = len(parser.parse_buffer(fh.pread(0, fh.size)))
        assert res.values[0] >= total

    def test_local_query_finds_known_geometry(self, small_datasets):
        fs = small_datasets["fs"]
        parser = WKTParser()
        with fs.open(small_datasets["lakes"]) as fh:
            geoms = parser.parse_buffer(fh.pread(0, fh.size))
        target = geoms[0]

        def prog(comm):
            index = DistributedIndex(fs, grid_config=GridPartitionConfig(num_cells=9))
            report = index.build(comm, small_datasets["lakes"])
            local = report.query_local(target.envelope)
            found = any(g.wkt() == target.wkt() for g in local)
            return comm.allreduce(found, ops.LOR)

        res = mpisim.run_spmd(prog, 3)
        assert all(res.values)

    def test_breakdown_phases_scale_down_with_ranks(self, small_datasets):
        fs = small_datasets["fs"]

        def prog(comm):
            index = DistributedIndex(fs, grid_config=GridPartitionConfig(num_cells=16))
            report = index.build(comm, small_datasets["lakes"])
            return report.indexed_geometries

        one = max(mpisim.run_spmd(prog, 1).values)
        four = max(mpisim.run_spmd(prog, 4).values)
        # per-rank refine work shrinks when the cells are spread over 4 ranks:
        # counted as geometries indexed, not as measured CPU seconds
        assert four < one


class TestRangeQuery:
    def test_matches_bruteforce(self, small_datasets):
        fs = small_datasets["fs"]
        parser = WKTParser()
        with fs.open(small_datasets["cemetery"]) as fh:
            geoms = parser.parse_buffer(fh.pread(0, fh.size))
        # build query windows around a few known geometries
        queries = [(f"q{i}", geoms[i * 7].envelope.buffer(0.05)) for i in range(5)]
        expected = set()
        for qid, window in queries:
            wpoly = Polygon.from_envelope(window)
            for g in geoms:
                if predicates.intersects(wpoly, g):
                    expected.add((qid, g.wkt()))

        def prog(comm):
            rq = RangeQuery(fs, queries, grid_config=GridPartitionConfig(num_cells=16))
            matches = rq.execute(comm, small_datasets["cemetery"])
            return [(m.query_id, m.geometry.wkt()) for m in matches]

        res = mpisim.run_spmd(prog, 3)
        got = set()
        for chunk in res.values:
            for match in chunk:
                assert match not in got, "duplicate query match"
                got.add(match)
        assert got == expected

    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_execute_uses_the_configured_grid(self, small_datasets, nprocs):
        # regression: execute ran a private copy of the partitioned pipeline
        # that did not build the grid the GridPartitionConfig describes
        fs = small_datasets["fs"]
        with fs.open(small_datasets["cemetery"]) as fh:
            geoms = WKTParser().parse_buffer(fh.pread(0, fh.size))
        queries = [(f"q{i}", geoms[i * 7].envelope.buffer(0.05)) for i in range(5)]
        expected = sorted(
            (qid, g.wkt())
            for qid, window in queries
            for g in geoms
            if predicates.intersects(Polygon.from_envelope(window), g)
        )
        extent = Envelope.empty()
        for env in [g.envelope for g in geoms] + [window for _, window in queries]:
            extent = extent.union(env)
        grid = UniformGrid.with_cell_count(extent, 16)
        windows = dict(queries)

        def prog(comm):
            config = GridPartitionConfig(num_cells=16)
            return RangeQuery(fs, queries, grid_config=config).execute(
                comm, small_datasets["cemetery"]
            )

        matches = [m for chunk in mpisim.run_spmd(prog, nprocs).values for m in chunk]
        assert sorted((m.query_id, m.geometry.wkt()) for m in matches) == expected
        # each match is reported by the cell of the *configured* grid that
        # holds its duplicate-avoidance reference point
        for m in matches:
            ref = windows[m.query_id].intersection(m.geometry.envelope)
            assert grid.cell_by_id(m.cell_id).envelope.contains_point(ref.minx, ref.miny)

    def test_empty_query_batch(self, small_datasets):
        fs = small_datasets["fs"]

        def prog(comm):
            rq = RangeQuery(fs, [], grid_config=GridPartitionConfig(num_cells=4))
            return rq.execute(comm, small_datasets["cemetery"])

        res = mpisim.run_spmd(prog, 2)
        assert all(v == [] for v in res.values)


class TestVectorIOFacade:
    def test_partitioned_read_equals_sequential(self, small_datasets):
        fs = small_datasets["fs"]
        vio = VectorIO(fs)
        seq = vio.sequential_read(small_datasets["cemetery"])

        def prog(comm):
            report = VectorIO(fs, PartitionConfig(block_size=8192)).read_geometries(
                comm, small_datasets["cemetery"]
            )
            return report.num_geometries

        res = mpisim.run_spmd(prog, 4)
        assert sum(res.values) == seq.num_geometries

    def test_report_times_populated(self, small_datasets):
        fs = small_datasets["fs"]

        def prog(comm):
            report = VectorIO(fs).read_geometries(comm, small_datasets["cemetery"])
            return (report.io_seconds, report.parse_seconds)

        res = mpisim.run_spmd(prog, 2)
        assert all(io > 0 and parse > 0 for io, parse in res.values)
