"""Spatial MPI datatypes, reduction operators and parsers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mpisim
from repro.core import (
    MPI_LINE,
    MPI_MAX_RECT,
    MPI_MIN_LINE,
    MPI_MIN_POINT,
    MPI_MIN_RECT,
    MPI_POINT,
    MPI_RECT,
    MPI_RECT_STRUCT,
    MPI_UNION,
    WKTParser,
    geometry_extent_op,
    make_fixed_polygon_type,
    make_multi_point_type,
    pack_points,
    pack_rects,
    unpack_points,
    unpack_rects,
    pack_lines,
    unpack_lines,
)
from repro.geometry import Envelope, LineString, Point


class TestSpatialDatatypes:
    def test_sizes_match_table2(self):
        assert MPI_POINT.size == 16  # 2 doubles
        assert MPI_LINE.size == 32  # 4 doubles
        assert MPI_RECT.size == 32  # 4 doubles
        assert MPI_RECT_STRUCT.size == 8 * 4 or MPI_RECT_STRUCT.size == 4 * 8

    def test_nested_compound_types(self):
        mp = make_multi_point_type(5)
        assert mp.size == 5 * MPI_POINT.size
        poly = make_fixed_polygon_type(4)
        assert poly.size == 4 * MPI_POINT.size
        with pytest.raises(ValueError):
            make_fixed_polygon_type(2)

    def test_pack_unpack_points(self):
        pts = [Point(1, 2), Point(-3.5, 4.25)]
        data = pack_points(pts)
        assert len(data) == 2 * MPI_POINT.size
        out = unpack_points(data)
        assert [(p.x, p.y) for p in out] == [(1, 2), (-3.5, 4.25)]

    def test_pack_unpack_rects(self):
        rects = [Envelope(0, 0, 1, 1), Envelope(-5, -5, 5, 5)]
        out = unpack_rects(pack_rects(rects))
        assert out == rects

    def test_pack_unpack_lines(self):
        lines = [LineString([(0, 0), (1, 1)]), LineString([(2, 2), (3, 5)])]
        out = unpack_lines(pack_lines(lines))
        assert [l.coords for l in out] == [l.coords for l in lines]

    def test_pack_lines_rejects_polylines(self):
        with pytest.raises(ValueError):
            pack_lines([LineString([(0, 0), (1, 1), (2, 2)])])

    def test_unpack_rejects_ragged(self):
        with pytest.raises(ValueError):
            unpack_points(b"\x00" * 10)
        with pytest.raises(ValueError):
            unpack_rects(b"\x00" * 30)


class TestSpatialReductions:
    def test_union_reduce_gives_global_extent(self):
        """The paper's flagship use: global grid extent via MPI_UNION."""

        def prog(comm):
            local = Envelope(comm.rank * 10.0, 0.0, comm.rank * 10.0 + 5.0, 5.0)
            return comm.allreduce(local, MPI_UNION)

        res = mpisim.run_spmd(prog, 6)
        assert all(v == Envelope(0, 0, 55, 5) for v in res.values)

    def test_union_reduce_to_root(self):
        def prog(comm):
            local = Envelope(0, comm.rank, 1, comm.rank + 1)
            return comm.reduce(local, MPI_UNION, root=0)

        res = mpisim.run_spmd(prog, 4)
        assert res.values[0] == Envelope(0, 0, 1, 4)
        assert res.values[1] is None

    def test_union_scan(self):
        """Figure 13 also exercises MPI_Scan with the union operator."""

        def prog(comm):
            local = Envelope(comm.rank, comm.rank, comm.rank + 1, comm.rank + 1)
            return comm.scan(local, MPI_UNION)

        res = mpisim.run_spmd(prog, 4)
        for rank, env in enumerate(res.values):
            assert env == Envelope(0, 0, rank + 1, rank + 1)

    def test_min_max_rect(self):
        def prog(comm):
            local = Envelope(0, 0, comm.rank + 1, 1)
            return (comm.allreduce(local, MPI_MIN_RECT), comm.allreduce(local, MPI_MAX_RECT))

        res = mpisim.run_spmd(prog, 4)
        smallest, largest = res.values[0]
        assert smallest == Envelope(0, 0, 1, 1)
        assert largest == Envelope(0, 0, 4, 1)

    def test_min_line_and_point(self):
        def prog(comm):
            line = LineString([(0, 0), (comm.rank + 1.0, 0)])
            point = Point(float(comm.rank), 0.0)
            return (comm.allreduce(line, MPI_MIN_LINE), comm.allreduce(point, MPI_MIN_POINT))

        res = mpisim.run_spmd(prog, 3)
        line, point = res.values[0]
        assert line.length == pytest.approx(1.0)
        assert (point.x, point.y) == (0.0, 0.0)

    def test_geometry_extent_op(self):
        op = geometry_extent_op()

        def prog(comm):
            return comm.allreduce(Point(float(comm.rank), 1.0), op)

        res = mpisim.run_spmd(prog, 3)
        assert res.values[0] == Envelope(0, 1, 2, 1)

    @given(st.lists(
        st.tuples(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            st.floats(min_value=0, max_value=10, allow_nan=False),
            st.floats(min_value=0, max_value=10, allow_nan=False),
        ),
        min_size=1,
        max_size=12,
    ))
    @settings(max_examples=30, deadline=None)
    def test_union_reduction_order_invariance(self, specs):
        """MPI only guarantees associativity; the union of MBRs must not
        depend on reduction order."""
        envs = [Envelope(x, y, x + w, y + h) for x, y, w, h in specs]
        forward = MPI_UNION.reduce_sequence(envs)
        backward = MPI_UNION.reduce_sequence(list(reversed(envs)))
        assert forward == backward
        for e in envs:
            assert forward.contains(e)


class TestParsers:
    def test_wkt_parser_counts(self):
        parser = WKTParser()
        geoms = parser.parse_many(
            [
                "POINT (1 2)",
                "POLYGON ((0 0, 1 0, 1 1, 0 0))\tid=4",
                "",
                "not wkt at all",
            ]
        )
        assert len(geoms) == 2
        assert geoms[1].userdata == "id=4"

    def test_parse_buffer(self):
        parser = WKTParser()
        data = b"POINT (1 1)\nPOINT (2 2)\n"
        assert len(parser.parse_buffer(data)) == 2

