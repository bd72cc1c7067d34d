"""Uniform grid and space-filling-curve tests."""

import random

import pytest

from repro.geometry import Envelope
from repro.index import (
    UniformGrid,
    hilbert_encode,
    round_robin_mapping,
    sort_by_hilbert,
    spatial_visit_order,
)


class TestUniformGrid:
    def test_cell_layout(self):
        g = UniformGrid(Envelope(0, 0, 100, 50), rows=5, cols=10)
        assert g.num_cells == 50
        assert g.cell(0, 0).envelope.as_tuple() == (0, 0, 10, 10)
        assert g.cell(4, 9).envelope.as_tuple() == (90, 40, 100, 50)
        assert g.cell_id(1, 2) == 12
        assert g.cell_by_id(12).row == 1 and g.cell_by_id(12).col == 2

    def test_with_cell_count(self):
        g = UniformGrid.with_cell_count(Envelope(0, 0, 10, 10), 64)
        assert g.num_cells == 64
        g2 = UniformGrid.with_cell_count(Envelope(0, 0, 10, 10), 17)
        assert g2.num_cells == 17

    def test_cells_for_envelope_replication(self):
        g = UniformGrid(Envelope(0, 0, 100, 100), rows=4, cols=4)
        # a geometry spanning 4 cells must be replicated to all of them
        ids = g.cells_for_envelope(Envelope(20, 20, 30, 30))
        assert sorted(ids) == [0, 1, 4, 5]
        # fully inside a single cell
        assert g.cells_for_envelope(Envelope(1, 1, 2, 2)) == [0]

    def test_cells_for_envelope_clamps_outliers(self):
        g = UniformGrid(Envelope(0, 0, 100, 100), rows=2, cols=2)
        assert g.cells_for_envelope(Envelope(200, 200, 300, 300)) == [3]
        assert g.cells_for_envelope(Envelope(-10, -10, -5, -5)) == [0]

    def test_cell_for_point(self):
        g = UniformGrid(Envelope(0, 0, 100, 100), rows=2, cols=2)
        assert g.cell_for_point(10, 10) == 0
        assert g.cell_for_point(60, 10) == 1
        assert g.cell_for_point(10, 60) == 2
        assert g.cell_for_point(99, 99) == 3

    def test_union_of_cells_covers_extent(self):
        g = UniformGrid(Envelope(0, 0, 97, 53), rows=3, cols=7)
        u = Envelope.empty()
        for c in g.cells():
            u = u.union(c.envelope)
        assert u == g.extent

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            UniformGrid(Envelope.empty(), 1, 1)
        with pytest.raises(ValueError):
            UniformGrid(Envelope(0, 0, 1, 1), 0, 5)
        with pytest.raises(IndexError):
            UniformGrid(Envelope(0, 0, 1, 1), 2, 2).cell_by_id(4)


class TestMappings:
    def test_round_robin(self):
        m = round_robin_mapping(10, 3)
        assert m[0] == 0 and m[1] == 1 and m[2] == 2 and m[3] == 0
        counts = [list(m.values()).count(r) for r in range(3)]
        assert max(counts) - min(counts) <= 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            round_robin_mapping(4, 0)


def cells_by_hilbert_code(order):
    """``code -> (x, y)`` over the whole ``2**order`` lattice: the inverse
    of :func:`hilbert_encode`, found by enumeration."""
    side = 1 << order
    return {hilbert_encode(x, y, order=order): (x, y) for x in range(side) for y in range(side)}


class TestSpaceFillingCurves:
    @pytest.mark.parametrize("order", [1, 2, 5, 7])
    def test_hilbert_codes_number_the_lattice_once(self, order):
        assert sorted(cells_by_hilbert_code(order)) == list(range(4**order))

    @pytest.mark.parametrize("order", [1, 2, 5, 7])
    def test_hilbert_locality_adjacent_codes_adjacent_cells(self, order):
        # Consecutive Hilbert distances must map to 4-neighbour cells.
        cells = cells_by_hilbert_code(order)
        for d in range(1, 4**order):
            (x0, y0), (x1, y1) = cells[d - 1], cells[d]
            assert abs(x1 - x0) + abs(y1 - y0) == 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            hilbert_encode(-1, 0)
        with pytest.raises(ValueError):
            hilbert_encode(5, 5, order=2) if 5 >= 4 else None

    def test_sorting_helpers(self):
        rng = random.Random(3)
        pts = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(200)]
        extent = Envelope(0, 0, 100, 100)
        idx = sort_by_hilbert(pts, extent)
        assert sorted(idx) == list(range(200))
        # spatial locality: average step distance under the SFC order is
        # clearly smaller than under the original random order
        def avg_step(order):
            return sum(
                abs(pts[a][0] - pts[b][0]) + abs(pts[a][1] - pts[b][1])
                for a, b in zip(order, order[1:])
            ) / (len(order) - 1)

        assert avg_step(idx) < avg_step(list(range(200))) * 0.65


class TestSpatialVisitOrder:
    """`spatial_visit_order` is the one shared ordering rule: the bulk
    loader's record packing and the query engine's batch ordering both route
    through it, so these tests pin its output to the raw sorting helpers it
    replaced."""

    def _points(self, n=150, seed=7):
        rng = random.Random(seed)
        return [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]

    def test_pins_hilbert_order(self):
        pts = self._points()
        extent = Envelope(0, 0, 100, 100)
        assert spatial_visit_order(pts, extent) == sort_by_hilbert(pts, extent)

    def test_degenerate_inputs_keep_input_order(self):
        extent = Envelope(0, 0, 100, 100)
        assert spatial_visit_order([], extent) == []
        assert spatial_visit_order([(1.0, 2.0)], extent) == [0]
        pts = self._points(n=5)
        assert spatial_visit_order(pts, Envelope.empty()) == [0, 1, 2, 3, 4]

    def test_writer_ordering_routes_through_the_helper(self):
        # the bulk loader's slot order inside a partition must be exactly the
        # Hilbert order of the records' envelope centres (small pages, so the
        # order is checked across page boundaries too)
        from repro.geometry import Point
        from repro.store.format import decode_page_columns
        from repro.store.writer import _encoded, pack_partitions

        rng = random.Random(23)
        recs = _encoded(
            (i, Point(rng.uniform(0, 50), rng.uniform(0, 50))) for i in range(60)
        )
        extent = Envelope(0, 0, 50, 50)
        packed = pack_partitions({0: recs}, UniformGrid(extent, 1, 1), page_size=256)
        assert len(packed.payloads) > 1
        slot_order = [
            rid for payload in packed.payloads for rid in decode_page_columns(payload)[0]
        ]
        assert slot_order == sort_by_hilbert([r.envelope.centre for r in recs], extent)
