"""The table-driven Hilbert encoder against the bit loop it replaced.

``repro.index.sfc`` computes a key four curve levels per step from a
1 024-entry table, and ``sort_by_hilbert`` scales and clamps coordinates in
float space once per point.  The retired bit-at-a-time encoder and per-point
normaliser live on in ``_hilbert_reference.py``; here they are the oracle:

* ``hilbert_encode`` equals the bit loop at every order 1-20, on random grid
  points and on both boundaries of the grid (0 and ``2**order - 1``);
* ``sort_by_hilbert`` returns the same index *list* as the old sort on random
  extents — zero-width and zero-height extents included — with points inside
  and outside them (order, ties and all);
* non-finite coordinates, which made the old sort raise, have a place: NaN on
  cell 0, ±inf and values past the extent on the boundary cells.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _hilbert_reference import hilbert_encode_reference, sort_by_hilbert_reference
from repro.geometry import Envelope
from repro.index import hilbert_encode, sort_by_hilbert

orders = st.integers(min_value=1, max_value=20)


@st.composite
def grid_points(draw):
    order = draw(orders)
    top = (1 << order) - 1
    coord = st.one_of(st.sampled_from([0, top]), st.integers(min_value=0, max_value=top))
    return draw(coord), draw(coord), order


class TestEncoder:
    @settings(max_examples=500, deadline=None)
    @given(grid_points())
    def test_equals_the_bit_loop(self, point):
        ix, iy, order = point
        assert hilbert_encode(ix, iy, order) == hilbert_encode_reference(ix, iy, order)

    @pytest.mark.parametrize("order", range(1, 21))
    def test_grid_corners_equal_the_bit_loop(self, order):
        top = (1 << order) - 1
        for ix, iy in [(0, 0), (0, top), (top, 0), (top, top), (top // 2, top // 2 + 1)]:
            assert hilbert_encode(ix, iy, order) == hilbert_encode_reference(ix, iy, order)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_whole_lattice_equals_the_bit_loop(self, order):
        side = 1 << order
        for ix in range(side):
            for iy in range(side):
                assert hilbert_encode(ix, iy, order) == hilbert_encode_reference(ix, iy, order)

    def test_grid_bounds_are_enforced(self):
        with pytest.raises(ValueError):
            hilbert_encode(-1, 0)
        with pytest.raises(ValueError):
            hilbert_encode(0, 1 << 5, order=5)


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
width = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e5))


@st.composite
def extents(draw):
    minx, miny = draw(finite), draw(finite)
    return Envelope(minx, miny, minx + draw(width), miny + draw(width))


@st.composite
def points_around(draw, extent):
    """Points mostly inside *extent*, some outside it, some duplicated."""
    inside_x = st.floats(min_value=extent.minx, max_value=extent.maxx)
    inside_y = st.floats(min_value=extent.miny, max_value=extent.maxy)
    point = st.one_of(st.tuples(inside_x, inside_y), st.tuples(finite, finite))
    pts = draw(st.lists(point, max_size=60))
    return pts + pts[: draw(st.integers(min_value=0, max_value=3))]


class TestSort:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), extents())
    def test_equals_the_old_sort(self, data, extent):
        pts = data.draw(points_around(extent))
        assert sort_by_hilbert(pts, extent) == sort_by_hilbert_reference(pts, extent, 16)

    def test_non_finite_coordinates_have_a_place(self):
        extent = Envelope(0.0, 0.0, 10.0, 10.0)
        inf, nan = math.inf, math.nan
        pts = [(5.0, 5.0), (nan, nan), (inf, inf), (-inf, -inf), (nan, 0.0), (20.0, 20.0)]
        order = sort_by_hilbert(pts, extent)
        assert sorted(order) == list(range(len(pts)))
        # NaN and -inf clamp to cell (0, 0), key 0, so they lead in input order
        assert order[:3] == [1, 3, 4]
        # +inf and a point past the extent share the corner cell
        keys = {i: pos for pos, i in enumerate(order)}
        assert abs(keys[2] - keys[5]) == 1

    @pytest.mark.parametrize(
        "extent",
        [
            Envelope(-math.inf, 0.0, math.inf, 1.0),  # infinite width
            Envelope(-1e308, -1e308, 1e308, 1e308),  # width overflows to inf
        ],
    )
    def test_unbounded_extents_sort_without_error(self, extent):
        pts = [(0.0, 0.5), (1e308, 1e308), (-1e308, 0.0), (math.inf, 0.0)]
        assert sorted(sort_by_hilbert(pts, extent)) == [0, 1, 2, 3]
