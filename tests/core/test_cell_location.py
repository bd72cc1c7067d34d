"""The one cell-location rule: ``UniformGrid``'s floor arithmetic.

Replication (``cells_for_envelope``), a record's home cell — the one cell
the store keeps it in — and the owner of a pair's reference point
(``cell_for_point``) are one monotone function, so
"every pair / match / record exactly once" holds by construction.  The
properties below fuzz that function — on grids whose cell edges are exact in
binary (where ties are decidable) and on arbitrary float grids — against the
closed-rectangle probe it replaced (``_cell_location_reference.py``), and the
end-to-end cases drive a lattice dataset, whose coordinates sit exactly on
cell edges, through ``SpatialJoin``, ``RangeQuery`` and ``run_from_store``.
With the retired probe a pair whose reference point lay on a cell edge was
reported once per touching cell.
"""

import math
from collections import Counter

import pytest
from _cell_location_reference import closed_owners, closed_probe
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mpisim
from repro.core import GridPartitionConfig, RangeQuery, SpatialJoin, assign_to_cells, join_cell
from repro.geometry import Envelope, Point, Polygon, predicates
from repro.index import UniformGrid
from repro.pfs import LustreFilesystem
from repro.store import DistributedStoreServer, bulk_load
from repro.store.writer import _Rec, home_cells

INF = math.inf


# --------------------------------------------------------------------------- #
# the two reproductions (both fail on the closed-rectangle probe)
# --------------------------------------------------------------------------- #
def local_join(grid, left, right):
    """The pipeline's partition + refine steps on one process."""
    lcells, rcells = assign_to_cells(grid, left), assign_to_cells(grid, right)
    return Counter(
        pair.keys()
        for cid in sorted(set(lcells) & set(rcells))
        for pair in join_cell(grid.cell_by_id(cid), lcells[cid], rcells[cid])
    )


def test_a_pair_on_a_cell_edge_is_reported_once():
    grid = UniformGrid(Envelope(0, 0, 8, 8), 2, 2)
    left = [Polygon.box(0, 0, 4, 3, userdata="L0"), Polygon.box(3, 1, 5, 2, userdata="L1")]
    right = [Polygon.box(4, 1, 8, 8, userdata="R0")]
    # both reference points are (4, 1): on the edge between cells 0 and 1,
    # inside both closed rectangles — each of them used to report both pairs
    assert closed_owners(grid, 4, 1) == [0, 1]
    assert local_join(grid, left, right) == Counter({("L0", "R0"): 1, ("L1", "R0"): 1})


def test_a_point_on_a_cell_corner_has_one_cell():
    grid = UniformGrid(Envelope(0, 0, 8, 8), 2, 2)
    corner = Envelope.of_point(4, 4)
    assert closed_probe(grid, corner) == [0, 1, 2, 3]
    assert grid.cells_for_envelope(corner) == [3] == [grid.cell_for_point(4, 4)]
    assert [c.cell_id for c in grid.cells() if c.owns_point(4, 4)] == [3]
    # cells are half-open, closed at the extent's far edges
    assert grid.cell_for_point(8, 8) == 3 and grid.cell_for_point(0, 8) == 2


def test_the_floor_function_is_total():
    grid = UniformGrid(Envelope(0, 0, 8, 8), 2, 2)
    assert grid.cells_for_envelope(Envelope(-INF, 1, INF, 2)) == [0, 1]  # was: OverflowError
    assert grid.cells_for_envelope(Envelope(-1e308, -1e308, 1e308, 1e308)) == [0, 1, 2, 3]
    assert grid.cells_for_envelope(Envelope(1e308, 1e308, INF, INF)) == [3]
    assert grid.cell_for_point(INF, -INF) == 1
    assert grid.cells_for_envelope(Envelope.empty()) == []
    nan = math.nan
    with pytest.raises(ValueError, match=r"Envelope\(nan, 1.*not a box"):
        grid.cells_for_envelope(Envelope(nan, 1, nan, 2))
    with pytest.raises(ValueError, match="nan"):
        grid.cell_for_point(1, nan)


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
def envelope_of(x1, y1, x2, y2):
    return Envelope(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


@st.composite
def lattice_case(draw):
    """A grid whose origin and cell size are multiples of 1/8 (every cell edge
    and every quotient the floor function takes is exact) and an envelope on
    the same lattice, half of its bounds exactly on a cell edge."""
    rows, cols = draw(st.integers(1, 32)), draw(st.integers(1, 64))
    w, h = draw(st.integers(1, 40)) / 8, draw(st.integers(1, 40)) / 8
    x0, y0 = draw(st.integers(-800, 800)) / 8, draw(st.integers(-800, 800)) / 8
    grid = UniformGrid(Envelope(x0, y0, x0 + cols * w, y0 + rows * h), rows, cols)

    def coord(origin, size, n):
        if draw(st.booleans()):
            return origin + draw(st.integers(0, n)) * size
        return origin + draw(st.integers(-16, int(n * size * 8) + 16)) / 8

    x1, y1 = coord(x0, w, cols), coord(y0, h, rows)
    x2 = x1 if draw(st.booleans()) else coord(x0, w, cols)
    y2 = y1 if draw(st.booleans()) else coord(y0, h, rows)
    return grid, envelope_of(x1, y1, x2, y2)


@st.composite
def float_grids(draw):
    """1×1 … 32×64 grids over arbitrary float extents: negative and large
    offsets, zero-width and zero-height extents (which the grid pads)."""
    rows, cols = draw(st.integers(1, 32)), draw(st.integers(1, 64))
    offset = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e9, 1e9))
    size = st.one_of(st.just(0.0), st.floats(1e-3, 1e4))
    x0, y0 = draw(offset), draw(offset)
    return UniformGrid(Envelope(x0, y0, x0 + draw(size), y0 + draw(size)), rows, cols)


def float_coords(draw, origin, size, n):
    """A coordinate inside or around the axis' extent, exactly on (or one
    float beside) the edge float a ``GridCell`` rectangle carries, or huge."""
    kind = draw(st.integers(0, 9))
    if kind <= 4:
        return origin + draw(st.floats(-0.25, 1.25)) * size * n
    edge = origin + draw(st.integers(0, n)) * size
    if kind <= 6:
        return edge
    if kind == 7:
        return math.nextafter(edge, draw(st.sampled_from([-INF, INF])))
    return draw(st.sampled_from([-INF, INF, -1e308, 1e308]))


@st.composite
def float_case(draw):
    """A float grid and two envelopes (points, boxes, infinite strips)."""
    grid = draw(float_grids())
    ext = grid.extent

    def envelope():
        x1 = float_coords(draw, ext.minx, grid.cell_width, grid.cols)
        y1 = float_coords(draw, ext.miny, grid.cell_height, grid.rows)
        if draw(st.integers(0, 3)) == 0:
            return Envelope.of_point(x1, y1)
        x2 = float_coords(draw, ext.minx, grid.cell_width, grid.cols)
        y2 = float_coords(draw, ext.miny, grid.cell_height, grid.rows)
        return envelope_of(x1, y1, x2, y2)

    return grid, envelope(), envelope()


def col_of(grid, x):
    return grid.cell_for_point(x, grid.extent.miny) % grid.cols


def row_of(grid, y):
    return grid.cell_for_point(grid.extent.minx, y) // grid.cols


def clear_of_edges(grid, env):
    """No bound of *env* lies within a few ulps of a place where the floor
    function — or the rectangle tiling, whose edge floats sit within a few
    ulps of it — passes from one cell to the next."""

    def clear(v, lo, hi, locate):
        if math.isinf(v):
            return True
        d = 8 * math.ulp(max(abs(lo), abs(hi), abs(v)))
        return locate(v - d) == locate(v + d)

    ext = grid.extent
    xs_clear = all(
        clear(x, ext.minx, ext.maxx, lambda v: col_of(grid, v)) for x in (env.minx, env.maxx)
    )
    ys_clear = all(
        clear(y, ext.miny, ext.maxy, lambda v: row_of(grid, v)) for y in (env.miny, env.maxy)
    )
    return xs_clear and ys_clear


# --------------------------------------------------------------------------- #
# properties
# --------------------------------------------------------------------------- #
@given(lattice_case())
@settings(max_examples=300, deadline=None)
def test_exact_grids_differ_from_the_closed_probe_by_touch_only_neighbours(case):
    grid, env = case
    arithmetic, oracle = grid.cells_for_envelope(env), closed_probe(grid, env)
    assert arithmetic == sorted(arithmetic) and arithmetic
    if not oracle:  # outside the closed extent: clamped, nothing to compare
        return
    assert set(arithmetic) <= set(oracle)
    # the closed probe's extra cells only touch the envelope, along the edge a
    # half-open cell does not own (its far one) — and it has all of those
    touch_only = {
        cell.cell_id
        for cell in map(grid.cell_by_id, oracle)
        if (cell.col < grid.cols - 1 and cell.envelope.maxx == env.minx)
        or (cell.row < grid.rows - 1 and cell.envelope.maxy == env.miny)
    }
    assert set(oracle) - set(arithmetic) == touch_only


@given(float_case())
@settings(max_examples=300, deadline=None)
def test_float_grids_equal_the_closed_probe_away_from_edges(case):
    grid, a, b = case
    for env in (a, b):
        arithmetic, oracle = grid.cells_for_envelope(env), closed_probe(grid, env)
        assert arithmetic and arithmetic == sorted(set(arithmetic))
        assert 0 <= arithmetic[0] and arithmetic[-1] < grid.num_cells
        if oracle and clear_of_edges(grid, env):
            assert arithmetic == oracle


@given(float_case())
@settings(max_examples=300, deadline=None)
def test_the_home_cell_is_the_lower_left_cell_and_the_lowest_cell(case):
    grid, a, b = case
    for env in (a, b):
        home = grid.cell_for_point(env.minx, env.miny)
        assert home == min(grid.cells_for_envelope(env))
        # the writers' one cell assignment stores the record there, only
        assert list(home_cells(grid, [_Rec(0, env, b"")])) == [home]


@given(float_case())
@settings(max_examples=300, deadline=None)
def test_one_cell_owns_a_reference_point_and_holds_both_operands(case):
    grid, a, b = case
    if not a.intersects(b):
        b = b.union(a)  # any pair that does intersect
    ref = a.intersection(b)
    owner = grid.cell_for_point(ref.minx, ref.miny)
    assert owner in grid.cells_for_envelope(a) and owner in grid.cells_for_envelope(b)
    assert [c.cell_id for c in grid.cells() if c.owns_point(ref.minx, ref.miny)] == [owner]


@given(float_case())
@settings(max_examples=300, deadline=None)
def test_the_floor_function_is_monotone(case):
    grid, a, b = case
    xs = sorted([a.minx, a.maxx, b.minx, b.maxx])
    ys = sorted([a.miny, a.maxy, b.miny, b.maxy])
    cols, rows = [col_of(grid, x) for x in xs], [row_of(grid, y) for y in ys]
    assert cols == sorted(cols) and rows == sorted(rows)


# --------------------------------------------------------------------------- #
# end to end on a lattice dataset: every answer equals brute force as a multiset
# --------------------------------------------------------------------------- #
def lattice_layer(n, salt):
    """*n* distinct boxes and points over exactly [0, 64]² with coordinates
    that are multiples of 1/8; a third of them start on a multiple of 8 — a
    cell edge of the 4-, 16- and 64-cell grids — so MBRs, reference points
    and query windows land exactly on cell boundaries."""
    out = {}
    for geom in (Polygon.box(0, 0, 1 + salt, 1), Polygon.box(63 - salt, 63, 64, 64), Point(32, 32 + salt)):
        out[geom.wkt()] = geom
    for i in range(n):
        x, y = ((i + salt) * 7919 % 440) / 8, ((i + salt) * 6007 % 440) / 8
        if i % 3 == 0:
            x = 8.0 * round(x / 8)
        if i % 4 == 0:
            y = 8.0 * round(y / 8)
        w, h = (1 + (i + salt) % 9), (1 + i % 6) / 2
        if i % 5 == 0:
            w = 8.0 - x % 8 or 8.0  # ends on a cell edge too
        geom = Point(x, y) if i % 7 == 0 else Polygon.box(x, y, min(x + w, 64.0), min(y + h, 64.0))
        out[geom.wkt()] = geom
    return list(out.values())


LEFT, RIGHT = lattice_layer(70, 0), lattice_layer(50, 3)
WINDOWS = [
    (f"q{i}", Envelope(x, y, x + w, y + w))
    for i, (x, y, w) in enumerate([(0, 0, 8), (8, 8, 24), (32, 32, 0), (24, 40, 16), (30.5, 7.125, 20), (56, 0, 8)])
]


@pytest.fixture(scope="module")
def lattice_fs(tmp_path_factory):
    fs = LustreFilesystem(tmp_path_factory.mktemp("latticefs"), ost_count=4)
    for name, layer in (("left", LEFT), ("right", RIGHT)):
        fs.create_file(f"datasets/{name}.wkt", ("\n".join(g.wkt() for g in layer) + "\n").encode())
    bulk_load(fs, "left", LEFT, num_shards=4, num_partitions=16, page_size=512)
    return fs


def brute_force_join():
    return Counter(
        (lg.wkt(), rg.wkt()) for lg in LEFT for rg in RIGHT if predicates.intersects(lg, rg)
    )


def gathered(prog, nprocs):
    return Counter(item for chunk in mpisim.run_spmd(prog, nprocs).values for item in chunk)


@pytest.mark.parametrize("nprocs", (1, 2, 4))
@pytest.mark.parametrize("num_cells", (1, 4, 9, 16, 64))
def test_lattice_join_and_range_query_equal_brute_force_as_multisets(lattice_fs, num_cells, nprocs):
    config = GridPartitionConfig(num_cells=num_cells)

    def join(comm):
        result = SpatialJoin(lattice_fs, grid_config=config).run(
            comm, "datasets/left.wkt", "datasets/right.wkt"
        )
        return [(p.left.wkt(), p.right.wkt()) for p in result.local_results]

    expected = brute_force_join()
    assert len(expected) > 40 and set(expected.values()) == {1}
    assert gathered(join, nprocs) == expected

    def query(comm):
        matches = RangeQuery(lattice_fs, WINDOWS, grid_config=config).execute(
            comm, "datasets/left.wkt"
        )
        return [(m.query_id, m.geometry.wkt()) for m in matches]

    assert gathered(query, nprocs) == Counter(
        (qid, g.wkt())
        for qid, window in WINDOWS
        for g in LEFT
        if predicates.intersects(Polygon.from_envelope(window), g)
    )


@pytest.mark.parametrize("nprocs", (1, 2, 4))
def test_run_from_store_reads_every_lattice_record_exactly_once(lattice_fs, nprocs):
    def records(comm):
        with DistributedStoreServer.open(comm, lattice_fs, "left") as server:
            return [rid for rid, _ in server.local_records()]

    assert gathered(records, nprocs) == Counter(range(len(LEFT)))

    def join(comm):
        with DistributedStoreServer.open(comm, lattice_fs, "left") as server:
            result = SpatialJoin(lattice_fs, grid_config=GridPartitionConfig(num_cells=16)).run_from_store(
                comm, server, "datasets/right.wkt"
            )
        return [(p.left.wkt(), p.right.wkt()) for p in result.local_results]

    assert gathered(join, nprocs) == brute_force_join()
