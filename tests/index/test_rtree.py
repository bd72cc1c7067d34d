"""R-tree (STR and dynamic) tests."""

import math
import random

import pytest
from _strtree_reference import query_reference  # the retired per-entry walk, kept next to this file
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Envelope
from repro.index import STRtree
from repro.store import dump_index, load_index


def make_boxes(n, seed=0, extent=1000.0, max_size=10.0):
    rng = random.Random(seed)
    boxes = []
    for i in range(n):
        x = rng.uniform(0, extent)
        y = rng.uniform(0, extent)
        w = rng.uniform(0.1, max_size)
        h = rng.uniform(0.1, max_size)
        boxes.append((Envelope(x, y, x + w, y + h), i))
    return boxes


def brute_force(boxes, search):
    return sorted(i for env, i in boxes if env.intersects(search))


box_strategy = st.tuples(
    st.floats(min_value=-500, max_value=500, allow_nan=False),
    st.floats(min_value=-500, max_value=500, allow_nan=False),
    st.floats(min_value=0.0, max_value=50, allow_nan=False),
    st.floats(min_value=0.0, max_value=50, allow_nan=False),
).map(lambda t: Envelope(t[0], t[1], t[0] + t[2], t[1] + t[3]))


class TestSTRtree:
    def test_empty_tree(self):
        t = STRtree([])
        assert len(t) == 0
        assert t.is_empty
        assert t.query(Envelope(0, 0, 1, 1)) == []
        assert t.bounds.is_empty

    def test_single_item(self):
        t = STRtree([(Envelope(0, 0, 1, 1), "a")])
        assert t.query(Envelope(0.5, 0.5, 2, 2)) == ["a"]
        assert t.query(Envelope(5, 5, 6, 6)) == []

    def test_matches_brute_force(self):
        boxes = make_boxes(500, seed=1)
        tree = STRtree(boxes)
        for seed in range(20):
            rng = random.Random(seed + 100)
            x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
            search = Envelope(x, y, x + 50, y + 50)
            assert sorted(tree.query(search)) == brute_force(boxes, search)

    def test_query_with_empty_envelope(self):
        tree = STRtree(make_boxes(10))
        assert tree.query(Envelope.empty()) == []

    def test_bounds_covers_all(self):
        boxes = make_boxes(100, seed=3)
        tree = STRtree(boxes)
        for env, _ in boxes:
            assert tree.bounds.contains(env)

    def test_stats(self):
        tree = STRtree(make_boxes(200), node_capacity=8)
        s = tree.stats()
        assert s.num_items == 200
        assert s.height >= 2
        assert s.num_nodes >= 200 // 8

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            STRtree([], node_capacity=1)

    def test_skips_empty_envelopes(self):
        tree = STRtree([(Envelope.empty(), "x"), (Envelope(0, 0, 1, 1), "y")])
        assert len(tree) == 1

    @given(st.lists(box_strategy, min_size=0, max_size=80), box_strategy)
    @settings(max_examples=50, deadline=None)
    def test_property_matches_brute_force(self, envs, search):
        boxes = [(e, i) for i, e in enumerate(envs)]
        tree = STRtree(boxes)
        assert sorted(tree.query(search)) == brute_force(boxes, search)

    def test_all_zero_area_items(self):
        boxes = [(Envelope.of_point(i % 4, i // 4), i) for i in range(64)]
        tree = STRtree(boxes, node_capacity=4)
        search = Envelope(0, 0, 1, 1)
        assert sorted(tree.query(search)) == brute_force(boxes, search)
        assert tree.bounds == Envelope(0, 0, 3, 15)

    def test_identical_centres(self):
        boxes = [(Envelope(5 - i * 0.1, 5 - i * 0.1, 5 + i * 0.1, 5 + i * 0.1), i) for i in range(40)]
        tree = STRtree(boxes, node_capacity=2)
        search = Envelope(4.9, 4.9, 5.1, 5.1)
        assert sorted(tree.query(search)) == brute_force(boxes, search)

    def test_minimum_node_capacity_deep_tree(self):
        boxes = make_boxes(300, seed=21)
        tree = STRtree(boxes, node_capacity=2)
        for seed in range(10):
            rng = random.Random(seed)
            x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
            search = Envelope(x, y, x + 60, y + 60)
            assert sorted(tree.query(search)) == brute_force(boxes, search)

    def test_from_packed_round_trip(self):
        boxes = make_boxes(150, seed=8)
        tree = STRtree(boxes, node_capacity=8)
        adopted = STRtree.from_packed(tree._root, len(tree), node_capacity=8)
        search = Envelope(100, 100, 400, 400)
        assert sorted(adopted.query(search)) == sorted(tree.query(search))
        assert adopted.stats().num_nodes == tree.stats().num_nodes

    def test_from_packed_empty(self):
        empty = STRtree.from_packed(None, 0)
        assert empty.is_empty
        assert empty.query(Envelope(0, 0, 1, 1)) == []


# --------------------------------------------------------------------------- #
# the flat-row walk against the per-entry object walk it replaced
# --------------------------------------------------------------------------- #
# mostly a small lattice, so boxes share edges and corners and collapse to
# segments and points; plus ordinary floats, both infinities and NaN
_lattice = st.integers(min_value=-4, max_value=4).map(float)
_coord = st.one_of(
    _lattice,
    _lattice,
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)
# any four bounds: about half are inverted, i.e. empty
_any_envelope = st.builds(Envelope, _coord, _coord, _coord, _coord)
_box = st.tuples(_lattice, _lattice, st.integers(0, 3), st.integers(0, 3)).map(
    lambda t: Envelope(t[0], t[1], t[0] + t[2], t[1] + t[3])
)


def _has_nan(env):
    return any(math.isnan(v) for v in env.as_tuple())


# an item is a box or empty: a NaN-bounded item is refused at build
_item_envelope = st.one_of(
    _box, _box, _any_envelope.filter(lambda e: e.is_empty or not _has_nan(e))
)
_window = st.one_of(_box, _any_envelope, st.just(Envelope.empty()))


def tree_nodes(tree):
    nodes = [tree._root] if tree._root is not None else []
    for node in nodes:
        if not node.leaf:
            nodes.extend(row[4] for row in node.entries)
    return nodes


class TestFlatRowWalk:
    """``STRtree.query`` walks ``(minx, miny, maxx, maxy, entry)`` rows with
    the comparison inlined; ``_strtree_reference.query_reference`` is the walk
    it replaced (an ``Envelope.intersects`` call per node and per item).  The
    two must return the same **list** — order is part of the contract: it
    fixes the slot order of the store planner's ``by_page``."""

    @given(
        st.lists(_item_envelope, max_size=70),
        st.lists(_window, min_size=1, max_size=8),
        st.sampled_from([2, 16]),
    )
    @settings(max_examples=200, deadline=None)
    def test_query_equals_reference_walk(self, envs, windows, cap):
        tree = STRtree([(e, i) for i, e in enumerate(envs)], node_capacity=cap)
        assert len(tree) == sum(not e.is_empty for e in envs)
        for window in windows:
            got = tree.query(window)
            assert got == query_reference(tree, window)
            assert sorted(got) == [i for i, e in enumerate(envs) if e.intersects(window)]

    @given(
        st.lists(_item_envelope, max_size=70),
        st.lists(_window, min_size=1, max_size=8),
        st.sampled_from([2, 16]),
    )
    @settings(max_examples=200, deadline=None)
    def test_loaded_tree_equals_reference_walk_and_built_tree(self, envs, windows, cap):
        built = STRtree(
            [(e, (i // 8, i % 8)) for i, e in enumerate(envs)], node_capacity=cap
        )
        blob = dump_index(built)
        loaded = load_index(blob)
        assert dump_index(loaded) == blob
        assert len(loaded) == len(built)
        for window in windows:
            got = loaded.query(window)
            assert got == query_reference(loaded, window)
            assert got == built.query(window)
            assert all(type(ref) is tuple for ref in got)

    def test_inverted_and_empty_windows_match_nothing(self):
        tree = STRtree(make_boxes(100, seed=4), node_capacity=4)
        whole = tree.bounds
        assert len(tree.query(whole)) == 100
        for window in (
            Envelope.empty(),
            Envelope(whole.maxx, whole.miny, whole.minx, whole.maxy),  # x inverted
            Envelope(whole.minx, whole.maxy, whole.maxx, whole.miny),  # y inverted
        ):
            assert window.is_empty
            assert tree.query(window) == query_reference(tree, window) == []

    def test_nan_and_infinite_windows_answer_as_envelope_intersects(self):
        # a NaN *window* is fine (it matches what Envelope.intersects says);
        # only a NaN *item* is refused
        boxes = make_boxes(60, seed=5)
        tree = STRtree(boxes, node_capacity=4)
        nan, inf = math.nan, math.inf
        for window in (
            Envelope(nan, nan, nan, nan),
            Envelope(-inf, -inf, inf, inf),
            Envelope(500.0, nan, inf, 600.0),
            Envelope(-inf, 0.0, 300.0, inf),
        ):
            got = tree.query(window)
            assert got == query_reference(tree, window)
            assert sorted(got) == brute_force(boxes, window)

    @pytest.mark.parametrize("cap", [2, 16])
    def test_entries_are_stored_once_as_rows(self, cap):
        boxes = make_boxes(90, seed=6)
        tree = STRtree(boxes, node_capacity=cap)
        nodes = tree_nodes(tree)
        assert type(nodes[0]).__slots__ == ("envelope", "leaf", "entries")
        assert tree.stats().num_nodes == len(nodes)
        envelope_of = {payload: env for env, payload in boxes}
        leaf_rows = 0
        for node in nodes:
            assert 1 <= len(node.entries) <= cap
            for minx, miny, maxx, maxy, entry in node.entries:
                if node.leaf:
                    leaf_rows += 1
                    assert (minx, miny, maxx, maxy) == envelope_of[entry].as_tuple()
                else:
                    assert (minx, miny, maxx, maxy) == entry.envelope.as_tuple()
            union = Envelope.empty()
            for row in node.entries:
                union = union.union(Envelope(*row[:4]))
            assert node.envelope == union
        assert leaf_rows == len(tree) == 90


class TestBulkQueryContract:
    """SNIPPETS.md snippet 2 (shapely's ``STRtree``), pinned by name."""

    def test_empty_tree_returns_empty_list(self):
        for tree in (STRtree([]), STRtree.from_packed(None, 0), load_index(dump_index(STRtree([])))):
            result = tree.query(Envelope(-1, -1, 2, 2))
            assert result == [] and type(result) is list
            assert query_reference(tree, Envelope(-1, -1, 2, 2)) == []

    def test_single_item_tree(self):
        tree = STRtree([(Envelope(0, 0, 1, 1), "only")])
        assert tree.stats().num_nodes == 1 and tree.stats().height == 1
        assert tree.query(Envelope(-1, -1, 2, 2)) == ["only"]
        assert tree.query(Envelope(1, 1, 2, 2)) == ["only"]  # a shared corner counts
        assert tree.query(Envelope(100, 100, 101, 101)) == []

    def test_empties_filtered_at_build(self):
        items = [
            (Envelope.empty(), "empty"),
            (Envelope(0, 0, 1, 1), "kept"),
            (Envelope(3, 0, 2, 1), "inverted"),
        ]
        tree = STRtree(items)
        assert len(tree) == 1
        assert tree.query(Envelope(-math.inf, -math.inf, math.inf, math.inf)) == ["kept"]
        assert tree.query(Envelope(math.nan, math.nan, math.nan, math.nan)) == ["kept"]
        assert STRtree(items[::2]).is_empty


# --------------------------------------------------------------------------- #
# degenerate envelopes against brute force
# --------------------------------------------------------------------------- #
_inf = st.sampled_from([math.inf, -math.inf])
_point = st.tuples(_lattice, _lattice).map(lambda p: Envelope(p[0], p[1], p[0], p[1]))
_segment = st.tuples(_lattice, _lattice, st.integers(1, 3), st.booleans()).map(
    lambda t: Envelope(t[0], t[1], t[0] + t[2], t[1]) if t[3]
    else Envelope(t[0], t[1], t[0], t[1] + t[2])
)
# a box reaching to infinity on one or more sides (or the whole plane)
_unbounded = st.tuples(
    st.one_of(_lattice, st.just(-math.inf)), st.one_of(_lattice, st.just(-math.inf)),
    st.one_of(_lattice, st.just(math.inf)), st.one_of(_lattice, st.just(math.inf)),
).map(lambda t: Envelope(min(t[0], t[2]), min(t[1], t[3]), max(t[0], t[2]), max(t[1], t[3])))
# an infinite corner collapses a box to a line or point at infinity
_at_infinity = st.tuples(_inf, _inf).map(lambda p: Envelope(p[0], p[1], p[0], p[1]))
_degenerate = st.one_of(
    st.just(Envelope.empty()), _point, _segment, _unbounded, _at_infinity, _box
)
_nan = st.sampled_from([
    Envelope(math.nan, 0.0, 1.0, 1.0),
    Envelope(0.0, 0.0, 1.0, math.nan),
    Envelope(0.0, math.nan, 1.0, math.nan),
    Envelope(math.nan, math.nan, math.nan, math.nan),
])


def _tree_sizes(cap):
    return [0, 1, cap + 1]


class TestDegenerateEnvelopes:
    """Empty, zero-area and ±inf items and windows: the packed tree answers
    exactly what a scan with ``Envelope.intersects`` answers, on trees of
    0, 1 and ``node_capacity + 1`` items (a root over two leaves); an item
    with a NaN bound is refused — no node union could cover it."""

    @pytest.mark.parametrize("cap", [2, 3, 16])
    @pytest.mark.parametrize("which", [0, 1, 2])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_query_equals_brute_force(self, cap, which, data):
        size = _tree_sizes(cap)[which]
        envs = data.draw(st.lists(_degenerate, min_size=size, max_size=size))
        tree = STRtree([(e, i) for i, e in enumerate(envs)], node_capacity=cap)
        assert len(tree) == sum(not e.is_empty for e in envs)
        for window in data.draw(st.lists(st.one_of(_degenerate, _nan), min_size=1, max_size=6)):
            got = tree.query(window)
            assert got == query_reference(tree, window)
            assert sorted(got) == [i for i, e in enumerate(envs) if e.intersects(window)]

    @pytest.mark.parametrize("cap", [2, 3, 16])
    @pytest.mark.parametrize("which", [1, 2])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_a_nan_item_is_refused(self, cap, which, data):
        size = _tree_sizes(cap)[which]
        envs = data.draw(st.lists(_degenerate, min_size=size - 1, max_size=size - 1))
        at = data.draw(st.integers(0, size - 1))
        envs.insert(at, data.draw(_nan))
        with pytest.raises(ValueError, match="not a box"):
            STRtree([(e, i) for i, e in enumerate(envs)], node_capacity=cap)
