"""Round-trip tests for the persisted STR-packed R-tree."""

import random
import struct

import pytest

from repro.geometry import Envelope
from repro.index import STRtree
from repro.store import StoreFormatError, dump_index, load_index
from repro.store.index_io import INDEX_MAGIC, INDEX_VERSION

HEADER = struct.Struct("<8sHHIQ")
NODE = struct.Struct("<BI4d")
ITEM = struct.Struct("<4dII")


def header(num_nodes, num_items, cap=16):
    return HEADER.pack(INDEX_MAGIC, INDEX_VERSION, cap, num_nodes, num_items)


def leaf(*items, kind=1, count=None, bounds=(0.0, 0.0, 10.0, 10.0)):
    """One leaf node; *items* are ``(minx, miny, maxx, maxy, page, slot)``."""
    count = len(items) if count is None else count
    return NODE.pack(kind, count, *bounds) + b"".join(ITEM.pack(*item) for item in items)


def make_refs(n, seed=0, extent=1000.0):
    rng = random.Random(seed)
    items = []
    for i in range(n):
        x, y = rng.uniform(0, extent), rng.uniform(0, extent)
        w, h = rng.uniform(0, 20), rng.uniform(0, 20)
        items.append((Envelope(x, y, x + w, y + h), (i // 8, i % 8)))
    return items


def assert_equivalent(a: STRtree, b: STRtree, seed=0):
    assert len(a) == len(b)
    assert a.bounds == b.bounds
    rng = random.Random(seed)
    for _ in range(25):
        x, y = rng.uniform(-100, 1100), rng.uniform(-100, 1100)
        w = rng.uniform(0, 200)
        search = Envelope(x, y, x + w, y + w)
        assert sorted(a.query(search)) == sorted(b.query(search))


class TestIndexRoundTrip:
    def test_empty_tree(self):
        tree = STRtree([])
        back = load_index(dump_index(tree))
        assert back.is_empty
        assert back.query(Envelope(0, 0, 1, 1)) == []
        assert back.bounds.is_empty

    def test_single_item(self):
        tree = STRtree([(Envelope(0, 0, 1, 1), (0, 0))])
        back = load_index(dump_index(tree))
        assert back.query(Envelope(0.5, 0.5, 2, 2)) == [(0, 0)]
        assert len(back) == 1

    def test_zero_area_envelopes(self):
        tree = STRtree([(Envelope.of_point(3, 3), (0, i)) for i in range(10)])
        back = load_index(dump_index(tree))
        assert_equivalent(tree, back)
        assert len(back.query(Envelope(2, 2, 4, 4))) == 10

    @pytest.mark.parametrize("n", [5, 64, 500])
    @pytest.mark.parametrize("cap", [2, 4, 16])
    def test_many_items(self, n, cap):
        tree = STRtree(make_refs(n, seed=n + cap), node_capacity=cap)
        back = load_index(dump_index(tree))
        assert back.node_capacity == cap
        assert_equivalent(tree, back, seed=n)

    def test_structure_preserved(self):
        tree = STRtree(make_refs(300, seed=2), node_capacity=8)
        back = load_index(dump_index(tree))
        assert tree.stats().num_nodes == back.stats().num_nodes
        assert tree.stats().height == back.stats().height

    def test_double_round_trip_is_stable(self):
        tree = STRtree(make_refs(100, seed=5))
        once = dump_index(tree)
        twice = dump_index(load_index(once))
        assert once == twice


class TestIndexValidation:
    def test_bad_magic(self):
        data = dump_index(STRtree(make_refs(10)))
        with pytest.raises(StoreFormatError, match="magic"):
            load_index(b"XXXXXXXX" + data[8:])

    def test_truncated(self):
        data = dump_index(STRtree(make_refs(50)))
        with pytest.raises(StoreFormatError):
            load_index(data[:-5])

    def test_trailing_garbage(self):
        data = dump_index(STRtree(make_refs(10)))
        with pytest.raises(StoreFormatError, match="trailing"):
            load_index(data + b"\x00")

    def test_short_header(self):
        with pytest.raises(StoreFormatError):
            load_index(b"\x01\x02")

    def test_hand_built_stream_loads(self):
        # the helpers below write what dump_index writes
        tree = STRtree([(Envelope(1, 2, 3, 4), (5, 6))])
        blob = header(1, 1) + leaf((1, 2, 3, 4, 5, 6), bounds=(1, 2, 3, 4))
        assert blob == dump_index(tree)
        assert load_index(blob).query(Envelope(0, 0, 9, 9)) == [(5, 6)]

    def test_deep_chain_is_a_format_question_not_a_recursion_error(self):
        # 5 000 one-child internal nodes over one leaf: the recursive reader
        # died with RecursionError, which open()'s retry/failover never sees
        depth = 5000
        bounds = (0.0, 0.0, 10.0, 10.0)
        blob = (
            header(depth + 1, 1)
            + NODE.pack(0, 1, *bounds) * depth
            + leaf((1.0, 1.0, 2.0, 2.0, 3, 4))
        )
        tree = load_index(blob)
        assert len(tree) == 1
        assert tree.stats().height == depth + 1 and tree.stats().num_nodes == depth + 1
        assert tree.query(Envelope(0, 0, 5, 5)) == [(3, 4)]
        assert tree.query(Envelope(20, 20, 30, 30)) == []
        assert dump_index(tree) == blob
        # one node short of what the chain promises
        with pytest.raises(StoreFormatError):
            load_index(header(depth, 0) + NODE.pack(0, 1, *bounds) * depth)

    def test_node_kind_byte_must_be_0_or_1(self):
        blob = header(1, 1) + leaf((1.0, 1.0, 2.0, 2.0, 0, 0), kind=7)
        with pytest.raises(StoreFormatError, match="kind"):
            load_index(blob)

    def test_declared_item_count_must_match_the_leaves(self):
        blob = header(1, 99) + leaf((1.0, 1.0, 2.0, 2.0, 0, 0))
        with pytest.raises(StoreFormatError, match="99 items"):
            load_index(blob)

    def test_declared_node_count_must_match_the_stream(self):
        one = leaf((1.0, 1.0, 2.0, 2.0, 0, 0))
        with pytest.raises(StoreFormatError, match="nodes"):
            load_index(header(2, 1) + one)
        with pytest.raises(StoreFormatError):
            load_index(header(1, 2) + NODE.pack(0, 2, 0.0, 0.0, 10.0, 10.0) + one + one)

    def test_leaf_count_overrunning_the_payload(self):
        blob = header(1, 3) + leaf((1.0, 1.0, 2.0, 2.0, 0, 0), count=3)
        with pytest.raises(StoreFormatError, match="overruns"):
            load_index(blob)
        # a count that would overflow any buffer must fail as cheaply
        huge = header(1, 1) + leaf((1.0, 1.0, 2.0, 2.0, 0, 0), count=0xFFFFFFFF)
        with pytest.raises(StoreFormatError, match="overruns"):
            load_index(huge)

    def test_child_count_overrunning_the_payload(self):
        blob = (
            header(2, 1)
            + NODE.pack(0, 0xFFFFFFFF, 0.0, 0.0, 10.0, 10.0)
            + leaf((1.0, 1.0, 2.0, 2.0, 0, 0))
        )
        with pytest.raises(StoreFormatError, match="overruns"):
            load_index(blob)

    def test_inverted_item_never_matches(self):
        # minx > maxx: Envelope.intersects' is_empty guard used to reject it;
        # the inlined comparison alone would accept it for this window
        good = (1.0, 1.0, 2.0, 2.0, 0, 0)
        blob = header(1, 3) + leaf(good, (5.0, 0.0, 3.0, 1.0, 0, 1), (0.0, 9.0, 1.0, 8.0, 0, 2))
        tree = load_index(blob)
        for window in (
            Envelope(0, 0, 10, 10),
            Envelope(1.5, 0, 4, 1.5),  # reaches between the swapped bounds
            Envelope(-float("inf"), -float("inf"), float("inf"), float("inf")),
            Envelope(float("nan"), float("nan"), float("nan"), float("nan")),
        ):
            assert tree.query(window) == [(0, 0)]
        # dropped like an empty envelope at build: the tree holds what matches
        assert len(tree) == 1
        assert dump_index(tree) == header(1, 1) + leaf(good)
        # and a tree of nothing else is an empty tree
        only = load_index(header(1, 1) + leaf((5.0, 0.0, 3.0, 1.0, 0, 1)))
        assert only.is_empty and only.query(Envelope(0, 0, 10, 10)) == []

    def test_nan_item_bounds_survive_as_before(self):
        # not inverted (no comparison with NaN is true): kept, byte for byte
        nan = float("nan")
        blob = header(1, 1) + leaf((nan, 1.0, 2.0, nan, 0, 0))
        tree = load_index(blob)
        assert len(tree) == 1 and dump_index(tree) == blob

    @pytest.mark.parametrize("cap", [0, 1])
    def test_node_capacity_below_two_is_a_format_error(self, cap):
        # the header field sits at offsets 10-11, below the byte fuzz's
        # reach; STRtree.from_packed used to refuse it with a bare ValueError
        one = leaf((1.0, 1.0, 2.0, 2.0, 0, 0))
        for blob in (header(1, 1, cap=cap) + one, header(0, 0, cap=cap)):
            with pytest.raises(StoreFormatError, match=f"capacity is {cap}"):
                load_index(blob)
        assert load_index(header(1, 1, cap=2) + one).node_capacity == 2

    @pytest.mark.parametrize("seed", range(8))
    def test_random_damage_is_a_format_error_or_a_tree(self, seed):
        # loader fuzz: whatever the bytes, StoreFormatError or a usable tree
        rng = random.Random(seed)
        good = bytearray(dump_index(STRtree(make_refs(120, seed=seed), node_capacity=4)))
        for _ in range(150):
            data = bytearray(good)
            for _ in range(rng.randrange(1, 4)):
                data[rng.randrange(HEADER.size - 12, len(data))] = rng.randrange(256)
            if rng.random() < 0.3:
                del data[rng.randrange(HEADER.size, len(data)) :]
            try:
                tree = load_index(bytes(data))
            except StoreFormatError:
                continue
            tree.query(Envelope(0, 0, 1000, 1000))
            tree.stats()
            assert load_index(dump_index(tree)).query(
                Envelope(0, 0, 1000, 1000)
            ) == tree.query(Envelope(0, 0, 1000, 1000))


class TestFromPacked:
    def test_rejects_inconsistent_emptiness(self):
        with pytest.raises(ValueError):
            STRtree.from_packed(None, 5)
        tree = STRtree(make_refs(3))
        with pytest.raises(ValueError):
            STRtree.from_packed(tree._root, 0)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            STRtree.from_packed(None, 0, node_capacity=1)

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            STRtree.from_packed(None, -1)
