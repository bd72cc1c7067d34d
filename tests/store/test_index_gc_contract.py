"""What an opened index leaves the cyclic collector — the index half of the
allocation contract whose decode half is ``test_decode_contract.py``'s
``TestAllocations``.

A loaded leaf row is ``(minx, miny, maxx, maxy, (page_id, slot))``: exact
tuples, ints and floats only, which the collector untracks once it has seen
them.  So after a full collection no leaf row and no payload is tracked, and
what the tree keeps tracked is a constant per *node* (the node, its entry
list, its envelope and the parent row that holds it), never per item.  Every
store open reloads every generation's index, so a per-item tracked object
would be paid again by every later full collection of the process.
Timer-free: tracked objects are counted, nothing is timed.
"""

import gc
import random
import weakref

from repro.geometry import Envelope, Polygon
from repro.index import STRtree
from repro.pfs import LustreFilesystem
from repro.store import SpatialDataStore, StoreAppender, bulk_load, dump_index, load_index
from repro.store.writer import pack_partitions, partition_records

#: tracked objects a loaded node keeps: the node, its entry list, its
#: envelope and the row its parent holds it by
PER_NODE = 4


def full_collection():
    """Two full passes.  A pass untracks a tuple only when the tuples inside
    it were untracked earlier in that pass, and the reachability scan can
    re-queue a row ahead of its pair, so a row may need the second pass.  A
    ``RecordRef`` payload is never untracked, however many passes run."""
    gc.collect()
    gc.collect()


def index_blob(n=4000, cap=16, seed=0):
    rng = random.Random(seed)
    items = []
    for i in range(n):
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        env = Envelope(x, y, x + rng.uniform(0, 8), y + rng.uniform(0, 8))
        items.append((env, (i // 16, i % 16)))
    return dump_index(STRtree(items, node_capacity=cap))


def lattice():
    """900 half-unit boxes on the integer lattice of [0, 30)²; box ``30x + y``
    sits at ``(x, y)``."""
    return [
        Polygon.from_envelope(Envelope(x, y, x + 0.5, y + 0.5))
        for x in range(30)
        for y in range(30)
    ]


def nodes_of(tree):
    nodes = [tree._root] if tree._root is not None else []
    for node in nodes:
        if not node.leaf:
            nodes.extend(row[4] for row in node.entries)
    return nodes


def leaf_rows(tree):
    rows = [row for node in nodes_of(tree) if node.leaf for row in node.entries]
    assert rows, "the tree must hold items for the check to mean anything"
    return rows


def tracked_leaf_parts(tree):
    """``(tracked leaf rows, tracked payloads)`` — both 0 after a full collection."""
    rows = leaf_rows(tree)
    return sum(gc.is_tracked(row) for row in rows), sum(gc.is_tracked(row[4]) for row in rows)


class TestLoadedIndexLeavesNothingPerItem:
    def test_no_leaf_row_or_payload_is_tracked_after_a_collection(self):
        tree = load_index(index_blob())
        assert len(tree) == 4000
        full_collection()
        assert tracked_leaf_parts(tree) == (0, 0)
        assert {type(row[4]) for row in leaf_rows(tree)} == {tuple}

    def test_tracked_objects_are_a_constant_per_node(self):
        blob = index_blob()
        full_collection()
        before = len(gc.get_objects())
        tree = load_index(blob)
        full_collection()
        kept = len(gc.get_objects()) - before
        nodes = tree.stats().num_nodes
        assert nodes < len(tree) // 10  # 4 000 items in 273 nodes of up to 16
        # + the STRtree itself; the RecordRef loader kept 2 more per item
        assert kept <= PER_NODE * nodes + 2, (kept, nodes)

    def test_the_writer_builds_from_the_same_untrackable_payloads(self):
        # pack_partitions emits the pairs load_index returns: one payload type
        _, grid, cells, _, _ = partition_records(enumerate(lattice()), 9)
        packed = pack_partitions(cells, grid, page_size=1024)
        assert {type(ref) for _, ref in packed.index_entries} == {tuple}
        tree = STRtree(packed.index_entries)
        full_collection()
        assert tracked_leaf_parts(tree) == (0, 0)


class TestOpenedStore:
    def test_every_generation_of_an_opened_store(self, tmp_path):
        # the open path end to end: the base index and each delta index
        fs = LustreFilesystem(tmp_path, ost_count=2)
        boxes = lattice()
        bulk_load(fs, "lakes", boxes, num_partitions=9, page_size=1024)
        appender = StoreAppender(fs, "lakes")
        appender.append(boxes[:40], deletes=[7])
        appender.append(boxes[40:90])
        with SpatialDataStore.open(fs, "lakes") as store:
            assert len(store.generations) == 3
            full_collection()
            for gen in store.generations:
                assert len(gen.index) > 0
                assert tracked_leaf_parts(gen.index) == (0, 0)
            # the plain pairs still plan and serve: the 3 x 3 base boxes but
            # deleted record 7 (at (0, 7)), plus 6 + 3 appended copies
            ids = [h.record_id for h in store.range_query(Envelope(0, 6, 2.9, 8.9))]
            assert 7 not in ids and len(ids) == len(set(ids)) == 8 + 6 + 3

    def test_a_dropped_store_is_freed_without_the_collector(self, tmp_path):
        # a store is not a reference cycle: dropping the last reference frees
        # it, its indexes, its engine and its cached pages by reference
        # counting, with the collector off; a cycle (the engine's or a cached
        # page's back-reference) would leave all of it for a full collection
        fs = LustreFilesystem(tmp_path, ost_count=2)
        bulk_load(fs, "lakes", lattice(), num_partitions=9, page_size=1024)
        StoreAppender(fs, "lakes").append(lattice()[:40], deletes=[7])
        gc.collect()
        gc.disable()
        try:
            store = SpatialDataStore.open(fs, "lakes", cache_pages=64)
            assert len(store.range_query(Envelope(0, 0, 12, 12))) > 100
            assert store.stats.records_decoded > 100  # pages counted their decodes
            parts = [store, store.engine, store.engine.executor, store._cache]
            parts += [gen.index for gen in store.generations]
            alive = [weakref.ref(part) for part in parts]
            store.close()
            del store, parts
            assert [ref() is None for ref in alive] == [True] * len(alive)
        finally:
            gc.enable()
