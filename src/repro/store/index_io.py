"""Serialisation of the bulk-loaded STR-packed R-tree.

Persisting the index is what makes a cold ``open()`` cheap: instead of
re-running the O(n log n) Sort-Tile-Recursive pack over every record MBR,
the tree's node graph is written once as a flat pre-order byte stream and
reconstituted with :meth:`repro.index.STRtree.from_packed` (a linear scan).
The stream is not a file of its own: it opens each generation container's
metadata tail, right after the pages and before the page directory
(:mod:`repro.store.format`), so the open reads it in the same request as
the directory and the tail's CRC32 covers it.

Layout (little-endian)::

    header:  <8s magic><H version><H node_capacity><I num_nodes><Q num_items>
    nodes in pre-order, each:
        <B is_leaf><I n><4d envelope>
        leaf:      n items, each <4d envelope><I page_id><I slot>
        internal:  the n child nodes follow recursively

Payloads are record addresses, the plain pair ``(page_id, slot)`` — the index
maps a query window to the (page, slot) pairs to fetch, never to geometry
objects, so it stays small and loads fast.  The writers store each record
once per generation and index every stored slot
(:func:`~repro.store.writer.pack_partitions`), so ``num_items`` equals the
container header's record count.

A loaded leaf row ``(minx, miny, maxx, maxy, (page_id, slot))`` is built of
exact tuples, ints and floats only, which the cyclic collector untracks the
first time it sees them: an opened index leaves the collector a few objects
per *node*, none per item.  (A NamedTuple payload is not an exact tuple, so it and the row holding
it would stay tracked for good.)
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Sequence

from ..geometry import Envelope
from ..index import STRtree
from ..index.rtree import _STRNode
from .format import PageMeta, StoreFormatError

__all__ = ["INDEX_MAGIC", "INDEX_VERSION", "check_leaf_refs", "dump_index", "load_index"]

INDEX_MAGIC = b"RSPGIDX1"
INDEX_VERSION = 1

_HEADER = struct.Struct("<8sHHIQ")
_NODE = struct.Struct("<BI4d")
_ITEM = struct.Struct("<4dII")


def _preorder(tree: STRtree) -> Iterator[_STRNode]:
    """*tree*'s nodes in pre-order."""
    stack = [tree._root] if tree._root is not None else []
    while stack:
        node = stack.pop()
        yield node
        if not node.leaf:
            # reversed keeps the stream in pre-order
            stack.extend(row[4] for row in reversed(node.entries))


def dump_index(tree: STRtree) -> bytes:
    """Serialise *tree* (payloads must be ``(page_id, slot)`` pairs)."""
    nodes = list(_preorder(tree))
    out = bytearray()
    out += _HEADER.pack(INDEX_MAGIC, INDEX_VERSION, tree.node_capacity, len(nodes), len(tree))
    for node in nodes:
        out += _NODE.pack(node.leaf, len(node.entries), *node.envelope.as_tuple())
        if node.leaf:
            for minx, miny, maxx, maxy, (page_id, slot) in node.entries:
                out += _ITEM.pack(minx, miny, maxx, maxy, page_id, slot)
    return bytes(out)


def load_index(data: bytes) -> STRtree:
    """Inverse of :func:`dump_index`; returns a queryable tree.

    The stream is validated, not trusted: every count is checked against the
    bytes and the header before it is believed, a header node capacity below
    2 is refused like a bad magic (never a bare ``ValueError`` from
    :meth:`STRtree.from_packed`), the reader keeps its own
    stack (a hostile depth cannot exhaust Python's), and an item whose MBR is
    inverted — the builder never writes one — is dropped like an empty
    envelope at build, so it can never match.
    """
    if len(data) < _HEADER.size:
        raise StoreFormatError(f"index needs at least {_HEADER.size} header bytes")
    magic, version, node_capacity, num_nodes, num_items = _HEADER.unpack_from(data, 0)
    if magic != INDEX_MAGIC:
        raise StoreFormatError(f"bad index magic {magic!r} (expected {INDEX_MAGIC!r})")
    if version != INDEX_VERSION:
        raise StoreFormatError(f"unsupported index version {version}")
    if node_capacity < 2:
        raise StoreFormatError(f"index node capacity is {node_capacity} (expected >= 2)")

    view, pos = memoryview(data), _HEADER.size
    consumed = items = kept = 0
    top: List[tuple] = []  # receives the root's row
    pending = [(top, 1)] if num_nodes else []  # (parent rows, children to read)
    while pending:
        rows, remaining = pending.pop()
        if remaining > 1:
            pending.append((rows, remaining - 1))
        if pos + _NODE.size > len(data):
            raise StoreFormatError("truncated index node")
        is_leaf, count, minx, miny, maxx, maxy = _NODE.unpack_from(data, pos)
        pos += _NODE.size
        consumed += 1
        if is_leaf > 1:
            raise StoreFormatError(f"index node kind byte is {is_leaf} (expected 0 or 1)")
        size = _ITEM.size if is_leaf else _NODE.size  # least bytes per entry
        if pos + count * size > len(data):
            raise StoreFormatError(f"index node count {count} overruns the payload")
        entries: List[tuple] = []
        if is_leaf:
            end = pos + count * size
            entries = [
                (x0, y0, x1, y1, (page_id, slot))
                for x0, y0, x1, y1, page_id, slot in _ITEM.iter_unpack(view[pos:end])
                if not (x0 > x1 or y0 > y1)
            ]
            pos = end
            items += count
            kept += len(entries)
        elif count:
            pending.append((entries, count))
        node = _STRNode(Envelope(minx, miny, maxx, maxy), bool(is_leaf), entries)
        rows.append((minx, miny, maxx, maxy, node))

    if (consumed, items) != (num_nodes, num_items):
        raise StoreFormatError(
            f"index declares {num_nodes} nodes and {num_items} items "
            f"but holds {consumed} and {items}"
        )
    if pos != len(data):
        raise StoreFormatError(f"{len(data) - pos} trailing bytes after index payload")
    root = top[0][4] if kept else None
    return STRtree.from_packed(root, kept, node_capacity=node_capacity)


def check_leaf_refs(tree: STRtree, pages: Sequence[PageMeta], path: str) -> None:
    """Refuse a leaf of *tree* (the index of the container *path*) that
    names a page or a slot the generation's page directory *pages* does not
    store: the refine loop reads a page's columns at the leaf's slot
    unchecked, so such a leaf would surface mid-query as a raw
    ``IndexError``.  One pass over the leaf rows, at open."""
    counts = [meta.count for meta in pages]
    num_pages = len(counts)
    for node in _preorder(tree):
        if node.leaf:
            for _, _, _, _, (page_id, slot) in node.entries:
                if page_id >= num_pages or slot >= counts[page_id]:
                    raise StoreFormatError(
                        f"{path!r}: an index leaf names slot {slot} of page {page_id}, "
                        f"which its container does not store"
                    )
