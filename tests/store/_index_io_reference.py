"""The retired index loader, kept verbatim as a differential oracle.

``repro.store.index_io.load_index`` once built every leaf row as
``(minx, miny, maxx, maxy, RecordRef(page_id, slot))``.  A ``RecordRef`` is a
NamedTuple — not an exact tuple, so the cyclic collector can never untrack it
or the row that holds it — and it handed a bad header ``node_capacity`` to
``STRtree.from_packed`` unchecked (a bare ``ValueError``).  This is that loader;
``test_index_io_oracle.py`` runs random and byte-damaged streams through both.
Not used by any code under ``src/``.
"""

from __future__ import annotations

from typing import List, NamedTuple

from repro.geometry import Envelope
from repro.index import STRtree
from repro.index.rtree import _STRNode
from repro.store.format import StoreFormatError
from repro.store.index_io import _HEADER, _ITEM, _NODE, INDEX_MAGIC, INDEX_VERSION


class RecordRef(NamedTuple):
    """Physical address of one record replica: (page id, slot within page).

    The live index holds the plain pair ``(page_id, slot)`` instead, which
    compares equal to a ``RecordRef``.  A NamedTuple instance is not an
    exact tuple, so the cyclic collector never untracks it (or the leaf row
    holding it); exact tuples of ints it does.
    """

    page_id: int
    slot: int


def load_index_reference(data: bytes) -> STRtree:
    """Inverse of :func:`dump_index`; returns a queryable tree.

    The stream is validated, not trusted: every count is checked against the
    bytes and the header before it is believed, the reader keeps its own
    stack (a hostile depth cannot exhaust Python's), and an item whose MBR is
    inverted — the STR pack never writes one — is dropped like an empty
    envelope at build, so it can never match.
    """
    if len(data) < _HEADER.size:
        raise StoreFormatError(f"index needs at least {_HEADER.size} header bytes")
    magic, version, node_capacity, num_nodes, num_items = _HEADER.unpack_from(data, 0)
    if magic != INDEX_MAGIC:
        raise StoreFormatError(f"bad index magic {magic!r} (expected {INDEX_MAGIC!r})")
    if version != INDEX_VERSION:
        raise StoreFormatError(f"unsupported index version {version}")

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
                (x0, y0, x1, y1, RecordRef(page_id, slot))
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
