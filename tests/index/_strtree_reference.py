"""The per-entry object walk that ``STRtree.query`` replaced (PR 19), kept as
a differential oracle — the way ``tests/geometry/_*_reference.py`` keep the
retired WKT reader, predicate kernels and WKB codec and
``tests/store/_refine_reference.py`` the scalar refine loop.

It is the old method body unchanged, except that a node's entries are now
flat ``(minx, miny, maxx, maxy, entry)`` rows, so it rebuilds an ``Envelope``
from each row's four floats before asking ``Envelope.intersects`` — which
*is* the per-entry work the live walk retired.  A child is still judged by
its own ``node.envelope`` when popped, so a row that disagreed with the node
it carries would show up as a difference.  Result **order** is part of what
is compared.  Not used by any serving path.
"""

from typing import Any, List

from repro.geometry import Envelope
from repro.index import STRtree


def query_reference(tree: STRtree, search: Envelope) -> List[Any]:
    results: List[Any] = []
    if tree._root is None or search.is_empty:
        return results
    stack = [tree._root]
    while stack:
        node = stack.pop()
        if not node.envelope.intersects(search):
            continue
        if node.leaf:
            for minx, miny, maxx, maxy, payload in node.entries:
                if Envelope(minx, miny, maxx, maxy).intersects(search):
                    results.append(payload)
        else:
            stack.extend(row[4] for row in node.entries)
    return results
