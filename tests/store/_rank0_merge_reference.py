"""The rank-0 chunk merge that ``repro.store.sharded.merge_chunks`` replaced,
kept as a differential oracle — the way ``_merge_rows_reference.py`` keeps
the row merge before it.

Serving ranks used to ship the engine's :class:`QueryHit` lists as
``(batch position, shard, hits)`` chunks, and rank 0 built every
:class:`DistributedHit` itself, one per kept hit, filling in the query id
from its own batch (:func:`merge_chunks`, with the per-hit
:func:`matched`).  Now a plan entry carries its query id and the serving
rank builds the hits.  ``tests/store/test_wire.py`` asserts that the live
merge of converted chunks equals this one on generated chunk sets.  Not
used by any serving path.
"""

from itertools import chain
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.store import DistributedHit, QueryHit

#: one shard's answer to one plan entry: ``(batch position, shard, hits)``
Chunk = Tuple[int, int, List[QueryHit]]


def matched(query_id: Any, shard_id: int, hit: QueryHit) -> DistributedHit:
    """*hit* as matched by *query_id* on *shard_id*, its body (decoded or
    not) handed through as it stands."""
    payload = hit._payload  # first: a decode stores the geometry, then drops the payload
    new = DistributedHit(query_id, hit._record_id, hit._geometry, shard_id, hit._partition_id,
                         hit._page_id)
    new._payload, new._slot = payload, hit._slot
    return new


def merge_chunks(payloads: Iterable[List[Chunk]], qids: Sequence[Any]) -> List[DistributedHit]:
    """De-duplicate gathered chunks on ``(batch position, record id)``, in
    that order.  Chunks are grouped by position.  A position with one
    non-empty chunk is that chunk as it stands (the engine's ids are unique
    and ascending); one answered by several is sorted on the id columns and
    the first hit of each record kept — the lowest ``(shard, partition,
    page)`` replica wins.  *qids* maps a batch position to its query id,
    which never travelled."""
    by_position: Dict[int, List[Chunk]] = {}
    for chunk in chain.from_iterable(payloads):
        if chunk[2]:
            by_position.setdefault(chunk[0], []).append(chunk)
    hits: List[DistributedHit] = []
    for idx, chunks in sorted(by_position.items()):
        qid = qids[idx]
        if len(chunks) == 1:
            _, sid, found = chunks[0]
            hits += [matched(qid, sid, hit) for hit in found]
            continue
        last = None
        # the key stops at the page column: hits are never compared
        rows = [
            (h.record_id, sid, h.partition_id, h.page_id, h) for _, sid, found in chunks for h in found
        ]
        for record_id, sid, _, _, hit in sorted(rows, key=itemgetter(0, 1, 2, 3)):
            if record_id != last:
                last = record_id
                hits.append(matched(qid, sid, hit))
    return hits
