"""The writer that stored a copy of each record in every grid cell its MBR
overlaps and indexed every copy, kept as an answer oracle — the way
``_lru_cache_reference.py`` keeps the retired page cache.

Every live writer stores a record once, in its home cell
(``repro.store.writer.home_cells``).  :func:`replicating_writer` swaps the
paper's replication (``core.grid_partition.assign_to_cells``: every cell an
MBR overlaps) in for that assignment and :func:`pack_every_replica` (the
``pack_partitions`` of the time, one index entry per copy, each carrying the
record's full MBR) in for the packer, in every writer: bulk load, each shard
and read replica, appends, compaction.  Each copy of an appended record goes
to the shard owning its cell, so a record spanning a shard boundary is
stored, indexed and answered by each of those shards; a store so written
with several shards is not an input the live serving path supports (its
merge no longer drops duplicates) — tests compare it shard by shard, keeping
each record's home-cell answer.  A one-shard store it writes is the format
every store had before the writers kept one copy, and opens and serves as
it always did: the refine loop's record-id ``seen`` set drops the extra
copies.  Not used by any serving path.
"""

import contextlib
from typing import List, Mapping, Sequence

from repro.core.grid_partition import assign_to_cells
from repro.geometry import Envelope
from repro.index import UniformGrid, spatial_visit_order
from repro.store import mutable, writer
from repro.store.format import (
    ENVELOPE_ENTRY,
    HEADER_SIZE,
    PageMeta,
    encode_page_v2,
    page_crc32,
)
from repro.store.manifest import PartitionInfo
from repro.store.writer import PackedPartitions, _union


def pack_every_replica(
    cells: Mapping[int, Sequence["writer._Rec"]],
    grid: UniformGrid,
    page_size: int,
) -> PackedPartitions:
    """Pack pre-partitioned records into pages with one index entry per
    copy (the retired ``pack_partitions``); given the live writer's cells,
    pages, partitions and index entries come out exactly as it packs them."""
    packed = PackedPartitions()
    data_offset = HEADER_SIZE
    overhead = ENVELOPE_ENTRY.size

    for cell_id in sorted(cells):
        part_recs = cells[cell_id]
        ordering = spatial_visit_order([r.envelope.centre for r in part_recs], grid.extent)
        part = PartitionInfo(
            partition_id=cell_id,
            cell_mbr=grid.cell_by_id(cell_id).envelope,
            data_mbr=Envelope.empty(),
        )

        current: List[bytes] = []
        current_rids: List[int] = []
        current_envs: List[Envelope] = []
        current_bytes = 0

        def flush_page() -> None:
            nonlocal current, current_rids, current_envs, current_bytes, data_offset
            if not current:
                return
            payload = encode_page_v2(list(zip(current_rids, current_envs, current)))
            page_id = len(packed.page_metas)
            mbr = _union(current_envs)
            part.data_mbr = part.data_mbr.union(mbr)
            for slot, env in enumerate(current_envs):
                packed.index_entries.append((env, (page_id, slot)))
            packed.page_metas.append(
                PageMeta(
                    page_id=page_id,
                    offset=data_offset,
                    nbytes=len(payload),
                    count=len(current),
                    mbr=mbr,
                    crc32=page_crc32(payload),
                )
            )
            packed.payloads.append(payload)
            part.page_ids.append(page_id)
            data_offset += len(payload)
            current, current_rids, current_envs, current_bytes = [], [], [], 0

        for idx in ordering:
            rec = part_recs[idx]
            if current and current_bytes + len(rec.body) + overhead > page_size:
                flush_page()
            current.append(rec.body)
            current_rids.append(rec.rid)
            current_envs.append(rec.envelope)
            current_bytes += len(rec.body) + overhead
            part.record_count += 1
            packed.record_ids.add(rec.rid)
        flush_page()
        packed.partitions.append(part)

    return packed


@contextlib.contextmanager
def replicating_writer():
    """Within the block every writer stores a copy of each record in every
    cell its MBR overlaps and packs with :func:`pack_every_replica`: bulk
    loads and compactions through ``writer._write_layout``, appends through
    ``mutable.StoreAppender``."""
    saved = (writer.home_cells, mutable.home_cells,
             writer.pack_partitions, mutable.pack_partitions)
    writer.home_cells = mutable.home_cells = assign_to_cells
    writer.pack_partitions = mutable.pack_partitions = pack_every_replica
    try:
        yield
    finally:
        (writer.home_cells, mutable.home_cells,
         writer.pack_partitions, mutable.pack_partitions) = saved
