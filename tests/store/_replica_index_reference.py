"""The writer loop that indexed every replica, kept as an answer oracle — the
way ``_lru_cache_reference.py`` keeps the retired page cache.

:func:`pack_every_replica` is ``repro.store.writer.pack_partitions`` as it
was before the packed index named each record once: every replica a cell
stores gets its own index entry, carrying the record's full MBR, so a window
that meets a record is handed every replica and the refine loop's record-id
de-dup throws the extra copies away.  :func:`replica_indexing` swaps it into
every writer (bulk load, each shard and read replica, appends, compaction),
so a test can build the same store both ways and compare what serving
returns.  Not used by any serving path.
"""

import contextlib
from typing import List, Mapping, Sequence

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
    replica (the retired ``pack_partitions``); pages, partitions and
    record ids come out exactly as the live writer packs them."""
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
            packed.num_replicas += 1
            packed.record_ids.add(rec.rid)
        flush_page()
        packed.partitions.append(part)

    return packed


@contextlib.contextmanager
def replica_indexing():
    """Within the block every writer packs with :func:`pack_every_replica`:
    bulk loads and compactions through ``writer._write_layout``, appends
    through ``mutable.StoreAppender``."""
    saved = writer.pack_partitions, mutable.pack_partitions
    writer.pack_partitions = mutable.pack_partitions = pack_every_replica
    try:
        yield
    finally:
        writer.pack_partitions, mutable.pack_partitions = saved
