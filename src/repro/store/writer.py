"""Bulk loader: partition once, pack into pages, persist data + index.

This is the preprocessing step §4.1 of the paper argues for ("files …
are preprocessed and stored in binary") turned into a durable artefact: the
existing grid partitioner assigns every geometry to the grid cells its MBR
overlaps (replicating spanning geometries exactly like the distributed
pipeline does), each partition's records are ordered along a space-filling
curve for intra-page locality, packed into fixed-target-size pages, and the
record MBRs are bulk-loaded into one STR-packed R-tree that is persisted
alongside the data so no future open ever rebuilds it.

The packing and writing halves are factored out so the sharded writer in
:mod:`repro.store.sharded` and the appender/compactor in
:mod:`repro.store.mutable` persist through the same three routines:
:func:`write_file` is the only place a store file is created and charged,
:func:`write_generation` the only place a container and its packed index are
assembled (base and delta alike), :func:`write_store_files` a generation
plus its manifest — data, then index, then manifest, in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..geometry import Envelope, Geometry
from ..index import STRtree, UniformGrid, spatial_visit_order
from ..pfs import ReadRequest, SimulatedFilesystem
from .format import (
    ENVELOPE_ENTRY,
    FLAG_PAGE_CHECKSUMS,
    HEADER_SIZE,
    PageMeta,
    encode_page_v2,
    encode_record_body,
    pack_header,
    pack_page_checksums,
    pack_page_directory,
    page_crc32,
)
from .index_io import dump_index
from .manifest import PartitionInfo, StoreManifest, store_paths

__all__ = [
    "BulkLoadResult",
    "PackedPartitions",
    "bulk_load",
    "pack_partitions",
    "partition_identified",
    "partition_records",
    "write_file",
    "write_generation",
    "write_store_files",
]


@dataclass
class BulkLoadResult:
    """Summary of one bulk load (returned so callers can report/assert)."""

    manifest: StoreManifest
    paths: Dict[str, str]
    num_records: int
    num_replicas: int
    num_pages: int
    num_partitions: int
    data_bytes: int
    index_bytes: int
    skipped_empty: int
    #: simulated seconds charged for writing the three files
    write_seconds: float


class _Rec:
    """Record carrier fed to the grid partitioner (it only reads .envelope).

    Making one is the gate where records enter the writer — bulk loads,
    appends and compactions all build their ``_Rec`` list before anything is
    assigned to a cell or written — so a record whose MBR holds a NaN is
    rejected here with a :class:`ValueError`.
    """

    __slots__ = ("envelope", "rid", "geom")

    def __init__(self, rid: int, geom: Geometry) -> None:
        env = geom.envelope
        if not (env.minx <= env.maxx and env.miny <= env.maxy):  # NaN compares false
            raise ValueError(
                f"record {rid} (ids are input positions in a bulk load) cannot "
                f"be stored: its MBR {env!r} is not a box (a NaN coordinate?)"
            )
        self.envelope = env
        self.rid = rid
        self.geom = geom


@dataclass
class PackedPartitions:
    """In-memory image of a store's data file (pages + metadata + index input)."""

    page_metas: List[PageMeta] = field(default_factory=list)
    partitions: List[PartitionInfo] = field(default_factory=list)
    payloads: List[bytes] = field(default_factory=list)
    #: ``(envelope, (page_id, slot))`` — the payload :func:`load_index` returns
    index_entries: List[Tuple[Envelope, Tuple[int, int]]] = field(default_factory=list)
    num_replicas: int = 0
    #: distinct logical record ids packed (replicas share one id)
    record_ids: Set[int] = field(default_factory=set)

    @property
    def data_extent(self) -> Envelope:
        out = Envelope.empty()
        for part in self.partitions:
            out = out.union(part.data_mbr)
        return out


def pack_partitions(
    cells: Mapping[int, Sequence["_Rec"]],
    grid: UniformGrid,
    page_size: int,
) -> PackedPartitions:
    """Pack pre-partitioned records into pages (the partition→page half of a
    bulk load).  *cells* maps global grid cell ids to their record replicas;
    pages never span partitions and page ids are local to this pack.  Within
    a partition records are laid out in Hilbert order of their envelope
    centres — the shared visit-order rule the query engine applies to batch
    windows.

    Each record's envelope-column entry is counted against the page-size
    budget, so a page payload never exceeds ``page_size`` plus the count
    prefix.
    """
    packed = PackedPartitions()
    data_offset = HEADER_SIZE
    # per-record byte cost charged against page_size beside the body
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
            # one fold per bound, not an Envelope per record: every MBR is a
            # box (the _Rec gate), so this is the union, ties and all
            mbr = Envelope(
                min(env.minx for env in current_envs), min(env.miny for env in current_envs),
                max(env.maxx for env in current_envs), max(env.maxy for env in current_envs),
            )
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
            encoded = encode_record_body(rec.geom)
            if current and current_bytes + len(encoded) + overhead > page_size:
                flush_page()
            current.append(encoded)
            current_rids.append(rec.rid)
            current_envs.append(rec.envelope)
            current_bytes += len(encoded) + overhead
            part.record_count += 1
            packed.num_replicas += 1
            packed.record_ids.add(rec.rid)
        flush_page()
        packed.partitions.append(part)

    return packed


def write_file(fs: SimulatedFilesystem, path: str, blob: bytes) -> float:
    """Create (or overwrite) *path* with *blob*; returns the simulated
    seconds charged for the open and the write."""
    fs.create_file(path, blob)
    seconds = fs.open_time()
    if blob:
        seconds += fs.write_time(path, [ReadRequest(0, ((0, len(blob)),))])
    return seconds


def write_generation(
    fs: SimulatedFilesystem,
    paths: Mapping[str, str],
    packed: PackedPartitions,
    page_size: int,
) -> Tuple[int, int, float]:
    """Persist one generation — the page container, then its packed index
    (an STR tree of fan-out 16) — under *paths*
    (:func:`~repro.store.manifest.store_paths` for a base,
    :func:`~repro.store.manifest.delta_paths` for a delta).

    The container always ends with the per-page CRC32 table after the page
    directory.  Returns ``(data_bytes, index_bytes, write_seconds)``.
    """
    header = pack_header(
        page_size,
        len(packed.page_metas),
        len(packed.record_ids),
        HEADER_SIZE + sum(len(p) for p in packed.payloads),
        flags=FLAG_PAGE_CHECKSUMS,
    )
    data = (
        header
        + b"".join(packed.payloads)
        + pack_page_directory(packed.page_metas)
        + pack_page_checksums(packed.page_metas)
    )
    index_blob = dump_index(STRtree(packed.index_entries))
    seconds = write_file(fs, paths["data"], data) + write_file(fs, paths["index"], index_blob)
    return len(data), len(index_blob), seconds


def write_store_files(
    fs: SimulatedFilesystem,
    name: str,
    packed: PackedPartitions,
    page_size: int,
    extent: Envelope,
    grid: UniformGrid,
    next_record_id: Optional[int] = None,
) -> BulkLoadResult:
    """Persist a packed store as the canonical three-file layout: the base
    generation (:func:`write_generation`), then the manifest that makes it
    visible.

    *next_record_id* is the id ceiling recorded for future appends (defaults
    to the record count, correct when ids were assigned densely).
    """
    paths = store_paths(name)
    data_bytes, index_bytes, write_seconds = write_generation(fs, paths, packed, page_size)
    manifest = StoreManifest(
        name=name,
        page_size=page_size,
        num_records=len(packed.record_ids),
        num_pages=len(packed.page_metas),
        extent=extent,
        grid_rows=grid.rows,
        grid_cols=grid.cols,
        partitions=packed.partitions,
        next_record_id=next_record_id,
    )
    write_seconds += write_file(fs, paths["manifest"], manifest.to_json().encode("utf-8"))
    return BulkLoadResult(
        manifest=manifest,
        paths=paths,
        num_records=len(packed.record_ids),
        num_replicas=packed.num_replicas,
        num_pages=len(packed.page_metas),
        num_partitions=len(packed.partitions),
        data_bytes=data_bytes,
        index_bytes=index_bytes,
        skipped_empty=0,
        write_seconds=write_seconds,
    )


def partition_identified(
    records: Iterable[Tuple[int, Geometry]],
    num_partitions: int,
) -> Tuple[List["_Rec"], UniformGrid, Dict[int, List["_Rec"]], int, Envelope]:
    """Grid-partition ``(record_id, geometry)`` pairs with caller-chosen ids.

    The id-preserving front half of a bulk load: compaction re-packs a
    mutable store's visible records through this so logical record ids
    survive the rewrite.  Returns ``(usable, grid, cells, skipped, extent)``
    where *cells* maps global grid cell ids to record replicas (the existing
    grid machinery, replication included).
    """
    from ..core.grid_partition import assign_to_cells, build_grid

    pairs = list(records)
    usable = [_Rec(rid, g) for rid, g in pairs if not g.envelope.is_empty]
    skipped = len(pairs) - len(usable)

    extent = Envelope.empty()
    for rec in usable:
        extent = extent.union(rec.envelope)

    if usable:
        grid = build_grid(extent, num_partitions)
        cells = assign_to_cells(grid, usable)
    else:
        grid = UniformGrid(Envelope(0.0, 0.0, 1.0, 1.0), 1, 1)
        cells = {}
    return usable, grid, cells, skipped, extent


def partition_records(
    geometries: Iterable[Geometry],
    num_partitions: int,
) -> Tuple[List["_Rec"], UniformGrid, Dict[int, List["_Rec"]], int, Envelope]:
    """Front half of a bulk load: wrap, measure and grid-partition records.

    Record ids are assigned by input position (empty geometries keep their
    position but are skipped).  Returns the same tuple as
    :func:`partition_identified`.
    """
    return partition_identified(enumerate(geometries), num_partitions)


def bulk_load(
    fs: SimulatedFilesystem,
    name: str,
    geometries: Iterable[Geometry],
    num_partitions: int = 16,
    page_size: int = 4096,
) -> BulkLoadResult:
    """Persist *geometries* as the named store on *fs*.

    ``page_size`` is the target payload size in bytes: records are appended
    to a page until it would overflow (a single oversized record still gets
    a page of its own).  Pages never span partitions.
    """
    if page_size < 64:
        raise ValueError("page_size must be >= 64 bytes")

    usable, grid, cells, skipped, extent = partition_records(geometries, num_partitions)
    packed = pack_partitions(cells, grid, page_size)
    result = write_store_files(
        fs,
        name,
        packed,
        page_size,
        extent,
        grid,
        # ids are positional, so skipped empties leave holes below this
        next_record_id=len(usable) + skipped,
    )
    result.skipped_empty = skipped
    return result
