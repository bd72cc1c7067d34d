"""Bulk loader: partition once, pack into pages, persist data + index.

This is the preprocessing step §4.1 of the paper argues for ("files …
are preprocessed and stored in binary") turned into a durable artefact: the
existing grid partitioner assigns every geometry to the grid cells its MBR
overlaps (replicating spanning geometries exactly like the distributed
pipeline does), each partition's records are ordered along a space-filling
curve for intra-page locality, packed into fixed-target-size pages, and the
record MBRs are bulk-loaded into one STR-packed R-tree that is persisted
alongside the data so no future open ever rebuilds it.  The grid's cells are
then split into contiguous shard runs and ``shards.json`` routes between
them; one shard is the local case.

The packing and writing halves are factored out so the appender/compactor in
:mod:`repro.store.mutable` persist through the same routines:
:func:`write_file` is the only place a store file is created and charged,
:func:`write_generation` the only place a container and its packed index are
assembled (base and delta alike), :func:`write_store_files` a generation
plus its manifest — data, then index, then manifest, in that order — and
``_write_layout`` every shard of a bulk load or compaction, then
``shards.json``.
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
from .manifest import (
    PartitionInfo,
    ShardInfo,
    ShardsManifest,
    StoreManifest,
    replica_store_name,
    shard_store_name,
    shards_path,
    store_paths,
)

__all__ = [
    "BulkLoadResult",
    "PackedPartitions",
    "bulk_load",
    "pack_partitions",
    "partition_records",
    "sharded_bulk_load",
    "write_file",
    "write_generation",
    "write_store_files",
]


@dataclass
class BulkLoadResult:
    """Summary of one bulk load or compaction rewrite."""

    #: the store's ``shards.json``
    manifest: ShardsManifest
    #: distinct logical records stored
    num_records: int
    #: non-empty grid partitions
    num_partitions: int
    skipped_empty: int
    #: record replicas packed (>= num_records with grid replication)
    num_replicas: int = 0
    #: pages across the shard stores (read replicas not counted)
    num_pages: int = 0
    #: bytes of every data / index file written, read replicas included
    data_bytes: int = 0
    index_bytes: int = 0
    #: simulated seconds charged for every file written
    write_seconds: float = 0.0


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


#: ``(usable, grid, cells, skipped, extent)`` — a grid-partitioned record
#: set: the records kept, the grid, cell id -> record replicas, the empty
#: geometries skipped and the records' extent
Partitioned = Tuple[List[_Rec], UniformGrid, Dict[int, List[_Rec]], int, Envelope]


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
) -> Tuple[StoreManifest, int, int, float]:
    """Persist one shard store as the canonical three-file layout: the base
    generation (:func:`write_generation`), then the manifest that makes it
    visible.

    *next_record_id* is the id ceiling recorded for future appends (defaults
    to the record count, correct when ids were assigned densely).  Returns
    ``(manifest, data_bytes, index_bytes, write_seconds)``.
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
    return manifest, data_bytes, index_bytes, write_seconds


def partition_records(
    records: Iterable[Tuple[int, Geometry]],
    num_partitions: int,
) -> Partitioned:
    """Front half of a bulk load: wrap, measure and grid-partition
    ``(record_id, geometry)`` pairs.

    A bulk load numbers records by input position; compaction passes a
    store's visible records with their own ids, so logical record ids
    survive the rewrite.  Empty geometries are skipped (counted, never
    stored).  *cells* of the returned :data:`Partitioned` maps global grid
    cell ids to record replicas (replication included).
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


def _contiguous_runs(
    counts: List[Tuple[int, int]], num_shards: int, num_cells: int
) -> List[List[int]]:
    """Split the grid's *num_cells* cell ids into *num_shards* contiguous
    runs, balancing the non-empty ``(partition_id, record_count)`` *counts*
    (sorted by id) by record count.

    Every cell gets an owner: a cell empty at load time belongs to the run
    of the nearest non-empty cell below it (run 0 when none is below), so an
    append homed there has a shard and a one-shard store owns every cell.
    Runs come out empty when there are more shards than non-empty
    partitions — serving handles that (the shard is a valid empty store).
    """
    runs: List[List[int]] = []
    idx = 0
    remaining = sum(c for _, c in counts)
    for s in range(num_shards):
        shards_left = num_shards - s
        parts_left = len(counts) - idx
        if parts_left <= 0:
            runs.append([])
            continue
        if shards_left >= parts_left:
            # one partition per remaining shard (some shards stay empty)
            runs.append([counts[idx][0]])
            remaining -= counts[idx][1]
            idx += 1
            continue
        target = remaining / shards_left
        run: List[int] = []
        run_count = 0
        while idx < len(counts) and len(counts) - idx > shards_left - 1:
            cid, c = counts[idx]
            if run and run_count + 0.5 * c > target:
                break
            run.append(cid)
            run_count += c
            idx += 1
        runs.append(run)
        remaining -= run_count
    while idx < len(counts):  # numeric slack: sweep leftovers into the last run
        runs[-1].append(counts[idx][0])
        idx += 1
    # non-empty runs come first; each reaches up to where the next one starts
    bounds = [0] + [run[0] for run in runs[1:] if run] + [num_cells]
    owned = [list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    return owned + [[] for _ in range(num_shards - len(owned))]


def _write_layout(
    fs: SimulatedFilesystem,
    name: str,
    partitioned: Partitioned,
    page_size: int,
    num_shards: int,
    read_replicas: int,
    next_record_id: int,
) -> BulkLoadResult:
    """Persist *partitioned* records as the named store: *num_shards* shard
    stores balanced by record count, each with *read_replicas* byte-identical
    copies, then ``shards.json`` — the one write path of bulk loads and
    compactions.  A one-shard store's shard is the store directory itself."""
    usable, grid, cells, skipped, extent = partitioned
    runs = _contiguous_runs(
        [(cid, len(cells[cid])) for cid in sorted(cells)], num_shards, grid.num_cells
    )
    result = BulkLoadResult(
        ShardsManifest(name, page_size, len(usable), extent, grid.rows, grid.cols,
                       next_record_id=next_record_id),
        num_records=len(usable),
        num_partitions=len(cells),
        skipped_empty=skipped,
    )
    for shard_id, run in enumerate(runs):
        packed = pack_partitions({cid: cells[cid] for cid in run if cid in cells}, grid, page_size)
        store = name if num_shards == 1 else shard_store_name(name, shard_id)
        replicas = [replica_store_name(name, shard_id, r) for r in range(read_replicas)]
        # every copy is written from the same packed pages, so read replicas
        # are byte-identical and any copy can substitute at serving time
        for copy in [store, *replicas]:
            _, data_bytes, index_bytes, seconds = write_store_files(
                fs, copy, packed, page_size, packed.data_extent, grid, next_record_id
            )
            result.data_bytes += data_bytes
            result.index_bytes += index_bytes
            result.write_seconds += seconds
        result.num_replicas += packed.num_replicas
        result.num_pages += len(packed.page_metas)
        result.manifest.shards.append(
            ShardInfo(
                shard_id=shard_id,
                store=store,
                partition_ids=run,
                extent=packed.data_extent,
                num_records=len(packed.record_ids),
                num_replicas=packed.num_replicas,
                num_pages=len(packed.page_metas),
                replica_stores=replicas,
            )
        )
    result.write_seconds += write_file(
        fs, shards_path(name), result.manifest.to_json().encode("utf-8")
    )
    return result


def bulk_load(
    fs: SimulatedFilesystem,
    name: str,
    geometries: Iterable[Geometry],
    num_partitions: int = 16,
    page_size: int = 4096,
    num_shards: int = 1,
    read_replicas: int = 0,
) -> BulkLoadResult:
    """Persist *geometries* as the named store on *fs*.

    The dataset is grid-partitioned **once** (replication included); the
    grid's cells are split into *num_shards* contiguous runs balanced by
    record count, each persisted as a self-contained shard store, and
    ``stores/<name>/shards.json`` routes between them.  With one shard (the
    default) the shard is ``stores/<name>/`` itself; with more they sit
    under ``stores/<name>/shard-NNNN/``.  Partition ids stay *global*, so a
    shard's query results report the partitions a one-shard load would.
    *read_replicas* writes that many full copies of every shard store for
    serving-time failover.

    ``page_size`` is the target payload size in bytes: records are appended
    to a page until it would overflow (a single oversized record still gets
    a page of its own).  Pages never span partitions.  Record ids are input
    positions; empty geometries keep their position but store nothing.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if page_size < 64:
        raise ValueError("page_size must be >= 64 bytes")
    if read_replicas < 0:
        raise ValueError("read_replicas must be >= 0")
    partitioned = partition_records(enumerate(geometries), num_partitions)
    usable, _, _, skipped, _ = partitioned
    # ids are positional, so skipped empties leave holes below this
    return _write_layout(
        fs, name, partitioned, page_size, num_shards, read_replicas, len(usable) + skipped
    )


#: the loader's name from when sharded stores had a loader of their own
sharded_bulk_load = bulk_load
