"""Bulk loader: partition once, pack into pages, persist pages + index.

This is the preprocessing step §4.1 of the paper argues for ("files …
are preprocessed and stored in binary") turned into a durable artefact: the
existing grid partitioner lays a uniform grid over the records and each
record is stored **once**, in its *home cell* — the cell of its MBR's
lower-left corner, the lowest of the cells the MBR overlaps (the paper's
pipeline replicates a spanning geometry into all of them so each cell can be
refined on its own; the store answers through a per-shard index and never
does, so it keeps the one copy a reference-point test would keep).  Each
partition's records are ordered along a space-filling curve for intra-page
locality, packed into fixed-target-size pages, and the record MBRs are
bulk-loaded into one STR-packed R-tree that is persisted inside the same
container, after the pages, so no future open ever rebuilds it.  The grid's cells are then split into
contiguous shard runs and ``shards.json`` routes between them; one shard is
the local case.

The packing and writing halves are factored out so the appender/compactor in
:mod:`repro.store.mutable` persist through the same routines:
:func:`home_cells` is the one cell assignment of every writer,
:func:`write_file` is the only place a store file is created and charged,
:func:`write_generation` the only place a container — pages, then its packed
index — is assembled (base and delta alike), :func:`write_store_files` a
generation plus its manifest — container, then manifest, in that order — and
``_write_layout`` every shard of a bulk load or compaction, then
``shards.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from ..geometry import Envelope, Geometry
from ..index import STRtree, UniformGrid, spatial_visit_order
from ..pfs import ReadRequest, SimulatedFilesystem
from .format import (
    ENVELOPE_ENTRY,
    HEADER_SIZE,
    PageMeta,
    encode_page_v2,
    encode_record_body,
    pack_header,
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
    "home_cells",
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
    #: pages across the shard stores (read replicas not counted)
    num_pages: int = 0
    #: bytes of every container written, read replicas included: its
    #: packed index region, and the rest
    data_bytes: int = 0
    index_bytes: int = 0
    #: simulated seconds charged for every file written
    write_seconds: float = 0.0


class _Rec:
    """Record carrier fed to the grid partitioner (it only reads .envelope):
    id, MBR and encoded body.

    Making one is the gate where records enter the writer — bulk loads,
    appends and compactions all build their ``_Rec`` list before anything is
    assigned to a cell or written — so a record whose MBR holds a NaN is
    rejected here with a :class:`ValueError`.  The body is packed as it is:
    a geometry is encoded once (:func:`_encoded`), and compaction hands
    over stored frames.
    """

    __slots__ = ("envelope", "rid", "body")

    def __init__(self, rid: int, env: Envelope, body: bytes) -> None:
        if not (env.minx <= env.maxx and env.miny <= env.maxy):  # NaN compares false
            raise ValueError(
                f"record {rid} (ids are input positions in a bulk load) cannot "
                f"be stored: its MBR {env!r} is not a box (a NaN coordinate?)"
            )
        self.envelope = env
        self.rid = rid
        self.body = body


def _encoded(pairs: Iterable[Tuple[int, Geometry]]) -> List[_Rec]:
    """The non-empty geometries of ``(record_id, geometry)`` *pairs* as
    records, each encoded once."""
    return [_Rec(rid, g.envelope, encode_record_body(g))
            for rid, g in pairs if not g.envelope.is_empty]


def _union(envs: Iterable[Envelope]) -> Envelope:
    """Union of *envs*: one fold per bound from the empty envelope, not an
    Envelope per record.  Every MBR is a box (the _Rec gate) or empty (its
    ``±inf`` bounds are the fold's identity), so ties fall as
    :meth:`Envelope.union` has them."""
    envs = [Envelope.empty(), *envs]
    return Envelope(min(e.minx for e in envs), min(e.miny for e in envs),
                    max(e.maxx for e in envs), max(e.maxy for e in envs))


#: ``(usable, grid, cells, skipped, extent)`` — a grid-partitioned record
#: set: the records kept, the grid, home cell id -> records, the empty
#: geometries skipped and the records' extent
Partitioned = Tuple[List[_Rec], UniformGrid, Dict[int, List[_Rec]], int, Envelope]


@dataclass
class PackedPartitions:
    """In-memory image of a store's data file (pages + metadata + index input)."""

    page_metas: List[PageMeta] = field(default_factory=list)
    partitions: List[PartitionInfo] = field(default_factory=list)
    payloads: List[bytes] = field(default_factory=list)
    #: ``(envelope, (page_id, slot))`` — the payload :func:`load_index`
    #: returns; one per stored slot
    index_entries: List[Tuple[Envelope, Tuple[int, int]]] = field(default_factory=list)
    #: logical record ids packed
    record_ids: Set[int] = field(default_factory=set)

    @property
    def data_extent(self) -> Envelope:
        return _union(part.data_mbr for part in self.partitions)


def pack_partitions(
    cells: Mapping[int, Sequence["_Rec"]],
    grid: UniformGrid,
    page_size: int,
) -> PackedPartitions:
    """Pack pre-partitioned records into pages (the partition→page half of a
    bulk load).  *cells* maps global grid cell ids to their records
    (:func:`home_cells`); pages never span partitions and page ids are local
    to this pack.  Within a partition records are laid out in Hilbert order
    of their envelope centres — the shared visit-order rule the query engine
    applies to batch windows.

    Each record's envelope-column entry is counted against the page-size
    budget, so a page payload never exceeds ``page_size`` plus the count
    prefix.  Every stored slot gets one index entry.
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
            mbr = _union(current_envs)
            part.data_mbr = part.data_mbr.union(mbr)
            packed.record_ids.update(current_rids)
            packed.index_entries += [
                (env, (page_id, slot)) for slot, env in enumerate(current_envs)
            ]
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
    """Persist one generation as one container file, ``paths["data"]``
    (:func:`~repro.store.manifest.store_paths` for a base,
    :func:`~repro.store.manifest.delta_paths` for a delta): the header, the
    pages, then the metadata tail — the packed index (an STR tree of fan-out
    16), the page directory and the per-page CRC32 table — whose CRC32 the
    header carries.

    Returns ``(data_bytes, index_bytes, write_seconds)``: *index_bytes* is
    the container's index region, *data_bytes* the rest of it.
    """
    index_blob = dump_index(STRtree(packed.index_entries))
    directory = pack_page_directory(packed.page_metas)
    index_offset = HEADER_SIZE + sum(len(p) for p in packed.payloads)
    header = pack_header(
        page_size,
        len(packed.page_metas),
        len(packed.record_ids),
        index_offset + len(index_blob),
        index_offset,
        page_crc32(index_blob + directory),
    )
    container = b"".join([header, *packed.payloads, index_blob, directory])
    seconds = write_file(fs, paths["data"], container)
    return len(container) - len(index_blob), len(index_blob), seconds


def write_store_files(
    fs: SimulatedFilesystem,
    name: str,
    packed: PackedPartitions,
    page_size: int,
    extent: Envelope,
    grid: UniformGrid,
    next_record_id: int,
) -> Tuple[StoreManifest, int, int, float]:
    """Persist one shard store as the canonical two-file layout: the base
    generation's container (:func:`write_generation`), then the manifest
    that makes it visible.

    *next_record_id* is the id ceiling recorded for future appends.  Returns
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
    """Front half of a bulk load: wrap, encode, measure and grid-partition
    ``(record_id, geometry)`` pairs.

    A bulk load numbers records by input position.  Empty geometries are
    skipped (counted, never stored).  *cells* of the returned
    :data:`Partitioned` maps global grid cell ids to the records homed
    there (:func:`home_cells`).
    """
    pairs = list(records)
    usable = _encoded(pairs)
    return _partitioned(usable, len(pairs) - len(usable), num_partitions)


def home_cells(grid: UniformGrid, recs: Sequence[_Rec]) -> Dict[int, List[_Rec]]:
    """*recs* by home cell: each record in the lowest cell its MBR overlaps
    on *grid*, which is ``grid.cell_for_point(minx, miny)`` — the one cell
    assignment of every writer.  It reads the lowest cell off the grid
    partitioner's own assignment (cells ascending), so a record lands
    exactly where the paper's pipeline puts its first copy.  Keeping that
    copy only is the reference-point idea of duplicate avoidance (Dittrich
    & Seeger, ICDE 2000) applied once, at write time."""
    from ..core.grid_partition import assign_to_cells

    homed: Set[_Rec] = set()
    cells: Dict[int, List[_Rec]] = {}
    for cid, cell_recs in sorted(assign_to_cells(grid, recs).items()):
        kept = [rec for rec in cell_recs if rec not in homed]
        if kept:
            homed.update(kept)
            cells[cid] = kept
    return cells


def _partitioned(usable: List[_Rec], skipped: int, num_partitions: int) -> Partitioned:
    """Lay a grid over *usable* records and home them in its cells —
    compaction's entry, whose records keep their ids and stored frames."""
    from ..core.grid_partition import build_grid

    extent = _union(rec.envelope for rec in usable)
    if not usable:
        return usable, UniformGrid(Envelope(0.0, 0.0, 1.0, 1.0), 1, 1), {}, skipped, extent
    grid = build_grid(extent, num_partitions)
    return usable, grid, home_cells(grid, usable), skipped, extent


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
        result.num_pages += len(packed.page_metas)
        result.manifest.shards.append(
            ShardInfo(
                shard_id=shard_id,
                store=store,
                partition_ids=run,
                extent=packed.data_extent,
                num_records=len(packed.record_ids),
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

    The dataset is grid-partitioned **once**, each record stored in its
    home cell only (:func:`home_cells`); the grid's cells are split into *num_shards* contiguous runs balanced by
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
