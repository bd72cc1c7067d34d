"""Incremental appends and compaction for `repro.store` — mutable stores.

§4.1 of the paper motivates persisting the partitioned, indexed binary form
so repeated traffic never re-runs the pipeline; before this module the
persisted form was *write-once*: any new data forced a full ``bulk_load``.
This module makes a store mutable without ever rewriting a base container
on the serving path.  Every store is routed by ``shards.json`` (one shard
is the local case), so there is one writer of each kind:

* :class:`StoreAppender` writes each batch as a **delta generation** of the
  shards it touches — a self-contained delta page container plus a packed
  delta index (paths via :func:`~repro.store.manifest.delta_paths`),
  registered in the shard manifest's generation list together with the
  record-id *tombstones* that hide deleted/updated records in older
  generations.  Each record routes to its **home shard** (the shard owning
  its home partition — the grid cell of its MBR's lower-left corner) and is
  replicated into that shard's cells it overlaps, so a delta is
  structurally a miniature base container and the query engine can plan
  ``(generation, page, slot)`` candidates across all generations (newest
  shadowing oldest).  Tombstones are broadcast to every shard and every
  read replica, so a stale version can never resurface from another shard;
  ``shards.json`` is written last.
* :func:`compact_store` is a bulk load of the store's visible records
  (tombstones applied, newest versions winning) with record ids, the id
  ceiling, the shard count, partition count, page size and read replicas
  kept; the delta files are then deleted.  Query results are identical
  before and after; per-query I/O returns to fresh-bulk-load shape.
* :func:`upgrade_store` is the one offline path from older layouts: a store
  without ``shards.json``, a manifest without an id ceiling, or a base
  container in the retired v1 page layout is rewritten like a compaction.
  The appender and the compactor refuse such stores and name it; ``open``
  still serves them (except v1 containers).

Deleting a record id that was never assigned is a caller error: the id is
validated against the id ceiling, but holes left by skipped empty
geometries cannot be told apart from live ids without a scan, so the live
record counters assume every delete names a live record.  With several
shards, a shard manifest's ``live_records`` counts deletes broadcast to it
whether or not the shard held the record; ``shards.json``'s
``num_records`` is the store's exact visible count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.grid_partition import assign_to_cells, build_grid
from ..geometry import Envelope, Geometry
from ..index import UniformGrid
from ..obs.trace import NULL_TRACER
from ..pfs import SimulatedFilesystem
from .datastore import SpatialDataStore
from .format import (
    PageChecksumError,
    StoreFormatError,
    decode_page,
    page_crc32,
    unpack_header,
    unpack_page_checksums,
    unpack_page_directory,
)
from .manifest import (
    MANIFEST_VERSION,
    GenerationInfo,
    ShardInfo,
    ShardsManifest,
    StoreManifest,
    delta_paths,
    shards_path,
    store_paths,
)
from .router import ShardRouter
from .scheduler import read_with_retry
from .sharded import read_shards_manifest
from .writer import (
    PackedPartitions,
    _Rec,
    _write_layout,
    pack_partitions,
    partition_records,
    write_file,
    write_generation,
)

__all__ = [
    "AppendResult",
    "CompactionResult",
    "StoreAppender",
    "compact_store",
    "upgrade_store",
]


@dataclass
class AppendResult:
    """Summary of one append (``gen_id`` is ``None`` for a no-op append)."""

    #: the store's ``shards.json`` as written
    manifest: ShardsManifest
    #: the newest generation id written (each shard numbers its own)
    gen_id: Optional[int]
    #: distinct logical records stored (each in its home shard only)
    num_records: int
    #: record replicas packed (>= num_records with grid replication)
    num_replicas: int
    num_pages: int
    #: record ids tombstoned by this append (deletes + updates)
    num_tombstones: int
    #: bytes of every delta file written, read replicas included
    data_bytes: int
    index_bytes: int
    #: simulated seconds charged for the delta files, manifests and shards.json
    write_seconds: float


@dataclass
class CompactionResult:
    """Summary of one compaction (or upgrade)."""

    manifest: ShardsManifest
    #: delta generations merged into the new base containers (all shards)
    merged_generations: int
    #: visible logical records in the compacted store
    num_records: int
    num_pages: int
    data_bytes: int
    index_bytes: int
    write_seconds: float


def _read_manifest(fs: SimulatedFilesystem, name: str) -> StoreManifest:
    with fs.open(store_paths(name)["manifest"]) as fh:
        raw, _, _ = read_with_retry(fh)
    return StoreManifest.from_json(raw)


def _legacy(name: str, why: str) -> StoreFormatError:
    return StoreFormatError(
        f"store {name!r} {why}; rewrite it once with repro.store.upgrade_store(fs, {name!r})"
    )


def _read_layout(fs: SimulatedFilesystem, name: str) -> ShardsManifest:
    """``shards.json`` of a store the write path may change.  A store older
    than that file, than the id ceiling or than every grid cell having an
    owning shard is refused, naming :func:`upgrade_store`."""
    if not fs.exists(shards_path(name)):
        if not fs.exists(store_paths(name)["manifest"]):
            raise FileNotFoundError(f"store {name!r} does not exist; run bulk_load first")
        raise _legacy(name, "has no shards.json")
    layout, _ = read_shards_manifest(fs, name)
    if layout.next_record_id is None:
        raise _legacy(name, "has no id ceiling in shards.json")
    if len(layout.partition_to_shard()) != layout.grid_rows * layout.grid_cols:
        raise _legacy(name, "has grid cells no shard owns")
    return layout


def _checked(manifest: StoreManifest, name: str) -> StoreManifest:
    if manifest.next_record_id is None:
        raise _legacy(name, f"has a manifest without an id ceiling ({manifest.name!r})")
    return manifest


def _checked_deletes(deletes: Iterable[int], ceiling: int) -> List[int]:
    """The sorted distinct *deletes*, each an id some generation could hold."""
    delete_ids = sorted({int(rid) for rid in deletes})
    for rid in delete_ids:
        if rid < 0 or rid >= ceiling:
            raise ValueError(f"cannot delete record {rid}: ids run below {ceiling}")
    return delete_ids


def _live_delta(stored: Set[int], updates: Set[int], tombstones: List[int], dead: Set[int]) -> int:
    """Change of a visible-record count when an append stores *stored* ids
    and tombstones *tombstones* (the *updates* among them re-stored) over a
    view whose currently invisible ids are *dead*: fresh stored ids count
    once, resurrections of dead ids count once, updates of live ids net to
    zero, and only tombstones that kill a live id decrement."""
    restored = updates & stored
    fresh = len(stored) - len(restored)
    revived = len(restored & dead)
    killed = sum(1 for rid in tombstones if rid not in dead and rid not in restored)
    return fresh + revived - killed


class StoreAppender:
    """Incremental writer for one persisted store.

    Reads ``shards.json`` once; every :meth:`append` call routes its records
    to their home shards, writes one delta generation on each shard it
    touches (and on each of that shard's read replicas), rewrites those
    shard manifests and then ``shards.json``.
    """

    def __init__(self, fs: SimulatedFilesystem, name: str, tracer=None) -> None:
        self.fs = fs
        self.name = name
        #: optional span recorder: append/compact phases show up on the same
        #: timeline as the serving spans when a shared tracer is injected
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.manifest = _read_layout(fs, name)

    # ------------------------------------------------------------------ #
    def append(
        self,
        geometries: Iterable[Geometry] = (),
        deletes: Iterable[int] = (),
        record_ids: Optional[Sequence[int]] = None,
    ) -> AppendResult:
        """Persist *geometries* as new records plus record-id tombstones for
        *deletes*.

        New records get fresh ids from the id ceiling (empty geometries
        consume an id but store nothing, mirroring the bulk loader's
        positional numbering).  Passing *record_ids* pins explicit ids; an
        id below the ceiling is an **update** — it is tombstoned in every
        shard and stored in its new home shard only, so the new version
        shadows every older one.
        """
        tracer = self.tracer
        with tracer.span("append", store=self.name) as span:
            geoms = list(geometries)
            layout = self.manifest
            ceiling = layout.record_id_ceiling

            if record_ids is None:
                ids = list(range(ceiling, ceiling + len(geoms)))
            else:
                ids = [int(rid) for rid in record_ids]
                if len(ids) != len(geoms):
                    raise ValueError(
                        f"record_ids has {len(ids)} entries for {len(geoms)} geometries"
                    )
                if len(set(ids)) != len(ids):
                    raise ValueError("record_ids must be distinct within one append")
                if any(rid < 0 for rid in ids):
                    raise ValueError("record ids must be >= 0")

            delete_ids = _checked_deletes(deletes, ceiling)
            updates = {rid for rid in ids if rid < ceiling}
            tombstones = sorted(set(delete_ids) | updates)

            usable = [
                _Rec(rid, g) for rid, g in zip(ids, geoms) if not g.envelope.is_empty
            ]
            if not usable and not tombstones:
                span.set(gen_id=None, records=0, tombstones=0, pages=0, data_bytes=0)
                return AppendResult(layout, None, 0, 0, 0, 0, 0, 0, 0.0)

            new_grid = layout.extent.is_empty and bool(usable)
            if new_grid:
                # first append to an empty store: establish the grid (and the
                # extent it is reconstructed from) over this batch; the first
                # shard owns every cell
                extent = Envelope.empty()
                for rec in usable:
                    extent = extent.union(rec.envelope)
                grid = build_grid(extent, layout.grid_rows * layout.grid_cols)
                layout.extent, layout.grid_rows, layout.grid_cols = (
                    grid.extent, grid.rows, grid.cols
                )
                for shard in layout.shards:
                    shard.partition_ids = [] if shard.shard_id else list(range(grid.num_cells))
            router = ShardRouter(layout)
            owner = layout.partition_to_shard()
            routed: Dict[int, List[_Rec]] = {}
            for rec in usable:
                routed.setdefault(owner[router.home_partition(rec.envelope)], []).append(rec)

            # every manifest this append rewrites is read (and checked)
            # before anything is written
            touched = [
                (shard, [_checked(_read_manifest(self.fs, store), self.name)
                         for store in [shard.store, *shard.replica_stores]])
                for shard in layout.shards
                if tombstones or shard.shard_id in routed
            ]
            # an id is dead for the store when it is dead in every shard's
            # view (an append with tombstones touches every shard)
            dead_views = [copies[0].dead_records() for _, copies in touched]
            dead = set.intersection(*dead_views)

            result = AppendResult(layout, None, 0, 0, 0, len(tombstones), 0, 0, 0.0)
            next_id = max(ceiling, max(ids) + 1 if ids else ceiling)
            stored: Set[int] = set()
            for (shard, copies), shard_dead in zip(touched, dead_views):
                recs = routed.get(shard.shard_id, [])
                packed = PackedPartitions()
                if recs:
                    owned = set(shard.partition_ids)
                    cells = assign_to_cells(router.grid, recs)
                    packed = pack_partitions(
                        {cid: rs for cid, rs in cells.items() if cid in owned},
                        router.grid,
                        layout.page_size,
                    )
                for manifest in copies:
                    self._write_generation(
                        result, manifest, packed, tombstones, updates, shard_dead, next_id,
                        router.grid if new_grid else None,
                    )
                stored |= packed.record_ids
                result.num_records += len(packed.record_ids)
                result.num_replicas += packed.num_replicas
                result.num_pages += len(packed.page_metas)
                shard.num_generations += 1
                shard.num_records = copies[0].num_live_records
                shard.num_replicas += packed.num_replicas
                shard.num_pages += len(packed.page_metas)
                for rec in recs:
                    shard.extent = shard.extent.union(rec.envelope)

            layout.num_records = max(
                0, layout.num_records + _live_delta(stored, updates, tombstones, dead)
            )
            layout.next_record_id = next_id
            result.write_seconds += write_file(
                self.fs, shards_path(self.name), layout.to_json().encode("utf-8")
            )
            if tracer.enabled:
                span.set(
                    gen_id=result.gen_id,
                    records=result.num_records,
                    tombstones=len(tombstones),
                    pages=result.num_pages,
                    data_bytes=result.data_bytes,
                )
            return result

    def _write_generation(
        self,
        result: AppendResult,
        manifest: StoreManifest,
        packed: PackedPartitions,
        tombstones: List[int],
        updates: Set[int],
        dead: Set[int],
        next_id: int,
        new_grid: Optional[UniformGrid],
    ) -> None:
        """Stack *packed* and *tombstones* on one shard copy as its next
        generation: the delta files (when anything is stored), then its
        manifest.  Charges and byte counts accumulate in *result*."""
        gen_id = len(manifest.generations) + 1
        if packed.page_metas:
            data_bytes, index_bytes, seconds = write_generation(
                self.fs, delta_paths(manifest.name, gen_id), packed, manifest.page_size
            )
            result.data_bytes += data_bytes
            result.index_bytes += index_bytes
            result.write_seconds += seconds
        if new_grid is not None:
            manifest.extent = new_grid.extent
            manifest.grid_rows, manifest.grid_cols = new_grid.rows, new_grid.cols
        delta = _live_delta(packed.record_ids, updates, tombstones, dead)
        manifest.live_records = max(0, manifest.num_live_records + delta)
        manifest.generations.append(
            GenerationInfo(
                gen_id=gen_id,
                num_pages=len(packed.page_metas),
                num_records=len(packed.record_ids),
                num_replicas=packed.num_replicas,
                extent=packed.data_extent,
                tombstones=tombstones,
                # tombstoned ids re-stored here (updates and resurrections):
                # alive at this generation, so out of the dead set
                updated=sorted(updates & packed.record_ids),
                partitions=packed.partitions,
            )
        )
        manifest.next_record_id = next_id
        # generations/tombstones are v2-only features: a v1 manifest must not
        # keep claiming v1, or an old strict reader would accept it and
        # silently ignore the generation list
        manifest.version = MANIFEST_VERSION
        result.write_seconds += write_file(
            self.fs, store_paths(manifest.name)["manifest"], manifest.to_json().encode("utf-8")
        )
        result.gen_id = max(gen_id, result.gen_id or 0)

    def compact(self) -> CompactionResult:
        """Merge this store's generations (see :func:`compact_store`)."""
        result = compact_store(self.fs, self.name, tracer=self.tracer)
        self.manifest = result.manifest
        return result


# --------------------------------------------------------------------------- #
# compaction and upgrade: one bulk load of the visible records
# --------------------------------------------------------------------------- #
def _reload(
    fs: SimulatedFilesystem,
    layout: ShardsManifest,
    records: Dict[int, Geometry],
    merged: List[Tuple[ShardInfo, List[GenerationInfo]]],
) -> CompactionResult:
    """Bulk-load *records* (``record id -> geometry``) as store *layout*
    with its shard count, partition count, page size, read replicas and id
    ceiling, then drop the delta files of the *merged* generations of every
    old shard copy — they are merged into (or superseded by) the new base."""
    written = _write_layout(
        fs,
        layout.name,
        partition_records(records.items(), layout.grid_rows * layout.grid_cols),
        layout.page_size,
        layout.num_shards,
        len(layout.shards[0].replica_stores),
        layout.record_id_ceiling,
    )
    for shard, generations in merged:
        for store in [shard.store, *shard.replica_stores]:
            for info in generations:
                if info.num_pages:
                    for path in delta_paths(store, info.gen_id).values():
                        fs.remove(path)
    return CompactionResult(
        manifest=written.manifest,
        merged_generations=sum(len(generations) for _, generations in merged),
        num_records=written.num_records,
        num_pages=written.num_pages,
        data_bytes=written.data_bytes,
        index_bytes=written.index_bytes,
        write_seconds=written.write_seconds,
    )


def compact_store(fs: SimulatedFilesystem, name: str, tracer=None) -> CompactionResult:
    """Merge every shard's base + delta generations into fresh base
    containers.

    The store's visible records (tombstones applied, newest generation
    winning, de-duplicated on record id across shards) are bulk-loaded again
    with the store's own shard count, partition count, page size and read
    replicas — logical record ids preserved, the id ceiling carried over so
    future appends never recycle a deleted id — and the merged delta files
    are deleted.  The grid is laid over the visible records and the shards
    are rebalanced; with one shard this is exactly a fresh bulk load of the
    same records.  Query results are identical before and after; per-query
    I/O returns to fresh-bulk-load shape.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    with tracer.span("compact", store=name) as span:
        layout = _read_layout(fs, name)
        records: Dict[int, Geometry] = {}
        merged = []
        for shard in layout.shards:
            with SpatialDataStore.open(fs, shard.store) as store:
                merged.append((shard, _checked(store.manifest, name).generations))
                for rid, geom in store.scan():
                    records.setdefault(rid, geom)
        result = _reload(fs, layout, records, merged)
        if tracer.enabled:
            span.set(
                merged_generations=result.merged_generations,
                records=result.num_records,
                pages=result.num_pages,
                data_bytes=result.data_bytes,
            )
        return result


def _decode_v1(path: str, blob: bytes) -> Dict[int, Geometry]:
    """Every record of a v1 container (replicas of one record are
    identical), each page checked against its CRC32 when the table exists."""
    header = unpack_header(blob, file_size=len(blob))
    tail = header.dir_offset + header.dir_nbytes
    crcs: Sequence[int] = ()
    if header.has_checksums:
        crcs = unpack_page_checksums(blob[tail:], header.num_pages)
    records: Dict[int, Geometry] = {}
    for meta in unpack_page_directory(blob[header.dir_offset : tail], header.num_pages, crcs):
        payload = blob[meta.offset : meta.offset + meta.nbytes]
        if meta.crc32 is not None and page_crc32(payload) != meta.crc32:
            raise PageChecksumError(
                f"page {meta.page_id} of {path!r} failed its checksum", meta.page_id
            )
        for rid, geom in decode_page(payload, 1):
            records.setdefault(rid, geom)
    return records


def upgrade_store(fs: SimulatedFilesystem, name: str) -> CompactionResult:
    """Rewrite a store in an older layout in the current one — offline,
    once.  Four things make a store old: no ``shards.json`` (it predates
    every store carrying one), a manifest without ``next_record_id`` (it
    predates the id ceiling), grid cells no shard owns (loads used to give
    shards only their non-empty cells) or a base container in the retired
    v1 page layout (``open`` refuses those).

    The store's visible records — v1 pages decoded with
    :func:`~repro.store.format.decode_page` — are bulk-loaded again like a
    compaction, keeping record ids and the shard count.  A missing id ceiling is derived from
    the highest stored or tombstoned id (a bulk load that skipped empty
    geometries left holes, so the record count can undercount it).  Safe by
    refusal: a store already current, or a v1 container whose manifest lists
    delta generations (v1 predates deltas, so re-packing the base alone
    would silently drop them), raises
    :class:`~repro.store.format.StoreFormatError` and nothing is written.
    """
    old = not fs.exists(shards_path(name))
    if old:
        manifest = _read_manifest(fs, name)
        layout = ShardsManifest(
            name, manifest.page_size, manifest.num_live_records, manifest.extent,
            manifest.grid_rows, manifest.grid_cols, [ShardInfo(0, name)],
        )
    else:
        layout, _ = read_shards_manifest(fs, name)
    ceiling = layout.record_id_ceiling
    old = (
        old
        or layout.next_record_id is None
        or len(layout.partition_to_shard()) != layout.grid_rows * layout.grid_cols
    )
    records: Dict[int, Geometry] = {}
    merged = []
    for shard in layout.shards:
        manifest = _read_manifest(fs, shard.store)
        path = store_paths(shard.store)["data"]
        with fs.open(path) as fh:
            blob, _, _ = read_with_retry(fh)
        if unpack_header(blob, file_size=len(blob)).version == 1:
            if manifest.generations:
                raise StoreFormatError(
                    f"{path!r} uses page layout v1 but store {shard.store!r} lists "
                    f"{len(manifest.generations)} delta generation(s); refusing to "
                    f"upgrade, which would drop them"
                )
            shard_records = _decode_v1(path, blob)
            old = True
        else:
            with SpatialDataStore.open(fs, shard.store) as store:
                shard_records = dict(store.scan())
        old = old or manifest.next_record_id is None
        for rid, geom in shard_records.items():
            records.setdefault(rid, geom)
        tombstoned = [rid for info in manifest.generations for rid in info.tombstones]
        ceiling = max([ceiling, manifest.record_id_ceiling, *(rid + 1 for rid in records),
                       *(rid + 1 for rid in tombstoned)])
        merged.append((shard, manifest.generations))
    if not old:
        raise StoreFormatError(
            f"store {name!r} already has shards.json, id ceilings and page "
            f"layout v2: nothing to upgrade"
        )
    layout.next_record_id = ceiling
    return _reload(fs, layout, records, merged)
