"""Incremental appends and compaction for `repro.store` — mutable stores.

§4.1 of the paper motivates persisting the partitioned, indexed binary form
so repeated traffic never re-runs the pipeline; before this module the
persisted form was *write-once*: any new data forced a full ``bulk_load``.
This module makes a store mutable without ever rewriting a base container
on the serving path.  Every store is routed by ``shards.json`` (one shard
is the local case), so there is one writer of each kind:

* :class:`StoreAppender` writes each batch as a **delta generation** of the
  shards it touches — one self-contained delta container, pages and packed
  delta index (path via :func:`~repro.store.manifest.delta_paths`),
  registered in the shard manifest's generation list together with the
  record-id *tombstones* that hide deleted/updated records in older
  generations.  Each record is stored once, in its **home cell** on the
  store's grid (the cell of its MBR's lower-left corner,
  :func:`~repro.store.writer.home_cells`), in the shard that owns that
  cell, so a delta is structurally a miniature base container and the
  query engine can plan ``(generation, page, slot)`` candidates across all
  generations (newest shadowing oldest).  Tombstones are broadcast to every
  shard and every read replica, so a stale version can never resurface
  from another shard; ``shards.json`` is written last.
* :func:`compact_store` is a bulk load of the store's visible records
  (tombstones applied, newest versions winning) with record ids, the id
  ceiling, the shard count, partition count, page size and read replicas
  kept; the delta containers are then deleted.  Records move as their stored
  frames and MBRs — nothing is decoded or re-encoded.  Query results are
  identical before and after; per-query I/O returns to fresh-bulk-load
  shape.

Both read the store through the same parsers as serving, so a store that is
not in the one format its writers produce — no ``shards.json``, a manifest
without an id ceiling, a grid cell owned by no shard or by two — is refused
with a :class:`~repro.store.format.StoreError` (or ``FileNotFoundError``)
before anything is written.

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
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..core.grid_partition import build_grid
from ..geometry import Geometry
from ..index import UniformGrid
from ..pfs import SimulatedFilesystem
from .datastore import SpatialDataStore
from .manifest import (
    GenerationInfo,
    ShardsManifest,
    StoreManifest,
    delta_paths,
    shards_path,
    store_paths,
)
from .scheduler import read_with_retry
from .sharded import read_shards_manifest
from .writer import (
    PackedPartitions,
    _encoded,
    _partitioned,
    _Rec,
    _union,
    _write_layout,
    home_cells,
    pack_partitions,
    write_file,
    write_generation,
)

__all__ = [
    "AppendResult",
    "CompactionResult",
    "StoreAppender",
    "compact_store",
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
    num_pages: int
    #: record ids tombstoned by this append (deletes + updates)
    num_tombstones: int
    #: bytes of every delta container written, read replicas included:
    #: its packed index region, and the rest
    data_bytes: int
    index_bytes: int
    #: simulated seconds charged for the delta containers, manifests and
    #: shards.json
    write_seconds: float


@dataclass
class CompactionResult:
    """Summary of one compaction."""

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

    Reads ``shards.json`` once; every :meth:`append` call routes each record
    to the shard owning its home cell, writes one delta generation on each
    shard it touches (and on each of that shard's read replicas), rewrites
    those shard manifests and then ``shards.json``.
    """

    def __init__(self, fs: SimulatedFilesystem, name: str) -> None:
        self.fs = fs
        self.name = name
        self.manifest, _ = read_shards_manifest(fs, name)

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
        geoms = list(geometries)
        layout = self.manifest
        ceiling = layout.next_record_id

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

        usable = _encoded(zip(ids, geoms))
        if not usable and not tombstones:
            return AppendResult(layout, None, 0, 0, 0, 0, 0, 0.0)

        new_grid = layout.extent.is_empty and bool(usable)
        if new_grid:
            # first append to an empty store: establish the grid (and the
            # extent it is reconstructed from) over this batch; the first
            # shard owns every cell
            grid = build_grid(_union(rec.envelope for rec in usable),
                              layout.grid_rows * layout.grid_cols)
            layout.extent, layout.grid_rows, layout.grid_cols = (
                grid.extent, grid.rows, grid.cols
            )
            for shard in layout.shards:
                shard.partition_ids = [] if shard.shard_id else list(range(grid.num_cells))
        elif usable:
            grid = UniformGrid(layout.extent, layout.grid_rows, layout.grid_cols)
        # shard id -> home cell id -> records: each home cell's records go
        # to the shard that owns the cell
        owner = layout.partition_to_shard()
        routed: Dict[int, Dict[int, List[_Rec]]] = {}
        for cid, recs in (home_cells(grid, usable) if usable else {}).items():
            routed.setdefault(owner[cid], {})[cid] = recs

        # every manifest this append rewrites is read (and checked)
        # before anything is written
        touched = [
            (shard, [_read_manifest(self.fs, store)
                     for store in [shard.store, *shard.replica_stores]])
            for shard in layout.shards
            if tombstones or shard.shard_id in routed
        ]
        # an id is dead for the store when it is dead in every shard's
        # view (an append with tombstones touches every shard)
        dead_views = [copies[0].dead_records() for _, copies in touched]
        dead = set.intersection(*dead_views)

        result = AppendResult(layout, None, 0, 0, len(tombstones), 0, 0, 0.0)
        next_id = max(ceiling, max(ids) + 1 if ids else ceiling)
        stored: Set[int] = set()
        for (shard, copies), shard_dead in zip(touched, dead_views):
            cells = routed.get(shard.shard_id)
            packed = PackedPartitions()
            if cells:
                packed = pack_partitions(cells, grid, layout.page_size)
            for manifest in copies:
                self._write_generation(
                    result, manifest, packed, tombstones, updates, shard_dead, next_id,
                    grid if new_grid else None,
                )
            stored |= packed.record_ids
            result.num_records += len(packed.record_ids)
            result.num_pages += len(packed.page_metas)
            shard.num_generations += 1
            shard.num_records = copies[0].num_live_records
            shard.num_pages += len(packed.page_metas)
            shard.extent = shard.extent.union(packed.data_extent)

        layout.num_records = max(
            0, layout.num_records + _live_delta(stored, updates, tombstones, dead)
        )
        layout.next_record_id = next_id
        result.write_seconds += write_file(
            self.fs, shards_path(self.name), layout.to_json().encode("utf-8")
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
        generation: the delta container (when anything is stored), then its
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
                extent=packed.data_extent,
                tombstones=tombstones,
                # tombstoned ids re-stored here (updates and resurrections):
                # alive at this generation, so out of the dead set
                updated=sorted(updates & packed.record_ids),
                partitions=packed.partitions,
            )
        )
        manifest.next_record_id = next_id
        result.write_seconds += write_file(
            self.fs, store_paths(manifest.name)["manifest"], manifest.to_json().encode("utf-8")
        )
        result.gen_id = max(gen_id, result.gen_id or 0)


# --------------------------------------------------------------------------- #
# compaction: one bulk load of the visible records
# --------------------------------------------------------------------------- #
def compact_store(fs: SimulatedFilesystem, name: str) -> CompactionResult:
    """Merge every shard's base + delta generations into fresh base
    containers.

    The store's visible records (tombstones applied, newest generation
    winning; each is stored in one shard) are bulk-loaded again — each as
    its stored frame and stored MBR, never decoded or re-encoded — with the
    store's own shard count, partition count, page size and read replicas —
    logical record ids preserved, the id ceiling carried over so future
    appends never recycle a deleted id — and the delta containers of every
    old shard copy are deleted.  The grid is laid over the visible records and the shards are
    rebalanced; with one shard this is exactly a fresh bulk load of the same
    records.  Query results are identical before and after; per-query I/O
    returns to fresh-bulk-load shape.
    """
    layout, _ = read_shards_manifest(fs, name)
    records: Dict[int, _Rec] = {}
    merged = []
    for shard in layout.shards:
        with SpatialDataStore.open(fs, shard.store) as store:
            merged.append((shard, store.manifest.generations))
            for page, slot in store._visible():
                rid = page.record_ids[slot]
                records.setdefault(rid, _Rec(rid, page.envelope(slot), page.frame(slot)))
    written = _write_layout(
        fs,
        layout.name,
        _partitioned(list(records.values()), 0, layout.grid_rows * layout.grid_cols),
        layout.page_size,
        layout.num_shards,
        len(layout.shards[0].replica_stores),
        layout.next_record_id,
    )
    for shard, generations in merged:
        for copy in [shard.store, *shard.replica_stores]:
            for info in generations:
                if info.num_pages:
                    for path in delta_paths(copy, info.gen_id).values():
                        fs.remove(path)
    result = CompactionResult(
        manifest=written.manifest,
        merged_generations=sum(len(generations) for _, generations in merged),
        num_records=written.num_records,
        num_pages=written.num_pages,
        data_bytes=written.data_bytes,
        index_bytes=written.index_bytes,
        write_seconds=written.write_seconds,
    )
    return result
