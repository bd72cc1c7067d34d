"""Incremental appends and compaction for `repro.store` — mutable stores.

§4.1 of the paper motivates persisting the partitioned, indexed binary form
so repeated traffic never re-runs the pipeline; before this module the
persisted form was *write-once*: any new data forced a full ``bulk_load``.
This module makes a store mutable without ever rewriting the base container
on the serving path:

* :class:`StoreAppender` writes each batch of new records as a **delta
  generation** — a self-contained delta page container plus a packed delta
  index (paths via :func:`~repro.store.manifest.delta_paths`), registered in
  the manifest's generation list together with the record-id *tombstones*
  that hide deleted/updated records in older generations.  Appended records
  are partitioned with the store's existing grid (replication included), so
  a delta is structurally a miniature base container and the query engine
  can plan ``(generation, page, slot)`` candidates across all generations
  (newest shadowing oldest) with per-generation I/O scheduling.
* :func:`compact_store` merges base + deltas back into one SFC-packed v2
  container: the store's visible records (tombstones applied, newest
  versions winning) are re-partitioned and re-packed exactly like a fresh
  bulk load — record ids preserved — and the delta files are deleted.
  Query results are identical before and after; per-query I/O returns to
  fresh-bulk-load shape.
* :func:`upgrade_store` is the one offline path from the retired v1 page
  layout: it decodes a v1 base container and re-packs it exactly like a
  compaction (``open`` refuses v1 containers and names this function).
* :class:`ShardedStoreAppender` / :func:`compact_sharded_store` are the
  distributed counterparts: each appended record routes to its **home
  shard** (the shard owning its home partition — lowest overlapping global
  grid cell), tombstones are broadcast to every shard so stale versions can
  never resurface from a replica, and ``shards.json`` is refreshed (extents,
  counts, generation tally) so routing keeps pruning correctly.

Deleting a record id that was never assigned is a caller error: the id is
validated against the manifest's id ceiling, but holes left by skipped
empty geometries cannot be told apart from live ids without a scan, so the
``live_records`` counter assumes every delete names a live record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.grid_partition import assign_to_cells, build_grid
from ..geometry import Envelope, Geometry
from ..index import UniformGrid
from ..obs.trace import NULL_TRACER
from ..pfs import SimulatedFilesystem
from .datastore import SpatialDataStore
from .format import (
    PageChecksumError,
    StoreError,
    StoreFormatError,
    decode_page,
    page_crc32,
    unpack_header,
    unpack_page_checksums,
    unpack_page_directory,
)
from .manifest import (
    MANIFEST_VERSION,
    SHARDS_VERSION,
    GenerationInfo,
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
    BulkLoadResult,
    PackedPartitions,
    _Rec,
    pack_partitions,
    partition_identified,
    write_file,
    write_generation,
    write_store_files,
)

__all__ = [
    "AppendResult",
    "CompactionResult",
    "ShardedAppendResult",
    "ShardedCompactionResult",
    "StoreAppender",
    "ShardedStoreAppender",
    "compact_store",
    "compact_sharded_store",
    "upgrade_store",
]


@dataclass
class AppendResult:
    """Summary of one append (``gen_id`` is ``None`` for a no-op append)."""

    manifest: StoreManifest
    gen_id: Optional[int]
    #: distinct logical records packed into the new generation
    num_records: int
    #: record replicas packed (>= num_records with grid replication)
    num_replicas: int
    num_pages: int
    #: record ids tombstoned by this generation (deletes + updates)
    num_tombstones: int
    data_bytes: int
    index_bytes: int
    #: simulated seconds charged for writing the delta files + manifest
    write_seconds: float


@dataclass
class CompactionResult:
    """Summary of one compaction."""

    manifest: StoreManifest
    #: delta generations merged into the new base container
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
    return StoreManifest.from_json(raw.decode("utf-8"))


def _checked_deletes(deletes: Iterable[int], ceiling: int) -> List[int]:
    """The sorted distinct *deletes*, each an id some generation could hold."""
    delete_ids = sorted({int(rid) for rid in deletes})
    for rid in delete_ids:
        if rid < 0 or rid >= ceiling:
            raise ValueError(f"cannot delete record {rid}: ids run below {ceiling}")
    return delete_ids


def _assign_owned(
    grid: UniformGrid,
    recs: List[_Rec],
    owned: Optional[Set[int]],
    owner: str,
) -> Dict[int, List[_Rec]]:
    """Grid-assign *recs* (replication included), restricted to the *owned*
    partitions when serving one shard of a sharded store — where every
    record must land in at least one of them."""
    cells = assign_to_cells(grid, recs)
    if owned is not None:
        cells = {cid: rs for cid, rs in cells.items() if cid in owned}
        assigned = {r.rid for rs in cells.values() for r in rs}
        missing = [r.rid for r in recs if r.rid not in assigned]
        if missing:
            raise StoreError(
                f"records {missing[:5]} routed to {owner} overlap none of its "
                f"partitions — sharded routing invariant violated"
            )
    return cells


class StoreAppender:
    """Incremental writer for one persisted store.

    Opens the manifest once; every :meth:`append` call persists one delta
    generation and rewrites the manifest.  *grid* overrides the partition
    grid (the sharded appender passes the **global** grid so partition ids
    stay global inside shard stores); *allowed_partitions* restricts the
    replication to a set of grid cells (a shard's owned partitions);
    *count_deletes* disables the live-record decrement for deletes whose
    home shard is unknown locally (the sharded appender accounts for them
    globally instead).
    """

    def __init__(
        self,
        fs: SimulatedFilesystem,
        name: str,
        grid: Optional[UniformGrid] = None,
        allowed_partitions: Optional[Iterable[int]] = None,
        count_deletes: bool = True,
        tracer=None,
    ) -> None:
        self.fs = fs
        self.name = name
        #: optional span recorder: append/compact phases show up on the same
        #: timeline as the serving spans when a shared tracer is injected
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.paths = store_paths(name)
        self._grid_override = grid
        self.allowed_partitions = (
            None if allowed_partitions is None else set(allowed_partitions)
        )
        self.count_deletes = count_deletes
        if not fs.exists(self.paths["manifest"]):
            raise FileNotFoundError(
                f"store {name!r} is missing {self.paths['manifest']!r}; "
                f"run bulk_load first"
            )
        self.manifest = _read_manifest(fs, name)

    # ------------------------------------------------------------------ #
    @property
    def grid(self) -> Optional[UniformGrid]:
        """The partition grid appends replicate against (``None`` until an
        empty store's first append establishes one)."""
        if self._grid_override is not None:
            return self._grid_override
        if self.manifest.extent.is_empty:
            return None
        return UniformGrid(
            self.manifest.extent, self.manifest.grid_rows, self.manifest.grid_cols
        )

    # ------------------------------------------------------------------ #
    def append(
        self,
        geometries: Iterable[Geometry] = (),
        deletes: Iterable[int] = (),
        record_ids: Optional[Sequence[int]] = None,
        id_ceiling: Optional[int] = None,
    ) -> AppendResult:
        """Persist one delta generation: *geometries* as new records plus
        record-id tombstones for *deletes*.

        New records get fresh ids from the manifest's id ceiling (empty
        geometries consume an id but store nothing, mirroring the bulk
        loader's positional numbering).  Passing *record_ids* pins explicit
        ids; an id below the ceiling is an **update** — it is automatically
        tombstoned so the new version shadows every older generation.
        *id_ceiling* overrides the validation/allocation ceiling (the
        sharded appender supplies the global one).
        """
        tracer = self.tracer
        with tracer.span("append", store=self.name) as span:
            geoms = list(geometries)
            manifest = self.manifest
            if id_ceiling is None and manifest.next_record_id is None and (
                manifest.num_records or manifest.generations
            ):
                # legacy manifest (pre-mutable bulk load): num_records
                # undercounts the id ceiling when empty geometries were
                # skipped, so a fresh id could collide with a live record —
                # derive the true ceiling from the stored record ids once and
                # persist it below
                manifest.next_record_id = _derive_id_ceiling(self.fs, self.name)
            ceiling = manifest.record_id_ceiling if id_ceiling is None else id_ceiling

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
            updates = sorted({rid for rid in ids if rid < ceiling})
            tombstones = sorted(set(delete_ids) | set(updates))

            usable = [
                _Rec(rid, g) for rid, g in zip(ids, geoms) if not g.envelope.is_empty
            ]
            if not usable and not tombstones:
                span.set(gen_id=None, records=0, tombstones=0, pages=0, data_bytes=0)
                return AppendResult(manifest, None, 0, 0, 0, 0, 0, 0, 0.0)

            # ids currently invisible (captured before this generation exists)
            previously_dead = manifest.dead_records()

            gen_id = len(manifest.generations) + 1
            grid = self.grid
            if grid is None and usable:
                # first append to an empty store: establish the grid (and the
                # manifest extent the grid is reconstructed from) over this batch
                extent = Envelope.empty()
                for rec in usable:
                    extent = extent.union(rec.envelope)
                grid = build_grid(extent, manifest.grid_rows * manifest.grid_cols)
                manifest.extent = grid.extent
                manifest.grid_rows = grid.rows
                manifest.grid_cols = grid.cols

            packed = PackedPartitions()
            if usable:
                cells = _assign_owned(
                    grid,
                    usable,
                    self.allowed_partitions,
                    f"store {self.name!r}",
                )
                packed = pack_partitions(cells, grid, manifest.page_size)

            write_seconds = 0.0
            data_bytes = index_bytes = 0
            if packed.page_metas:
                data_bytes, index_bytes, write_seconds = write_generation(
                    self.fs,
                    delta_paths(self.name, gen_id),
                    packed,
                    manifest.page_size,
                )

            #: tombstoned ids actually re-stored in this generation (updates
            #: and resurrections) — alive here, so excluded from the dead set
            updated_stored = sorted(set(updates) & packed.record_ids)
            manifest.generations.append(
                GenerationInfo(
                    gen_id=gen_id,
                    num_pages=len(packed.page_metas),
                    num_records=len(packed.record_ids),
                    num_replicas=packed.num_replicas,
                    extent=packed.data_extent,
                    tombstones=tombstones,
                    updated=updated_stored,
                    partitions=packed.partitions,
                )
            )

            # exact live delta: fresh stored ids count once, resurrections of
            # currently-dead ids count once, updates of live ids net to zero,
            # and only tombstones that kill a live id decrement
            fresh_stored = len(packed.record_ids) - len(updated_stored)
            revived = sum(1 for rid in updated_stored if rid in previously_dead)
            newly_dead = [
                rid
                for rid in tombstones
                if rid not in previously_dead and rid not in set(updated_stored)
            ]
            live = manifest.num_live_records + fresh_stored + revived
            if self.count_deletes:
                live -= len(newly_dead)
            manifest.live_records = max(0, live)
            manifest.next_record_id = max(ceiling, max(ids) + 1 if ids else ceiling)
            # generations/tombstones are v2-only features: a legacy v1 manifest
            # must not keep claiming v1, or an old strict reader would accept it
            # and silently ignore the generation list
            manifest.version = MANIFEST_VERSION
            write_seconds += write_file(
                self.fs, self.paths["manifest"], manifest.to_json().encode("utf-8")
            )

            if tracer.enabled:
                span.set(
                    gen_id=gen_id,
                    records=len(packed.record_ids),
                    tombstones=len(tombstones),
                    pages=len(packed.page_metas),
                    data_bytes=data_bytes,
                )
            return AppendResult(
                manifest=manifest,
                gen_id=gen_id,
                num_records=len(packed.record_ids),
                num_replicas=packed.num_replicas,
                num_pages=len(packed.page_metas),
                num_tombstones=len(tombstones),
                data_bytes=data_bytes,
                index_bytes=index_bytes,
                write_seconds=write_seconds,
            )

    def compact(self) -> CompactionResult:
        """Merge this store's generations (see :func:`compact_store`)."""
        result = compact_store(self.fs, self.name, tracer=self.tracer)
        self.manifest = result.manifest
        return result


# --------------------------------------------------------------------------- #
# compaction
# --------------------------------------------------------------------------- #
def _rewrite_base(
    fs: SimulatedFilesystem,
    name: str,
    packed: PackedPartitions,
    page_size: int,
    extent: Envelope,
    grid: UniformGrid,
    next_record_id: int,
) -> BulkLoadResult:
    """Replace store *name*'s base container, index and manifest with
    *packed*, then drop the delta files of the generations the old manifest
    listed — they are merged into (or superseded by) the new base."""
    merged = _read_manifest(fs, name).generations
    result = write_store_files(fs, name, packed, page_size, extent, grid, next_record_id)
    for info in merged:
        if info.num_pages:
            for path in delta_paths(name, info.gen_id).values():
                fs.remove(path)
    return result


def _repack(
    fs: SimulatedFilesystem,
    name: str,
    old: StoreManifest,
    records: List[Tuple[int, Geometry]],
) -> CompactionResult:
    """Re-partition and re-pack *records* — the visible content of the store
    described by *old* — as its new base, exactly like a fresh bulk load of
    the same records: logical record ids preserved, the id ceiling carried
    over so future appends never recycle a deleted id."""
    ceiling = old.record_id_ceiling
    if old.next_record_id is None:
        # legacy manifest: num_records undercounts the ceiling when the bulk
        # load skipped empty geometries — derive it from the record ids so
        # the rewritten manifest never pins a value that recycles a live id
        for rid, _geom in records:
            ceiling = max(ceiling, rid + 1)
        for info in old.generations:
            ceiling = max(ceiling, max(info.tombstones, default=-1) + 1)

    _usable, grid, cells, _skipped, extent = partition_identified(
        records, old.grid_rows * old.grid_cols
    )
    packed = pack_partitions(cells, grid, old.page_size)
    written = _rewrite_base(fs, name, packed, old.page_size, extent, grid, ceiling)
    return CompactionResult(
        manifest=written.manifest,
        merged_generations=len(old.generations),
        num_records=written.num_records,
        num_pages=written.num_pages,
        data_bytes=written.data_bytes,
        index_bytes=written.index_bytes,
        write_seconds=written.write_seconds,
    )


def compact_store(fs: SimulatedFilesystem, name: str, tracer=None) -> CompactionResult:
    """Merge a store's base + delta generations into one SFC-packed
    container.

    The visible records (tombstones applied, newest generation winning) are
    re-partitioned and re-packed exactly like a fresh bulk load of the same
    records with the store's own page size and partition count — logical
    record ids preserved, the id ceiling carried over so future appends never
    recycle a deleted id — and the merged delta files are deleted.  Query
    results are identical before and after; per-query I/O (read requests,
    pages read) returns to fresh-bulk-load shape.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    with tracer.span("compact", store=name) as span:
        with SpatialDataStore.open(fs, name) as store:
            records = list(store.scan())
            old_manifest = store.manifest
        result = _repack(fs, name, old_manifest, records)
        if tracer.enabled:
            span.set(
                merged_generations=result.merged_generations,
                records=result.num_records,
                pages=result.num_pages,
                data_bytes=result.data_bytes,
            )
        return result


def upgrade_store(fs: SimulatedFilesystem, name: str) -> CompactionResult:
    """Rewrite a store whose base container uses the retired v1 page layout
    in the current one — offline, once; ``open`` refuses v1 containers.

    The v1 pages are decoded with :func:`~repro.store.format.decode_page`
    and re-packed exactly like a compaction (record ids and the id ceiling
    preserved).  Safe by refusal: a store already in the current layout, or
    a v1 container whose manifest lists delta generations (v1 predates
    deltas, so re-packing the base alone would silently drop them), raises
    :class:`~repro.store.format.StoreFormatError` and nothing is written.
    """
    manifest = _read_manifest(fs, name)
    path = store_paths(name)["data"]
    with fs.open(path) as fh:
        blob, _, _ = read_with_retry(fh)
    header = unpack_header(blob, file_size=len(blob))
    if header.version != 1:
        raise StoreFormatError(
            f"{path!r} already uses page layout v{header.version}: nothing to upgrade"
        )
    if manifest.generations:
        raise StoreFormatError(
            f"{path!r} uses page layout v1 but store {name!r} lists "
            f"{len(manifest.generations)} delta generation(s); refusing to "
            f"upgrade, which would drop them"
        )
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
            records.setdefault(rid, geom)  # replicas of one record are identical
    return _repack(fs, name, manifest, list(records.items()))


def _derive_id_ceiling(fs: SimulatedFilesystem, name: str) -> int:
    """True id ceiling of a store whose manifest predates ``next_record_id``.

    A legacy bulk load that skipped empty geometries left id holes, so
    ``num_records`` undercounts the ceiling and a fresh append id could
    collide with (and silently shadow) a live record.  The ceiling is
    recovered with a struct-only sweep of the stored record ids — envelope
    columns / record prefixes, no WKB or pickle decode.
    """
    ceiling = 0
    with SpatialDataStore.open(fs, name, cache_pages=16) as store:
        for _generation, page in store._iter_pages():
            if len(page):
                # the id column is a flat array: one C-level max
                ceiling = max(ceiling, max(page.record_ids) + 1)
        for info in store.manifest.generations:
            ceiling = max(ceiling, max(info.tombstones, default=-1) + 1)
    return ceiling


def _recover_global_ceiling(fs: SimulatedFilesystem, manifest: ShardsManifest) -> None:
    """Legacy ``shards.json`` (no ``next_record_id``): recover the true
    global id ceiling from the shards before anything allocates from it or
    pins it into a rewritten shard manifest."""
    if manifest.next_record_id is None and manifest.num_records:
        manifest.next_record_id = max(
            _derive_id_ceiling(fs, shard.store) for shard in manifest.shards
        )


# --------------------------------------------------------------------------- #
# sharded appends and compaction
# --------------------------------------------------------------------------- #
@dataclass
class ShardedAppendResult:
    """Summary of one sharded append."""

    manifest: ShardsManifest
    #: per-shard append summaries (only shards that received a generation)
    shard_results: Dict[int, AppendResult] = field(default_factory=dict)
    #: shard id -> number of records routed to it (home-shard routing)
    routed: Dict[int, int] = field(default_factory=dict)
    num_records: int = 0
    num_tombstones: int = 0
    write_seconds: float = 0.0


@dataclass
class ShardedCompactionResult:
    """Summary of one sharded compaction."""

    manifest: ShardsManifest
    merged_generations: int = 0
    num_records: int = 0
    write_seconds: float = 0.0


class ShardedStoreAppender:
    """Incremental writer for a sharded store (``shards.json`` routing).

    Every appended record routes to its **home shard**: the shard owning the
    record's home partition (lowest-numbered global grid cell its MBR
    overlaps — the same ownership rule serving uses).  The home shard's
    extent grows to cover the record, so shard-extent routing keeps finding
    it; no cross-shard replica is written.  A home partition no shard owns
    yet (a grid cell that was empty at load time) is adopted by the shard
    owning the nearest preceding partition, keeping ownership contiguous.
    Tombstones are broadcast to **every** shard, so a deleted or updated
    record can never resurface from a replica in a non-home shard.
    """

    def __init__(self, fs: SimulatedFilesystem, name: str) -> None:
        self.fs = fs
        self.name = name
        self.manifest, _ = read_shards_manifest(fs, name)

    # ------------------------------------------------------------------ #
    def _adopt_partition(self, home: int, p2s: Dict[int, int]) -> int:
        """Assign an unowned home partition to the shard owning the nearest
        preceding partition (shard 0 when none precedes it)."""
        owned_below = [pid for pid in p2s if pid <= home]
        sid = p2s[max(owned_below)] if owned_below else self.manifest.shards[0].shard_id
        shard = self.manifest.shards[sid]
        shard.partition_ids = sorted(set(shard.partition_ids) | {home})
        p2s[home] = sid
        return sid

    def append(
        self,
        geometries: Iterable[Geometry] = (),
        deletes: Iterable[int] = (),
    ) -> ShardedAppendResult:
        """Route *geometries* to their home shards as per-shard delta
        generations and broadcast *deletes* as tombstones to every shard."""
        geoms = list(geometries)
        manifest = self.manifest
        router = ShardRouter(manifest)
        _recover_global_ceiling(self.fs, manifest)
        ceiling = manifest.record_id_ceiling
        delete_ids = _checked_deletes(deletes, ceiling)

        ids = list(range(ceiling, ceiling + len(geoms)))
        usable = [(rid, g) for rid, g in zip(ids, geoms) if not g.envelope.is_empty]

        p2s = manifest.partition_to_shard()
        per_shard: Dict[int, List[Tuple[int, Geometry]]] = {}
        for rid, g in usable:
            home = router.home_partition(g.envelope)
            sid = p2s.get(home)
            if sid is None:
                sid = self._adopt_partition(home, p2s)
            per_shard.setdefault(sid, []).append((rid, g))

        result = ShardedAppendResult(
            manifest=manifest,
            num_records=len(usable),
            num_tombstones=len(delete_ids),
        )
        if not usable and not delete_ids:
            return result

        previously_dead: Optional[Set[int]] = None
        for shard in manifest.shards:
            recs = per_shard.get(shard.shard_id, [])
            if not recs and not delete_ids:
                continue
            # the primary, then its read replicas: same records, ids,
            # tombstones, grid and ceiling — packing is deterministic, so
            # every replica grows a byte-identical delta generation and
            # stays a drop-in failover copy
            copies: List[AppendResult] = []
            for store in [shard.store, *shard.replica_stores]:
                appender = StoreAppender(
                    self.fs,
                    store,
                    grid=router.grid,
                    allowed_partitions=shard.partition_ids,
                    count_deletes=False,
                )
                if previously_dead is None:
                    # tombstones are broadcast, so any one shard's manifest
                    # carries the full historic dead set
                    previously_dead = appender.manifest.dead_records()
                copies.append(
                    appender.append(
                        [g for _, g in recs],
                        deletes=delete_ids,
                        record_ids=[rid for rid, _ in recs],
                        id_ceiling=ceiling,
                    )
                )
                result.write_seconds += copies[-1].write_seconds
            res = copies[0]
            result.shard_results[shard.shard_id] = res
            result.routed[shard.shard_id] = len(recs)
            if res.gen_id is not None:
                shard.num_generations += 1
            shard.num_records += len({rid for rid, _ in recs})
            shard.num_replicas += res.num_replicas
            shard.num_pages += res.num_pages
            for _, g in recs:
                shard.extent = shard.extent.union(g.envelope)

        if previously_dead is None:
            previously_dead = set()
        newly_dead = [rid for rid in delete_ids if rid not in previously_dead]
        manifest.num_records = max(0, manifest.num_records + len(usable) - len(newly_dead))
        manifest.next_record_id = ceiling + len(geoms)
        manifest.version = SHARDS_VERSION  # next_record_id is a v2 feature

        result.write_seconds += write_file(
            self.fs, shards_path(self.name), manifest.to_json().encode("utf-8")
        )
        return result


def compact_sharded_store(fs: SimulatedFilesystem, name: str) -> ShardedCompactionResult:
    """Compact every shard of a sharded store and refresh ``shards.json``.

    Each shard's visible records are re-packed against the **global** grid
    restricted to the shard's owned partitions (exactly the base load's
    replication rule), so global partition ids survive; per-shard extents
    and counts are recomputed from the compacted shards and the global
    record count from the union of surviving record ids.
    """
    manifest, _ = read_shards_manifest(fs, name)
    _recover_global_ceiling(fs, manifest)
    router = ShardRouter(manifest)
    grid = router.grid

    merged = 0
    write_seconds = 0.0
    all_ids: Set[int] = set()
    for shard in manifest.shards:
        with SpatialDataStore.open(fs, shard.store) as store:
            records = list(store.scan())
            merged += len(store.manifest.generations)
        all_ids.update(rid for rid, _ in records)

        cells = _assign_owned(
            grid,
            [_Rec(rid, g) for rid, g in records],
            set(shard.partition_ids),
            f"shard {shard.shard_id}",
        )
        packed = pack_partitions(cells, grid, manifest.page_size)
        # every read replica is rewritten from the same packed pages (and its
        # delta files dropped), so replicas never serve pre-compaction state
        for store_name in [shard.store, *shard.replica_stores]:
            write_seconds += _rewrite_base(
                fs,
                store_name,
                packed,
                manifest.page_size,
                packed.data_extent,
                grid,
                manifest.record_id_ceiling,
            ).write_seconds
        shard.extent = packed.data_extent
        shard.num_records = len(packed.record_ids)
        shard.num_replicas = packed.num_replicas
        shard.num_pages = len(packed.page_metas)
        shard.num_generations = 0

    manifest.num_records = len(all_ids)
    manifest.version = SHARDS_VERSION  # next_record_id is a v2 feature
    write_seconds += write_file(fs, shards_path(name), manifest.to_json().encode("utf-8"))

    return ShardedCompactionResult(
        manifest=manifest,
        merged_generations=merged,
        num_records=len(all_ids),
        write_seconds=write_seconds,
    )
