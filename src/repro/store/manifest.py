"""JSON manifests of a persisted dataset: one per shard, one per store.

Every store has a routing manifest, ``shards.json`` (:class:`ShardsManifest`):
which shard store owns which run of global grid cells, each shard's data
extent and counts, the grid shape and the id ceiling.  A one-shard store's
only shard is the store directory itself.  Both parsers share one front half
that turns any malformed document into a
:class:`~repro.store.format.StoreFormatError`.

A shard's manifest (:class:`StoreManifest`) is its partition-level
metadata: for every grid
partition it records the partition MBR (the union of the *data* actually in
it, which can be tighter than the grid cell), the pages holding its records
and the record count.  Routing prunes *shards* and names page owners with
it; a store query prunes with the packed index alone, whose leaves hold the
very record envelopes the partition data MBRs are unions of — the
two-level pruning §4/§5 of the paper, decided in one structure.

Since manifest **version 2** a store may also carry *delta generations*
(:class:`GenerationInfo`): each incremental append persists its records as a
self-contained delta container + packed delta index (see
:mod:`repro.store.mutable`) and registers them here, together with the
record-id tombstones that hide deleted/updated records in older generations.
Version-1 manifests (no generations) remain readable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..geometry import Envelope
from .format import StoreFormatError

__all__ = [
    "MANIFEST_VERSION",
    "SHARDS_VERSION",
    "GenerationInfo",
    "PartitionInfo",
    "StoreManifest",
    "ShardInfo",
    "ShardsManifest",
    "store_paths",
    "delta_paths",
    "replica_store_name",
    "shard_store_name",
    "shards_path",
]

MANIFEST_VERSION = 2
#: manifest versions this build can read (v1 = no generation support)
SUPPORTED_MANIFEST_VERSIONS = (1, 2)
SHARDS_VERSION = 2
SUPPORTED_SHARDS_VERSIONS = (1, 2)


def store_paths(name: str) -> Dict[str, str]:
    """Canonical file layout of a named store inside a simulated filesystem."""
    base = f"stores/{name}"
    return {
        "data": f"{base}/data.bin",
        "index": f"{base}/index.bin",
        "manifest": f"{base}/manifest.json",
    }


def delta_paths(name: str, gen_id: int) -> Dict[str, str]:
    """File layout of one delta generation of a named store (the base
    generation 0 lives in :func:`store_paths`; deltas sit beside it)."""
    base = f"stores/{name}"
    return {
        "data": f"{base}/delta-{gen_id:04d}.bin",
        "index": f"{base}/delta-{gen_id:04d}.idx",
    }


def shard_store_name(name: str, shard_id: int) -> str:
    """Store name of one shard of a store with several (a normal store
    nested under the parent's directory, so each shard is openable on its
    own; a one-shard store's shard is the store itself)."""
    return f"{name}/shard-{shard_id:04d}"


def replica_store_name(name: str, shard_id: int, replica: int) -> str:
    """Store name of one read replica of a shard — a full copy of the shard
    store written beside it, which serving fails over to when the primary
    is unreadable."""
    return f"{name}/shard-{shard_id:04d}-replica-{replica:02d}"


def shards_path(name: str) -> str:
    """Path of the top-level routing manifest of a sharded store."""
    return f"stores/{name}/shards.json"


_EXTENT = (list, type(None))
#: per manifest document: its format tag, what error messages call it, the
#: versions this build reads, and its top-level keys with their JSON types
_STORE_DOC = (
    "repro.store.manifest", "store manifest", SUPPORTED_MANIFEST_VERSIONS,
    {"name": str, "page_size": int, "num_records": int, "num_pages": int,
     "extent": _EXTENT, "grid": dict, "partitions": list},
)
_SHARDS_DOC = (
    "repro.store.shards", "shards manifest", SUPPORTED_SHARDS_VERSIONS,
    {"name": str, "page_size": int, "num_records": int, "extent": _EXTENT,
     "grid": dict, "shards": list},
)


def _parse(
    text: Union[str, bytes],
    schema: Tuple[str, str, Tuple[int, ...], Dict[str, Any]],
    build: Callable[[Dict], Any],
) -> Any:
    """Decode one manifest document against its *schema* and *build* it —
    the shared front half of both ``from_json`` parsers.

    Bad JSON, a wrong format tag or version, or a missing or ill-typed key
    raises :class:`~repro.store.format.StoreFormatError` (a
    :class:`~repro.store.format.StoreError`), so a corrupted manifest takes
    the serving path's error route — in a distributed open it rides the
    manifest broadcast instead of escaping on one rank.
    """
    fmt, what, versions, keys = schema
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise StoreFormatError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise StoreFormatError(f"not a {fmt} document")
    if doc.get("version") not in versions:
        raise StoreFormatError(
            f"unsupported {what} version {doc.get('version')!r} (supported: {versions})"
        )
    for key, kind in keys.items():
        if not isinstance(doc.get(key), kind):
            raise StoreFormatError(f"{what} has no well-typed {key!r}")
    try:
        return build(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreFormatError(f"malformed {what}: {exc!r}") from exc


def _env_to_json(env: Envelope) -> Optional[List[float]]:
    return None if env.is_empty else list(env.as_tuple())


def _env_from_json(values: Optional[Sequence[float]]) -> Envelope:
    if values is None:
        return Envelope.empty()
    return Envelope.from_doubles(values)


def _partition_to_json(p: "PartitionInfo") -> Dict:
    return {
        "id": p.partition_id,
        "cell_mbr": _env_to_json(p.cell_mbr),
        "data_mbr": _env_to_json(p.data_mbr),
        "pages": p.page_ids,
        "records": p.record_count,
    }


def _partition_from_json(p: Dict) -> "PartitionInfo":
    return PartitionInfo(
        partition_id=p["id"],
        cell_mbr=_env_from_json(p["cell_mbr"]),
        data_mbr=_env_from_json(p["data_mbr"]),
        page_ids=list(p["pages"]),
        record_count=p["records"],
    )


@dataclass
class PartitionInfo:
    """One grid partition of the store."""

    partition_id: int
    #: grid-cell rectangle the partition was derived from
    cell_mbr: Envelope
    #: tight MBR of the records stored in the partition
    data_mbr: Envelope
    #: pages holding this partition's records (pages never span partitions)
    page_ids: List[int] = field(default_factory=list)
    #: number of record replicas stored in the partition
    record_count: int = 0


@dataclass
class GenerationInfo:
    """One delta generation of a mutable store (an incremental append).

    A generation owns a delta page container + packed delta index (paths via
    :func:`delta_paths`) holding the records appended in it, plus the
    record-id *tombstones* written with it: a tombstone at generation ``g``
    hides every occurrence of that record id in generations ``< g`` (deletes
    tombstone only; updates tombstone *and* re-append under the same id).
    A generation may be tombstone-only (``num_pages == 0``), in which case
    no delta files exist.
    """

    gen_id: int
    #: pages in the delta container (0 for tombstone-only generations)
    num_pages: int = 0
    #: distinct logical records appended in this generation
    num_records: int = 0
    #: record replicas packed into the delta (>= num_records)
    num_replicas: int = 0
    #: tight MBR of the appended records (delta-level pruning key)
    extent: Envelope = field(default_factory=Envelope.empty)
    #: record ids this generation deletes/updates out of older generations
    tombstones: List[int] = field(default_factory=list)
    #: the subset of ``tombstones`` re-appended (stored) in this generation —
    #: updates/resurrections, which are therefore *alive* at this generation
    updated: List[int] = field(default_factory=list)
    #: grid partitions of the appended records (same shape as the base list;
    #: page ids are local to this generation's delta container)
    partitions: List[PartitionInfo] = field(default_factory=list)

    def partition_of_page(self) -> Dict[int, int]:
        owner: Dict[int, int] = {}
        for part in self.partitions:
            for pid in part.page_ids:
                owner[pid] = part.partition_id
        return owner


@dataclass
class StoreManifest:
    """Partition manifest of one persisted dataset.

    ``num_records`` stays the record count of the **base** container (what
    the ``data.bin`` header carries); appended stores additionally track
    ``live_records`` (visible logical records across all generations) and
    ``next_record_id`` (the id ceiling appends allocate from).
    """

    name: str
    page_size: int
    num_records: int
    num_pages: int
    extent: Envelope
    grid_rows: int
    grid_cols: int
    partitions: List[PartitionInfo] = field(default_factory=list)
    version: int = MANIFEST_VERSION
    #: delta generations in append order (gen ids 1..N; base is gen 0)
    generations: List[GenerationInfo] = field(default_factory=list)
    #: lowest record id never assigned (None = ``num_records``, the bulk-load
    #: default when no geometry was skipped)
    next_record_id: Optional[int] = None
    #: visible logical records across all generations (None = ``num_records``)
    live_records: Optional[int] = None

    # ------------------------------------------------------------------ #
    @property
    def record_id_ceiling(self) -> int:
        """First record id an append may allocate."""
        return self.num_records if self.next_record_id is None else self.next_record_id

    @property
    def num_live_records(self) -> int:
        """Visible logical records (base + appends − tombstoned)."""
        return self.num_records if self.live_records is None else self.live_records

    def tombstone_generations(self) -> Dict[int, int]:
        """Map each tombstoned record id to the newest generation that
        tombstoned it (occurrences in strictly older generations are dead)."""
        out: Dict[int, int] = {}
        for gen in self.generations:
            for rid in gen.tombstones:
                out[rid] = max(out.get(rid, 0), gen.gen_id)
        return out

    def dead_records(self) -> "set":
        """Record ids currently invisible: tombstoned by their newest
        tombstone generation and **not** re-appended in that same generation
        (an update/resurrection tombstones an id and stores its new version
        in one generation, leaving the id alive)."""
        revived_at: Dict[int, int] = {}
        for gen in self.generations:
            for rid in gen.updated:
                revived_at[rid] = gen.gen_id
        return {
            rid
            for rid, g in self.tombstone_generations().items()
            if revived_at.get(rid) != g
        }

    # ------------------------------------------------------------------ #
    def partition_of_page(self) -> Dict[int, int]:
        """Map every page id to the partition that owns it."""
        owner: Dict[int, int] = {}
        for part in self.partitions:
            for pid in part.page_ids:
                owner[pid] = part.partition_id
        return owner

    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        doc = {
            "format": "repro.store.manifest",
            "version": self.version,
            "name": self.name,
            "page_size": self.page_size,
            "num_records": self.num_records,
            "num_pages": self.num_pages,
            "extent": _env_to_json(self.extent),
            "grid": {"rows": self.grid_rows, "cols": self.grid_cols},
            "partitions": [_partition_to_json(p) for p in self.partitions],
        }
        if self.generations:
            doc["generations"] = [
                {
                    "id": g.gen_id,
                    "num_pages": g.num_pages,
                    "records": g.num_records,
                    "replicas": g.num_replicas,
                    "extent": _env_to_json(g.extent),
                    "tombstones": g.tombstones,
                    "updated": g.updated,
                    "partitions": [_partition_to_json(p) for p in g.partitions],
                }
                for g in self.generations
            ]
        if self.next_record_id is not None:
            doc["next_record_id"] = self.next_record_id
        if self.live_records is not None:
            doc["live_records"] = self.live_records
        return json.dumps(doc, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: Union[str, bytes]) -> "StoreManifest":
        return _parse(text, _STORE_DOC, StoreManifest._from_doc)

    @staticmethod
    def _from_doc(doc: Dict) -> "StoreManifest":
        generations = [
            GenerationInfo(
                gen_id=g["id"],
                num_pages=g["num_pages"],
                num_records=g["records"],
                num_replicas=g["replicas"],
                extent=_env_from_json(g["extent"]),
                tombstones=list(g["tombstones"]),
                updated=list(g.get("updated", [])),
                partitions=[_partition_from_json(p) for p in g["partitions"]],
            )
            for g in doc.get("generations", [])
        ]
        return StoreManifest(
            name=doc["name"],
            page_size=doc["page_size"],
            num_records=doc["num_records"],
            num_pages=doc["num_pages"],
            extent=_env_from_json(doc["extent"]),
            grid_rows=doc["grid"]["rows"],
            grid_cols=doc["grid"]["cols"],
            partitions=[_partition_from_json(p) for p in doc["partitions"]],
            version=doc["version"],
            generations=generations,
            next_record_id=doc.get("next_record_id"),
            live_records=doc.get("live_records"),
        )


@dataclass
class ShardInfo:
    """One shard of a store (a contiguous run of grid cells)."""

    shard_id: int
    #: store name of the shard (pass to ``SpatialDataStore.open``)
    store: str
    #: global grid cells this shard owns: a contiguous run, every cell of
    #: the grid owned by exactly one shard (may be empty)
    partition_ids: List[int] = field(default_factory=list)
    #: tight MBR of the data stored in the shard (routing prunes on this)
    extent: Envelope = field(default_factory=Envelope.empty)
    #: visible logical records in the shard's view (its manifest's live
    #: count: with several shards, deletes broadcast to it count too)
    num_records: int = 0
    #: record replicas in the shard (>= num_records with replication)
    num_replicas: int = 0
    num_pages: int = 0
    #: delta generations currently stacked on the shard store (0 = compact)
    num_generations: int = 0
    #: read-replica store names in failover order (full copies of the shard
    #: store, written by ``bulk_load(read_replicas=n)`` and kept in
    #: sync by the appender and compaction)
    replica_stores: List[str] = field(default_factory=list)


def _shard_to_json(s: "ShardInfo") -> Dict:
    doc = {
        "id": s.shard_id,
        "store": s.store,
        "partitions": s.partition_ids,
        "extent": _env_to_json(s.extent),
        "records": s.num_records,
        "replicas": s.num_replicas,
        "pages": s.num_pages,
        "generations": s.num_generations,
    }
    # written only when present, so replica-less manifests stay byte-stable
    if s.replica_stores:
        doc["replica_stores"] = list(s.replica_stores)
    return doc


@dataclass
class ShardsManifest:
    """Routing manifest (``shards.json``) of a store, one shard or many.

    The store-level counterpart of :class:`StoreManifest`: distributed serving
    first prunes *shards* against the per-shard extents recorded here, then
    lets each shard prune locally with its packed index.  The global grid
    shape is kept so every rank can recompute partition ownership without
    communication.
    """

    name: str
    page_size: int
    #: distinct *visible* logical records across all shards
    num_records: int
    extent: Envelope
    grid_rows: int
    grid_cols: int
    shards: List[ShardInfo] = field(default_factory=list)
    version: int = SHARDS_VERSION
    #: lowest record id never assigned globally (None = ``num_records``)
    next_record_id: Optional[int] = None

    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def record_id_ceiling(self) -> int:
        """First record id a sharded append may allocate."""
        return self.num_records if self.next_record_id is None else self.next_record_id

    def shards_for(self, window: Envelope) -> List[ShardInfo]:
        """Shard-level pruning: shards whose data extent intersects."""
        if window.is_empty:
            return []
        return [s for s in self.shards if not s.extent.is_empty and s.extent.intersects(window)]

    def partition_to_shard(self) -> Dict[int, int]:
        """Map every global partition id to the shard that owns it."""
        owner: Dict[int, int] = {}
        for shard in self.shards:
            for pid in shard.partition_ids:
                owner[pid] = shard.shard_id
        return owner

    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        doc = {
            "format": "repro.store.shards",
            "version": self.version,
            "name": self.name,
            "page_size": self.page_size,
            "num_records": self.num_records,
            "extent": _env_to_json(self.extent),
            "grid": {"rows": self.grid_rows, "cols": self.grid_cols},
            "shards": [_shard_to_json(s) for s in self.shards],
        }
        if self.next_record_id is not None:
            doc["next_record_id"] = self.next_record_id
        return json.dumps(doc, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: Union[str, bytes]) -> "ShardsManifest":
        return _parse(text, _SHARDS_DOC, ShardsManifest._from_doc)

    @staticmethod
    def _from_doc(doc: Dict) -> "ShardsManifest":
        shards = [
            ShardInfo(
                shard_id=s["id"],
                store=s["store"],
                partition_ids=list(s["partitions"]),
                extent=_env_from_json(s["extent"]),
                num_records=s["records"],
                num_replicas=s["replicas"],
                num_pages=s["pages"],
                num_generations=s.get("generations", 0),
                replica_stores=list(s.get("replica_stores", [])),
            )
            for s in doc["shards"]
        ]
        return ShardsManifest(
            name=doc["name"],
            page_size=doc["page_size"],
            num_records=doc["num_records"],
            extent=_env_from_json(doc["extent"]),
            grid_rows=doc["grid"]["rows"],
            grid_cols=doc["grid"]["cols"],
            shards=shards,
            version=doc["version"],
            next_record_id=doc.get("next_record_id"),
        )
