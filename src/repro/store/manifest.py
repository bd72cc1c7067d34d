"""JSON manifests of a persisted dataset: one per shard, one per store.

Every store has a routing manifest, ``shards.json`` (:class:`ShardsManifest`):
which shard store owns which run of global grid cells, each shard's data
extent and counts, the grid shape and the id ceiling.  A one-shard store's
only shard is the store directory itself.  Both parsers share one front half
that turns any malformed document into a
:class:`~repro.store.format.StoreFormatError`; each reads exactly one
version, the one its writers emit, and requires the id ceiling
(``next_record_id``) every writer records.

A shard's manifest (:class:`StoreManifest`) is its partition-level
metadata: for every grid
partition it records the partition MBR (the union of the *data* actually in
it, which can be tighter than the grid cell), the pages holding its records
and the record count.  Routing prunes *shards* and names page owners with
it; a store query prunes with the packed index alone, whose leaves hold the
very record envelopes the partition data MBRs are unions of — the
two-level pruning §4/§5 of the paper, decided in one structure.

A shard manifest may also carry *delta generations* (:class:`GenerationInfo`):
each incremental append persists its records as a self-contained delta
container, packed delta index inside (see :mod:`repro.store.mutable`), and
registers them here, together with the record-id tombstones that hide
deleted/updated records in older generations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
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
SHARDS_VERSION = 2


def store_paths(name: str) -> Dict[str, str]:
    """Canonical file layout of a named store inside a simulated filesystem."""
    base = f"stores/{name}"
    return {
        "data": f"{base}/data.bin",
        "manifest": f"{base}/manifest.json",
    }


def delta_paths(name: str, gen_id: int) -> Dict[str, str]:
    """File layout of one delta generation of a named store — its one
    container (the base generation 0 lives in :func:`store_paths`; deltas
    sit beside it)."""
    return {"data": f"stores/{name}/delta-{gen_id:04d}.bin"}


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
#: version this build reads, and its top-level keys with their JSON types
_STORE_DOC = (
    "repro.store.manifest", "store manifest", MANIFEST_VERSION,
    {"name": str, "page_size": int, "num_records": int, "num_pages": int,
     "extent": _EXTENT, "grid": dict, "partitions": list, "next_record_id": int},
)
_SHARDS_DOC = (
    "repro.store.shards", "shards manifest", SHARDS_VERSION,
    {"name": str, "page_size": int, "num_records": int, "extent": _EXTENT,
     "grid": dict, "shards": list, "next_record_id": int},
)


def _parse(
    text: Union[str, bytes],
    schema: Tuple[str, str, int, Dict[str, Any]],
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
    fmt, what, version, keys = schema
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise StoreFormatError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise StoreFormatError(f"not a {fmt} document")
    if doc.get("version") != version:
        raise StoreFormatError(
            f"unsupported {what} version {doc.get('version')!r} (expected {version})"
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


#: a key's ``(encode, decode)`` pair: an envelope, a list of plain values
#: (``list`` type-checks it on the way in), a list of records
_ENV = (_env_to_json, _env_from_json)
_LIST = (None, list)


def _records(cls: type) -> Tuple[Callable, Callable]:
    return (lambda items: [_to_doc(item) for item in items],
            lambda items: [_from_doc(cls, item) for item in items])


def _json_codec(*keys: Union[str, Tuple[str, Tuple]]) -> Callable[[type], type]:
    """Class decorator: the JSON codec of a manifest record, one key per
    dataclass field in field order (a count mismatch fails at import).

    ``"grid.rows"`` nests under ``grid``; a trailing ``?`` marks a key the
    document leaves out while its field is empty (``None`` or ``[]``); a
    ``(key, (encode, decode))`` pair converts the value each way (``None``
    passes it as is).  The keys compile once into ``cls._JSON``, rows of
    ``(field, outer, inner, optional, encode, decode)``.
    """
    def attach(cls: type) -> type:
        names = [f.name for f in fields(cls)]
        if len(names) != len(keys):
            raise TypeError(f"{cls.__name__} has {len(names)} fields but {len(keys)} JSON keys")
        rows = []
        for name, spec in zip(names, keys):
            key, (encode, decode) = (spec, (None, None)) if isinstance(spec, str) else spec
            outer, _, inner = key.rstrip("?").rpartition(".")
            rows.append((name, outer, inner, key.endswith("?"), encode, decode))
        cls._JSON = tuple(rows)  # type: ignore[attr-defined]
        return cls
    return attach


@_json_codec("id", ("cell_mbr", _ENV), ("data_mbr", _ENV), ("pages", _LIST), "records")
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
    #: number of records stored in the partition (its home cell's)
    record_count: int = 0


@_json_codec("id", "num_pages", "records", ("extent", _ENV),
             ("tombstones", _LIST), ("updated", _LIST), ("partitions", _records(PartitionInfo)))
@dataclass
class GenerationInfo:
    """One delta generation of a mutable store (an incremental append).

    A generation owns a delta container, its packed index inside (path via
    :func:`delta_paths`), holding the records appended in it, plus the
    record-id *tombstones* written with it: a tombstone at generation ``g``
    hides every occurrence of that record id in generations ``< g`` (deletes
    tombstone only; updates tombstone *and* re-append under the same id).
    A generation may be tombstone-only (``num_pages == 0``), in which case
    no delta container exists.
    """

    gen_id: int
    #: pages in the delta container (0 for tombstone-only generations)
    num_pages: int = 0
    #: distinct logical records appended in this generation
    num_records: int = 0
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
        """Map every page id to the partition that owns it."""
        owner: Dict[int, int] = {}
        for part in self.partitions:
            for pid in part.page_ids:
                owner[pid] = part.partition_id
        return owner


@_json_codec("name", "page_size", "num_records", "num_pages", ("extent", _ENV),
             "grid.rows", "grid.cols", "next_record_id", ("partitions", _records(PartitionInfo)),
             ("generations?", _records(GenerationInfo)), "live_records?")
@dataclass
class StoreManifest:
    """Partition manifest of one persisted dataset.

    ``num_records`` stays the record count of the **base** container (what
    the ``data.bin`` header carries); ``next_record_id`` is the id ceiling
    appends allocate from, and appended stores additionally track
    ``live_records`` (visible logical records across all generations).
    """

    name: str
    page_size: int
    num_records: int
    num_pages: int
    extent: Envelope
    grid_rows: int
    grid_cols: int
    #: lowest record id never assigned (the first one an append may allocate)
    next_record_id: int
    partitions: List[PartitionInfo] = field(default_factory=list)
    #: delta generations in append order (gen ids 1..N; base is gen 0)
    generations: List[GenerationInfo] = field(default_factory=list)
    #: visible logical records across all generations (None = ``num_records``)
    live_records: Optional[int] = None

    # ------------------------------------------------------------------ #
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
    partition_of_page = GenerationInfo.partition_of_page

    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        return _dump("repro.store.manifest", MANIFEST_VERSION, self)

    @staticmethod
    def from_json(text: Union[str, bytes]) -> "StoreManifest":
        return _parse(text, _STORE_DOC, lambda doc: _from_doc(StoreManifest, doc))


@_json_codec("id", "store", ("partitions", _LIST), ("extent", _ENV), "records",
             "pages", "generations", ("replica_stores?", _LIST))
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
    num_pages: int = 0
    #: delta generations currently stacked on the shard store (0 = compact)
    num_generations: int = 0
    #: read-replica store names in failover order (full copies of the shard
    #: store, written by ``bulk_load(read_replicas=n)`` and kept in
    #: sync by the appender and compaction)
    replica_stores: List[str] = field(default_factory=list)


@_json_codec("name", "page_size", "num_records", ("extent", _ENV), "grid.rows",
             "grid.cols", "next_record_id", ("shards", _records(ShardInfo)))
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
    #: lowest record id never assigned globally
    next_record_id: int
    shards: List[ShardInfo] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def partition_to_shard(self) -> Dict[int, int]:
        """Map every global partition id to the shard that owns it."""
        owner: Dict[int, int] = {}
        for shard in self.shards:
            for pid in shard.partition_ids:
                owner[pid] = shard.shard_id
        return owner

    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        return _dump("repro.store.shards", SHARDS_VERSION, self)

    @staticmethod
    def from_json(text: Union[str, bytes]) -> "ShardsManifest":
        """Parse ``shards.json``.  Besides the shared checks, shard ids must
        run ``0..n-1`` in list order and every grid cell must be owned by
        exactly one shard: routing and de-duplication index shards by id and
        take each cell's records from its one owner."""
        return _parse(text, _SHARDS_DOC, ShardsManifest._from_doc)

    @staticmethod
    def _from_doc(doc: Dict) -> "ShardsManifest":
        layout = _from_doc(ShardsManifest, doc)
        if [s.shard_id for s in layout.shards] != list(range(layout.num_shards)):
            raise ValueError("shard ids are not 0..n-1 in list order")
        rows, cols = layout.grid_rows, layout.grid_cols
        if sorted(pid for s in layout.shards for pid in s.partition_ids) != list(range(rows * cols)):
            raise ValueError(f"the {rows}x{cols} grid's cells are not each owned by one shard")
        return layout


# --------------------------------------------------------------------------- #
# the JSON codec of every manifest record, driven by each class's ``_JSON``
# --------------------------------------------------------------------------- #
def _to_doc(record: Any) -> Dict[str, Any]:
    """*record* as its JSON object: each field under its key, an envelope as
    ``[minx, miny, maxx, maxy]`` or ``null``, a list of records as a list of
    objects."""
    doc: Dict[str, Any] = {}
    for name, outer, inner, optional, encode, _ in record._JSON:
        value = getattr(record, name)
        if optional and value in (None, []):
            continue
        if encode is not None:
            value = encode(value)
        (doc.setdefault(outer, {}) if outer else doc)[inner] = value
    return doc


def _dump(fmt: str, version: int, record: Any) -> str:
    return json.dumps(dict(_to_doc(record), format=fmt, version=version), indent=2, sort_keys=True)


def _from_doc(cls: type, doc: Dict[str, Any]) -> Any:
    """The *cls* record of JSON object *doc* (:func:`_to_doc` inverted): a
    missing key is a :class:`KeyError` unless it is optional."""
    values: Dict[str, Any] = {}
    for name, outer, inner, optional, _, decode in cls._JSON:  # type: ignore[attr-defined]
        scope = doc[outer] if outer else doc
        if optional and inner not in scope:
            continue
        value = scope[inner]
        values[name] = value if decode is None else decode(value)
    return cls(**values)
