"""Persistent partitioned spatial datastore (the serving subsystem).

The paper's pipeline — read, parse, partition, index (§4, §5) — is a batch
job; this package persists its output so repeated query traffic never pays
for it again:

``repro.store.format``
    The paged binary container — one layout, the one every writer
    produces: WKB record pages with per-page MBR summaries, a fixed header,
    a page directory and a mandatory per-page CRC32 table.

``repro.store.writer``
    The bulk loader: grid partitioning (each record stored once, in its
    home cell), space-filling-curve record ordering, page packing, index
    construction, and the split
    of the grid into contiguous shard runs routed by ``shards.json`` — every
    store has one; one shard (the store directory itself) is the local case.

``repro.store.mutable``
    Incremental appends and compaction: :class:`StoreAppender` routes each
    record to the shard owning its home cell as a delta generation (delta container + delta
    index + manifest tombstones, tombstones broadcast to every shard);
    :func:`compact_store` bulk-loads the visible records again, ids kept.

``repro.store.manifest``
    The JSON manifests: per shard, which partition owns which pages (and
    the generation list + record-id tombstones); per store, ``shards.json``
    (which shard owns which grid cells).

``repro.store.index_io``
    Flat serialisation of the STR-packed R-tree so opens skip the bulk load.

``repro.store.cache``
    The SIEVE page cache (hit/miss/eviction statistics included).

``repro.store.datastore``
    The :class:`SpatialDataStore` facade: ``open()``, ``range_query()``,
    ``join()``.

``repro.store.engine`` / ``repro.store.scheduler``
    The staged **plan → schedule → refine** query engine every serving entry
    point routes through: :class:`QueryPlanner` (filter phase),
    :class:`IOScheduler` (data-sieved page I/O priced by the cost model) and
    :class:`RefineExecutor` (per-slot decode + newest-version de-dup), run in
    one stage loop by :meth:`SpatialDataStore.query_outcome`.

``repro.store.sharded``
    Distributed serving: :class:`DistributedStoreServer` opens a store's
    shards (listed in ``shards.json``) across ``mpisim`` ranks and serves
    batch range queries and joins SPMD-style, each rank picking the queries
    its shards' extents meet.

``repro.store.frontend``
    :class:`AsyncStoreFrontend` — multiplexes many in-flight query batches
    over one :class:`DistributedStoreServer`, overlapping the route/scatter/
    local-query/gather phases on the virtual clock.
"""

from .cache import CacheStats, PageCache
from .datastore import (
    IO_POLICIES,
    Generation,
    QueryHit,
    SpatialDataStore,
    StoreStats,
)
from .engine import (
    BatchOutcome,
    DeadlineExceeded,
    PlanEntry,
    QueryPlan,
    QueryPlanner,
    RefineExecutor,
)
from .format import (
    PageChecksumError,
    PageKey,
    PageMeta,
    StoreError,
    StoreFormatError,
    StoreHeader,
)
from .frontend import AsyncStoreFrontend, BatchMetrics, FrontendResult
from .page import CachedPage
from .index_io import dump_index, load_index
from .scheduler import (
    DEFAULT_RETRY,
    NO_RETRY,
    IOSchedule,
    IOScheduler,
    RetryPolicy,
    ScheduledRun,
    cost_model_gap,
    read_with_retry,
)
from .manifest import (
    GenerationInfo,
    PartitionInfo,
    ShardInfo,
    ShardsManifest,
    StoreManifest,
    delta_paths,
    replica_store_name,
    shard_store_name,
    shards_path,
    store_paths,
)
from .mutable import (
    AppendResult,
    CompactionResult,
    StoreAppender,
    compact_store,
)
from .sharded import (
    DistributedHit,
    DistributedStoreServer,
    QueryResult,
    ShardError,
    shard_assignment,
)
from .writer import BulkLoadResult, bulk_load, sharded_bulk_load

__all__ = [
    "IO_POLICIES",
    "SpatialDataStore",
    "StoreAppender",
    "AppendResult",
    "CompactionResult",
    "compact_store",
    "Generation",
    "GenerationInfo",
    "PageKey",
    "delta_paths",
    "QueryPlanner",
    "QueryPlan",
    "PlanEntry",
    "RefineExecutor",
    "BatchOutcome",
    "DeadlineExceeded",
    "PageChecksumError",
    "RetryPolicy",
    "DEFAULT_RETRY",
    "NO_RETRY",
    "read_with_retry",
    "replica_store_name",
    "QueryResult",
    "IOScheduler",
    "IOSchedule",
    "ScheduledRun",
    "cost_model_gap",
    "AsyncStoreFrontend",
    "BatchMetrics",
    "FrontendResult",
    "QueryHit",
    "StoreStats",
    "CacheStats",
    "CachedPage",
    "PageCache",
    "StoreError",
    "StoreFormatError",
    "StoreHeader",
    "PageMeta",
    "StoreManifest",
    "PartitionInfo",
    "ShardInfo",
    "ShardsManifest",
    "shard_assignment",
    "shard_store_name",
    "shards_path",
    "store_paths",
    "BulkLoadResult",
    "bulk_load",
    "dump_index",
    "load_index",
    "DistributedHit",
    "DistributedStoreServer",
    "ShardError",
    "sharded_bulk_load",
]
