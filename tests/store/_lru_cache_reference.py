"""The LRU page cache that :class:`repro.store.PageCache` (SIEVE) replaced,
kept as an answer oracle — the way ``_refine_reference.py`` keeps the scalar
refine loop.  ``tests/store/test_cache.py`` swaps it into a store and checks
that the store answers the same queries with it and that SIEVE reads no more
pages on a hot-spot stream.  Not used by any serving path.
"""

from collections import OrderedDict
from typing import Any, Optional

from repro.store import CacheStats


class LRUPageCache:
    """Bounded mapping with least-recently-used eviction (``capacity=0``
    disables caching)."""

    def __init__(self, capacity: int, stats: Optional[CacheStats] = None) -> None:
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0")
        self.capacity = capacity
        self.stats = stats if stats is not None else CacheStats()
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def get(self, key: Any) -> Any:
        """Look up *key*, refreshing its recency; counts a hit or a miss."""
        if key in self._entries:
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]
        self.stats.misses += 1
        return None

    def put(self, key: Any, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the LRU entry when full."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        if self.capacity == 0:
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = value
