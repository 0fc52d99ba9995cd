"""The one bounded, thread-safe LRU every cache in the package uses.

Geometry plans (:mod:`repro.core.plan`), the serving engine's result
cache, and the calibration resolver all memoize content-keyed values
behind the same lock/evict/count logic. Each instance reports its
hits and misses in ``info()`` and, when metrics are on, as
``cache.lookups_total{cache=<name>, result=hit|miss}``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Generic, Hashable, Optional, TypeVar

from repro.obs import get_registry, metrics_enabled

V = TypeVar("V")


class BoundedLRU(Generic[V]):
    """Least-recently-used map of at most ``max_entries`` values.

    ``max_entries <= 0`` disables the cache: ``get`` always misses
    without counting and ``put`` is a no-op, so callers need no
    cache-off branch.
    """

    def __init__(self, name: str, max_entries: int) -> None:
        self.name = name
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key: Hashable) -> Optional[V]:
        """The value under ``key`` (refreshing its recency), or ``None``."""
        if self.max_entries <= 0:
            return None
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
        if metrics_enabled():
            get_registry().counter(
                "cache.lookups_total",
                cache=self.name,
                result="miss" if value is None else "hit",
            ).inc()
        return value

    def put(self, key: Hashable, value: V) -> None:
        """Store ``value``, evicting the least recently used overflow."""
        if self.max_entries <= 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self, reset_counters: bool = True) -> None:
        """Drop every entry and, unless told otherwise, zero the counters."""
        with self._lock:
            self._entries.clear()
            if reset_counters:
                self._hits = 0
                self._misses = 0

    def info(self) -> Dict[str, Any]:
        """Hits, misses, size, bound, and ``hit_rate`` (``None`` before
        the first probe: 0/0 is no data, not 0%)."""
        with self._lock:
            hits, misses, size = self._hits, self._misses, len(self._entries)
        probes = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "size": size,
            "max": self.max_entries,
            "hit_rate": round(hits / probes, 4) if probes else None,
        }
