"""A small least-recently-used cache with hit statistics.

Long-lived serving sessions (:class:`repro.session.Session`) cache tuned
plans, constructed problems and executors across requests; left unbounded
those caches grow with every distinct request ever seen.  This module is the
one bounded-cache implementation they all share: an ordered-dict LRU with a
configurable ``maxsize`` and hit/miss counters that
the session surfaces through :meth:`repro.session.Session.cache_info`.

The cache is **thread-safe**: every operation (including
:meth:`LRUCache.get_or_create`'s factory call) runs under one reentrant
lock, so a session shared across server worker threads
(:class:`repro.server.ReproServer`) cannot corrupt the recency order or
build the same expensive entry twice.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterator

from repro.core.exceptions import InvalidParameterError

#: Sentinel distinguishing "no default given" from ``default=None``.
_MISSING = object()


class LRUCache:
    """Bounded mapping evicting the least-recently-used entry on overflow.

    ``maxsize`` must be at least 1.  Only :meth:`get`
    and :meth:`put` refresh recency; membership tests and :meth:`values`
    observe without touching the LRU order.

    All operations hold one :class:`threading.RLock`.  The lock is reentrant
    because :meth:`get_or_create`'s factory may
    legitimately touch the same cache again from the same thread; holding it
    across the factory also guarantees concurrent ``get_or_create`` calls
    for one key build the value exactly once.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise InvalidParameterError(f"LRU maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __iter__(self) -> Iterator[Hashable]:
        with self._lock:
            return iter(list(self._data))

    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (refreshing recency) or ``default``."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key]
            self.misses += 1
            return default

    def put(self, key: Hashable, value: Any) -> Any:
        """Insert ``key -> value``, evicting the oldest entry on overflow.

        Returns ``value`` so call sites can cache and use in one expression.
        """
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
            return value

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Return the cached value, building (and caching) it on a miss.

        The factory runs under the cache lock, so one slow build blocks (and
        is then shared by) every other thread asking for the same key.
        """
        with self._lock:
            value = self.get(key, _MISSING)
            if value is _MISSING:
                value = self.put(key, factory())
            return value

    def pop(self, key: Hashable, default: Any = _MISSING) -> Any:
        """Remove and return an entry (``default``, when given, if absent)."""
        with self._lock:
            if key in self._data:
                return self._data.pop(key)
        if default is _MISSING:
            raise KeyError(key)
        return default

    def clear(self) -> None:
        """Drop every entry.

        Counters survive a clear so post-shutdown introspection (e.g. a
        closed session's ``cache_info``) still reports lifetime statistics.
        """
        with self._lock:
            self._data.clear()

    def values(self) -> list[Any]:
        """Current values, oldest first (does not refresh recency)."""
        with self._lock:
            return list(self._data.values())

    def info(self) -> dict[str, int]:
        """Counters in the style of :func:`functools.lru_cache`'s cache_info."""
        with self._lock:
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
