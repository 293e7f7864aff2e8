"""Tests for the shared bounded LRU cache."""

import threading

import pytest

from repro.core.exceptions import InvalidParameterError
from repro.utils.lru import LRUCache


class TestLRUCache:
    def test_eviction_order_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes 'a'
        cache.put("c", 3)  # evicts 'b', the least recently used
        assert "b" not in cache and "a" in cache and "c" in cache

    def test_replacement_refreshes_recency_without_counting_an_eviction(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # replaces, and makes 'a' the most recent
        cache.put("c", 3)  # capacity evicts 'b'
        assert cache.get("a") == 10 and "b" not in cache
        assert cache.info()["evictions"] == 1

    def test_counters_and_info(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        info = cache.info()
        assert info["hits"] == 1 and info["misses"] == 1 and info["size"] == 1

    def test_get_or_create_builds_once(self):
        cache = LRUCache(4)
        builds = []
        for _ in range(3):
            cache.get_or_create("k", lambda: builds.append(1) or "v")
        assert len(builds) == 1 and cache.get("k") == "v"

    def test_counters_survive_clear(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert cache.info()["hits"] == 1 and len(cache) == 0

    def test_pop_removes_without_counting_an_eviction(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.pop("a") == 1 and cache.info()["evictions"] == 0
        with pytest.raises(KeyError):
            cache.pop("a")
        assert cache.pop("a", default=None) is None

    def test_zero_maxsize_rejected(self):
        with pytest.raises(InvalidParameterError):
            LRUCache(0)


class TestThreadSafety:
    """The cache is shared by server worker threads; it must stay coherent."""

    def test_concurrent_put_get_keeps_bound_and_accounting(self):
        cache = LRUCache(8)
        threads_n, per_thread = 8, 200

        def worker(tid):
            for i in range(per_thread):
                key = tid * per_thread + i  # every put inserts a new key
                cache.put(key, (tid, i))
                cache.get(key)
                cache.get("missing")

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        info = cache.info()
        assert len(cache) <= 8
        assert info["misses"] >= threads_n * per_thread  # every 'missing' get
        # Every entry that ever left the cache was counted exactly once:
        # inserts == still-cached + evictions.
        assert threads_n * per_thread == len(cache) + info["evictions"]

    def test_get_or_create_builds_once_under_contention(self):
        cache = LRUCache(4)
        builds = []
        barrier = threading.Barrier(8)

        def build():
            builds.append(1)
            return "value"

        def worker():
            barrier.wait()
            assert cache.get_or_create("key", build) == "value"

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(builds) == 1
