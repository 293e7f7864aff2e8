"""Session-owned lifecycle of executors and worker pools.

The expensive runtime state behind an executor — worker-process pools,
shared-memory segments — must outlive a single ``execute()`` call to be
worth having.  :class:`EngineHost` gives that state an explicit owner with
an explicit lifetime:

* :meth:`EngineHost.executor_for` maps a resolved backend decision
  (strategy name, hybrid CPU engine, worker count) to a constructed
  executor, cached so repeated requests reuse one instance;
* :meth:`EngineHost.pool_for` hands out persistent
  :class:`repro.runtime.mp_parallel.MPWavefrontPool` instances keyed by
  (problem, tile, workers) — the multicore executors *borrow* these pools
  (bind a grid, run, release) instead of starting worker processes per
  request;
* :meth:`EngineHost.close` tears everything down deterministically.

Both caches are LRU-bounded (:class:`repro.utils.lru.LRUCache`); an evicted
pool is closed by the eviction hook, so a long-lived serving session cannot
accumulate worker processes without limit.  :class:`repro.session.Session`
owns exactly one host and routes every execution through it.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.autotuner.protocol import split_backend
from repro.core.exceptions import ExecutionError
from repro.core.pattern import WavefrontProblem
from repro.hardware.costmodel import CostConstants
from repro.hardware.system import SystemSpec
from repro.runtime.executor_base import Executor
from repro.utils.lru import LRUCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.runtime.mp_parallel import MPWavefrontPool

#: Default bound of the executor cache (distinct backend configurations).
DEFAULT_MAX_EXECUTORS = 16
#: Default bound of the worker-pool cache.  Pools are heavyweight (worker
#: processes + a shared-memory segment sized for the problem), so the
#: default keeps only a handful warm; eviction closes the pool.
DEFAULT_MAX_POOLS = 4


class EngineHost:
    """Owner of a session's long-lived execution resources.

    One host serves one system.  Cache lookups and construction are guarded
    by an internal lock, so concurrent threads cannot corrupt the LRU state;
    pools, however, remain single-request resources — the borrowing executor
    binds the request's grid, runs, and releases before the next request is
    served.  :class:`repro.session.Session` enforces that contract by
    holding its run lock across every execution; direct multi-threaded users
    must serialise executions the same way.
    """

    def __init__(
        self,
        system: SystemSpec,
        constants: CostConstants | None = None,
        max_executors: int = DEFAULT_MAX_EXECUTORS,
        max_pools: int = DEFAULT_MAX_POOLS,
    ) -> None:
        self.system = system
        self.constants = constants
        self._executors: LRUCache = LRUCache(max_executors)
        self._pools: LRUCache = LRUCache(max_pools, on_evict=self._evict_pool)
        self._lock = threading.RLock()
        self._closed = False
        #: Construction/reuse counters, surfaced by the session's
        #: ``cache_info`` so tests and dashboards can assert reuse.
        self.stats: dict[str, int] = {
            "executors_built": 0,
            "pools_built": 0,
            "pool_requests": 0,
        }

    # ------------------------------------------------------------------
    # Executors
    # ------------------------------------------------------------------
    def executor_for(
        self,
        backend: str,
        engine: str | None = None,
        workers: int = 1,
    ) -> Executor:
        """The cached executor behind one resolved backend decision.

        ``backend`` is an executor strategy name or a ``hybrid-<engine>``
        alias; an explicit ``engine`` wins over the alias.  For the hybrid
        executor an unspecified engine defaults to the preferred serial
        engine of this environment (vectorized when NumPy is available) —
        the same registry order the tuners resolve their plans' engine from.
        The multicore executors are wired back to :meth:`pool_for`, so
        their worker pools persist across calls.
        """
        self._check_open()
        strategy, alias_engine = split_backend(backend)
        engine = engine if engine is not None else alias_engine
        workers = max(1, int(workers))
        key = (strategy, engine, workers)
        with self._lock:
            cached = self._executors.get(key)
            if cached is not None:
                return cached
            executor = self._build_executor(strategy, engine, workers)
            self.stats["executors_built"] += 1
            return self._executors.put(key, executor)

    def _build_executor(self, strategy: str, engine: str | None, workers: int) -> Executor:
        """Construct the executor for one (strategy, engine, workers) key."""
        from repro.runtime.registry import available_serial_engines, engines_with, get_executor

        kwargs: dict = {}
        if strategy == "hybrid":
            kwargs["cpu_engine"] = (
                engine if engine is not None else available_serial_engines()[0]
            )
        if strategy == "hybrid" or strategy in engines_with("requires_shm"):
            # Engines that can run on worker pools borrow the host's.
            kwargs.update(workers=workers, pool_source=self.pool_for)
        return get_executor(strategy, self.system, self.constants, **kwargs)

    # ------------------------------------------------------------------
    # Worker pools
    # ------------------------------------------------------------------
    def pool_for(
        self, problem: WavefrontProblem, tile: int, workers: int
    ) -> "MPWavefrontPool":
        """A persistent worker pool for one (problem, tile, workers) triple.

        The returned pool is *borrowed*: callers bind a grid, run, and
        release — closing is the host's job (on eviction or
        :meth:`close`).  The cache key includes the problem's identity, so
        a recycled ``id()`` from a garbage-collected problem can never
        alias (the cached entry keeps its problem alive and is compared
        by identity before reuse).  A cached pool whose worker died
        (``pool.broken``) is never handed out again: a fresh pool replaces
        it and the LRU ``put`` eviction hook closes the broken one —
        unlinking its shared-memory segment — so one crashed worker costs
        one failed request, never a poisoned session or a leaked segment.
        """
        self._check_open()
        from repro.runtime.mp_parallel import MPWavefrontPool

        with self._lock:
            self.stats["pool_requests"] += 1
            key = (id(problem), int(tile), max(1, int(workers)))
            pool = self._pools.get(key)
            if (
                pool is not None
                and pool.problem is problem
                and not pool.is_bound
                and not pool.broken
            ):
                return pool
            pool = MPWavefrontPool(problem, tile=tile, workers=max(1, int(workers)))
            self.stats["pools_built"] += 1
            return self._pools.put(key, pool)

    @staticmethod
    def _evict_pool(key, pool) -> None:
        """Eviction hook: close the pool leaving the cache."""
        pool.close()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def cache_info(self) -> dict[str, dict[str, int]]:
        """Size/hit counters of both caches plus the build statistics."""
        return {
            "executors": self._executors.info(),
            "pools": self._pools.info(),
            "builds": dict(self.stats),
        }

    def close(self) -> None:
        """Shut every cached pool down and drop every cached executor."""
        with self._lock:
            if self._closed:
                return
            self._pools.clear()  # eviction hook closes each pool
            self._executors.clear()
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutionError("EngineHost used after close()")

    def __enter__(self) -> "EngineHost":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
