"""Session-owned lifecycle of executors and worker teams.

The expensive runtime state behind an executor — worker processes, a
shared-memory arena — must outlive a single ``execute()`` call to be worth
having.  :class:`EngineHost` gives that state an explicit owner with an
explicit lifetime:

* :meth:`EngineHost.executor_for` maps a resolved backend decision
  (backend, the hybrid executor's engine, worker count — registry names
  throughout) to a constructed executor, LRU-cached so repeated requests
  reuse one instance;
* :meth:`EngineHost.pool_for` hands out a
  :class:`repro.runtime.mp_parallel.MPWavefrontPool` — per-request tile
  geometry — on the host's resident
  :class:`repro.runtime.mp_parallel.WorkerTeam` for that worker count: the
  multicore executors run a grid on it without a process ever being
  started per request, per problem or per tile size;
* :meth:`EngineHost.close` tears everything down deterministically.

A host holds one team per worker count it has been asked for (one, in
practice: the count comes from the plan's ``workers``).
:class:`repro.session.Session` owns exactly one host and routes every
execution through it.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.core.exceptions import ExecutionError
from repro.core.pattern import WavefrontProblem
from repro.hardware.system import SystemSpec
from repro.runtime.executor_base import Executor
from repro.runtime.registry import engines_with, fill_engine, get_executor
from repro.utils.lru import LRUCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.runtime.mp_parallel import MPWavefrontPool, WorkerTeam

#: Bound of the executor cache (distinct backend configurations).
MAX_EXECUTORS = 16


class EngineHost:
    """Owner of a session's long-lived execution resources.

    One host serves one system.  Lookups and construction are guarded by an
    internal lock, so concurrent threads cannot corrupt its state; a team's
    arena, however, holds one grid at a time — the borrowing executor's
    :meth:`~repro.runtime.mp_parallel.MPWavefrontPool.run` claims it for the
    request's grid and gives it back before the next request is served.
    :class:`repro.session.Session` enforces that contract by holding its run
    lock across every execution; direct multi-threaded users must serialise
    executions the same way (a second ``run`` on a busy team raises).
    """

    def __init__(self, system: SystemSpec) -> None:
        self.system = system
        self._executors: LRUCache = LRUCache(MAX_EXECUTORS)
        #: worker count -> the resident team of that size.
        self._teams: dict[int, "WorkerTeam"] = {}
        self._lock = threading.RLock()
        self._closed = False
        #: Construction/reuse counters, surfaced by the session's
        #: ``cache_info`` so tests and dashboards can assert reuse.
        self.stats: dict[str, int] = {
            "executors_built": 0,
            "teams_built": 0,
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

        ``backend`` and ``engine`` are registry names;
        :func:`repro.runtime.registry.fill_engine` says which of them fills
        the grid (an unset hybrid engine is the preferred serial engine of
        this environment — the same registry order the tuners resolve their
        plans' engine from) and raises the typed error for a name that is
        not registered, before anything is built.  An engine that runs on a
        worker team is wired back to :meth:`pool_for`, so its team persists
        across calls.
        """
        self._check_open()
        fill = fill_engine(backend, engine)
        workers = max(1, int(workers))
        key = (backend, fill, workers)
        with self._lock:
            cached = self._executors.get(key)
            if cached is not None:
                return cached
            kwargs: dict = {}
            if fill != backend:
                kwargs["engine"] = fill
            if fill in engines_with("multicore"):
                kwargs.update(workers=workers, pool_source=self.pool_for)
            executor = get_executor(backend, self.system, **kwargs)
            self.stats["executors_built"] += 1
            return self._executors.put(key, executor)

    # ------------------------------------------------------------------
    # Worker teams
    # ------------------------------------------------------------------
    def pool_for(
        self, problem: WavefrontProblem, tile: int, workers: int
    ) -> "MPWavefrontPool":
        """The tile geometry of one request on the resident worker team.

        The returned pool is *borrowed*: callers ``run`` a grid on it, and
        ``close()`` leaves the team alone — the team underneath is the
        host's, forked on the first request for its worker count and reused
        by every later one whatever the problem or tile size.  A team whose worker died (``team.broken``)
        is never handed out again: it is closed here — its arena unlinked —
        and a fresh one forked, so one crashed worker costs one failed
        request, never a poisoned session or a leaked segment.
        """
        self._check_open()
        from repro.runtime.mp_parallel import MPWavefrontPool, WorkerTeam

        workers = max(1, int(workers))
        with self._lock:
            self.stats["pool_requests"] += 1
            team = self._teams.get(workers)
            if workers >= 2 and (team is None or team.broken):
                if team is not None:
                    team.close()
                team = self._teams[workers] = WorkerTeam(workers)
                self.stats["teams_built"] += 1
            return MPWavefrontPool(problem, tile=tile, workers=workers, team=team)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def cache_info(self) -> dict[str, dict]:
        """Executor-cache counters, live teams (worker pids) and build statistics."""
        with self._lock:
            return {
                "executors": self._executors.info(),
                "teams": {
                    "size": len(self._teams),
                    "pids": [pid for team in self._teams.values() for pid in team.pids()],
                },
                "builds": dict(self.stats),
            }

    def close(self) -> None:
        """Stop every team (unlinking its arena) and drop every executor."""
        with self._lock:
            if self._closed:
                return
            for team in self._teams.values():
                team.close()
            self._teams.clear()
            self._executors.clear()
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutionError("EngineHost used after close()")

    def __enter__(self) -> "EngineHost":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
