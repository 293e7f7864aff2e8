"""The tiered result cache: memory LRU → disk store → solve.

:class:`ResultCache` is what the session consults on every cacheable
:meth:`repro.session.Session.solve`:

1. **memory** — a bounded :class:`repro.utils.lru.LRUCache` of live
   :class:`~repro.runtime.result.ExecutionResult` objects (shared,
   read-only — every reader of a cached answer shares the one object);
2. **disk** — the persistent :class:`~repro.cache.store.DiskCacheStore`,
   surviving restarts and shared across processes pointing at one
   ``cache_dir``; disk hits are promoted into the memory tier;
3. **solve** — the caller's closure, executed exactly once per in-flight
   digest (*stampede protection*): concurrent misses on one key elect a
   leader, every follower blocks on the leader's outcome instead of
   re-solving, and a failing solve propagates its error to the whole group.

A miss is **answered, then written**: the leader publishes its result to
memory, followers and caller first; a writer thread persists it afterwards.
A lookup finds a pending entry before it touches disk (a disk hit).  Past
:data:`MAX_PENDING_WRITES` the leader writes inline; :meth:`ResultCache.flush`
waits for the writes, so a crash loses at most the pending entries.  A
failed write never fails the answer: it is counted as ``write_errors``.

Counters distinguish the tiers (``memory_hits`` / ``disk_hits`` /
``coalesced`` / ``misses``) so the ``/metrics`` page can show *where*
answers come from, and ``hit_rate`` condenses them into the number the CI
cache gate replays a committed trace against.  The memory tier is bounded in
entries; ``memory.bytes`` and ``pending.bytes`` say what those entries hold
(grids plus witnesses), since one dim-1024 grid alone is 8 MiB.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.cache.keys import CacheKey
from repro.core.exceptions import DeadlineError
from repro.cache.store import (
    DEFAULT_MAX_BYTES,
    DEFAULT_MAX_ENTRIES,
    DiskCacheStore,
)
from repro.runtime.result import ExecutionResult
from repro.utils.logging import get_logger
from repro.utils.lru import LRUCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.executor_base import Deadline

#: Default bound of the in-memory result tier (entries, not bytes).
DEFAULT_MEMORY_ENTRIES = 64

#: Bound of answered-but-unwritten entries; past it the leader writes inline.
MAX_PENDING_WRITES = 16

#: Sentinel distinguishing "not cached" from a cached ``None``.
_MISS = object()


def _result_bytes(result: ExecutionResult) -> int:
    """Bytes of the arrays one answer holds: its grid and its witness."""
    total = result.grid.values.nbytes if result.grid is not None else 0
    return total + (result.witness.nbytes if result.witness is not None else 0)


class _InFlight:
    """The rendezvous of one in-progress solve (leader + followers)."""

    __slots__ = ("done", "result", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: ExecutionResult | None = None
        self.error: BaseException | None = None


class ResultCache:
    """Content-addressed result cache layered memory → disk → solve.

    ``directory`` roots the persistent tier (created when missing);
    ``max_entries`` / ``max_bytes`` bound it, ``memory_entries`` bounds the
    in-process tier.  All methods are thread-safe; opening a directory with
    an incompatible format version raises
    :class:`repro.core.exceptions.CacheError` at construction.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    ) -> None:
        self.store = DiskCacheStore(directory, max_entries, max_bytes)
        self._memory: LRUCache = LRUCache(memory_entries, weigh=_result_bytes)
        self._lock = threading.Lock()
        self._inflight: dict[str, _InFlight] = {}
        #: digest -> (result, request payload) answered but not yet on disk,
        #: oldest first; the writer thread runs exactly while it is non-empty.
        self._pending: dict[str, tuple[ExecutionResult, dict]] = {}
        self._written = threading.Condition(self._lock)
        self.lookups = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.coalesced = 0
        self.misses = 0
        self.write_errors = 0

    # ------------------------------------------------------------------
    def get_or_solve(
        self,
        key: CacheKey,
        solve: Callable[[], ExecutionResult],
        deadline: Deadline | None = None,
    ) -> ExecutionResult:
        """Answer one request from the nearest tier, solving at most once.

        Memory hits return immediately; disk hits are decoded and promoted;
        a miss runs ``solve()`` under this key's in-flight slot, so
        concurrent misses on the same digest wait for the one leader
        instead of duplicating the computation (the leader's exception, if
        any, is re-raised in every waiter).  A waiter waits no later than
        its own ``deadline``: past it, a
        :class:`~repro.core.exceptions.DeadlineError`.
        """
        digest = key.digest
        while True:
            with self._lock:
                self.lookups += 1
                cached = self._memory.get(digest, _MISS)
                if cached is not _MISS:
                    self.memory_hits += 1
                    return cached
                pending = self._pending.get(digest)
                if pending is not None:
                    # Answered, not yet written: the disk tier's entry-to-be.
                    self.disk_hits += 1
                    return self._memory.put(digest, pending[0])
                flight = self._inflight.get(digest)
                if flight is None:
                    flight = self._inflight[digest] = _InFlight()
                    leader = True
                else:
                    leader = False
            if not leader:
                if not flight.done.wait(None if deadline is None else deadline.remaining()):
                    raise DeadlineError(
                        "the deadline passed while the request waited for a "
                        "concurrent solve of the same key"
                    )
                with self._lock:
                    if flight.error is None:
                        self.coalesced += 1
                if flight.error is not None:
                    raise flight.error
                if flight.result is not None:
                    return flight.result
                # The leader's entry was already retired without a result
                # (shouldn't happen, but looping is always correct).
                continue
            try:
                result = self._load_or_solve(digest, key, solve)
            except BaseException as error:
                flight.error = error
                raise
            else:
                flight.result = result
                return result
            finally:
                with self._lock:
                    self._inflight.pop(digest, None)
                flight.done.set()

    def _load_or_solve(
        self, digest: str, key: CacheKey, solve: Callable[[], ExecutionResult]
    ) -> ExecutionResult:
        """The leader's path: disk lookup, then the real computation."""
        from_disk = self.store.get(digest)
        if from_disk is not None:
            with self._lock:
                self.disk_hits += 1
                self._memory.put(digest, from_disk)
            return from_disk
        result = solve()
        with self._lock:
            self.misses += 1
            if result.grid is None:
                # Grid-less (simulate-mode) answers are never persisted: they
                # carry no bit-exact payload worth addressing by content.
                return result
            self._memory.put(digest, result)
            deferred = len(self._pending) < MAX_PENDING_WRITES
            if deferred:
                start_writer = not self._pending
                self._pending[digest] = (result, key.payload)
        if not deferred:
            self._write(digest, result, key.payload)
        elif start_writer:
            # Not a daemon: interpreter exit waits for the pending writes.
            threading.Thread(target=self._write_pending, name="repro-cache-writer").start()
        return result

    def _write_pending(self) -> None:
        """The writer thread: persist pending entries oldest first, then exit."""
        while True:
            with self._lock:
                digest, (result, request) = next(iter(self._pending.items()))
            self._write(digest, result, request)
            with self._lock:
                del self._pending[digest]
                if not self._pending:
                    self._written.notify_all()
                    return

    def _write(self, digest: str, result: ExecutionResult, request: dict) -> None:
        """Persist one answered entry; a failure is counted, never raised."""
        try:
            self.store.put(digest, result, request=request)
        except Exception:  # noqa: BLE001 - the answer was already served
            get_logger("cache").exception("cache write of %s failed", digest[:12])
            with self._lock:
                self.write_errors += 1

    def flush(self) -> None:
        """Block until every pending entry is written (or counted as failed)."""
        with self._written:
            while self._pending:
                self._written.wait()

    def peek(self, key: CacheKey) -> ExecutionResult | None:
        """The memory tier's answer for ``key``, or ``None``; never disk or solve.

        Only a hit is counted: a miss is counted by the caller's fallback
        :meth:`get_or_solve`.
        """
        with self._lock:
            if key.digest not in self._memory:
                return None
            self.lookups += 1
            self.memory_hits += 1
            return self._memory.get(key.digest)

    # ------------------------------------------------------------------
    def clear_memory(self) -> None:
        """Drop the in-process tier (the disk tier is untouched)."""
        self._memory.clear()

    def info(self) -> dict:
        """JSON-safe counters of every tier (the ``/metrics`` cache section)."""
        with self._lock:
            served = self.memory_hits + self.disk_hits + self.coalesced
            out = {
                "lookups": self.lookups,
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "coalesced": self.coalesced,
                "misses": self.misses,
                "hit_rate": served / self.lookups if self.lookups else 0.0,
                "memory": self._memory.info(),
                "pending": {
                    "entries": len(self._pending),
                    "bytes": sum(_result_bytes(r) for r, _ in self._pending.values()),
                },
            }
        out["disk"] = {**self.store.info(), "write_errors": self.write_errors}
        return out
