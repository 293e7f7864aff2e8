"""Disk-backed bounded store of execution results, one ``.npz`` per entry.

On-disk layout (documented in ``docs/caching.md``)::

    <cache_dir>/
        cache_format.json       # {"format_version": 1} — whole-directory marker
        <sha256-digest>.npz     # one entry: JSON header + raw grid arrays

Each entry is a single NumPy ``.npz`` archive holding a JSON header (the
result's scalar fields plus the request payload that produced it) and the
result's raw arrays (``values``, optional ``witness``) — bit-exact, no float
round-tripping through text.  Entries written before the grid became
values-only also hold ``meta`` / ``payload`` members (all zeros); they are
not read.

Durability contract:

* **atomic writes** — entries are written to a temporary file in the same
  directory and ``os.replace``-d into place, so a reader can never observe
  a half-written (torn) entry, and a crash mid-write leaves at most a
  ``*.tmp`` file the next open sweeps away;
* **corruption-tolerant reads** — a truncated, garbage or vanished entry is
  a *miss*: it is counted (``corrupt_dropped``), deleted (repaired) and the
  caller re-solves; only a deliberately incompatible ``format_version``
  raises :class:`repro.core.exceptions.CacheError`;
* **bounded** — ``max_entries`` / ``max_bytes`` caps; overflow evicts the
  least-recently-used entries (``evictions`` counter).
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.core.exceptions import CacheError, InvalidParameterError
from repro.core.grid import WavefrontGrid
from repro.core.params import InputParams, TunableParams
from repro.hardware.costmodel import PhaseBreakdown
from repro.runtime.result import ExecutionResult

#: Layout version of the on-disk cache (directory marker and every entry).
CACHE_FORMAT_VERSION = 1

#: Name of the whole-directory format marker file.
FORMAT_MARKER = "cache_format.json"

#: Default bound on the number of persisted entries.
DEFAULT_MAX_ENTRIES = 1024

#: Default bound on the total persisted bytes (256 MiB).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


def encode_result(result: ExecutionResult, request: dict | None = None) -> dict:
    """Split one result into a JSON-safe header and raw arrays.

    Returns the ``np.savez`` keyword mapping: a ``header`` JSON string plus
    the grid arrays.  ``request`` (the canonical key payload) is embedded so
    every entry names the request it answers.
    """
    header = {
        "format_version": CACHE_FORMAT_VERSION,
        "request": request,
        "params": {
            "dim": result.params.dim,
            "tsize": float(result.params.tsize),
            "dsize": result.params.dsize,
        },
        "tunables": {k: int(v) for k, v in result.tunables.features().items()},
        "system": result.system,
        "mode": result.mode,
        "rtime": result.rtime,
        "wall_time": result.wall_time,
        "stats": result.stats,
        "breakdown": {
            f.name: getattr(result.breakdown, f.name)
            for f in dataclasses.fields(PhaseBreakdown)
        },
        "grid": None,
        "witness": None,
    }
    arrays: dict[str, np.ndarray] = {}
    if result.grid is not None:
        header["grid"] = {
            "dim": result.grid.dim,
            "dsize": result.grid.dsize,
            "dtype": str(result.grid.values.dtype),
        }
        arrays["values"] = result.grid.values
    if result.witness is not None:
        # Witness arrays are raw npz members like the grid — bit-exact, no
        # text round-tripping.  Absence stays representable (old entries and
        # witness-free kernels decode to None), so the format version holds.
        header["witness"] = {"dtype": str(result.witness.dtype)}
        arrays["witness"] = result.witness
    arrays["header"] = np.frombuffer(
        json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    return arrays


def decode_result(archive) -> ExecutionResult:
    """Rebuild the :class:`ExecutionResult` of one loaded ``.npz`` archive.

    Raises :class:`CacheError` on an incompatible entry ``format_version``;
    any other malformation (missing arrays, undecodable header) raises the
    underlying exception for the store to classify as corruption.
    """
    header = json.loads(bytes(archive["header"]).decode("utf-8"))
    version = header.get("format_version")
    if version != CACHE_FORMAT_VERSION:
        raise CacheError(
            f"cache entry has unsupported format version {version!r} "
            f"(expected {CACHE_FORMAT_VERSION}); clear the cache directory "
            "or point --cache-dir somewhere else"
        )
    p = header["params"]
    grid = None
    if header["grid"] is not None:
        g = header["grid"]
        grid = WavefrontGrid(int(g["dim"]), int(g["dsize"]), dtype=np.dtype(g["dtype"]))
        grid.values[...] = archive["values"]
    witness = None
    if header.get("witness") is not None:
        witness = np.asarray(
            archive["witness"], dtype=np.dtype(header["witness"]["dtype"])
        )
    return ExecutionResult(
        params=InputParams(dim=int(p["dim"]), tsize=float(p["tsize"]), dsize=int(p["dsize"])),
        tunables=TunableParams(**{k: int(v) for k, v in header["tunables"].items()}),
        system=str(header["system"]),
        mode=str(header["mode"]),
        rtime=float(header["rtime"]),
        breakdown=PhaseBreakdown(**header["breakdown"]),
        grid=grid,
        wall_time=float(header["wall_time"]),
        stats=dict(header["stats"]),
        witness=witness,
    )


class DiskCacheStore:
    """Bounded, atomic, corruption-tolerant directory of result entries.

    One store owns one directory.  ``get``/``put`` are thread-safe (one
    lock); eviction is LRU over this process's accesses, seeded oldest-first
    from file modification times at open.  Opening a directory written under
    a different :data:`CACHE_FORMAT_VERSION` raises :class:`CacheError`
    immediately — before any request is served from incompatible bytes.
    """

    def __init__(
        self,
        directory: str | Path,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        if max_entries < 1:
            raise InvalidParameterError(
                f"cache max_entries must be >= 1, got {max_entries}"
            )
        if max_bytes < 1:
            raise InvalidParameterError(
                f"cache max_bytes must be >= 1, got {max_bytes}"
            )
        self.directory = Path(directory)
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        #: digest -> size in bytes, in LRU order (oldest first).
        self._index: OrderedDict[str, int] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.corrupt_dropped = 0
        self.directory.mkdir(parents=True, exist_ok=True)
        self._check_format_marker()
        self._scan()

    # ------------------------------------------------------------------
    # Open-time bookkeeping
    # ------------------------------------------------------------------
    def _check_format_marker(self) -> None:
        """Validate (or write) the directory's ``cache_format.json``."""
        marker = self.directory / FORMAT_MARKER
        if marker.exists():
            try:
                recorded = json.loads(marker.read_text(encoding="utf-8"))
                version = recorded.get("format_version")
            except (ValueError, OSError):
                raise CacheError(
                    f"cache directory {self.directory} has an unreadable "
                    f"{FORMAT_MARKER}; clear the directory to rebuild it"
                ) from None
            if version != CACHE_FORMAT_VERSION:
                raise CacheError(
                    f"cache directory {self.directory} was written with "
                    f"format version {version!r} (this build expects "
                    f"{CACHE_FORMAT_VERSION}); clear it or use a fresh "
                    "--cache-dir"
                )
            return
        marker.write_text(
            json.dumps({"format_version": CACHE_FORMAT_VERSION}) + "\n",
            encoding="utf-8",
        )

    def _scan(self) -> None:
        """Adopt pre-existing entries (oldest first) and sweep ``*.tmp``."""
        entries = []
        for path in self.directory.glob("*.npz"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path.stem, stat.st_size))
        for _, digest, size in sorted(entries):
            self._index[digest] = size
        for tmp in self.directory.glob("*.tmp"):
            # A crash mid-write leaves a temp file; it was never visible to
            # readers, so deleting it is always safe.
            tmp.unlink(missing_ok=True)
        self._enforce_bounds()

    # ------------------------------------------------------------------
    # Entry access
    # ------------------------------------------------------------------
    def _entry_path(self, digest: str) -> Path:
        return self.directory / f"{digest}.npz"

    def get(self, digest: str) -> ExecutionResult | None:
        """Load one entry, or ``None`` on a miss (including corruption).

        A corrupt entry (truncated/garbage bytes, missing arrays) is counted
        in ``corrupt_dropped``, deleted, and reported as a miss so the
        caller re-solves and re-stores — the cache self-repairs.  A stale
        per-entry ``format_version`` raises :class:`CacheError`.
        """
        path = self._entry_path(digest)
        try:
            with np.load(path, allow_pickle=False) as archive:
                result = decode_result(archive)
        except CacheError:
            raise
        except FileNotFoundError:
            with self._lock:
                self._index.pop(digest, None)
                self.misses += 1
            return None
        except Exception:  # noqa: BLE001 - any undecodable entry is corruption
            with self._lock:
                self.corrupt_dropped += 1
                self.misses += 1
                self._index.pop(digest, None)
            path.unlink(missing_ok=True)
            return None
        with self._lock:
            if digest in self._index:
                self._index.move_to_end(digest)
            else:
                # Entry appeared behind our back (another process); adopt it,
                # unless a concurrent put evicted it while it was being read.
                try:
                    self._index[digest] = path.stat().st_size
                except OSError:
                    pass
                else:
                    self._enforce_bounds()
            self.hits += 1
        return result

    def put(self, digest: str, result: ExecutionResult, request: dict | None = None) -> None:
        """Persist one entry atomically, then evict down to the bounds."""
        path = self._entry_path(digest)
        tmp = path.with_suffix(".tmp")
        arrays = encode_result(result, request)
        with open(tmp, "wb") as handle:
            np.savez(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        size = path.stat().st_size
        with self._lock:
            self._index.pop(digest, None)
            self._index[digest] = size
            self.stores += 1
            self._enforce_bounds()

    def _enforce_bounds(self) -> None:
        """Evict LRU entries until both caps hold (callers hold the lock)."""
        while self._index and (
            len(self._index) > self.max_entries
            or sum(self._index.values()) > self.max_bytes
        ):
            digest, _ = self._index.popitem(last=False)
            self._entry_path(digest).unlink(missing_ok=True)
            self.evictions += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._index

    @property
    def total_bytes(self) -> int:
        """Bytes currently accounted to persisted entries."""
        with self._lock:
            return sum(self._index.values())

    def info(self) -> dict[str, int]:
        """Counters and occupancy of the disk tier (JSON-safe)."""
        with self._lock:
            return {
                "entries": len(self._index),
                "max_entries": self.max_entries,
                "bytes": sum(self._index.values()),
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
                "corrupt_dropped": self.corrupt_dropped,
            }
