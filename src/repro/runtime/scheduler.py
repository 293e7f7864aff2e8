"""Scheduling of CPU tiles across workers.

The tiled CPU phases execute the tile wavefront: within one tile-diagonal all
tiles are independent and are distributed over the worker pool; tile-diagonals
are separated by a barrier.  :class:`TileScheduler` produces that schedule as
data so both the functional executors and the tests can inspect it, and
:func:`run_schedule` executes it sequentially or on a :class:`TilePool` —
the multicore backend (:mod:`repro.runtime.mp_parallel`) passes its worker
team so each wave fans its tiles across real cores with a barrier per
tile-diagonal.

The barrier is not required for correctness — a tile only reads its west,
north and north-west neighbour tiles — so the module also provides the
*pipelined* alternative: :class:`DependencyGraph` tracks per-tile
remaining-predecessor counts, :class:`PipelinedSchedule` builds range-clipped
graphs the way :meth:`TileScheduler.waves` builds clipped wave lists, and
:func:`run_pipelined` drains the graph, starting a tile the moment its three
neighbours retire, so tiles of wave ``d + 1`` overlap wave ``d`` stragglers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Protocol

from repro.core.exceptions import ExecutionError, InvalidParameterError
from repro.core.tiling import Tile, TileDecomposition


@dataclass(frozen=True)
class ScheduledTile:
    """One tile assignment: which wave it runs in and on which worker."""

    wave: int
    worker: int
    tile: Tile


class TilePool(Protocol):
    """What the drivers below need of whatever executes their tiles.

    :class:`repro.runtime.mp_parallel.WorkerTeam` runs them on worker
    processes; without a pool they run in the calling thread.
    """

    def submit(self, tile_fn: object, tile: Tile) -> None:
        """Queue ``tile`` for execution; returns at once."""

    def completed(self) -> list[tuple[Tile, object]]:
        """Block until a submitted tile finishes; ``(tile, result)`` pairs.

        Raises what the tile raised.
        """


class _InlinePool:
    """The pool of no workers: a submitted tile runs on the spot."""

    def __init__(self) -> None:
        self._done: list[tuple[Tile, object]] = []

    def submit(self, tile_fn: Callable[[Tile], object], tile: Tile) -> None:
        self._done.append((tile, tile_fn(tile)))

    def completed(self) -> list[tuple[Tile, object]]:
        done, self._done = self._done, []
        return done


def tile_intersects_range(tile: Tile, d_lo: int, d_hi: int) -> bool:
    """True when ``tile`` contains at least one cell on diagonals ``[d_lo, d_hi]``.

    A tile's cells span the cell anti-diagonals ``row_start + col_start``
    through ``(row_stop - 1) + (col_stop - 1)`` inclusive.
    """
    first = tile.row_start + tile.col_start
    last = (tile.row_stop - 1) + (tile.col_stop - 1)
    return first <= d_hi and last >= d_lo


class TileScheduler:
    """Round-robin assignment of the tile wavefront to ``workers`` workers."""

    def __init__(self, decomposition: TileDecomposition, workers: int) -> None:
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        self.decomposition = decomposition
        self.workers = workers

    def waves(self, d_lo: int | None = None, d_hi: int | None = None) -> list[list[ScheduledTile]]:
        """The full schedule: one list of assignments per tile-diagonal.

        With ``d_lo`` / ``d_hi`` the schedule is clipped to the tiles that
        contain at least one cell on the cell diagonals ``[d_lo, d_hi]`` (the
        hybrid executor's CPU phases sweep such partial ranges); waves left
        empty by the clipping are dropped, so no barrier is paid for them.
        """
        clip = d_lo is not None or d_hi is not None
        lo = 0 if d_lo is None else d_lo
        hi = (self.decomposition.rows + self.decomposition.cols - 2) if d_hi is None else d_hi
        schedule: list[list[ScheduledTile]] = []
        for wave_index, tiles in enumerate(self.decomposition.schedule()):
            if clip:
                tiles = [tile for tile in tiles if tile_intersects_range(tile, lo, hi)]
                if not tiles:
                    continue
            assignments = [
                ScheduledTile(wave=wave_index, worker=idx % self.workers, tile=tile)
                for idx, tile in enumerate(tiles)
            ]
            schedule.append(assignments)
        return schedule

    def worker_loads(self) -> list[int]:
        """Number of tiles each worker executes over the whole schedule."""
        loads = [0] * self.workers
        for wave in self.waves():
            for item in wave:
                loads[item.worker] += 1
        return loads

    @property
    def n_waves(self) -> int:
        """Number of barrier-separated waves."""
        return self.decomposition.n_tile_diagonals


def run_schedule(
    waves: Iterable[list[ScheduledTile]],
    tile_fn: object,
    pool: TilePool | None = None,
    collect: Callable[[object], None] | None = None,
) -> int:
    """Execute a tile schedule; returns the number of tiles executed.

    Every wave's tiles are submitted to ``pool`` and the wave barriers until
    all of them have completed.  The multicore backend passes its worker
    team, and ``tile_fn`` is then whatever the team takes as the description
    of the work; without a pool ``tile_fn(tile)`` is called in schedule
    order, which is fastest for the small grids used in tests because the
    kernels are NumPy-bound.

    ``collect`` receives each tile's return value (e.g. its cell count) in
    completion order within a wave.
    """
    pool = pool if pool is not None else _InlinePool()
    executed = 0
    for wave in waves:
        for item in wave:
            pool.submit(tile_fn, item.tile)
        outstanding = len(wave)
        while outstanding:
            for _, result in pool.completed():
                outstanding -= 1
                if collect is not None:
                    collect(result)
        executed += len(wave)
    return executed


class DependencyGraph:
    """Dependency-counted readiness tracking over the tile wavefront.

    Each tile of a :class:`~repro.core.tiling.TileDecomposition` (optionally
    clipped to the cell-diagonal range ``[d_lo, d_hi]``) depends on its west,
    north and north-west neighbour tiles — exactly the cells
    :meth:`~repro.runtime.vectorized.TileSweeper.sweep_tile` reads, which is
    why executing tiles in any retirement-respecting order reproduces the
    barriered sweep bit for bit.  Predecessors that fall outside the clipped
    range contain no cells in ``[d_lo, d_hi]``; their cells precede ``d_lo``
    and are final by the range-sweep precondition, so they are not counted.

    The protocol is ``acquire()`` (pop one ready tile, ``None`` when nothing
    is ready right now) / ``retire(tile)`` (mark complete, releasing any
    successors whose last predecessor this was).  Both ends are strict:
    retiring a tile that was never acquired, or twice, raises
    :class:`~repro.core.exceptions.ExecutionError`.  Readiness order is
    deterministic — the initial ready tile plus FIFO release order — so the
    sequential drain visits tiles in a reproducible order.
    """

    def __init__(
        self,
        decomposition: TileDecomposition,
        d_lo: int | None = None,
        d_hi: int | None = None,
    ) -> None:
        clip = d_lo is not None or d_hi is not None
        lo = 0 if d_lo is None else d_lo
        hi = (decomposition.rows + decomposition.cols - 2) if d_hi is None else d_hi
        self.decomposition = decomposition
        self._tiles: dict[tuple[int, int], Tile] = {}
        for tile in decomposition.all_tiles():
            if not clip or tile_intersects_range(tile, lo, hi):
                self._tiles[(tile.tile_row, tile.tile_col)] = tile
        self._remaining: dict[tuple[int, int], int] = {}
        self._successors: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self._ready: deque[tuple[int, int]] = deque()
        self._acquired: set[tuple[int, int]] = set()
        self._retired: set[tuple[int, int]] = set()
        # Wave order (tile-diagonal, then tile-row) seeds the ready queue so
        # the sequential drain matches the barriered visit order.
        for key in sorted(self._tiles, key=lambda k: (k[0] + k[1], k[0])):
            tr, tc = key
            preds = [
                p
                for p in ((tr - 1, tc), (tr, tc - 1), (tr - 1, tc - 1))
                if p in self._tiles
            ]
            self._remaining[key] = len(preds)
            for p in preds:
                self._successors.setdefault(p, []).append(key)
            if not preds:
                self._ready.append(key)

    @property
    def n_tiles(self) -> int:
        """Total number of tiles tracked (after range clipping)."""
        return len(self._tiles)

    @property
    def done(self) -> bool:
        """True once every tracked tile has been retired."""
        return len(self._retired) == len(self._tiles)

    def ready_count(self) -> int:
        """Number of tiles currently ready to acquire."""
        return len(self._ready)

    def acquire(self) -> Tile | None:
        """Pop one ready tile, or ``None`` when none is ready right now."""
        if not self._ready:
            return None
        key = self._ready.popleft()
        self._acquired.add(key)
        return self._tiles[key]

    def retire(self, tile: Tile) -> list[Tile]:
        """Mark an acquired tile complete; returns the newly-released tiles."""
        key = (tile.tile_row, tile.tile_col)
        if key not in self._acquired:
            raise ExecutionError(
                f"tile {key} retired without being acquired (not tracked or "
                "never handed out)"
            )
        if key in self._retired:
            raise ExecutionError(f"tile {key} retired twice")
        self._retired.add(key)
        released: list[Tile] = []
        for succ in self._successors.get(key, ()):
            self._remaining[succ] -= 1
            if self._remaining[succ] == 0:
                self._ready.append(succ)
                released.append(self._tiles[succ])
        return released


class PipelinedSchedule:
    """Range-clipped :class:`DependencyGraph` factory for one decomposition.

    The dependency-counted counterpart of :class:`TileScheduler`: where the
    scheduler emits barrier-separated waves, this hands out fresh graphs for
    each swept cell-diagonal range and exposes the same aggregate shape
    numbers the cost model reasons about.
    """

    def __init__(self, decomposition: TileDecomposition) -> None:
        self.decomposition = decomposition

    def graph(self, d_lo: int | None = None, d_hi: int | None = None) -> DependencyGraph:
        """A fresh dependency graph clipped to ``[d_lo, d_hi]``."""
        return DependencyGraph(self.decomposition, d_lo, d_hi)

    @property
    def critical_path(self) -> int:
        """Length of the longest dependency chain (the tile-diagonal count)."""
        return self.decomposition.n_tile_diagonals


def run_pipelined(
    graph: DependencyGraph,
    tile_fn: object,
    pool: TilePool | None = None,
    collect: Callable[[object], None] | None = None,
) -> int:
    """Drain a dependency graph; returns the number of tiles executed.

    Every currently-ready tile is submitted to ``pool`` at once and each
    completion immediately retires the tile and submits whatever it released
    — no barrier ever forms, so a straggler in one tile-diagonal only delays
    its own successors.  Without a pool the tiles run in the calling thread,
    in the graph's deterministic readiness order.  ``collect`` receives each
    tile's return value in completion order.  A graph that stalls with work
    left (nothing ready, nothing in flight, not done) raises
    :class:`~repro.core.exceptions.ExecutionError` rather than hanging.
    """
    pool = pool if pool is not None else _InlinePool()
    executed = in_flight = 0
    while True:
        tile = graph.acquire()
        while tile is not None:
            pool.submit(tile_fn, tile)
            in_flight += 1
            tile = graph.acquire()
        if not in_flight:
            break
        for done_tile, result in pool.completed():
            in_flight -= 1
            if collect is not None:
                collect(result)
            executed += 1
            graph.retire(done_tile)
    if not graph.done:
        raise ExecutionError(
            f"pipelined drain starved with {graph.n_tiles - executed} "
            "tiles unexecuted (cyclic or inconsistent dependency graph)"
        )
    return executed
