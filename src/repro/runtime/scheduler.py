"""Dispatch of a region wavefront to whatever executes the regions.

The regions are the tiles of a decomposition whose tile ``(r, c)`` depends
on ``(r - 1, c)``, ``(r, c - 1)`` and ``(r - 1, c - 1)``: the strips of
:class:`~repro.core.tiling.StripDecomposition` that the multicore engines
run (:mod:`repro.runtime.mp_parallel`), or the square tiles of
:class:`~repro.core.tiling.TileDecomposition`.  Regions with equal ``r +
c`` are independent.  :func:`run_schedule` walks the decomposition's
``schedule()`` one such wave at a time, sequentially or on a
:class:`TilePool` — the multicore backend passes its worker team, which fans
each wave's regions across real cores with a barrier per wave.

The barrier is not required for correctness — a region only reads its
west, north and north-west neighbours (or, transitively, theirs) — so the
module also provides the *pipelined* alternative: :class:`DependencyGraph`
tracks per-region remaining-predecessor counts and :func:`run_pipelined`
drains it, starting a region the moment its three neighbours retire, so
regions of wave ``d + 1`` overlap wave ``d`` stragglers.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Protocol

from repro.core.exceptions import ExecutionError
from repro.core.tiling import StripDecomposition, Tile, TileDecomposition


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


def run_schedule(
    waves: Iterable[list[Tile]],
    tile_fn: object,
    pool: TilePool | None = None,
    collect: Callable[[object], None] | None = None,
) -> int:
    """Execute a tile schedule; returns the number of tiles executed.

    ``waves`` is a decomposition's ``schedule()``: one list of independent
    tiles per wave.  Every wave's tiles
    are submitted to ``pool`` and the wave barriers until all of them have
    completed.  The multicore backend passes its worker
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
        for tile in wave:
            pool.submit(tile_fn, tile)
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

    Each tile of a :class:`~repro.core.tiling.StripDecomposition` (or
    :class:`~repro.core.tiling.TileDecomposition`) depends on its west,
    north and north-west neighbour tiles — every cell
    :meth:`~repro.runtime.vectorized.TileSweeper.sweep_tile` reads lies in
    them or, transitively, in theirs, which is
    why executing tiles in any retirement-respecting order reproduces the
    barriered sweep bit for bit.

    The protocol is ``acquire()`` (pop one ready tile, ``None`` when nothing
    is ready right now) / ``retire(tile)`` (mark complete, releasing any
    successors whose last predecessor this was).  Both ends are strict:
    retiring a tile that was never acquired, or twice, raises
    :class:`~repro.core.exceptions.ExecutionError`.  Readiness order is
    deterministic — the initial ready tile plus FIFO release order — so the
    sequential drain visits tiles in a reproducible order.
    """

    def __init__(self, decomposition: StripDecomposition | TileDecomposition) -> None:
        self.decomposition = decomposition
        self._tiles: dict[tuple[int, int], Tile] = {
            (tile.tile_row, tile.tile_col): tile for tile in decomposition.all_tiles()
        }
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
        """Total number of tiles tracked."""
        return len(self._tiles)

    @property
    def done(self) -> bool:
        """True once every tracked tile has been retired."""
        return len(self._retired) == len(self._tiles)

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
