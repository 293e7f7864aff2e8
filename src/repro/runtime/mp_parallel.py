"""True multicore wavefront execution: shared-memory strip-vectorized backend.

The paper's scheme (b) is *parallel* tiled CPU execution; threads cannot
deliver it in Python (the GIL serialises the kernels), so this module runs
the wavefront on worker processes:

* a :class:`WorkerTeam` is a set of **resident worker processes**, forked
  once, plus one **arena**: a :class:`repro.runtime.shared_grid.SharedGridBuffer`
  (a :mod:`multiprocessing.shared_memory` segment wrapped as a zero-copy
  NumPy view) sized for the largest grid seen.  The grid of the request
  being served lives there, so workers read neighbours and write results in
  place — only tiny region descriptors cross process boundaries, and a
  problem crosses once per worker;
* an :class:`MPWavefrontPool` is the cheap per-(problem, tile size) half: a
  :class:`~repro.core.tiling.StripDecomposition` — one strip per worker, by
  columns for a kernel with a row form and by rows otherwise, cut into
  ``cpu_tile``-step regions (rows of a column strip, anti-diagonals of a
  row strip) — run over one grid at a time on a team it borrows, either
  wave by wave with a barrier per wave of regions
  (:func:`repro.runtime.scheduler.run_schedule`) or dependency-counted
  (:func:`repro.runtime.scheduler.run_pipelined`);
* a task is a region and its problem.  Each worker sweeps the region whole
  with a :class:`TileSweeper` — by rows where the kernel offers a row
  evaluator, by rolling-row diagonals otherwise, the cells it reads taken
  from the predecessor regions — and checks it finite before it reports it
  done.  The sweeper — and with it the kernel's O(dim^2) evaluator
  precompute — is built on a problem's first region in that worker and
  kept in a small LRU.

Why strips: a NumPy sweep pays one batch of ufunc calls per row or
anti-diagonal it walks, whatever its length.  A square tile of side ``T``
pays one per *tile* row or diagonal, so square tiles multiply the grid's
dispatches by about ``dim / T``; a strip pays one per strip row (about
``dim`` per worker) or strip diagonal (about ``dim + dim / workers``).
``cpu_tile`` only sets how often a strip hands its neighbour a finished
region.  A diagonal walk's critical path is still ``2 * dim - 1`` dispatch
steps, so on a dispatch-bound kernel two strips need not beat one
whole-grid ``vectorized`` sweep.

When fewer than two cores are available (or one worker is requested) the
backend degrades gracefully to one in-process whole-grid ``TileSweeper``
sweep, producing identical grids without any shared-memory machinery.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import pickle
from collections import OrderedDict, deque
from multiprocessing import connection

import numpy as np

from repro.core.exceptions import (
    ExecutionError,
    InvalidParameterError,
    WorkerCrashError,
)
from repro.core.grid import WavefrontGrid
from repro.core.params import TunableParams
from repro.core.pattern import WavefrontProblem
from repro.core.tiling import StripDecomposition, Tile
from repro.hardware.system import SystemSpec
from repro.runtime.executor_base import Deadline, Executor
from repro.runtime.scheduler import DependencyGraph, run_pipelined, run_schedule
from repro.runtime.shared_grid import SharedGridBuffer
from repro.runtime.vectorized import TileSweeper


def resolve_worker_count(workers: int | None, system: SystemSpec | None = None) -> int:
    """Effective worker count for the multicore backend.

    An explicit ``workers`` is honoured as given (minimum 1) — tests force
    multiprocess execution this way even on single-core machines.  With
    ``workers=None`` the count is auto-detected as the smaller of the host's
    cores and the platform spec's worker budget, falling back to a single
    in-process worker when the host has fewer than two cores.
    """
    if workers is not None:
        return max(1, int(workers))
    available = os.cpu_count() or 1
    if available < 2:
        return 1  # graceful single-core fallback
    if system is not None:
        return max(1, min(available, system.cpu.workers))
    return available


def default_tile(dim: int) -> int:
    """The tile a tiled engine named without ``tunables`` runs on.

    The largest of 8, 16, ..., 256 that fits ``dim`` (else ``dim``): the
    pool dispatch must be amortised, so one-cell tiles through worker pipes
    are never the default.
    """
    return max((t for t in (8, 16, 32, 64, 128, 256) if t <= dim), default=dim)


def _mp_context() -> mp.context.BaseContext:
    """Fork where available: cheap start-up, start-up problems inherited."""
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()  # pragma: no cover - non-fork platforms


#: Tile sweepers (fused-evaluator tables included) each worker keeps, least
#: recently used out first.  The parent mirrors the order per worker, which
#: is how it knows when a task has to carry its problem along.
SWEEPER_SLOTS = 4
#: How long ``close()`` waits for a worker to exit before killing it.
_JOIN_TIMEOUT_S = 5.0
#: Source of team keys: one per problem, never reused in this process.
_TEAM_KEYS = itertools.count(1)


def _team_key(problem: WavefrontProblem) -> int:
    """The key every team files ``problem``'s sweepers under.

    Drawn once and kept on the problem as a ``_cached_`` attribute, which
    pickling drops, so a worker knows a shipped problem by the key its task
    names.  Unlike ``id()`` the key is never recycled, so the parent need
    not hold the problem to keep it unique: a released problem can die.
    """
    key = problem.__dict__.get("_cached_team_key")
    if key is None:
        key = problem._cached_team_key = next(_TEAM_KEYS)
    return key


def _lru_touch(lru: OrderedDict, key: int, value: object) -> None:
    """Make ``key`` the newest of ``lru``, inserting ``value`` unless ``None``.

    A worker's sweepers and the parent's mirror of them both go through
    here, on the same sequence of tasks, which is what keeps them in step.
    """
    if value is not None:
        lru[key] = value
    lru.move_to_end(key)
    while len(lru) > SWEEPER_SLOTS:
        lru.popitem(last=False)


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
def _worker_main(conn, inherited, problems) -> None:
    """Serve tile tasks from ``conn`` until it closes or sends ``None``.

    A task is ``(key, problem, arena_name, arena_dim, dim, tile)``: sweep
    ``tile`` of the ``dim x dim`` grid at the start of the named arena.
    ``problem`` is ``None`` when this worker already holds the sweeper for
    ``key``.  The reply is ``(True, cells)`` or ``(False, exception)``.
    ``problems`` are the ``(key, problem)`` pairs inherited at the fork.
    """
    for other in inherited:  # the parent's ends of earlier workers' pipes
        other.close()
    sweepers: OrderedDict = OrderedDict((key, TileSweeper(p)) for key, p in problems)
    arena: SharedGridBuffer | None = None
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        key, problem, arena_name, arena_dim, dim, tile = task
        try:
            _lru_touch(sweepers, key, None if problem is None else TileSweeper(problem))
            if arena is None or arena.name != arena_name:
                if arena is not None:
                    arena.close()
                arena = SharedGridBuffer.attach(arena_name, arena_dim)
            reply = (True, _sweep(sweepers[key], arena, dim, tile))
        except Exception as error:  # noqa: BLE001 - reported to the caller
            # Whatever failed, start this problem afresh next time (the parent
            # forgets it too).  Without its traceback the error pins no frame,
            # hence no arena view.
            sweepers.pop(key, None)
            reply = (False, error.with_traceback(None))
        try:
            conn.send(reply)
        except Exception as error:  # noqa: BLE001 - an exception that does not pickle
            conn.send((False, ExecutionError(f"{type(error).__name__}: {reply[1]!r}")))


def _sweep(sweeper: TileSweeper, arena: SharedGridBuffer, dim, tile) -> int:
    """One tile on the arena; the view it sweeps dies with this frame."""
    return sweeper.sweep_tile(arena.view(dim).reshape(-1), tile)


class _Worker:
    """Parent-side record of one worker process."""

    __slots__ = ("process", "conn", "held", "key", "tile")

    def __init__(self, process, conn, keys) -> None:
        self.process = process
        self.conn = conn
        #: Mirror of the worker's sweeper LRU, keys only: a key is never
        #: reused, so no problem is held to keep it unique.
        self.held: OrderedDict = OrderedDict.fromkeys(keys, True)
        #: The tile in flight (``None`` when idle) and its problem's key.
        self.tile: Tile | None = None
        self.key = 0


# ----------------------------------------------------------------------
# Parent-process side
# ----------------------------------------------------------------------
class WorkerTeam:
    """Resident worker processes and the one shared arena they sweep.

    A team is forked once and serves every tiled request of its owner — any
    problem, any tile size — until it is closed or a worker dies:

    * **the arena** is one shared-memory segment, replaced by a larger one
      when a grid larger than any before is claimed; one grid occupies it
      at a time (:meth:`claim` checks; the session's run lock guarantees);
    * **problems** reach a worker pickled inside the first task that needs
      them there and stay in its :data:`SWEEPER_SLOTS`-entry LRU of tile
      sweepers; ``problems`` given at construction are inherited through
      the fork instead, so a private team can run a kernel that does not
      pickle;
    * **tiles** go through :meth:`submit` / :meth:`completed` (the
      :class:`~repro.runtime.scheduler.TilePool` protocol): one tile per
      worker at a time over the worker's own pipe, the rest queued here.
      A task is the problem its tile belongs to.

    A worker that dies surfaces as one :class:`WorkerCrashError` and leaves
    the team :attr:`broken` for good; a kernel failure is re-raised after
    the other tiles in flight have finished, so nothing still writes to the
    arena when the caller sees the error.
    """

    def __init__(self, workers: int, problems: tuple = ()) -> None:
        if workers < 2:
            raise InvalidParameterError(f"a worker team needs >= 2 workers, got {workers}")
        context = _mp_context()
        self.workers = workers
        #: True once a worker died, or after :meth:`close`.
        self.broken = False
        self._workers: list[_Worker] = []
        # Keys drawn before the fork, so every worker inherits the same ones.
        keyed = tuple((_team_key(p), p) for p in problems)
        for _ in range(workers):
            ours, theirs = context.Pipe()
            inherited = [w.conn for w in self._workers] + [ours]
            process = context.Process(
                target=_worker_main, args=(theirs, inherited, keyed), daemon=True
            )
            process.start()
            theirs.close()
            self._workers.append(_Worker(process, ours, [key for key, _ in keyed]))
        self._arena: SharedGridBuffer | None = None
        self._dim: int | None = None  # of the grid in the arena, if any
        self._backlog: deque = deque()

    def pids(self) -> list[int]:
        """Process ids of the workers."""
        return [w.process.pid for w in self._workers]

    # ------------------------------------------------------------------
    # The arena
    # ------------------------------------------------------------------
    def claim(self, dim: int) -> np.ndarray:
        """Reserve the arena for one grid; returns its ``(dim, dim)`` view."""
        if self._dim is not None:
            raise ExecutionError(
                "the worker team's arena already holds a grid; one run at a time"
            )
        if self._arena is None or self._arena.dim < dim:
            self._drop_arena()
            self._arena = SharedGridBuffer.create(dim)
        self._dim = dim
        return self._arena.view(dim)

    def unclaim(self) -> None:
        """Give the arena back (the caller has dropped its view)."""
        self._dim = None

    def _drop_arena(self) -> None:
        if self._arena is not None:
            self._arena.close()
            self._arena.unlink()
            self._arena = None

    # ------------------------------------------------------------------
    # Tile dispatch
    # ------------------------------------------------------------------
    def submit(self, problem: WavefrontProblem, tile: Tile) -> None:
        """Queue one tile; it starts as soon as a worker is idle."""
        if self.broken:
            raise WorkerCrashError("the worker team is broken (or closed); it cannot run")
        self._backlog.append((problem, tile))
        self._feed()

    def _feed(self) -> None:
        """Hand backlog tiles to idle workers, shipping problems as needed."""
        while self._backlog:
            idle = [w for w in self._workers if w.tile is None]
            if not idle:
                return
            problem, tile = self._backlog.popleft()
            key = _team_key(problem)
            worker = next((w for w in idle if key in w.held), idle[0])
            message = (
                key, None if key in worker.held else problem,
                self._arena.name, self._arena.dim, self._dim, tile,
            )
            try:
                worker.conn.send(message)
            except OSError as error:
                raise self._crashed(worker, error) from error
            except (pickle.PicklingError, AttributeError, TypeError) as error:
                # Nothing was sent, and nothing of this problem is in flight:
                # its first tile is the first to need it shipped.
                raise ExecutionError(
                    f"problem {problem.name!r} cannot be sent to a resident "
                    f"worker team ({type(error).__name__}: {error}); a kernel built "
                    "from a lambda or a local function runs on the private team of "
                    "an executor constructed without a session"
                ) from error
            _lru_touch(worker.held, key, True)
            worker.key, worker.tile = key, tile

    def completed(self) -> list[tuple[Tile, object]]:
        """Block until a tile in flight finishes; ``(tile, cells)`` pairs."""
        busy = {w.conn: w for w in self._workers if w.tile is not None}
        if not busy:
            raise ExecutionError("WorkerTeam.completed() called with no tile in flight")
        finished = []
        failure: Exception | None = None
        for conn in connection.wait(list(busy)):  # a dead worker's pipe reads EOF
            tile, ok, value = self._receive(busy[conn])
            if ok:
                finished.append((tile, value))
            else:
                failure = value
        if failure is not None:
            self._backlog.clear()
            for worker in self._workers:  # wait out the tiles still running
                if worker.tile is not None:
                    self._receive(worker)
            raise failure
        self._feed()
        return finished

    def _receive(self, worker: _Worker) -> tuple[Tile, bool, object]:
        """The reply of a busy worker (blocking): ``(tile, ok, value)``."""
        try:
            ok, value = worker.conn.recv()
        except Exception as error:  # noqa: BLE001 - EOF from a dead worker, or a
            # reply that does not unpickle: either way its state is unknown.
            raise self._crashed(worker, error) from error
        tile, worker.tile = worker.tile, None
        if not ok:
            worker.held.pop(worker.key, None)  # the worker dropped its sweeper too
        return tile, ok, value

    def _crashed(self, worker: _Worker, error: Exception) -> WorkerCrashError:
        self.broken = True
        self._backlog.clear()
        return WorkerCrashError(
            f"worker process {worker.process.pid} of the {self.workers}-worker "
            f"team died mid-execution: {type(error).__name__}: {error}"
        )

    def close(self) -> None:
        """Stop the workers and unlink the arena."""
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except OSError:  # it is dead already
                pass
            worker.conn.close()
        for worker in self._workers:
            worker.process.join(_JOIN_TIMEOUT_S)
            if worker.process.is_alive():  # wedged in a kernel
                worker.process.kill()
                worker.process.join()
        self._workers = []
        self.broken = True  # nothing left to run on
        self._drop_arena()


def walk_of(problem: WavefrontProblem) -> str:
    """``"rows"`` when ``problem``'s kernel offers a row form, else ``"diagonals"``.

    The walk every worker's :class:`TileSweeper` takes, which is what shapes
    the strips.  The probe is one ``make_row_evaluator`` call, kept on the
    problem: O(dim) state for the viterbi and knapsack row forms, O(alphabet
    x dim) letter rows for the sequence apps, and for ``knapsack-ev`` the
    policy tables the parent's witness traceback builds and caches on the
    kernel anyway.  A kernel without a row form builds nothing.
    """
    walk = problem.__dict__.get("_cached_walk")
    if walk is None:
        row_form = problem.kernel.make_row_evaluator(problem.dim, problem.boundary)
        walk = problem._cached_walk = "diagonals" if row_form is None else "rows"
    return walk


class MPWavefrontPool:
    """The strip geometry of one (problem, tile size) on a worker team.

    Cheap to build — a :class:`~repro.core.tiling.StripDecomposition` of one
    strip per worker, cut into ``tile``-step regions — and short-lived:
    :class:`repro.runtime.lifecycle.EngineHost` makes one per request around
    its resident :class:`WorkerTeam`.  Built without a ``team`` (and
    ``workers >= 2``) the pool forks a private one, the single-shot path of
    :class:`MPParallelExecutor`, and :meth:`close` stops it.

    :meth:`run` is the whole request: the region wavefront runs in the
    team's arena, and the values are copied back and the arena given up on
    every way out — success, a kernel error or a dead worker.  Nothing is
    copied in: every cell is written by its region before any region reads
    it, so what an earlier (even failed) run left in the arena is never
    read.

    With ``workers == 1`` no processes or shared memory are involved: the
    grid is swept in-process as one whole-grid tile (identical grids either
    way).
    """

    def __init__(
        self,
        problem: WavefrontProblem,
        tile: int = 1,
        workers: int = 1,
        team: WorkerTeam | None = None,
    ) -> None:
        self.problem = problem
        self.workers = max(1, int(workers))
        self.decomposition = StripDecomposition(
            problem.dim, tile, self.workers, walk_of(problem)
        )
        self._owns_team = team is None and self.workers >= 2
        #: The worker team behind the pool (``None`` with one worker).
        self.team = WorkerTeam(self.workers, (problem,)) if self._owns_team else team

    @property
    def is_multiprocess(self) -> bool:
        """True when a worker team backs :meth:`run`."""
        return self.team is not None

    @property
    def broken(self) -> bool:
        """True once a worker of the pool's team died.

        A broken pool still closes cleanly;
        :meth:`repro.runtime.lifecycle.EngineHost.pool_for` forks a fresh
        team (and unlinks this one's arena) on the next request.
        """
        return self.team is not None and self.team.broken

    def run(
        self, grid: WavefrontGrid, dispatch: str = "barrier", deadline: Deadline | None = None
    ) -> tuple[int, int]:
        """Fill ``grid`` with the region wavefront; returns ``(regions, cells)``.

        ``dispatch`` selects how regions reach the workers: ``"barrier"``
        fans each wave of regions across the team and barriers between waves
        (:func:`~repro.runtime.scheduler.run_schedule`); ``"pipelined"``
        drains a :class:`~repro.runtime.scheduler.DependencyGraph` instead,
        starting any region the moment its west/north/north-west neighbours
        retire (:func:`~repro.runtime.scheduler.run_pipelined`).  Both
        orders respect the dependency contract of
        :meth:`~repro.runtime.vectorized.TileSweeper.sweep_tile`, so the
        resulting grids are bit-identical.  A dead worker raises
        :class:`WorkerCrashError` — typed, so the caller (session / server)
        can retry on the fresh team the next request gets.
        The in-process path executes no regions: it reports ``0`` of them.
        ``deadline`` is checked at every region release (per row or
        diagonal on the in-process path); a late run stops dispatching,
        waits out the regions in flight and gives the arena back before its
        :class:`~repro.core.exceptions.DeadlineError` leaves.
        """
        if dispatch not in ("barrier", "pipelined"):
            raise InvalidParameterError(
                f"unknown dispatch mode {dispatch!r}; expected 'barrier' or "
                "'pipelined'"
            )
        if grid.dim != self.problem.dim:
            raise ExecutionError(
                f"grid of dim {grid.dim} run on a pool built for "
                f"dim {self.problem.dim}"
            )
        if self.team is None:
            # Single-core path: one whole-grid sweep; dispatch order is moot
            # with one in-process worker, so both modes share it.
            sweeper = TileSweeper(self.problem)
            return 0, sweeper.sweep_tile(grid.values.reshape(-1), sweeper.whole_grid, deadline)
        shared = self.team.claim(grid.dim)
        try:
            cells = 0

            def collect(n: object) -> None:
                nonlocal cells
                cells += int(n)  # type: ignore[arg-type]

            if dispatch == "pipelined":
                executed = run_pipelined(
                    DependencyGraph(self.decomposition), self.problem,
                    pool=self.team, collect=collect, deadline=deadline,
                )
            else:
                executed = run_schedule(
                    self.decomposition.schedule(), self.problem,
                    pool=self.team, collect=collect, deadline=deadline,
                )
            return executed, cells
        finally:
            grid.values[...] = shared
            del shared  # a raised error's traceback must not pin the arena view
            self.team.unclaim()

    def close(self) -> None:
        """Stop a private team (a borrowed one stays warm)."""
        if self._owns_team and self.team is not None:
            self.team.close()
            self.team = None

    def __enter__(self) -> "MPWavefrontPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MPParallelExecutor(Executor):
    """Shared-memory multicore execution of the whole grid (scheme (b), real).

    The grid lives in shared memory, a worker team executes the region
    wavefront of one strip per worker (barrier per wave of regions), and
    every worker sweeps each of its regions whole with a
    :class:`TileSweeper` — combining the vectorized engine's batched
    evaluation with parallelism.  ``cpu_tile`` is the region length along a
    strip.
    Produces grids cell-for-cell identical to the serial reference.
    """

    strategy = "mp-parallel"
    #: Tile dispatch order handed to :meth:`MPWavefrontPool.run`.
    dispatch = "barrier"

    def __init__(self, system, workers: int | None = None, pool_source=None) -> None:
        super().__init__(system)
        self.workers = workers
        #: Optional ``(problem, tile, workers) -> MPWavefrontPool`` provider
        #: of *borrowed* pools (e.g. the session's
        #: :meth:`repro.runtime.lifecycle.EngineHost.pool_for`), whose team
        #: is the provider's, so the workers stay warm across requests.
        #: Without one every run forks (and stops) a private team.
        self.pool_source = pool_source

    def _run_functional(
        self,
        problem: WavefrontProblem,
        tunables: TunableParams,
        deadline: Deadline | None = None,
    ) -> tuple[WavefrontGrid, dict]:
        grid = problem.make_grid()
        workers = resolve_worker_count(self.workers, self.system)
        if self.pool_source is not None:
            pool = self.pool_source(problem, tunables.cpu_tile, workers)
        else:
            pool = MPWavefrontPool(problem, tile=tunables.cpu_tile, workers=workers)
        # Leaving the block stops only a private team.
        with pool:
            executed, cells = pool.run(grid, self.dispatch, deadline)
            stats = {
                "tiles_executed": executed,
                "cells_computed": cells,
                # The in-process path runs no regions, hence no waves of them.
                "tile_waves": pool.decomposition.n_tile_diagonals if executed else 0,
                "workers": pool.workers,
                "dispatch": self.dispatch,
                "mode": "process-pool" if pool.is_multiprocess else "in-process",
            }
        if self.pool_source is not None:
            stats["pool"] = "borrowed"
        return grid, stats

    @classmethod
    def _validate(cls, system, dim: int, tunables: TunableParams) -> TunableParams:
        # A pure-CPU strategy: keep the cpu_tile choice, drop GPU settings.
        tunables = tunables.clipped(dim)
        return TunableParams(cpu_tile=tunables.cpu_tile)


class PipelinedMPExecutor(MPParallelExecutor):
    """Dependency-driven multicore execution: no barrier between region waves.

    Identical to :class:`MPParallelExecutor` in every observable output —
    same shared grid, same strips and regions, bit-identical grids and
    witnesses — but regions are dispatched through the
    :class:`~repro.runtime.scheduler.DependencyGraph` of the pool instead of
    barrier-separated waves, so a region of wave ``d + 1`` starts the moment
    its three neighbour regions retire even while wave ``d`` stragglers are
    still running.
    """

    strategy = "pipelined"
    dispatch = "pipelined"
