"""True multicore wavefront execution: shared-memory tiled-vectorized backend.

The paper's scheme (b) is *parallel* tiled CPU execution; threads cannot
deliver it in Python (the GIL serialises the kernels), so this module runs
the tile wavefront on worker processes:

* the value grid lives in a :class:`repro.runtime.shared_grid.SharedGridBuffer`
  (a :mod:`multiprocessing.shared_memory` segment wrapped as a zero-copy
  NumPy view), so workers read neighbours and write results in place — only
  tiny tile descriptors cross process boundaries;
* a **persistent worker-process pool** executes the tile wavefront with the
  schedule of :class:`repro.runtime.scheduler.TileScheduler`: a barrier per
  tile-diagonal, the tiles within a diagonal fanned across the workers;
* each worker evaluates its tile's interior with a **tile-local
  strided-diagonal sweep** (:class:`TileSweeper`) that reuses the fused
  kernel evaluators of the vectorized engine
  (:meth:`repro.core.pattern.WavefrontKernel.make_diagonal_evaluator`).  The
  sweeper — and with it the O(dim^2) evaluator precompute — is built once
  per worker in the pool initializer, not once per tile.

When fewer than two cores are available (or one worker is requested) the
backend degrades gracefully to the in-process whole-diagonal sweep of a
:class:`repro.runtime.vectorized.DiagonalSweepEngine`, producing
identical grids without any shared-memory machinery — and without paying
the tile-granular dispatch that only parallel workers amortise.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro.core.exceptions import (
    ExecutionError,
    InvalidParameterError,
    WorkerCrashError,
)
from repro.core.grid import WavefrontGrid
from repro.core.params import TunableParams
from repro.core.pattern import WavefrontProblem
from repro.core.tiling import Tile, TileDecomposition
from repro.hardware.costmodel import PhaseBreakdown
from repro.hardware.system import SystemSpec
from repro.runtime.executor_base import Executor
from repro.runtime.scheduler import (
    PipelinedSchedule,
    TileScheduler,
    run_pipelined,
    run_schedule,
)
from repro.runtime.shared_grid import SharedGridBuffer
from repro.runtime.vectorized import DiagonalSweepEngine, TileSweeper


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


def _mp_context() -> mp.context.BaseContext:
    """Fork where available: cheap worker start-up and no initargs pickling."""
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()  # pragma: no cover - non-fork platforms


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
#: Per-worker state: the tile sweeper (with its one-off fused-evaluator
#: precompute) and the attached shared grid.  Populated by the pool
#: initializer, read by every task the worker executes.
_WORKER_STATE: dict = {}


def _init_worker(problem: WavefrontProblem, shm_name: str, dim: int) -> None:
    """Pool initializer: attach the shared grid, build the per-worker engine."""
    buffer = SharedGridBuffer.attach(shm_name, dim)
    _WORKER_STATE["buffer"] = buffer  # keep the mapping alive
    _WORKER_STATE["flat"] = buffer.values.reshape(-1)
    _WORKER_STATE["sweeper"] = TileSweeper(problem)


class _TileTask:
    """Picklable task: sweep one tile's diagonals in ``[d_lo, d_hi]``."""

    __slots__ = ("d_lo", "d_hi")

    def __init__(self, d_lo: int, d_hi: int | None) -> None:
        self.d_lo = d_lo
        self.d_hi = d_hi

    def __call__(self, tile: Tile) -> int:
        state = _WORKER_STATE
        return state["sweeper"].sweep_tile(state["flat"], tile, self.d_lo, self.d_hi)


# ----------------------------------------------------------------------
# Parent-process side
# ----------------------------------------------------------------------
class MPWavefrontPool:
    """Persistent worker pool executing tile wavefronts on a shared grid.

    The pool's lifecycle is split from the grid it operates on so one pool
    (worker processes, shared-memory segment, per-worker engines) can serve
    many requests of the same problem — the serving path of
    :class:`repro.session.Session` via
    :class:`repro.runtime.lifecycle.EngineHost`:

    * **Construction** (with ``workers >= 2``) allocates the shared segment
      sized for the problem and starts the worker processes, whose
      initializer attaches the segment and builds the per-worker
      :class:`TileSweeper` once.
    * :meth:`bind` attaches one grid for a request: its values are copied
      into the shared segment and ``grid.values`` becomes the zero-copy
      shared view, so phases running in the parent between
      :meth:`run_range` calls (the hybrid executor's GPU band) write where
      the workers read.  :meth:`release` copies the values back into the
      grid's original private array, leaving the pool warm for the next
      request.  Constructing with a ``grid`` binds it immediately (the
      single-shot path of :class:`MPParallelExecutor`).
    * :meth:`close` releases any bound grid, shuts the workers down and
      unlinks the segment.

    With ``workers == 1`` no processes or shared memory are involved: the
    range is swept in-process by one whole-grid
    :class:`repro.runtime.vectorized.DiagonalSweepEngine` built with the
    pool and reused by every :meth:`run_range` — tile-local
    sweeps pay one NumPy dispatch per *tile* diagonal, which only buys
    anything when real workers share the bill, so the single-core fallback
    uses the strictly cheaper whole-diagonal batches (identical grids
    either way).
    """

    def __init__(
        self,
        problem: WavefrontProblem,
        grid: WavefrontGrid | None = None,
        tile: int = 1,
        workers: int = 1,
    ) -> None:
        self.problem = problem
        self.grid: WavefrontGrid | None = None
        dim = problem.dim
        self.decomposition = TileDecomposition(dim, dim, tile)
        self.tile = int(tile)
        self.workers = max(1, int(workers))
        self.scheduler = TileScheduler(self.decomposition, workers=self.workers)
        self.pipeline = PipelinedSchedule(self.decomposition)
        self._pool: ProcessPoolExecutor | None = None
        self._buffer: SharedGridBuffer | None = None
        self._orig_values: np.ndarray | None = None
        self._engine = None
        self._broken = False
        if self.workers >= 2:
            self._buffer = SharedGridBuffer.create(dim, dtype=np.float64)
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=_mp_context(),
                initializer=_init_worker,
                initargs=(problem, self._buffer.name, dim),
            )
        else:
            self._engine = DiagonalSweepEngine(problem)
        if grid is not None:
            self.bind(grid)

    @property
    def is_multiprocess(self) -> bool:
        """True when a real worker-process pool backs :meth:`run_range`."""
        return self._pool is not None

    @property
    def is_bound(self) -> bool:
        """True while a grid is attached via :meth:`bind`."""
        return self.grid is not None

    @property
    def broken(self) -> bool:
        """True once a worker process died (the pool cannot run again).

        A broken pool still releases its bound grid and :meth:`close`\\ s
        cleanly (the shared segment is unlinked); it is simply never reused —
        :meth:`repro.runtime.lifecycle.EngineHost.pool_for` builds a fresh
        pool in its place on the next request.
        """
        return self._broken

    @property
    def bound_multiprocess(self) -> bool:
        """True while the *bound* grid actually lives in the shared segment.

        Differs from :attr:`is_multiprocess` exactly when a grid whose
        dtype does not match the segment fell back to the in-process sweep.
        """
        return self._pool is not None and self._orig_values is not None

    def bind(self, grid: WavefrontGrid) -> "MPWavefrontPool":
        """Attach one request's grid to the pool (shared view while bound).

        In multiprocess mode the grid's values move into the shared segment
        (``grid.values`` becomes the shared view) unless the dtype does not
        match the segment, in which case the range is swept in-process — the
        same graceful degradation the single-shot constructor applied.
        """
        if self.grid is not None:
            raise ExecutionError(
                "MPWavefrontPool is already bound to a grid; release() it first"
            )
        if grid.dim != self.problem.dim:
            raise ExecutionError(
                f"grid of dim {grid.dim} bound to a pool built for "
                f"dim {self.problem.dim}"
            )
        self.grid = grid
        if self._buffer is not None and grid.values.dtype == self._buffer.values.dtype:
            self._buffer.values[...] = grid.values
            self._orig_values = grid.values
            grid.values = self._buffer.values
        return self

    def release(self) -> None:
        """Detach the bound grid, copying shared values back to private memory.

        The pool (workers, segment, per-worker engines) stays warm; call
        :meth:`bind` again to serve the next request.  A no-op when no grid
        is bound.
        """
        if self.grid is None:
            return
        if self._orig_values is not None:
            self._orig_values[...] = self._buffer.values
            self.grid.values = self._orig_values
            self._orig_values = None
        self.grid = None

    def run_range(
        self, d_lo: int, d_hi: int, dispatch: str = "barrier"
    ) -> tuple[int, int]:
        """Execute the tile wavefront over cell diagonals ``[d_lo, d_hi]``.

        Returns ``(tiles_executed, cells_computed)``.  ``dispatch`` selects
        how tiles reach the workers: ``"barrier"`` fans each tile-diagonal
        across the pool and barriers between diagonals
        (:func:`~repro.runtime.scheduler.run_schedule`); ``"pipelined"``
        drains a :class:`~repro.runtime.scheduler.DependencyGraph` instead,
        starting any tile the moment its west/north/north-west neighbours
        retire (:func:`~repro.runtime.scheduler.run_pipelined`).  Both
        orders respect the exact dependency contract of
        :meth:`~repro.runtime.vectorized.TileSweeper.sweep_tile`, so the
        resulting grids are bit-identical.
        """
        if dispatch not in ("barrier", "pipelined"):
            raise InvalidParameterError(
                f"unknown dispatch mode {dispatch!r}; expected 'barrier' or "
                "'pipelined'"
            )
        if d_hi < d_lo:
            return 0, 0
        if self.grid is None:
            raise ExecutionError("MPWavefrontPool.run_range called with no grid bound")
        if self._pool is None or self._orig_values is None:
            # Single-core (or dtype-fallback) path: whole-diagonal batches,
            # no tile penalty.  Dispatch order is moot with one in-process
            # worker, so both modes share this sweep.
            if self._engine is None:  # dtype fallback of a multiprocess pool
                self._engine = DiagonalSweepEngine(self.problem)
            return 0, self._engine.sweep(self.grid, d_lo, d_hi)
        cells = 0

        def collect(n: object) -> None:
            nonlocal cells
            cells += int(n)  # type: ignore[arg-type]

        try:
            if dispatch == "pipelined":
                executed = run_pipelined(
                    self.pipeline.graph(d_lo, d_hi),
                    _TileTask(d_lo, d_hi),
                    pool=self._pool,
                    collect=collect,
                )
            else:
                executed = run_schedule(
                    self.scheduler.waves(d_lo, d_hi),
                    _TileTask(d_lo, d_hi),
                    pool=self._pool,
                    collect=collect,
                )
        except BrokenProcessPool as crash:
            # A worker died (killed, OOM, segfault).  Mark the pool broken —
            # it can never run again — and surface a typed error so the
            # caller (session / shard supervisor) can rebuild and retry
            # instead of hanging or crashing the service.
            self._broken = True
            raise WorkerCrashError(
                f"worker process of the {self.workers}-worker pool died "
                f"mid-execution (dim {self.problem.dim}, tile {self.tile}): "
                f"{crash}"
            ) from crash
        return executed, cells

    def close(self) -> None:
        """Release any bound grid, shut the workers down, unlink the segment."""
        self.release()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._buffer is not None:
            self._buffer.close()
            self._buffer.unlink()
            self._buffer = None

    def __enter__(self) -> "MPWavefrontPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MPParallelExecutor(Executor):
    """Shared-memory multicore execution of the whole grid (scheme (b), real).

    The grid lives in shared memory, a persistent process pool executes the
    tile wavefront (barrier per tile-diagonal), and every worker sweeps its
    tiles with the tile-local strided-diagonal engine — combining the
    vectorized engine's batched evaluation with parallelism that actually
    scales with cores.
    Produces grids cell-for-cell identical to the serial reference.
    """

    strategy = "mp-parallel"
    #: Tile dispatch order handed to :meth:`MPWavefrontPool.run_range`.
    dispatch = "barrier"

    def __init__(
        self,
        system,
        constants=None,
        workers: int | None = None,
        pool_source=None,
    ) -> None:
        super().__init__(system, constants)
        self.workers = workers
        #: Optional ``(problem, tile, workers) -> MPWavefrontPool`` provider
        #: of *borrowed* pools (e.g. the session's
        #: :meth:`repro.runtime.lifecycle.EngineHost.pool_for`): the executor
        #: binds/releases the request's grid but never closes a borrowed
        #: pool, so the workers stay warm across requests.
        self.pool_source = pool_source

    def _resolved_workers(self) -> int:
        return resolve_worker_count(self.workers, self.system)

    def _breakdown(self, problem: WavefrontProblem, tunables: TunableParams) -> PhaseBreakdown:
        params = problem.input_params()
        return PhaseBreakdown(
            pre_s=self.cost_model.mp_parallel_time(
                params, tunables.cpu_tile, self._resolved_workers()
            )
        )

    def _run_functional(
        self, problem: WavefrontProblem, tunables: TunableParams
    ) -> tuple[WavefrontGrid, dict]:
        grid = problem.make_grid()
        workers = self._resolved_workers()
        if self.pool_source is not None:
            pool = self.pool_source(problem, tunables.cpu_tile, workers)
            pool.bind(grid)
            try:
                executed, cells = pool.run_range(
                    0, 2 * problem.dim - 2, dispatch=self.dispatch
                )
                stats = self._pool_stats(pool, executed, cells)
                stats["pool"] = "borrowed"
            finally:
                pool.release()
            return grid, stats
        with MPWavefrontPool(problem, grid, tunables.cpu_tile, workers) as pool:
            executed, cells = pool.run_range(
                0, 2 * problem.dim - 2, dispatch=self.dispatch
            )
            stats = self._pool_stats(pool, executed, cells)
        return grid, stats

    def _pool_stats(self, pool: MPWavefrontPool, executed: int, cells: int) -> dict:
        """The per-run statistics block shared by both pool ownership modes.

        ``mode`` reports how *this run* executed (the dtype fallback sweeps
        in-process even when a worker pool exists), so timings are never
        attributed to workers that did not participate.
        """
        return {
            "tiles_executed": executed,
            "cells_computed": cells,
            "tile_waves": pool.scheduler.n_waves,
            "workers": pool.workers,
            "dispatch": self.dispatch,
            "mode": "process-pool" if pool.bound_multiprocess else "in-process",
        }

    def _validate(self, problem: WavefrontProblem, tunables: TunableParams) -> TunableParams:
        # A pure-CPU strategy: keep the cpu_tile choice, drop GPU settings.
        tunables = tunables.clipped(problem.dim)
        return TunableParams(cpu_tile=tunables.cpu_tile)


class PipelinedMPExecutor(MPParallelExecutor):
    """Dependency-driven multicore execution: no barrier between tile waves.

    Identical to :class:`MPParallelExecutor` in every observable output —
    same shared grid, same per-worker tile sweeps, bit-identical grids and
    witnesses — but tiles are dispatched through the
    :class:`~repro.runtime.scheduler.DependencyGraph` of the pool instead of
    barrier-separated waves, so a tile of wave ``d + 1`` starts the moment
    its three neighbour tiles retire even while wave ``d`` stragglers are
    still running.  The cost model drops the per-wave straggler term
    accordingly (:meth:`repro.hardware.costmodel.CostModel.pipelined_time`).
    """

    strategy = "pipelined"
    dispatch = "pipelined"

    def _breakdown(self, problem: WavefrontProblem, tunables: TunableParams) -> PhaseBreakdown:
        params = problem.input_params()
        return PhaseBreakdown(
            pre_s=self.cost_model.pipelined_time(
                params, tunables.cpu_tile, self._resolved_workers()
            )
        )
