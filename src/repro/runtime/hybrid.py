"""The three-phase hybrid executor (the paper's implementation strategy).

Phase 1 computes the diagonals before the band with tiled CPU parallelism,
phase 2 offloads the band to one or two (simulated) GPUs, phase 3 finishes
the remaining diagonals on the CPU.  Any phase may be empty depending on the
tunable parameters, so this executor subsumes the pure-CPU and pure-GPU
strategies as special cases.
"""

from __future__ import annotations

import numpy as np

from repro.core import diagonal as dg
from repro.core.exceptions import InvalidParameterError
from repro.core.grid import WavefrontGrid
from repro.core.params import TunableParams
from repro.core.pattern import WavefrontProblem
from repro.core.plan import ThreePhasePlan
from repro.core.tiling import TileDecomposition
from repro.hardware.costmodel import PhaseBreakdown
from repro.runtime.band import BandRunner
from repro.runtime.compute import compute_cells
from repro.runtime.executor_base import Executor


class HybridExecutor(Executor):
    """CPU / GPU / CPU three-phase execution of one wavefront instance.

    ``cpu_engine`` selects the backend of the CPU phases: ``"serial"`` (the
    default) follows the paper's tiled access order cell group by cell
    group, ``"vectorized"`` evaluates each diagonal of the CPU triangles as
    one NumPy batch through :class:`repro.runtime.vectorized.DiagonalSweepEngine`,
    and ``"mp"`` runs the tile wavefront of both CPU triangles on the
    shared-memory worker-process pool of
    :class:`repro.runtime.mp_parallel.MPWavefrontPool` (one persistent pool
    serves phases 1 and 3; the GPU band phase in between writes into the
    same shared view the workers read).  All produce identical grids; the
    vectorized engine is what single-core tuned deployments use, the mp
    engine what multicore hosts use.  ``workers`` only applies to
    ``cpu_engine="mp"`` (``None`` auto-detects, with a single-core
    fallback).
    """

    strategy = "hybrid"

    def __init__(
        self,
        system,
        constants=None,
        cpu_engine: str = "serial",
        workers: int | None = None,
        pool_source=None,
    ) -> None:
        super().__init__(system, constants)
        if cpu_engine not in ("serial", "vectorized", "mp"):
            raise InvalidParameterError(
                f"cpu_engine must be 'serial', 'vectorized' or 'mp', got {cpu_engine!r}"
            )
        self.cpu_engine = cpu_engine
        self.workers = workers
        #: Optional ``(problem, tile, workers) -> MPWavefrontPool`` provider
        #: of borrowed pools for ``cpu_engine="mp"`` (the session's
        #: :class:`repro.runtime.lifecycle.EngineHost`); borrowed pools are
        #: released after the run, never closed, so they stay warm.
        self.pool_source = pool_source
        # Built once per functional run; shared by both CPU phases.
        self._sweep_engine = None
        self._mp_pool = None
        self._pool_borrowed = False

    def _breakdown(self, problem: WavefrontProblem, tunables: TunableParams) -> PhaseBreakdown:
        return self.cost_model.hybrid_breakdown(problem.input_params(), tunables)

    # ------------------------------------------------------------------
    # Functional execution
    # ------------------------------------------------------------------
    def _run_functional(
        self, problem: WavefrontProblem, tunables: TunableParams
    ) -> tuple[WavefrontGrid, dict]:
        grid = problem.make_grid()
        plan = ThreePhasePlan(problem.input_params(), tunables)
        stats: dict = {"plan": plan.describe()}

        # One engine serves both CPU phases: its fused-evaluator precompute
        # (e.g. a dim x dim substitution grid) is O(dim^2) and must not be
        # paid per phase.  It is dropped with the run: this executor is
        # cached by the engine host and must not pin evaluator tables.
        self._sweep_engine = None
        self._mp_pool = None
        self._pool_borrowed = False
        if self.cpu_engine == "vectorized":
            from repro.runtime.vectorized import DiagonalSweepEngine

            self._sweep_engine = DiagonalSweepEngine(problem)
        elif self.cpu_engine == "mp":
            from repro.runtime.mp_parallel import MPWavefrontPool, resolve_worker_count

            workers = resolve_worker_count(self.workers, self.system)
            if self.pool_source is not None:
                self._mp_pool = self.pool_source(problem, tunables.cpu_tile, workers)
                self._pool_borrowed = True
                self._mp_pool.bind(grid)
            else:
                self._mp_pool = MPWavefrontPool(
                    problem, grid, tunables.cpu_tile, workers
                )
            stats["cpu_workers"] = self._mp_pool.workers

        try:
            # Phase 1: CPU tiles over the leading triangle.
            cells_pre = self._compute_cpu_span(problem, grid, plan.pre.lo, plan.pre.hi, tunables)
            stats["phase1_cells"] = cells_pre

            # Phase 2: the GPU band.  With the mp engine, grid.values is the
            # shared view, so band results land where the workers read.
            if not plan.gpu.is_empty:
                stats.update(BandRunner(problem, grid, plan, tunables).run())

            # Phase 3: CPU tiles over the trailing triangle.
            cells_post = self._compute_cpu_span(problem, grid, plan.post.lo, plan.post.hi, tunables)
            stats["phase3_cells"] = cells_post
        finally:
            self._sweep_engine = None
            if self._mp_pool is not None:
                if self._pool_borrowed:
                    self._mp_pool.release()
                else:
                    self._mp_pool.close()
                self._mp_pool = None
                self._pool_borrowed = False
        return grid, stats

    def _compute_cpu_span(
        self,
        problem: WavefrontProblem,
        grid: WavefrontGrid,
        d_lo: int,
        d_hi: int,
        tunables: TunableParams,
    ) -> int:
        """Compute diagonals ``d_lo .. d_hi`` on the CPU, following the tile order.

        Within each cell diagonal the cells are grouped by the CPU tile they
        belong to and computed group by group, mirroring how the tiled
        schedule touches memory, while preserving the wavefront dependency
        order exactly.  With ``cpu_engine="vectorized"`` the span is instead
        swept diagonal batch by diagonal batch.
        """
        if d_hi < d_lo:
            return 0
        if self._mp_pool is not None:
            _, cells = self._mp_pool.run_range(d_lo, d_hi)
            return cells
        if self._sweep_engine is not None:
            return self._sweep_engine.sweep(grid, d_lo, d_hi)
        decomp = TileDecomposition(problem.dim, problem.dim, tunables.cpu_tile)
        total = 0
        for d in range(d_lo, d_hi + 1):
            cells = dg.diagonal_cells(d, problem.dim, problem.dim)
            i, j = cells[:, 0], cells[:, 1]
            # Group the diagonal's cells by tile column so the access pattern
            # follows the tiling; order within the diagonal is irrelevant for
            # correctness because the cells are mutually independent.
            order = np.argsort(j // decomp.tile, kind="stable")
            compute_cells(problem, grid, i[order], j[order])
            total += cells.shape[0]
        return total
