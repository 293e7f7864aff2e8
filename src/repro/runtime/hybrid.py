"""The three-phase hybrid executor (the paper's implementation strategy).

Phase 1 computes the diagonals before the band with tiled CPU parallelism,
phase 2 offloads the band to one or two (simulated) GPUs, phase 3 finishes
the remaining diagonals on the CPU.  Any phase may be empty depending on the
tunable parameters, so this executor subsumes the pure-CPU and pure-GPU
strategies as special cases.

Functionally the phases are one sweep: a single engine computes every cell
directly in the host grid, and the simulated GPUs contribute the operation
counts of :func:`repro.runtime.band.band_counters`, which are a function of
the plan.  What distinguishes the phases is what the cost model charges for
them.
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
from repro.runtime.band import band_counters
from repro.runtime.compute import compute_cells
from repro.runtime.executor_base import Executor


class HybridExecutor(Executor):
    """CPU / GPU / CPU three-phase execution of one wavefront instance.

    ``cpu_engine`` selects the engine that computes the values — of the CPU
    phases and of the band alike: ``"serial"`` (the default) follows the
    paper's tiled access order cell group by cell group, ``"vectorized"``
    evaluates each diagonal as one NumPy batch through
    :class:`repro.runtime.vectorized.DiagonalSweepEngine`, and ``"mp"`` runs
    the tile wavefront on the shared-memory worker team behind a
    :class:`repro.runtime.mp_parallel.MPWavefrontPool`.  All produce identical grids; the vectorized
    engine is what single-core tuned deployments use, the mp engine what
    multicore hosts use.  ``workers`` only applies to ``cpu_engine="mp"``
    (``None`` auto-detects, with a single-core fallback).
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
        #: :class:`repro.runtime.lifecycle.EngineHost`), whose worker team
        #: outlives the run and stays warm.
        self.pool_source = pool_source

    def _breakdown(self, problem: WavefrontProblem, tunables: TunableParams) -> PhaseBreakdown:
        return self.cost_model.hybrid_breakdown(problem.input_params(), tunables)

    # ------------------------------------------------------------------
    # Functional execution
    # ------------------------------------------------------------------
    def _run_functional(
        self, problem: WavefrontProblem, tunables: TunableParams
    ) -> tuple[WavefrontGrid, dict]:
        grid = problem.make_grid()
        params = problem.input_params()
        plan = ThreePhasePlan(params, tunables)
        stats: dict = {"plan": plan.describe()}

        # The simulated devices never hold a value the host grid does not,
        # so the phases differ in what the platform is charged for them, not
        # in how their cells are computed: one sweep of this executor's
        # engine fills the grid, crossing the three spans in wavefront order.
        if self.cpu_engine == "vectorized":
            from repro.runtime.vectorized import DiagonalSweepEngine

            # The engine is dropped with the run: this executor is cached by
            # the engine host and must not pin evaluator tables.
            DiagonalSweepEngine(problem).sweep(grid)
        elif self.cpu_engine == "mp":
            stats["cpu_workers"] = self._sweep_on_pool(problem, grid, tunables.cpu_tile)
        else:
            self._sweep_in_tile_order(problem, grid, tunables.cpu_tile)

        stats["phase1_cells"] = plan.pre.cells(problem.dim)
        if not plan.gpu.is_empty:
            stats.update(band_counters(plan, tunables, params.element_nbytes))
        stats["phase3_cells"] = plan.post.cells(problem.dim)
        return grid, stats

    def _sweep_on_pool(self, problem: WavefrontProblem, grid: WavefrontGrid, tile: int) -> int:
        """Run the tile wavefront on a worker pool; returns its worker count."""
        from repro.runtime.mp_parallel import pool_from, resolve_worker_count

        workers = resolve_worker_count(self.workers, self.system)
        # Leaving the block releases the grid; it stops only a private team.
        with pool_from(self.pool_source, problem, tile, workers) as pool:
            pool.bind(grid)
            pool.run_range(0, 2 * problem.dim - 2)
        return pool.workers

    @staticmethod
    def _sweep_in_tile_order(problem: WavefrontProblem, grid: WavefrontGrid, tile: int) -> None:
        """The serial engine: every diagonal, following the paper's tile order.

        Within each cell diagonal the cells are grouped by the CPU tile they
        belong to and computed group by group, mirroring how the tiled
        schedule touches memory, while preserving the wavefront dependency
        order exactly.
        """
        decomp = TileDecomposition(problem.dim, problem.dim, tile)
        for d in range(2 * problem.dim - 1):
            cells = dg.diagonal_cells(d, problem.dim, problem.dim)
            i, j = cells[:, 0], cells[:, 1]
            # Group the diagonal's cells by tile column so the access pattern
            # follows the tiling; order within the diagonal is irrelevant for
            # correctness because the cells are mutually independent.
            order = np.argsort(j // decomp.tile, kind="stable")
            compute_cells(problem, grid, i[order], j[order])
