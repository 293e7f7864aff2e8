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

from repro.core.grid import WavefrontGrid
from repro.core.params import TunableParams
from repro.core.pattern import WavefrontProblem
from repro.core.plan import Phase, plan_for
from repro.runtime.band import band_counters
from repro.runtime.executor_base import Deadline, Executor


class HybridExecutor(Executor):
    """CPU / GPU / CPU three-phase execution of one wavefront instance.

    ``engine`` names the registered executor
    (:mod:`repro.runtime.registry` — any strategy but this one; ``None`` is
    the preferred serial engine) that computes the values, of the CPU phases
    and of the band alike: this executor builds it once, with
    ``engine_kwargs`` as its constructor arguments (``workers`` /
    ``pool_source`` for the engines that run on a worker team), and fills
    the grid through that executor's own functional sweep.  All engines
    produce identical grids.
    """

    strategy = "hybrid"

    def __init__(self, system, engine: str | None = None, **engine_kwargs) -> None:
        super().__init__(system)
        from repro.runtime.registry import fill_engine, get_executor

        #: The executor that fills the grid, built from the ``engine`` name.
        self.fill: Executor = get_executor(
            fill_engine(self.strategy, engine), system, **engine_kwargs
        )

    # ------------------------------------------------------------------
    # Functional execution
    # ------------------------------------------------------------------
    def _run_functional(
        self,
        problem: WavefrontProblem,
        tunables: TunableParams,
        deadline: Deadline | None = None,
    ) -> tuple[WavefrontGrid, dict]:
        params = problem.input_params()
        plan = plan_for(params, tunables)
        # The simulated devices never hold a value the host grid does not,
        # so the phases differ in what the platform is charged for them, not
        # in how their cells are computed: one sweep of this executor's
        # engine fills the grid, crossing the three spans in wavefront order.
        fill = self.fill
        grid, fill_stats = fill._run_functional(
            problem, fill._validate(self.system, problem.dim, tunables), deadline
        )
        stats: dict = {"plan": plan.describe(), "engine": fill.strategy, **fill_stats}
        cells = plan.cells_per_phase()
        stats["phase1_cells"] = cells[Phase.CPU_PRE]
        if not plan.gpu.is_empty:
            stats.update(band_counters(plan))
        stats["phase3_cells"] = cells[Phase.CPU_POST]
        return grid, stats
