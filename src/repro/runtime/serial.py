"""The optimised sequential baseline executor."""

from __future__ import annotations

from repro.core.grid import WavefrontGrid
from repro.core.params import TunableParams
from repro.core.pattern import WavefrontProblem
from repro.runtime.compute import compute_diagonal_range
from repro.runtime.executor_base import Deadline, Executor


class SerialExecutor(Executor):
    """Single-core sequential sweep of the whole grid.

    This is the baseline every speedup in the paper is reported against
    ("an optimized sequential baseline"), and it is also the reference
    implementation the parallel executors are validated against in the test
    suite.
    """

    strategy = "serial"

    def _run_functional(
        self,
        problem: WavefrontProblem,
        tunables: TunableParams,
        deadline: Deadline | None = None,
    ) -> tuple[WavefrontGrid, dict]:
        grid = problem.make_grid()
        cells = compute_diagonal_range(problem, grid, 0, 2 * problem.dim - 2, deadline)
        return grid, {"cells_computed": cells}

    @classmethod
    def _validate(cls, system, dim: int, tunables: TunableParams) -> TunableParams:
        # The serial baseline ignores tunables entirely; normalise them so the
        # result object records the canonical serial configuration.
        return TunableParams(cpu_tile=1)
