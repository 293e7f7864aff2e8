"""Common executor machinery: modes, validation, result assembly."""

from __future__ import annotations

import abc
import enum
import time

from repro.core.exceptions import ExecutionError, InvalidParameterError
from repro.core.grid import WavefrontGrid
from repro.core.params import TunableParams
from repro.core.pattern import WavefrontProblem
from repro.core.plan import PLAN_CACHE_SIZE
from repro.hardware.costmodel import CostConstants, CostModel, PhaseBreakdown
from repro.hardware.system import SystemSpec
from repro.runtime.result import ExecutionResult
from repro.utils.lru import LRUCache


class ExecutionMode(enum.Enum):
    """How an executor runs.

    ``FUNCTIONAL`` really computes every cell (and additionally reports the
    simulated ``rtime``); ``SIMULATE`` evaluates only the cost model, which is
    what the exhaustive parameter sweeps use.
    """

    FUNCTIONAL = "functional"
    SIMULATE = "simulate"

    @classmethod
    def coerce(cls, value: "ExecutionMode | str") -> "ExecutionMode":
        """Accept either the enum or its string value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise InvalidParameterError(
                f"unknown execution mode {value!r}; expected one of: {valid}"
            ) from None


class Executor(abc.ABC):
    """Base class of all executors.

    Subclasses implement :meth:`_run_functional` (compute the grid) and
    :meth:`_breakdown` (cost-model prediction); :meth:`execute` assembles the
    :class:`repro.runtime.result.ExecutionResult` common to both modes.
    """

    #: Name recorded in results (overridden by subclasses).
    strategy = "base"

    def __init__(
        self, system: SystemSpec, constants: CostConstants | None = None
    ) -> None:
        self.system = system
        self.cost_model = CostModel(system, constants)
        # As many simulated breakdowns as there are plans to derive them from.
        self._breakdowns = LRUCache(PLAN_CACHE_SIZE)

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _breakdown(self, problem: WavefrontProblem, tunables: TunableParams) -> PhaseBreakdown:
        """Cost-model breakdown for this strategy on this problem."""

    @abc.abstractmethod
    def _run_functional(
        self, problem: WavefrontProblem, tunables: TunableParams
    ) -> tuple[WavefrontGrid, dict]:
        """Really compute the grid; returns (grid, extra stats)."""

    def _validate(self, problem: WavefrontProblem, tunables: TunableParams) -> TunableParams:
        """Clip tunables to the problem and check them against the platform."""
        tunables = tunables.clipped(problem.dim)
        if tunables.gpu_count > self.system.gpu_count:
            raise InvalidParameterError(
                f"configuration needs {tunables.gpu_count} GPUs but system "
                f"{self.system.name!r} has {self.system.gpu_count}"
            )
        return tunables

    def _simulated(self, problem: WavefrontProblem, tunables: TunableParams) -> PhaseBreakdown:
        """:meth:`_breakdown`, evaluated once per ``(input params, tunables)``.

        The breakdown is a function of that pair and of this executor's
        platform and constants, so repeated executions of one plan share one
        (immutable) :class:`PhaseBreakdown`.  Sweeps over configurations that
        never repeat — tuner training — price through :class:`CostModel`
        directly and keep nothing.
        """
        return self._breakdowns.get_or_create(
            (problem.input_params(), tunables), lambda: self._breakdown(problem, tunables)
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(
        self,
        problem: WavefrontProblem,
        tunables: TunableParams | None = None,
        mode: ExecutionMode | str = ExecutionMode.FUNCTIONAL,
    ) -> ExecutionResult:
        """Run ``problem`` under ``tunables`` in the requested mode."""
        mode = ExecutionMode.coerce(mode)
        tunables = self._validate(problem, tunables or TunableParams())
        params = problem.input_params()
        breakdown = self._simulated(problem, tunables)

        grid = None
        witness = None
        stats: dict = {"strategy": self.strategy}
        wall = 0.0
        if mode is ExecutionMode.FUNCTIONAL:
            t0 = time.perf_counter()
            grid, extra = self._run_functional(problem, tunables)
            wall = time.perf_counter() - t0
            if grid.dim != problem.dim:
                raise ExecutionError(
                    f"{self.strategy} executor returned a grid of dim {grid.dim}, "
                    f"expected {problem.dim}"
                )
            stats.update(extra)
            # Single witness-reconstruction point for every backend: the
            # traceback is a pure function of the finished grid, so running
            # it here (not inside _run_functional) keeps serial, vectorized,
            # multicore and hybrid strategies byte-identical by construction.
            witness = problem.kernel.reconstruct_witness(grid.values)

        return ExecutionResult(
            params=params,
            tunables=tunables,
            system=self.system.name,
            mode=mode.value,
            rtime=breakdown.total_s,
            breakdown=breakdown,
            grid=grid,
            wall_time=wall,
            stats=stats,
            witness=witness,
        )
