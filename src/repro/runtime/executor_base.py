"""Common executor machinery: validation and result assembly.

An executor computes; it never prices.  A functional result carries the
host's ``wall_time`` and no simulated ``rtime`` — pricing a plan is the cost
model's job (:meth:`repro.hardware.costmodel.CostModel.price`, reached
through ``Session.run(plan, mode="simulate")``), and no module of this
package imports it.
"""

from __future__ import annotations

import abc
import enum
import time

from repro.core.exceptions import ExecutionError, InvalidParameterError
from repro.core.grid import WavefrontGrid
from repro.core.params import TunableParams
from repro.core.pattern import WavefrontProblem
from repro.hardware.system import SystemSpec
from repro.runtime.result import ExecutionResult


class ExecutionMode(enum.Enum):
    """How a :class:`repro.session.Session` runs a plan.

    ``FUNCTIONAL`` really computes every cell on an executor; ``SIMULATE``
    evaluates only the cost model, building neither problem nor executor.
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

    Subclasses implement :meth:`_run_functional` (compute the grid) and may
    override :meth:`_validate` (their tunables rule); :meth:`execute`
    assembles the :class:`repro.runtime.result.ExecutionResult`.
    """

    #: Name recorded in results (overridden by subclasses).
    strategy = "base"

    def __init__(self, system: SystemSpec) -> None:
        self.system = system

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _run_functional(
        self, problem: WavefrontProblem, tunables: TunableParams
    ) -> tuple[WavefrontGrid, dict]:
        """Really compute the grid; returns (grid, extra stats)."""

    @classmethod
    def _validate(cls, system: SystemSpec, dim: int, tunables: TunableParams) -> TunableParams:
        """Clip tunables to a ``dim`` grid and check them against the platform.

        A class-level rule, so simulate mode records the tunables an
        executor of this class would run without building one.
        """
        tunables = tunables.clipped(dim)
        if tunables.gpu_count > system.gpu_count:
            raise InvalidParameterError(
                f"configuration needs {tunables.gpu_count} GPUs but system "
                f"{system.name!r} has {system.gpu_count}"
            )
        return tunables

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(
        self, problem: WavefrontProblem, tunables: TunableParams | None = None
    ) -> ExecutionResult:
        """Compute ``problem`` under ``tunables`` and time the sweep."""
        tunables = self._validate(self.system, problem.dim, tunables or TunableParams())
        t0 = time.perf_counter()
        grid, extra = self._run_functional(problem, tunables)
        wall = time.perf_counter() - t0
        if grid.dim != problem.dim:
            raise ExecutionError(
                f"{self.strategy} executor returned a grid of dim {grid.dim}, "
                f"expected {problem.dim}"
            )
        # Single witness-reconstruction point for every backend: the
        # traceback is a pure function of the finished grid, so running it
        # here (not inside _run_functional) keeps serial, vectorized,
        # multicore and hybrid strategies byte-identical by construction.
        return ExecutionResult(
            params=problem.input_params(),
            tunables=tunables,
            system=self.system.name,
            mode=ExecutionMode.FUNCTIONAL.value,
            grid=grid,
            wall_time=wall,
            stats={"strategy": self.strategy, **extra},
            witness=problem.kernel.reconstruct_witness(grid.values),
        )
