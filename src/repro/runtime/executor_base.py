"""Common executor machinery: validation and result assembly.

An executor computes; it never prices.  A functional result carries the
host's ``wall_time`` and no simulated ``rtime`` — pricing a plan is the cost
model's job (:meth:`repro.hardware.costmodel.CostModel.price`, reached
through ``Session.run(plan, mode="simulate")``), and no module of this
package imports it.

A run may carry a :class:`Deadline`: every engine checks it once per step
(a row or an anti-diagonal of a sweep, a region released to a worker team)
and stops with a :class:`~repro.core.exceptions.DeadlineError` at the
first check past it.  A run without one checks nothing.
"""

from __future__ import annotations

import abc
import enum
import math
import operator
import threading
import time
from collections.abc import Iterable, Iterator
from itertools import chain, compress, repeat, takewhile

from repro.core.exceptions import DeadlineError, ExecutionError, InvalidParameterError
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


class Deadline:
    """The instant a run stops at: an absolute ``clock()`` reading.

    ``clock`` defaults to :func:`time.perf_counter`; tests pass a stub.
    ``at`` is read afresh at every check, so :meth:`expire` stops a run in
    progress at its next check (``math.inf`` never passes).  ``waited_s``
    is the time the run spent waiting for the session's run lock.
    """

    __slots__ = ("at", "clock", "waited_s")

    def __init__(self, at: float, clock=time.perf_counter) -> None:
        self.at = at
        self.clock = clock
        self.waited_s = 0.0

    def passed(self) -> bool:
        """True once the clock reads past :attr:`at`."""
        return self.clock() > self.at

    def remaining(self) -> float:
        """Seconds left (0 when passed), capped for :mod:`threading` waits."""
        return min(max(0.0, self.at - self.clock()), threading.TIMEOUT_MAX)

    def expire(self) -> None:
        """Move the deadline to the past: the run stops at its next check."""
        self.at = -math.inf


def paced(steps: Iterable, deadline: Deadline | None) -> Iterable:
    """``steps``, with ``deadline`` checked before each one.

    Without a deadline this is ``steps`` itself, so a loop over it does no
    added work per step.  With one, each step costs one ``clock()``
    reading compared with ``deadline.at``, chained in C (no Python frame
    per step): the steps stop at the first reading past it, and the loop
    raises :class:`~repro.core.exceptions.DeadlineError` instead of ending.
    """
    if deadline is None:
        return steps
    on_time = map(operator.le, iter(deadline.clock, None), map(_AT, repeat(deadline)))
    return chain(compress(steps, takewhile(bool, on_time)), _raise_if_late(deadline))


#: ``deadline.at``, read afresh for every step.
_AT = operator.attrgetter("at")


def _raise_if_late(deadline: Deadline) -> Iterator:
    """An iterator of nothing that raises once ``deadline`` has passed."""
    if deadline.passed():
        raise DeadlineError("the sweep reached its deadline and stopped")
    yield from ()


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
        self,
        problem: WavefrontProblem,
        tunables: TunableParams,
        deadline: Deadline | None = None,
    ) -> tuple[WavefrontGrid, dict]:
        """Really compute the grid, stopping at ``deadline``; returns (grid, extra stats)."""

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
        self,
        problem: WavefrontProblem,
        tunables: TunableParams | None = None,
        deadline: Deadline | None = None,
    ) -> ExecutionResult:
        """Compute ``problem`` under ``tunables`` and time the sweep.

        Past ``deadline`` the sweep stops with a
        :class:`~repro.core.exceptions.DeadlineError` and nothing is returned.
        """
        tunables = self._validate(self.system, problem.dim, tunables or TunableParams())
        t0 = time.perf_counter()
        grid, extra = self._run_functional(problem, tunables, deadline)
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
