"""The three-phase hybrid execution plan (Section 2, Figure 2 of the paper).

Given input parameters and tunable parameters, :class:`ThreePhasePlan`
derives which anti-diagonals belong to each phase:

* **phase 1** — diagonals before the GPU band, computed on the CPU with
  tiled parallelism;
* **phase 2** — the band of ``2*band + 1`` diagonals centred on the main
  anti-diagonal, computed on one or two GPUs;
* **phase 3** — the remaining diagonals, back on the CPU.

Either the CPU phases or the GPU phase may be empty: ``band == -1`` yields a
pure-CPU plan, and a band that covers every diagonal yields a pure-GPU plan.

A plan is an immutable function of ``(input_params, tunables)``, and so is
everything derived from it: the band's geometry here, the band's operation
counts in :mod:`repro.runtime.band`.  :func:`plan_for` therefore hands out
one shared plan object per pair, and :meth:`ThreePhasePlan.once` keeps what
was derived from a plan with the plan, so a request that repeats a plan
repeats none of that work.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from repro.core import diagonal as dg
from repro.core.exceptions import PlanError
from repro.core.params import InputParams, TunableParams
from repro.utils.lru import LRUCache

T = TypeVar("T")


class Phase(enum.Enum):
    """The three phases of the hybrid execution strategy."""

    CPU_PRE = 1
    GPU_BAND = 2
    CPU_POST = 3


@dataclass(frozen=True)
class PhaseSpan:
    """A contiguous, possibly empty, range of diagonals ``[lo, hi]`` of one phase."""

    phase: Phase
    lo: int
    hi: int

    @property
    def is_empty(self) -> bool:
        """True when the span covers no diagonals."""
        return self.hi < self.lo

    @property
    def n_diagonals(self) -> int:
        """Number of diagonals the span covers."""
        return 0 if self.is_empty else self.hi - self.lo + 1

    def cells(self, dim: int) -> int:
        """Number of grid cells covered by this span on a ``dim`` square grid."""
        if self.is_empty:
            return 0
        return dg.cells_in_diagonal_range(self.lo, self.hi, dim)


class ThreePhasePlan:
    """Concrete decomposition of one wavefront instance under given tunables."""

    def __init__(self, input_params: InputParams, tunables: TunableParams) -> None:
        self.input_params = input_params
        # Clip the tunables to the instance so that plans built from raw
        # search-space points (whose band/halo scales are absolute) are valid.
        self.tunables = tunables.clipped(input_params.dim)
        dim = input_params.dim
        last = 2 * dim - 2

        if not self.tunables.uses_gpu:
            band_lo, band_hi = 0, -1  # empty GPU span
        else:
            band_lo, band_hi = dg.band_diagonal_range(dim, self.tunables.band)

        self.pre = PhaseSpan(Phase.CPU_PRE, 0, band_lo - 1)
        self.gpu = PhaseSpan(Phase.GPU_BAND, band_lo, band_hi)
        self.post = PhaseSpan(Phase.CPU_POST, band_hi + 1, last)
        self._cells = {span.phase: span.cells(dim) for span in self.spans}
        #: What :meth:`once` has derived from this plan, by deriving function.
        self._derived: dict[Callable, object] = {}
        self._validate()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        last = 2 * self.input_params.dim - 2
        covered = sum(s.n_diagonals for s in self.spans)
        if covered == 0:
            raise PlanError("plan covers no diagonals")
        if covered != last + 1:
            raise PlanError(
                f"plan covers {covered} diagonals, expected {last + 1}"
            )
        total_cells = sum(self._cells.values())
        if total_cells != self.input_params.cells:
            raise PlanError(
                f"plan covers {total_cells} cells, expected {self.input_params.cells}"
            )

    def once(self, derive: Callable[["ThreePhasePlan"], T]) -> T:
        """``derive(self)``, evaluated at most once for this plan object.

        For values that are a function of the plan alone.  The value is
        handed to every later caller, so it must be immutable or be copied
        before it is passed on; a ``derive`` that raises leaves nothing
        behind and runs again on the next call.
        """
        try:
            return self._derived[derive]
        except KeyError:
            value = self._derived[derive] = derive(self)
            return value

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def spans(self) -> tuple[PhaseSpan, PhaseSpan, PhaseSpan]:
        """The (pre, gpu, post) spans in execution order."""
        return (self.pre, self.gpu, self.post)

    def cells_per_phase(self) -> dict[Phase, int]:
        """Number of cells computed by each phase."""
        return dict(self._cells)

    def gpu_diagonal_lengths(self) -> np.ndarray:
        """Lengths of the diagonals in the GPU band, in execution order.

        Diagonal ``d`` of a square grid has ``dim - |d - (dim - 1)|`` cells.
        The band is centred on the main anti-diagonal, so a non-empty band's
        longest diagonal is always ``dim`` cells.
        """
        dim = self.input_params.dim
        return dim - np.abs(np.arange(self.gpu.lo, self.gpu.hi + 1) - (dim - 1))

    def offload_nbytes(self) -> int:
        """Bytes transferred host->device before phase 2 (and back after it).

        The GPU needs the band's cells plus the two boundary diagonals
        preceding the band (wavefront dependencies reach back two diagonals).
        """
        if self.gpu.is_empty:
            return 0
        # The band starts on or before the main diagonal, so the boundary
        # diagonals lo - 1 and lo - 2 lie in the growing half of the grid,
        # where diagonal d has d + 1 cells (and none off the grid).
        lo = self.gpu.lo
        boundary = lo + max(lo - 1, 0)
        return (self._cells[Phase.GPU_BAND] + boundary) * self.input_params.element_nbytes

    def describe(self) -> str:
        """Human-readable summary of the plan."""
        return self.once(_describe)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThreePhasePlan({self.describe()})"


def _describe(plan: ThreePhasePlan) -> str:
    return " -> ".join(
        f"{span.phase.name}[{span.lo}..{span.hi}] ({plan._cells[span.phase]} cells)"
        for span in plan.spans
        if not span.is_empty
    )


#: How many distinct ``(input_params, tunables)`` pairs :func:`plan_for`
#: keeps (the size of a session's own plan LRU).
PLAN_CACHE_SIZE = 128

_plans = LRUCache(PLAN_CACHE_SIZE)


def plan_for(input_params: InputParams, tunables: TunableParams) -> ThreePhasePlan:
    """The plan of ``(input_params, tunables)``, shared between its users.

    Both halves of a hybrid solve — the cost model's breakdown and the
    executor's phase accounting — need the same plan; they obtain it here so
    it is built and validated once, and what either derives from it
    (:meth:`ThreePhasePlan.once`) is there for the next solve of the same
    pair.  Least-recently-used pairs beyond :data:`PLAN_CACHE_SIZE` are
    dropped; a pair whose plan is invalid raises every time and is never
    kept.
    """
    return _plans.get_or_create(
        (input_params, tunables), lambda: ThreePhasePlan(input_params, tunables)
    )
