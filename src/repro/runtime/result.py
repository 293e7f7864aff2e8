"""The result object returned by every executor."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from repro.core.grid import WavefrontGrid
from repro.core.params import InputParams, TunableParams


@dataclass
class ExecutionResult:
    """Outcome of executing one wavefront instance under one configuration.

    A functional result is measured: ``wall_time`` is how long the sweep
    took on the host, and ``grid`` holds every cell.  A simulate result is
    priced: ``rtime`` is the paper's quantity of interest, the simulated
    end-to-end runtime in seconds on the target platform, and ``breakdown``
    its per-phase :class:`~repro.hardware.costmodel.PhaseBreakdown`.  Each
    kind leaves the other's fields at ``None`` (``wall_time`` at 0).

    ``witness`` is the kernel's optional answer certificate (see
    :meth:`repro.core.pattern.WavefrontKernel.reconstruct_witness`) — e.g.
    the decoded Viterbi state path — reconstructed by traceback after the
    functional sweep; ``None`` for witness-free kernels and in simulate
    mode.  It is a 1-D ``int64`` array and travels with the result through
    the cache and the serving stack.

    Results are read-only by contract (a cache hit and a coalesced batch
    hand one object to many readers), so ``checksum``, ``grid_sha256`` and
    ``witness_sha256`` are computed once per object and remembered.
    """

    params: InputParams
    tunables: TunableParams
    system: str
    mode: str
    rtime: float | None = None
    #: A :class:`repro.hardware.costmodel.PhaseBreakdown`, named but not
    #: imported: the runtime never loads the cost model.
    breakdown: PhaseBreakdown | None = None  # noqa: F821
    grid: WavefrontGrid | None = None
    wall_time: float = 0.0
    stats: dict[str, Any] = field(default_factory=dict)
    witness: np.ndarray | None = None

    @property
    def value(self) -> float:
        """The wavefront's "answer": the value of the final cell (dim-1, dim-1).

        Only available in functional mode.
        """
        if self.grid is None:
            raise ValueError("functional grid not available for this result")
        return float(self.grid.values[-1, -1])

    @cached_property
    def checksum(self) -> float:
        """Sum of all grid values; a cheap whole-grid equality fingerprint.

        ``±inf`` when the sum leaves the float range although every value
        is finite (a ``stochastic-path`` grid near its cost bound): that is
        the sum's IEEE value, not a fault, so it raises no warning.
        """
        if self.grid is None:
            raise ValueError("functional grid not available for this result")
        with np.errstate(over="ignore"):
            return float(np.sum(self.grid.values))

    @cached_property
    def grid_sha256(self) -> str | None:
        """SHA-256 of the grid's raw bytes; ``None`` without a grid.

        Two grids share a digest iff their values are byte-identical: how a
        served answer is proven equal to in-process solving without the grid.
        """
        if self.grid is None:
            return None
        return hashlib.sha256(np.ascontiguousarray(self.grid.values)).hexdigest()

    @cached_property
    def witness_sha256(self) -> str | None:
        """SHA-256 of the witness array's bytes; ``None`` without one.

        Separate from the grid's, so a traceback bug fails on its own digest.
        """
        if self.witness is None:
            return None
        return hashlib.sha256(np.ascontiguousarray(self.witness)).hexdigest()

    def matches(self, other: "ExecutionResult") -> bool:
        """True when both results carry bit-identical grids and witnesses.

        Every engine reproduces the serial sweep exactly, so no tolerance
        applies: the grids' values must be equal element for element and
        the witnesses, when present on either side, exactly equal.
        """
        if self.grid is None or other.grid is None:
            return False
        if not np.array_equal(self.grid.values, other.grid.values):
            return False
        if self.witness is None or other.witness is None:
            return self.witness is None and other.witness is None
        return np.array_equal(self.witness, other.witness)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        clock = (
            f"rtime={self.rtime:.4g}s" if self.rtime is not None else f"wall={self.wall_time:.4g}s"
        )
        return (
            f"ExecutionResult(system={self.system!r}, mode={self.mode!r}, "
            f"dim={self.params.dim}, tsize={self.params.tsize}, "
            f"config={self.tunables.describe()}, {clock})"
        )
