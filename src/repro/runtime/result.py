"""The result object returned by every executor."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from repro.core.grid import WavefrontGrid
from repro.core.params import InputParams, TunableParams
from repro.hardware.costmodel import PhaseBreakdown


@dataclass
class ExecutionResult:
    """Outcome of executing one wavefront instance under one configuration.

    ``rtime`` is the paper's quantity of interest: the simulated end-to-end
    runtime in seconds on the target platform.  ``wall_time`` is how long the
    reproduction actually took on the host (only meaningful in functional
    mode).  ``grid`` is populated in functional mode only.

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
    rtime: float
    breakdown: PhaseBreakdown = field(default_factory=PhaseBreakdown)
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
        """Sum of all grid values; a cheap whole-grid equality fingerprint."""
        if self.grid is None:
            raise ValueError("functional grid not available for this result")
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

    def summary(self) -> dict[str, Any]:
        """Flat dictionary used by reports and persistence."""
        out: dict[str, Any] = {
            "system": self.system,
            "mode": self.mode,
            "dim": self.params.dim,
            "tsize": self.params.tsize,
            "dsize": self.params.dsize,
            "cpu_tile": self.tunables.cpu_tile,
            "band": self.tunables.band,
            "gpu_count": self.tunables.gpu_count,
            "gpu_tile": self.tunables.gpu_tile,
            "halo": self.tunables.halo,
            "rtime": self.rtime,
            "wall_time": self.wall_time,
        }
        out.update({f"breakdown_{k}": v for k, v in self.breakdown.to_dict().items()})
        out.update(self.stats)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExecutionResult(system={self.system!r}, mode={self.mode!r}, "
            f"dim={self.params.dim}, tsize={self.params.tsize}, "
            f"config={self.tunables.describe()}, rtime={self.rtime:.4g}s)"
        )
