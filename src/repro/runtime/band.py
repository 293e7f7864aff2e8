"""Functional execution of the GPU band (phase 2 of the hybrid strategy).

One :class:`BandRunner` emulates 1 or 2 GPUs sweeping the band of diagonals
assigned to phase 2:

* every diagonal is split across the devices by
  :func:`repro.core.partition.partition_diagonal`, with each device also
  computing a redundant *halo* of its neighbour's cells;
* a device keeps the two previously computed diagonals locally, together
  with a per-cell validity mask: cells computed from locally valid data are
  valid, everything else goes stale as the sweep advances;
* whenever a device could no longer compute its *owned* cells from valid
  local data, a **halo swap** is performed: the devices exchange their owned
  segments of the previous two diagonals through the host;
* at the end of the band every device flushes its owned results back to the
  host grid (the paper's single "results back" transfer).

The runner's results are bit-identical to the serial sweep by construction —
this is asserted by the integration and property tests — while its operation
counters (kernel launches, halo swaps, transfer volumes) are what the analytic
cost model charges time for.  The simulated platform is exactly those
counters: kernels are the problem's own ``diagonal`` callable evaluated on
the host, and every launch, transfer and swap a real harness would enqueue
increments an integer here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import diagonal as dg
from repro.core.exceptions import ExecutionError
from repro.core.grid import WavefrontGrid
from repro.core.params import TunableParams
from repro.core.partition import partition_diagonal
from repro.core.pattern import WavefrontProblem
from repro.core.plan import ThreePhasePlan


@dataclass
class _DeviceDiagonal:
    """A device's local copy of one diagonal: values plus per-cell validity."""

    d: int
    vals: np.ndarray
    valid: np.ndarray

    @classmethod
    def empty(cls, d: int, length: int) -> "_DeviceDiagonal":
        return cls(d=d, vals=np.zeros(length), valid=np.zeros(length, dtype=bool))

    @classmethod
    def full(cls, d: int, vals: np.ndarray) -> "_DeviceDiagonal":
        vals = np.asarray(vals, dtype=float)
        return cls(d=d, vals=vals.copy(), valid=np.ones(vals.size, dtype=bool))


@dataclass
class _DeviceState:
    """Everything one device keeps across the band sweep."""

    index: int
    prev1: _DeviceDiagonal | None = None
    prev2: _DeviceDiagonal | None = None
    #: (diagonal, own_start, values) accumulated for the final flush.
    own_segments: list[tuple[int, int, np.ndarray]] = field(default_factory=list)

    def rotate(self, current: _DeviceDiagonal) -> None:
        self.prev2 = self.prev1
        self.prev1 = current

    def owned_cells(self) -> int:
        return sum(seg[2].size for seg in self.own_segments)


def _dependency_indices(d: int, ks: np.ndarray, dim: int):
    """Dependency bookkeeping for cells at local offsets ``ks`` on diagonal ``d``.

    Returns ``(i, j, kw, kn, knw, has_w, has_n, has_nw)`` where the ``k*``
    arrays are local offsets into diagonals ``d-1`` / ``d-2`` and the
    ``has_*`` masks say whether the corresponding neighbour exists at all.
    """
    i_min_d = max(0, d - (dim - 1))
    i = i_min_d + ks
    j = d - i
    i_min_1 = max(0, (d - 1) - (dim - 1))
    i_min_2 = max(0, (d - 2) - (dim - 1))
    has_w = j >= 1
    has_n = i >= 1
    has_nw = has_w & has_n
    kw = i - i_min_1
    kn = i - 1 - i_min_1
    knw = i - 1 - i_min_2
    return i, j, kw, kn, knw, has_w, has_n, has_nw


def _lookup(diag: _DeviceDiagonal | None, k: np.ndarray, needed: np.ndarray):
    """Return (values, valid) for local offsets ``k`` on a device diagonal.

    Offsets that are not ``needed`` report valid (their value is irrelevant);
    offsets outside the stored diagonal, or on a missing diagonal, report
    invalid.
    """
    values = np.zeros(k.shape, dtype=float)
    if diag is None:
        valid = ~needed
        return values, valid
    in_range = (k >= 0) & (k < diag.vals.size)
    k_clipped = np.clip(k, 0, max(diag.vals.size - 1, 0))
    values = np.where(in_range, diag.vals[k_clipped], 0.0)
    valid = np.where(needed, in_range & np.where(in_range, diag.valid[k_clipped], False), True)
    return values, valid


class BandRunner:
    """Sweeps one band of diagonals on ``tunables.gpu_count`` emulated devices.

    The integer attributes are the operation counters of the simulated
    platform.
    """

    def __init__(
        self,
        problem: WavefrontProblem,
        grid: WavefrontGrid,
        plan: ThreePhasePlan,
        tunables: TunableParams,
    ) -> None:
        if plan.gpu.is_empty:
            raise ExecutionError("BandRunner created for a plan with no GPU phase")
        self.problem = problem
        self.grid = grid
        self.plan = plan
        self.tunables = tunables
        self.gpu_count = tunables.gpu_count
        self.dim = problem.dim
        self.halo = max(0, tunables.halo) if tunables.gpu_count == 2 else 0
        self.elem_nbytes = problem.input_params().element_nbytes
        self.halo_swaps = 0
        self.kernel_launches = 0
        self.redundant_cells = 0
        self.bytes_h2d = 0
        self.bytes_d2h = 0
        self.transfers = 0

    def _h2d(self, nbytes: int) -> None:
        """Count one host-to-device transfer."""
        self.bytes_h2d += nbytes
        self.transfers += 1

    def _d2h(self, nbytes: int) -> None:
        """Count one device-to-host transfer."""
        self.bytes_d2h += nbytes
        self.transfers += 1

    # ------------------------------------------------------------------
    def run(self) -> dict[str, int]:
        """Execute the band; returns operation statistics."""
        lo, hi = self.plan.gpu.lo, self.plan.gpu.hi
        states = [_DeviceState(index=i) for i in range(self.gpu_count)]
        self._offload_boundary(states, lo)

        for d in range(lo, hi + 1):
            length = dg.diagonal_length(d, self.dim, self.dim)
            parts = partition_diagonal(length, self.gpu_count, self.halo)
            if not self._owned_computable(states, d, parts):
                self._halo_swap(states, d)
                if not self._owned_computable(states, d, parts):
                    raise ExecutionError(
                        f"diagonal {d}: owned cells not computable even after a halo swap"
                    )
            currents = []
            for state, part in zip(states, parts):
                currents.append(self._compute_device_diagonal(state, d, length, part))
            for state, current in zip(states, currents):
                state.rotate(current)

        self._flush_results(states)
        return {
            "kernel_launches": self.kernel_launches,
            "halo_swaps": self.halo_swaps,
            "band_diagonals": hi - lo + 1,
            "band_cells": self.plan.gpu.cells(self.dim),
            "redundant_cells": self.redundant_cells,
            "bytes_h2d": self.bytes_h2d,
            "bytes_d2h": self.bytes_d2h,
            "devices_initialised": self.gpu_count,
            # Every device operation: start-ups, transfers, launches, swaps.
            "events": (
                self.gpu_count + self.transfers + self.kernel_launches + self.halo_swaps
            ),
        }

    # ------------------------------------------------------------------
    # Setup and teardown transfers
    # ------------------------------------------------------------------
    def _offload_boundary(self, states: list[_DeviceState], lo: int) -> None:
        """Send the two boundary diagonals preceding the band to every device."""
        # The boundary travels as one (2, longest band diagonal) float64
        # buffer per device; the band's input data ships alongside it, so
        # transfer volumes track the cost model's offload bytes.
        boundary_nbytes = 2 * max(self.plan.gpu_diagonal_lengths()) * np.dtype(float).itemsize
        share = self.plan.offload_nbytes() // len(states)

        def host_diagonal(d: int) -> _DeviceDiagonal | None:
            return _DeviceDiagonal.full(d, self.grid.get_diagonal(d)) if d >= 0 else None

        for state in states:
            state.prev1 = host_diagonal(lo - 1)
            state.prev2 = host_diagonal(lo - 2)
            self._h2d(boundary_nbytes)
            self._h2d(share)

    def _flush_results(self, states: list[_DeviceState]) -> None:
        """Write every device's owned results back into the host grid."""
        for state in states:
            for d, own_start, vals in state.own_segments:
                self.grid.set_diagonal_segment(d, own_start, vals)
            self._d2h(state.owned_cells() * self.elem_nbytes)

    # ------------------------------------------------------------------
    # Computability / halo swaps
    # ------------------------------------------------------------------
    def _computable_mask(self, state: _DeviceState, d: int, ks: np.ndarray) -> np.ndarray:
        """Which of the local offsets ``ks`` on diagonal ``d`` this device can compute."""
        _, _, kw, kn, knw, has_w, has_n, has_nw = _dependency_indices(d, ks, self.dim)
        _, valid_w = _lookup(state.prev1, kw, has_w)
        _, valid_n = _lookup(state.prev1, kn, has_n)
        _, valid_nw = _lookup(state.prev2, knw, has_nw)
        return valid_w & valid_n & valid_nw

    def _owned_computable(self, states, d: int, parts) -> bool:
        for state, part in zip(states, parts):
            if part.own_cells == 0:
                continue
            ks = np.arange(part.own_start, part.own_stop)
            if not np.all(self._computable_mask(state, d, ks)):
                return False
        return True

    def _halo_swap(self, states: list[_DeviceState], d: int) -> None:
        """Exchange owned segments of the previous two diagonals through the host."""
        if len(states) < 2:
            raise ExecutionError(
                f"diagonal {d}: a halo swap was required but only one device is in use"
            )
        for attr in ("prev1", "prev2"):
            diags = [getattr(state, attr) for state in states]
            if any(diag is None for diag in diags):
                continue
            length = diags[0].vals.size
            parts = partition_diagonal(length, len(states), self.halo)
            # Every device sends its owned segment to the host, which
            # forwards it to the other device.
            for sender, part in zip(states, parts):
                seg = diags[sender.index].vals[part.own_start : part.own_stop]
                nbytes = seg.size * self.elem_nbytes
                self._d2h(nbytes)
                for receiver in states:
                    if receiver.index == sender.index:
                        continue
                    target = diags[receiver.index]
                    target.vals[part.own_start : part.own_stop] = seg
                    target.valid[part.own_start : part.own_stop] = True
                    self._h2d(nbytes)
        self.halo_swaps += 1

    # ------------------------------------------------------------------
    # Per-device diagonal computation
    # ------------------------------------------------------------------
    def _compute_device_diagonal(
        self, state: _DeviceState, d: int, length: int, part
    ) -> _DeviceDiagonal:
        current = _DeviceDiagonal.empty(d, length)
        target = np.arange(part.compute_start, part.compute_stop)
        if target.size == 0:
            return current
        mask = self._computable_mask(state, d, target)
        ks = target[mask]
        if ks.size == 0:
            return current
        own = np.arange(part.own_start, part.own_stop)
        if not np.all(np.isin(own, ks)):
            raise ExecutionError(
                f"device {state.index} cannot compute its owned cells of diagonal {d}"
            )

        i, j, kw, kn, knw, has_w, has_n, has_nw = _dependency_indices(d, ks, self.dim)
        west_vals, _ = _lookup(state.prev1, kw, has_w)
        north_vals, _ = _lookup(state.prev1, kn, has_n)
        nw_vals, _ = _lookup(state.prev2, knw, has_nw)
        west = np.where(has_w, west_vals, self.problem.boundary)
        north = np.where(has_n, north_vals, self.problem.boundary)
        nw = np.where(has_nw, nw_vals, self.problem.boundary)

        values = self.problem.kernel.diagonal(i, j, west, north, nw)
        values = self.problem.kernel.validate_output(values, ks.size)
        self.kernel_launches += 1

        current.vals[ks] = values
        current.valid[ks] = True
        self.redundant_cells += int(ks.size - part.own_cells)
        own_vals = current.vals[part.own_start : part.own_stop].copy()
        state.own_segments.append((d, part.own_start, own_vals))
        return current
