"""Operation counters of the GPU band (phase 2 of the hybrid strategy).

The band's *values* are computed by the hybrid executor's own engine straight
into the host grid; what the simulated platform adds is the count of
operations 1 or 2 GPUs would perform sweeping the band, and
:func:`band_counters` derives those counts from the plan alone:

* every diagonal is split evenly across the devices (device 0 takes the
  odd cell), with each device also computing a redundant *halo* of its
  neighbour's cells;
* a device keeps the two previous diagonals locally, each valid on one
  contiguous interval of grid rows: the offloaded boundary diagonals are
  valid everywhere, a computed diagonal is valid where its west, north and
  north-west neighbours were, and the interval shrinks by a row per step as
  the sweep moves away from the last exchange;
* whenever a device could no longer compute its *owned* cells from valid
  local data, a **halo swap** is performed: the devices exchange their owned
  segments of the previous two diagonals through the host;
* at the end of the band every device sends its owned results back to the
  host (the paper's single "results back" transfer).

Kernel launches, halo swaps, redundant cells and transfer volumes are what
the analytic cost model charges time for.

The counts are a function of the plan, so they are worked out the first time
a plan is asked for them and kept with it
(:meth:`repro.core.plan.ThreePhasePlan.once`).  One device needs no
emulation at all.  Two devices are emulated — on eight integers, the ends of
each device's two validity intervals — only while a device's share reaches
the end of a diagonal; from then on they swap at a fixed period and the rest
of the band is arithmetic.  The literal per-diagonal emulation both replace
is the oracle of the test suite (``tests/band_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import ExecutionError
from repro.core.plan import Phase, ThreePhasePlan

#: The boundary diagonals travel as float64 whatever the element size.
_BOUNDARY_ITEMSIZE = 8


def _diagonal_rows(d: int, dim: int) -> tuple[int, int]:
    """Half-open interval of grid rows diagonal ``d`` crosses (empty off the grid)."""
    if d < 0:
        return 0, 0
    return max(0, d - (dim - 1)), min(d, dim - 1) + 1


def _computable_rows(
    d: int, dim: int, a: int, b: int, lo1: int, hi1: int, lo2: int, hi2: int
) -> tuple[int, int]:
    """The sub-interval of rows ``[a, b)`` on diagonal ``d`` a device can compute.

    ``[lo1, hi1)`` / ``[lo2, hi2)`` are the rows on which its copies of
    diagonals ``d - 1`` / ``d - 2`` are valid.  The cell in row ``i`` reads
    rows ``i`` (west) and ``i - 1`` (north) of ``d - 1`` and row ``i - 1``
    (north-west) of ``d - 2``; on the grid's top row and left column the
    missing neighbours are the boundary value and need no data.
    """
    lo = max(a, lo1 + 1, lo2 + 1)
    hi = min(b, hi1, hi2 + 1)
    if d >= dim:
        return (lo, hi) if lo < hi else (0, 0)
    # Diagonals up to the main one start in the top row (row 0, west only)
    # and end in the left column (row d, north only).  The first device's
    # validity always starts at the diagonal's first row and the last
    # device's always ends at its last row, so a computable edge cell is
    # adjacent to the computable interior cells: the result is one interval,
    # from the first computable piece to the last.
    top = a == 0 < b and (d == 0 or lo1 <= 0 < hi1)
    left = a <= d < b and d > 0 and lo1 <= d - 1 < hi1
    lo, hi = max(lo, 1), min(hi, d)
    interior = lo < hi
    if not (top or interior or left):
        return 0, 0
    first = 0 if top else lo if interior else d
    stop = d + 1 if left else hi if interior else 1
    return first, stop


def _two_device_sweep(dim: int, first: int, last: int, halo: int) -> tuple[int, int, int, int, int]:
    """Two devices sweeping diagonals ``first .. last`` with a (clipped) ``halo``.

    Device 0 owns the low rows of every diagonal (the larger half when the
    length is odd) plus up to ``halo`` rows of device 1's, and the other way
    round.  Returns ``(kernel launches, halo swaps, redundant cells, cells
    each swap direction moved in total, transfers the swaps enqueued)``.

    Diagonals are emulated one by one on the devices' validity intervals
    until the rest of the band is regular (:func:`_regular_rest`), which a
    band is from its first diagonal unless the halo is the largest its first
    diagonal admits; then the rest is added in closed form.
    """
    # Valid rows of each device's copies of diagonals d-1 and d-2: the
    # offloaded boundary diagonals are complete on both.
    p_lo1, p_hi1 = q_lo1, q_hi1 = _diagonal_rows(first - 1, dim)
    p_lo2, p_hi2 = q_lo2, q_hi2 = _diagonal_rows(first - 2, dim)
    launches = swaps = redundant = moved = transfers = 0
    swapped_at = first  # the offload leaves the devices as a swap would

    for d in range(first, last + 1):
        row0, row1 = _diagonal_rows(d, dim)
        mid = row0 + (row1 - row0 + 1) // 2  # device 0 owns [row0, mid), device 1 [mid, row1)
        end0, start1 = min(mid + halo, row1), max(mid - halo, row0)
        while True:
            if swapped_at == d and (d >= dim or halo < (row1 - row0) // 2):
                rest = _regular_rest(dim, d, last, halo)
                return tuple(a + b for a, b in zip((launches, swaps, redundant, moved, transfers), rest))
            lo0, hi0 = _computable_rows(d, dim, row0, end0, p_lo1, p_hi1, p_lo2, p_hi2)
            lo1, hi1 = _computable_rows(d, dim, start1, row1, q_lo1, q_hi1, q_lo2, q_hi2)
            if lo0 <= row0 and mid <= hi0 and (mid == row1 or lo1 <= mid and row1 <= hi1):
                break
            if swapped_at == d:
                raise ExecutionError(
                    f"diagonal {d}: owned cells not computable even after a halo swap"
                )
            # An owned cell is out of reach.  Every device sends its owned
            # segment of the previous two diagonals to the host, which
            # forwards it to the other one.  A device's copy was valid on
            # its own segment at least, so the union with the neighbour's
            # segment is the whole diagonal.
            p_lo1, p_hi1 = q_lo1, q_hi1 = _diagonal_rows(d - 1, dim)
            p_lo2, p_hi2 = q_lo2, q_hi2 = _diagonal_rows(d - 2, dim)
            moved += (p_hi1 - p_lo1) + (p_hi2 - p_lo2)
            transfers += 4 * ((d >= 1) + (d >= 2))  # 2 devices x 2 legs per diagonal on the grid
            swaps += 1
            swapped_at = d
        if lo0 < hi0:
            launches += 1
            redundant += (hi0 - lo0) - (mid - row0)
        if lo1 < hi1:
            launches += 1
            redundant += (hi1 - lo1) - (row1 - mid)
        p_lo2, p_hi2, p_lo1, p_hi1 = p_lo1, p_hi1, lo0, hi0
        q_lo2, q_hi2, q_lo1, q_hi1 = q_lo1, q_hi1, lo1, hi1

    return launches, swaps, redundant, moved, transfers


def _regular_rest(dim: int, start: int, last: int, halo: int) -> tuple[int, int, int, int, int]:
    """What diagonals ``start .. last`` add once the band is regular.

    Regular means: both devices hold the two diagonals before ``start``
    whole, and from ``start`` to the main diagonal no device's share reaches
    an end of its diagonal (``halo < length // 2``; past the main diagonal
    the clipped halo's ``halo <= length // 2`` is enough, the edge cells
    that need no data are all in the upper triangle).

    The devices meet at row ``d // 2 + 1`` of diagonal ``d``, one row further
    every second diagonal.  ``k`` diagonals after an exchange, device 0's
    valid rows still end where its share ended then — ``halo - (k + start %
    2) // 2`` rows past the meeting row — and device 1's have lost a row per
    diagonal and start ``halo - (k + 1 - start % 2) // 2`` rows before it.
    Whichever parity ``start`` has, one of the two runs out at ``k = 2 *
    halo + 1``: the devices swap exactly every ``2 * halo + 1`` diagonals,
    and the ``k``-th diagonal after a swap computes ``2 * halo - k`` cells
    twice.
    """
    n = last - start + 1
    step = 2 * halo + 1
    whole, rest = divmod(n, step)
    redundant = whole * halo * step + 2 * halo * rest - rest * (rest - 1) // 2
    # Both devices launch on every diagonal, except that device 1 owns (and
    # with no halo computes) nothing of the grid's last, one-cell diagonal.
    launches = 2 * n - (last == 2 * dim - 2)
    # A swap before diagonal d moves diagonals d - 1 and d - 2 whole.
    at = np.arange(start + step, last + 1, step)
    moved = int((2 * dim - np.abs(at - dim) - np.abs(at - dim - 1)).sum())
    return launches, at.size, redundant, moved, 8 * at.size


def _count(plan: ThreePhasePlan) -> dict[str, int]:
    if plan.gpu.is_empty:
        raise ExecutionError("band_counters called for a plan with no GPU phase")
    dim, element_nbytes = plan.input_params.dim, plan.input_params.element_nbytes
    gpu_count = plan.tunables.gpu_count
    band_diagonals = plan.gpu.n_diagonals
    band_cells = plan.cells_per_phase()[Phase.GPU_BAND]

    # Offload: every device receives the two boundary diagonals preceding
    # the band as one (2, longest band diagonal) buffer — the band holds the
    # main diagonal, so that is dim cells — and its share of the band's
    # input data alongside, so transfer volumes track the cost model's
    # offload bytes.
    boundary_nbytes = 2 * dim * _BOUNDARY_ITEMSIZE
    bytes_h2d = gpu_count * (boundary_nbytes + plan.offload_nbytes() // gpu_count)
    # Results back: between them the devices own every band cell exactly once.
    bytes_d2h = band_cells * element_nbytes
    transfers = 3 * gpu_count

    if gpu_count == 1:
        # One device computes every diagonal whole from the two before it,
        # which it computed whole: one launch per diagonal, nothing computed
        # twice, and never a swap (there is nobody to swap with).
        kernel_launches, halo_swaps, redundant_cells = band_diagonals, 0, 0
    else:
        kernel_launches, halo_swaps, redundant_cells, moved, swap_transfers = _two_device_sweep(
            dim, plan.gpu.lo, plan.gpu.hi, max(0, plan.tunables.halo)
        )
        bytes_d2h += moved * element_nbytes
        bytes_h2d += moved * element_nbytes
        transfers += swap_transfers

    return {
        "kernel_launches": kernel_launches,
        "halo_swaps": halo_swaps,
        "band_diagonals": band_diagonals,
        "band_cells": band_cells,
        "redundant_cells": redundant_cells,
        "bytes_h2d": bytes_h2d,
        "bytes_d2h": bytes_d2h,
        "devices_initialised": gpu_count,
        # Every device operation: start-ups, transfers, launches, swaps.
        "events": gpu_count + transfers + kernel_launches + halo_swaps,
    }


def band_counters(plan: ThreePhasePlan) -> dict[str, int]:
    """Operation counts of the plan's GPU devices sweeping its band.

    Device count, halo and element size are the plan's own
    (``plan.tunables``, ``plan.input_params``).  The counts are computed the
    first time a plan is asked for them; every call returns a fresh dict.

    Raises :class:`ExecutionError` when the plan has no band, or when a halo
    swap does not make every device's owned cells computable.
    """
    return dict(plan.once(_count))
