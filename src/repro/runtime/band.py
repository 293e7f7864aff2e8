"""Operation counters of the GPU band (phase 2 of the hybrid strategy).

The band's *values* are computed by the hybrid executor's own engine straight
into the host grid; what the simulated platform adds is the count of
operations 1 or 2 GPUs would perform sweeping the band, and
:func:`band_counters` derives those counts from the plan alone:

* every diagonal is split across the devices by
  :func:`repro.core.partition.partition_diagonal`, with each device also
  computing a redundant *halo* of its neighbour's cells;
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
"""

from __future__ import annotations

from repro.core.exceptions import ExecutionError
from repro.core.params import TunableParams
from repro.core.partition import partition_diagonal
from repro.core.plan import ThreePhasePlan

#: The boundary diagonals travel as float64 whatever the element size.
_BOUNDARY_ITEMSIZE = 8

_EMPTY = (0, 0)


def _diagonal_rows(d: int, dim: int) -> tuple[int, int]:
    """Half-open interval of grid rows diagonal ``d`` crosses (empty off the grid).

    :func:`repro.core.diagonal.diagonal_bounds` without its per-call
    validation, which would be a seventh of :func:`band_counters`' time.
    """
    if d < 0:
        return _EMPTY
    return max(0, d - (dim - 1)), min(d, dim - 1) + 1


def _computable_rows(
    d: int,
    dim: int,
    rows: tuple[int, int],
    prev1: tuple[int, int],
    prev2: tuple[int, int],
) -> tuple[int, int]:
    """The sub-interval of ``rows`` on diagonal ``d`` a device can compute.

    ``prev1`` / ``prev2`` are the rows on which its copies of diagonals
    ``d - 1`` / ``d - 2`` are valid.  The cell in row ``i`` reads rows ``i``
    (west) and ``i - 1`` (north) of ``d - 1`` and row ``i - 1`` (north-west)
    of ``d - 2``; on the grid's top row and left column the missing
    neighbours are the boundary value and need no data.
    """
    a, b = rows
    lo = max(a, prev1[0] + 1, prev2[0] + 1)
    hi = min(b, prev1[1], prev2[1] + 1)
    if d >= dim:
        return (lo, hi) if lo < hi else _EMPTY
    # Diagonals up to the main one start in the top row (row 0, west only)
    # and end in the left column (row d, north only).  The first device's
    # validity always starts at the diagonal's first row and the last
    # device's always ends at its last row, so a computable edge cell is
    # adjacent to the computable interior cells: the result is one interval.
    pieces = []
    if a == 0 < b and (d == 0 or prev1[0] <= 0 < prev1[1]):
        pieces.append((0, 1))
    lo, hi = max(lo, 1), min(hi, d)
    if lo < hi:
        pieces.append((lo, hi))
    if a <= d < b and d > 0 and prev1[0] <= d - 1 < prev1[1]:
        pieces.append((d, d + 1))
    return (pieces[0][0], pieces[-1][1]) if pieces else _EMPTY


def _device_rows(d: int, dim: int, row0: int, parts, valid) -> tuple[list, bool]:
    """Per device, the rows of diagonal ``d`` it can compute within its share.

    The share is the device's owned segment plus its halo; the flag says
    whether every device's computable rows cover the cells it owns.
    """
    rows, covered = [], True
    for part, (prev1, prev2) in zip(parts, valid):
        own_lo, own_hi = row0 + part.own_start, row0 + part.own_stop
        share = (own_lo - part.halo_lo, own_hi + part.halo_hi)
        lo, hi = computable = _computable_rows(d, dim, share, prev1, prev2)
        rows.append(computable)
        covered = covered and (own_lo == own_hi or lo <= own_lo and own_hi <= hi)
    return rows, covered


def band_counters(
    plan: ThreePhasePlan, tunables: TunableParams, element_nbytes: int
) -> dict[str, int]:
    """Operation counts of ``tunables.gpu_count`` devices sweeping ``plan``'s band.

    Raises :class:`ExecutionError` when the plan has no band, when a single
    device would need a halo swap, or when a swap does not make every
    device's owned cells computable.
    """
    if plan.gpu.is_empty:
        raise ExecutionError("band_counters called for a plan with no GPU phase")
    dim = plan.input_params.dim
    gpu_count = tunables.gpu_count
    halo = max(0, tunables.halo) if gpu_count == 2 else 0
    first, last = plan.gpu.lo, plan.gpu.hi
    band_cells = plan.gpu.cells(dim)

    # Offload: every device receives the two boundary diagonals preceding
    # the band as one (2, longest band diagonal) buffer, and its share of
    # the band's input data alongside, so transfer volumes track the cost
    # model's offload bytes.
    boundary_nbytes = 2 * max(plan.gpu_diagonal_lengths()) * _BOUNDARY_ITEMSIZE
    bytes_h2d = gpu_count * (boundary_nbytes + plan.offload_nbytes() // gpu_count)
    transfers = 2 * gpu_count
    # Results back: between them the devices own every band cell exactly once.
    bytes_d2h = band_cells * element_nbytes
    transfers += gpu_count

    # Per device, the valid rows of its copies of diagonals d-1 and d-2.
    valid = [(_diagonal_rows(first - 1, dim), _diagonal_rows(first - 2, dim))] * gpu_count
    kernel_launches = halo_swaps = redundant_cells = 0

    for d in range(first, last + 1):
        row0, row1 = _diagonal_rows(d, dim)
        parts = partition_diagonal(row1 - row0, gpu_count, halo)
        rows, covered = _device_rows(d, dim, row0, parts, valid)
        if not covered:
            if gpu_count < 2:
                raise ExecutionError(
                    f"diagonal {d}: a halo swap was required but only one device is in use"
                )
            # Every device sends its owned segment of the previous two
            # diagonals to the host, which forwards it to the other devices.
            # A device's copy was valid on its own segment at least, so the
            # union with the neighbours' segments is the whole diagonal.
            prev = (_diagonal_rows(d - 1, dim), _diagonal_rows(d - 2, dim))
            moved = sum(hi - lo for lo, hi in prev) * element_nbytes
            bytes_d2h += moved
            bytes_h2d += moved * (gpu_count - 1)
            transfers += gpu_count * gpu_count * sum(span != _EMPTY for span in prev)
            valid = [prev] * gpu_count
            halo_swaps += 1
            rows, covered = _device_rows(d, dim, row0, parts, valid)
            if not covered:
                raise ExecutionError(
                    f"diagonal {d}: owned cells not computable even after a halo swap"
                )

        for (lo, hi), part in zip(rows, parts):
            if lo < hi:
                kernel_launches += 1
                redundant_cells += (hi - lo) - part.own_cells
        valid = [(current, v1) for current, (v1, _) in zip(rows, valid)]

    return {
        "kernel_launches": kernel_launches,
        "halo_swaps": halo_swaps,
        "band_diagonals": last - first + 1,
        "band_cells": band_cells,
        "redundant_cells": redundant_cells,
        "bytes_h2d": bytes_h2d,
        "bytes_d2h": bytes_d2h,
        "devices_initialised": gpu_count,
        # Every device operation: start-ups, transfers, launches, swaps.
        "events": gpu_count + transfers + kernel_launches + halo_swaps,
    }
