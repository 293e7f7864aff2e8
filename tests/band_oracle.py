"""Reference emulation of the GPU band's halo protocol (the test oracle).

This is the per-diagonal emulation :func:`repro.runtime.band.band_counters`
ran on every solve before the counters were kept with the plan: one
:class:`repro.core.partition.DiagonalPartition` list and one validity
interval per device and diagonal, geometry from the per-diagonal definitions
of :mod:`repro.core.diagonal`.  It is deliberately slow and literal — the
production accounting (one device in closed form, two devices on integer
state) must equal it on every plan, including *which* plans raise and the
order of the keys.  It takes the plan's pieces as separate arguments, as the
production function did, so a test can also show what a disagreeing
``tunables`` / ``element_nbytes`` used to do.
"""

from __future__ import annotations

from repro.core import diagonal as dg
from repro.core.exceptions import ExecutionError
from repro.core.params import TunableParams
from repro.core.partition import partition_diagonal
from repro.core.plan import ThreePhasePlan

#: The boundary diagonals travel as float64 whatever the element size.
_BOUNDARY_ITEMSIZE = 8

_EMPTY = (0, 0)


def reference_gpu_diagonal_lengths(plan: ThreePhasePlan) -> list[int]:
    """Lengths of the band's diagonals, one validated ``diagonal_length`` each."""
    if plan.gpu.is_empty:
        return []
    dim = plan.input_params.dim
    return [dg.diagonal_length(d, dim, dim) for d in range(plan.gpu.lo, plan.gpu.hi + 1)]


def reference_offload_nbytes(plan: ThreePhasePlan) -> int:
    """Band cells plus the two boundary diagonals before it, in bytes."""
    if plan.gpu.is_empty:
        return 0
    dim = plan.input_params.dim
    cells = sum(reference_gpu_diagonal_lengths(plan))
    boundary = 0
    for d in (plan.gpu.lo - 1, plan.gpu.lo - 2):
        if d >= 0:
            boundary += dg.diagonal_length(d, dim, dim)
    return (cells + boundary) * plan.input_params.element_nbytes


def _diagonal_rows(d: int, dim: int) -> tuple[int, int]:
    """Half-open interval of grid rows diagonal ``d`` crosses (empty off the grid)."""
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


def reference_band_counters(
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
    lengths = reference_gpu_diagonal_lengths(plan)
    band_cells = sum(lengths)

    # Offload: every device receives the two boundary diagonals preceding
    # the band as one (2, longest band diagonal) buffer, and its share of
    # the band's input data alongside, so transfer volumes track the cost
    # model's offload bytes.
    boundary_nbytes = 2 * max(lengths) * _BOUNDARY_ITEMSIZE
    bytes_h2d = gpu_count * (boundary_nbytes + reference_offload_nbytes(plan) // gpu_count)
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
