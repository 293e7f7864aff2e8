"""Multi-GPU partitioning of band diagonals and halo bookkeeping (Figure 3).

When two GPUs share the band, every diagonal is split into contiguous
segments, one per GPU.  Because the wavefront dependencies reach across the
split point, each GPU also keeps a *halo* of ``halo`` cells belonging to its
neighbour.  The halo data goes stale as successive diagonals are computed
locally; after ``halo`` steps (or every step when ``halo == 0``) the fresh
border values must be exchanged through the host — a *halo swap*.

The functions here are pure geometry/bookkeeping; the swaps, redundant cells
and transfer volumes of a whole band are counted by
:func:`repro.runtime.band.band_counters`, and the costs are charged by
:mod:`repro.hardware.costmodel`.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.exceptions import PartitionError


class DiagonalPartition(NamedTuple):
    """One GPU's share of a diagonal, in diagonal-local offsets.

    ``own_start .. own_stop`` (half-open) is the region this GPU owns (writes
    authoritatively); ``halo_lo`` / ``halo_hi`` are the number of extra cells
    it additionally computes redundantly below/above its own region so that
    border dependencies can be satisfied locally between halo swaps.
    """

    device: int
    own_start: int
    own_stop: int
    halo_lo: int
    halo_hi: int

    @property
    def own_cells(self) -> int:
        """Number of diagonal cells this partition owns (halo excluded)."""
        return self.own_stop - self.own_start

    @property
    def compute_start(self) -> int:
        """First diagonal-local offset this GPU computes (including halo)."""
        return self.own_start - self.halo_lo

    @property
    def compute_stop(self) -> int:
        """One past the last diagonal-local offset this GPU computes."""
        return self.own_stop + self.halo_hi

    @property
    def compute_cells(self) -> int:
        """Cells computed including redundant halo cells."""
        return self.compute_stop - self.compute_start

    @property
    def redundant_cells(self) -> int:
        """Cells computed redundantly because of the halo overlap."""
        return self.halo_lo + self.halo_hi


def partition_diagonal(
    length: int, gpu_count: int, halo: int
) -> list[DiagonalPartition]:
    """Split a diagonal of ``length`` cells across ``gpu_count`` GPUs.

    The split is as even as possible; the halo is clipped so a device never
    computes outside the diagonal.  ``gpu_count == 1`` returns a single
    partition covering everything with no halo.
    """
    if length < 1:
        raise PartitionError(f"diagonal length must be >= 1, got {length}")
    if gpu_count < 1:
        raise PartitionError(f"gpu_count must be >= 1, got {gpu_count}")
    if gpu_count == 1:
        return [DiagonalPartition(0, 0, length, 0, 0)]
    if halo < 0:
        raise PartitionError(f"halo must be >= 0 for {gpu_count} GPUs, got {halo}")

    base = length // gpu_count
    extra = length % gpu_count
    partitions: list[DiagonalPartition] = []
    start = 0
    for dev in range(gpu_count):
        size = base + (1 if dev < extra else 0)
        stop = start + size
        halo_lo = min(halo, start) if dev > 0 else 0
        halo_hi = min(halo, length - stop) if dev < gpu_count - 1 else 0
        partitions.append(
            DiagonalPartition(
                device=dev,
                own_start=start,
                own_stop=stop,
                halo_lo=halo_lo,
                halo_hi=halo_hi,
            )
        )
        start = stop
    if start != length:  # pragma: no cover - arithmetic invariant
        raise PartitionError("partitioning did not cover the diagonal exactly")
    return partitions


def swap_interval(halo: int) -> int:
    """Number of diagonal steps between successive halo swaps.

    A halo of ``h`` cells lets each GPU compute ``h`` diagonals before the
    border values it holds are too stale to produce its *own* cells correctly;
    with ``h == 0`` an exchange is needed after every diagonal.
    """
    if halo < 0:
        raise PartitionError(f"halo must be >= 0, got {halo}")
    return max(1, halo)


def count_halo_swaps(n_diagonals: int, halo: int) -> int:
    """How many halo swaps a band of ``n_diagonals`` needs with a given halo."""
    if n_diagonals <= 1:
        return 0
    interval = swap_interval(halo)
    # A swap happens after every `interval` computed diagonals except the last
    # group (no further diagonals depend on it).
    return max(0, -(-n_diagonals // interval) - 1)


def redundant_cells_for_band(
    diagonal_lengths: list[int], gpu_count: int, halo: int
) -> int:
    """Total redundant (halo) cells computed across a band of diagonals."""
    if gpu_count <= 1:
        return 0
    total = 0
    for length in diagonal_lengths:
        for part in partition_diagonal(length, gpu_count, halo):
            total += part.redundant_cells
    return total


def halo_swap_nbytes(
    diagonal_length: int, gpu_count: int, halo: int, element_nbytes: int
) -> int:
    """Bytes moved through the host by one halo swap at a given diagonal length.

    Each internal boundary exchanges ``halo + 1`` cells in each direction
    (the halo region plus the owner's border cell), and every hop goes
    device -> host -> device, so the byte count below is per direction;
    the cost model charges host and device legs separately.
    """
    if gpu_count <= 1:
        return 0
    boundaries = gpu_count - 1
    cells = min(halo + 1, diagonal_length)
    return boundaries * 2 * cells * element_nbytes
