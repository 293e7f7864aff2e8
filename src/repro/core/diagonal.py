"""Anti-diagonal geometry of a rectangular wavefront grid.

The wavefront pattern sweeps a ``rows x cols`` array along anti-diagonals:
diagonal ``d`` contains the cells ``(i, j)`` with ``i + j == d``.  These
helpers are shared by the executors, the cost model and the partitioner, so
they live in one well-tested module.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import InvalidParameterError


def diagonal_length(d: int, rows: int, cols: int) -> int:
    """Number of cells on anti-diagonal ``d`` of a ``rows x cols`` grid."""
    _check_shape(rows, cols)
    if d < 0 or d > rows + cols - 2:
        raise InvalidParameterError(
            f"diagonal {d} out of range for a {rows}x{cols} grid"
        )
    return min(d + 1, rows, cols, rows + cols - 1 - d)


def diagonal_bounds(d: int, rows: int, cols: int) -> tuple[int, int]:
    """Return the inclusive row range ``(i_min, i_max)`` of diagonal ``d``.

    Cell ``(i, d - i)`` is on the diagonal for ``i_min <= i <= i_max``.
    """
    _check_shape(rows, cols)
    if d < 0 or d > rows + cols - 2:
        raise InvalidParameterError(
            f"diagonal {d} out of range for a {rows}x{cols} grid"
        )
    i_min = max(0, d - (cols - 1))
    i_max = min(rows - 1, d)
    return i_min, i_max


def diagonal_cells(d: int, rows: int, cols: int) -> np.ndarray:
    """Return an ``(n, 2)`` array of the (row, col) cells on diagonal ``d``.

    Cells are ordered by increasing row index, which is the canonical order
    used everywhere in the package (buffers, partitions, halo exchange).
    """
    i_min, i_max = diagonal_bounds(d, rows, cols)
    i = np.arange(i_min, i_max + 1)
    return np.stack([i, d - i], axis=1)


def cells_before_diagonal(d: int, dim: int) -> int:
    """Number of cells strictly before diagonal ``d`` in a square grid.

    "Before" means on a diagonal with smaller index, i.e. cells ``(i, j)``
    with ``i + j < d``.  ``d`` may be up to ``2*dim - 1`` (one past the last
    diagonal), in which case the full grid size is returned.
    """
    if dim < 1:
        raise InvalidParameterError(f"dim must be >= 1, got {dim}")
    if d < 0 or d > 2 * dim - 1:
        raise InvalidParameterError(
            f"diagonal {d} out of range for cells_before_diagonal with dim={dim}"
        )
    if d <= dim:
        # Triangle of diagonals 0 .. d-1 with lengths 1 .. d.
        return d * (d + 1) // 2
    # Full upper triangle plus the trailing (shrinking) diagonals.
    k = d - dim  # number of diagonals past the one of length dim
    upper = dim * (dim + 1) // 2
    # Diagonals dim .. d-1 have lengths dim-1, dim-2, ..., dim-k.
    trailing = k * dim - k * (k + 1) // 2
    return upper + trailing


def cells_in_diagonal_range(d_lo: int, d_hi: int, dim: int) -> int:
    """Number of cells on diagonals ``d_lo .. d_hi`` inclusive of a square grid."""
    if d_hi < d_lo:
        return 0
    return cells_before_diagonal(min(d_hi + 1, 2 * dim - 1), dim) - cells_before_diagonal(
        max(d_lo, 0), dim
    )


def band_diagonal_range(dim: int, band: int) -> tuple[int, int]:
    """Inclusive range of diagonals offloaded to the GPU for a given ``band``.

    A band of ``n`` means ``2n + 1`` diagonals centred on the main
    anti-diagonal (index ``dim - 1``), clipped to the grid.
    """
    if dim < 2:
        raise InvalidParameterError(f"dim must be >= 2, got {dim}")
    if band < 0:
        raise InvalidParameterError(f"band must be >= 0, got {band}")
    main = dim - 1
    lo = max(0, main - band)
    hi = min(2 * dim - 2, main + band)
    return lo, hi


def _check_shape(rows: int, cols: int) -> None:
    if rows < 1 or cols < 1:
        raise InvalidParameterError(
            f"grid shape must be positive, got {rows}x{cols}"
        )
