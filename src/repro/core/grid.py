"""The wavefront value grid and its diagonal-major view.

:class:`WavefrontGrid` stores the values of the recurrence: one scalar per
cell (the quantity the recurrence is defined over, e.g. the alignment score
in Smith-Waterman), and nothing else.

The element of the paper's synthetic application (Section 3.1.1) also
carries ``dsize`` payload floats and two integers.  Only the scalar takes
part in any recurrence, so the grid keeps ``dsize`` as a number: what an
element costs to move is :attr:`repro.core.params.InputParams.element_nbytes`,
which the cost model and the band's transfer counters read.
"""

from __future__ import annotations

import numpy as np

from repro.core import diagonal as dg
from repro.core.exceptions import InvalidParameterError


class WavefrontGrid:
    """Square grid of wavefront values with diagonal accessors.

    Parameters
    ----------
    dim:
        Side length of the square grid.
    dsize:
        Payload floats per element of the modelled application (metadata:
        it sizes transfers in the cost model, not an array here).
    dtype:
        Floating point dtype of the value array.
    """

    def __init__(self, dim: int, dsize: int = 0, dtype=np.float64) -> None:
        if dim < 2:
            raise InvalidParameterError(f"dim must be >= 2, got {dim}")
        if dsize < 0:
            raise InvalidParameterError(f"dsize must be >= 0, got {dsize}")
        self.dim = int(dim)
        self.dsize = int(dsize)
        self.values = np.zeros((dim, dim), dtype=dtype)

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------
    @property
    def n_diagonals(self) -> int:
        """Number of anti-diagonals."""
        return dg.num_diagonals(self.dim, self.dim)

    def diagonal_length(self, d: int) -> int:
        """Length of anti-diagonal ``d``."""
        return dg.diagonal_length(d, self.dim, self.dim)

    def diagonal_indices(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (row, col) index arrays for diagonal ``d`` in canonical order."""
        cells = dg.diagonal_cells(d, self.dim, self.dim)
        return cells[:, 0], cells[:, 1]

    # ------------------------------------------------------------------
    # Diagonal-major access
    # ------------------------------------------------------------------
    def diagonal_view(self, d: int) -> np.ndarray:
        """Zero-copy strided view of the values on diagonal ``d``.

        Writing through the view writes straight into :attr:`values` — the
        strided slice the vectorized engine stores each computed diagonal
        through (it computes on contiguous rows, not on such views), exposed
        here for other layers, tooling and tests; no fancy indexing as in
        :meth:`get_diagonal` / :meth:`set_diagonal`.
        """
        return self.values.reshape(-1)[dg.flat_diagonal_slice(d, self.dim)]

    def get_diagonal(self, d: int) -> np.ndarray:
        """Copy of the values on diagonal ``d`` (ordered by increasing row)."""
        i, j = self.diagonal_indices(d)
        return self.values[i, j].copy()

    def set_diagonal(self, d: int, vals: np.ndarray) -> None:
        """Overwrite the values on diagonal ``d``."""
        i, j = self.diagonal_indices(d)
        vals = np.asarray(vals)
        if vals.shape != i.shape:
            raise InvalidParameterError(
                f"diagonal {d} has {i.size} cells, got {vals.size} values"
            )
        self.values[i, j] = vals

    def get_diagonal_segment(self, d: int, start: int, stop: int) -> np.ndarray:
        """Values of cells ``start .. stop-1`` (diagonal-local offsets) on diagonal ``d``."""
        i, j = self.diagonal_indices(d)
        return self.values[i[start:stop], j[start:stop]].copy()

    def set_diagonal_segment(self, d: int, start: int, vals: np.ndarray) -> None:
        """Write a contiguous segment of diagonal ``d`` starting at offset ``start``."""
        i, j = self.diagonal_indices(d)
        vals = np.asarray(vals)
        stop = start + vals.size
        if start < 0 or stop > i.size:
            raise InvalidParameterError(
                f"segment [{start}, {stop}) out of range for diagonal {d} "
                f"of length {i.size}"
            )
        self.values[i[start:stop], j[start:stop]] = vals

    # ------------------------------------------------------------------
    # Neighbour gathering (the wavefront dependency stencil)
    # ------------------------------------------------------------------
    def neighbours(
        self, i: np.ndarray, j: np.ndarray, boundary: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (west, north, northwest) values for the cells ``(i, j)``.

        Out-of-grid neighbours (first row / first column) take the
        ``boundary`` value, matching the zero boundary condition the paper's
        applications use.
        """
        i = np.asarray(i)
        j = np.asarray(j)
        west = np.where(j > 0, self.values[i, np.maximum(j - 1, 0)], boundary)
        north = np.where(i > 0, self.values[np.maximum(i - 1, 0), j], boundary)
        nw = np.where(
            (i > 0) & (j > 0),
            self.values[np.maximum(i - 1, 0), np.maximum(j - 1, 0)],
            boundary,
        )
        return west, north, nw

    # ------------------------------------------------------------------
    # Whole-grid helpers
    # ------------------------------------------------------------------
    def copy(self) -> "WavefrontGrid":
        """Deep copy of the grid."""
        out = WavefrontGrid(self.dim, self.dsize, dtype=self.values.dtype)
        out.values[...] = self.values
        return out

    def nbytes(self) -> int:
        """Bytes of the value array."""
        return self.values.nbytes

    def allclose(self, other: "WavefrontGrid", rtol: float = 1e-9, atol: float = 1e-9) -> bool:
        """True when the value arrays of two grids agree element-wise."""
        if self.dim != other.dim:
            return False
        return np.allclose(self.values, other.values, rtol=rtol, atol=atol)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WavefrontGrid(dim={self.dim}, dsize={self.dsize})"
