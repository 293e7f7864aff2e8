"""The wavefront value grid.

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
    """Square grid of wavefront values.

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WavefrontGrid(dim={self.dim}, dsize={self.dsize})"
