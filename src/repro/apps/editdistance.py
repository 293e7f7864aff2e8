"""Global sequence alignment / edit distance (Needleman-Wunsch).

The global counterpart of the Smith-Waterman evaluation application: the
classic Levenshtein / Needleman-Wunsch recurrence with unit (or configurable)
gap and mismatch costs,

    D[r, c] = min(D[r-1, c] + gap,
                  D[r, c-1] + gap,
                  D[r-1, c-1] + sub(a[r], b[c]))

over the ``(len(a)+1) x (len(b)+1)`` table with first row/column ``c * gap``
and ``r * gap``.  Grid cell ``(i, j)`` holds ``D[i+1, j+1]``; the virtual
first row and column live outside the grid, so the kernel substitutes the
``(j+1)*gap`` / ``(i+1)*gap`` boundary terms itself from the cell's indices —
the wavefront framework only ever supplies a constant boundary value.

Like Smith-Waterman this is a very fine-grained kernel on the synthetic
scale (``tsize = 0.5``, ``dsize = 0``); it exists to exercise the tuner on a
second alignment-shaped recurrence whose dependency stencil uses all three
neighbours.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import WavefrontApplication
from repro.apps.sequence import letter_rows, mutate, random_dna
from repro.core.exceptions import InvalidParameterError
from repro.core.pattern import WavefrontKernel

#: Synthetic-scale granularity of one edit-distance cell (a 3-way min).
EDIT_TSIZE = 0.5
#: No per-cell payload beyond the DP value itself.
EDIT_DSIZE = 0


class EditDistanceKernel(WavefrontKernel):
    """Needleman-Wunsch global-alignment recurrence."""

    def __init__(
        self,
        seq_a: np.ndarray,
        seq_b: np.ndarray,
        gap: float = 1.0,
        mismatch: float = 1.0,
    ) -> None:
        seq_a = np.asarray(seq_a, dtype=np.int8)
        seq_b = np.asarray(seq_b, dtype=np.int8)
        if seq_a.ndim != 1 or seq_b.ndim != 1:
            raise InvalidParameterError("sequences must be 1-D arrays")
        if gap <= 0:
            raise InvalidParameterError(f"gap cost must be positive, got {gap}")
        if mismatch < 0:
            raise InvalidParameterError(f"mismatch cost must be >= 0, got {mismatch}")
        self.seq_a = seq_a
        self.seq_b = seq_b
        self.gap = float(gap)
        self.mismatch = float(mismatch)
        self.tsize = EDIT_TSIZE
        self.dsize = EDIT_DSIZE
        self.name = "edit-distance"

    def substitution(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Substitution cost of aligning base ``a[i]`` with ``b[j]`` (0 on match)."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        same = self.seq_a[i % self.seq_a.size] == self.seq_b[j % self.seq_b.size]
        return np.where(same, 0.0, self.mismatch)

    def diagonal(self, i, j, west, north, northwest):  # noqa: D102 - see base class
        """Vectorized edit-distance recurrence over one anti-diagonal."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        gap = self.gap
        # Out-of-grid neighbours are the virtual first row/column of the
        # (len+1)-sized table, not the framework's constant boundary.
        north_e = np.where(i > 0, north, (j + 1.0) * gap)
        west_e = np.where(j > 0, west, (i + 1.0) * gap)
        nw_e = np.where(
            (i > 0) & (j > 0), northwest, np.where(i == 0, j * gap, i * gap)
        )
        sub = self.substitution(i, j)
        return np.minimum(np.minimum(north_e + gap, west_e + gap), nw_e + sub)

    def make_diagonal_evaluator(self, dim, boundary):
        """Fused sweep path: precomputed substitution grid, scalar edge fixes.

        Interior cells are three in-place ufunc pairs; the virtual first
        row/column only ever touches the two end elements of a diagonal on
        the growing half of the sweep, patched as scalars.
        """
        idx = np.arange(dim, dtype=np.int64)
        sub = np.where(
            self.seq_a[idx % self.seq_a.size][:, None]
            == self.seq_b[idx % self.seq_b.size][None, :],
            0.0,
            self.mismatch,
        )
        sub_flat = sub.reshape(-1)
        gap = self.gap
        scratch = np.empty(dim)

        def evaluate(d, i_min, i_max, west, north, northwest, out, seg):
            m = i_max - i_min + 1
            t = scratch[:m]
            np.add(northwest, sub_flat[seg], out=out)
            np.add(north, gap, out=t)
            np.minimum(out, t, out=out)
            np.add(west, gap, out=t)
            np.minimum(out, t, out=out)
            if i_min == 0:
                # First element is cell (0, d): north/north-west come from
                # the virtual first row.  Recompute the full scalar min with
                # the same float arithmetic as diagonal().
                west0 = west[0] if d > 0 else 1.0 * gap
                sub0 = sub_flat[d]
                out[0] = min((d + 1.0) * gap + gap, west0 + gap, d * gap + sub0)
            if d - i_max == 0 and d >= 1:
                # Last element is cell (d, 0): west/north-west from the
                # virtual first column.
                subl = sub_flat[d * dim]
                out[m - 1] = min(
                    north[m - 1] + gap, (d + 1.0) * gap + gap, d * gap + subl
                )

        return evaluate

    def make_row_evaluator(self, dim, boundary):
        """Scan row: ``D[j] = min(t[j], D[j-1] + gap)`` as one running minimum.

        With ``t = min(N + gap, NW + sub)`` the west chain is a running
        minimum of ``t[j] - j * gap``.  The shift is exact — and the row
        bit-identical to :meth:`diagonal` — only while every value is an
        integer below 2**53, so non-integer costs decline.  The virtual
        first row / column is supplied here, as in the diagonal evaluator.
        """
        gap, mismatch = self.gap, self.mismatch
        exact = gap.is_integer() and mismatch.is_integer()
        if not exact or (2 * dim + 2) * gap + mismatch >= 2.0**53:
            return None
        rows, code = letter_rows(self.seq_a, self.seq_b, dim, 0.0, mismatch)
        ramp = np.arange(dim + 1) * gap  # the virtual first row, and the shift
        scratch = np.empty(dim)

        def evaluate(i, c0, c1, north, west, out):
            t = scratch[: c1 - c0]
            shift = ramp[: c1 - c0]
            sub = rows[code[i], c0:c1]
            if i == 0:
                north = ramp[c0 : c1 + 1]
            np.add(north[:-1], sub, out=out)
            np.add(north[1:], gap, out=t)
            np.minimum(out, t, out=out)
            if c0 == 0:  # virtual first column: W = (i + 1) * gap, NW = i * gap
                west = (i + 1.0) * gap
                out[0] = min(t[0], i * gap + sub[0])
            np.subtract(out, shift, out=out)
            if west + gap < out[0]:
                out[0] = west + gap
            np.minimum.accumulate(out, out=out)
            np.add(out, shift, out=out)

        return evaluate


class EditDistanceApp(WavefrontApplication):
    """Global alignment of two synthetic DNA sequences."""

    name = "edit-distance"
    default_dim = 512  # large, fine-grained instances like sequence-comparison

    def __init__(
        self,
        dim: int | None = None,
        similarity: float = 0.7,
        seed: int | None = None,
        gap: float = 1.0,
        mismatch: float = 1.0,
    ) -> None:
        if not 0.0 <= similarity <= 1.0:
            raise InvalidParameterError(
                f"similarity must be in [0, 1], got {similarity}"
            )
        if dim is not None:
            self.default_dim = int(dim)
        self.similarity = similarity
        self.seed = seed
        self.gap = gap
        self.mismatch = mismatch

    def make_kernel(self) -> EditDistanceKernel:
        """Construct the edit-distance kernel for the app's sequences."""
        seq_a = random_dna(self.default_dim, seed=self.seed)
        seq_b = mutate(seq_a, rate=1.0 - self.similarity, seed=self.seed)
        return EditDistanceKernel(seq_a, seq_b, gap=self.gap, mismatch=self.mismatch)
