"""Longest common subsequence (LCS) of two synthetic sequences.

The textbook wavefront dynamic program:

    L[i, j] = L[i-1, j-1] + 1              if a[i] == b[j]
              max(L[i-1, j], L[i, j-1])    otherwise

with zero boundaries — which is exactly the framework's constant-boundary
convention, so unlike :mod:`repro.apps.editdistance` the kernel needs no
virtual first row/column.  Cell ``(dim-1, dim-1)`` holds the LCS length of
the two full sequences.

On the synthetic scale the kernel is as fine-grained as Smith-Waterman
(``tsize = 0.5``, ``dsize = 0``): one comparison and one max per cell.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import WavefrontApplication
from repro.apps.sequence import letter_rows, mutate, random_dna
from repro.core.exceptions import InvalidParameterError
from repro.core.pattern import WavefrontKernel

#: Synthetic-scale granularity of one LCS cell.
LCS_TSIZE = 0.5
#: No per-cell payload beyond the DP value itself.
LCS_DSIZE = 0


class LCSKernel(WavefrontKernel):
    """Longest-common-subsequence recurrence."""

    def __init__(self, seq_a: np.ndarray, seq_b: np.ndarray) -> None:
        seq_a = np.asarray(seq_a, dtype=np.int8)
        seq_b = np.asarray(seq_b, dtype=np.int8)
        if seq_a.ndim != 1 or seq_b.ndim != 1:
            raise InvalidParameterError("sequences must be 1-D arrays")
        self.seq_a = seq_a
        self.seq_b = seq_b
        self.tsize = LCS_TSIZE
        self.dsize = LCS_DSIZE
        self.name = "lcs"

    def matches(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Boolean mask of positions where ``a[i] == b[j]``."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        return self.seq_a[i % self.seq_a.size] == self.seq_b[j % self.seq_b.size]

    def diagonal(self, i, j, west, north, northwest):  # noqa: D102 - see base class
        """Vectorized LCS recurrence over one anti-diagonal."""
        return np.where(
            self.matches(i, j), northwest + 1.0, np.maximum(north, west)
        )

    def make_row_evaluator(self, dim, boundary):
        """Scan row: ``max(NW + match, N)``, then a running maximum over the west.

        Equal to :meth:`diagonal` on every LCS grid, whatever the boundary:
        ``NW <= N`` and ``W <= NW + 1``, so ``where(match, NW + 1, max(N, W))``
        is the maximum of all three candidates, and a maximum never rounds.
        """
        rows, code = letter_rows(self.seq_a, self.seq_b, dim, 1.0, 0.0)

        def evaluate(i, c0, c1, north, west, out):
            np.add(north[:-1], rows[code[i], c0:c1], out=out)
            np.maximum(out, north[1:], out=out)
            if west > out[0]:
                out[0] = west
            np.maximum.accumulate(out, out=out)

        return evaluate


class LCSApp(WavefrontApplication):
    """LCS of two synthetic DNA sequences with controllable similarity."""

    name = "lcs"
    default_dim = 512  # fine-grained kernel, large instances

    def __init__(
        self,
        dim: int | None = None,
        similarity: float = 0.7,
        seed: int | None = None,
    ) -> None:
        if not 0.0 <= similarity <= 1.0:
            raise InvalidParameterError(
                f"similarity must be in [0, 1], got {similarity}"
            )
        if dim is not None:
            self.default_dim = int(dim)
        self.similarity = similarity
        self.seed = seed

    def make_kernel(self) -> LCSKernel:
        """Construct the LCS kernel for the app's sequences."""
        seq_a = random_dna(self.default_dim, seed=self.seed)
        seq_b = mutate(seq_a, rate=1.0 - self.similarity, seed=self.seed)
        return LCSKernel(seq_a, seq_b)
