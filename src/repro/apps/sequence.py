"""Biological sequence comparison (Smith-Waterman local alignment).

The paper's fine-grained evaluation application: "a string alignment problem
from Bioinformatics, characterized by very large instances and very
fine-grained kernels", mapping to ``tsize = 0.5`` and ``dsize = 0`` on the
synthetic scale (Section 3.2.1).

The kernel is the classic Smith-Waterman recurrence with linear gap penalty:

    H[i, j] = max(0,
                  H[i-1, j-1] + score(a[i], b[j]),
                  H[i-1, j]   - gap,
                  H[i, j-1]   - gap)

The paper used real genome data; this reproduction generates synthetic DNA
sequences with a controllable similarity level (see DESIGN.md, substitution
table) — only the recurrence structure and its tiny per-cell cost matter to
the autotuner.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import WavefrontApplication
from repro.core.exceptions import InvalidParameterError
from repro.core.pattern import WavefrontKernel
from repro.utils.rng import make_rng

#: The synthetic-scale granularity of one Smith-Waterman cell.
SW_TSIZE = 0.5
#: The synthetic-scale data granularity of the sequence application.
SW_DSIZE = 0

#: DNA alphabet used by the synthetic sequence generator.
DNA_ALPHABET = np.array([0, 1, 2, 3], dtype=np.int8)  # A, C, G, T
DNA_LETTERS = "ACGT"


def random_dna(length: int, seed: int | None = None) -> np.ndarray:
    """Generate a random DNA sequence of ``length`` bases (encoded 0..3)."""
    if length < 1:
        raise InvalidParameterError(f"length must be >= 1, got {length}")
    rng = make_rng(seed)
    return rng.choice(DNA_ALPHABET, size=length)


def mutate(sequence: np.ndarray, rate: float, seed: int | None = None) -> np.ndarray:
    """Return a copy of ``sequence`` with a fraction ``rate`` of bases replaced.

    Used to build pairs of sequences with a controllable similarity level.
    """
    if not 0.0 <= rate <= 1.0:
        raise InvalidParameterError(f"rate must be in [0, 1], got {rate}")
    rng = make_rng(seed)
    out = np.array(sequence, dtype=np.int8, copy=True)
    flips = rng.random(out.size) < rate
    out[flips] = rng.choice(DNA_ALPHABET, size=int(flips.sum()))
    return out


def letter_rows(
    seq_a: np.ndarray, seq_b: np.ndarray, dim: int, hit: float, miss: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, code)`` with ``rows[code[i]] == where(a[i] == b[:dim], hit, miss)``.

    One score row per distinct letter of ``a`` — O(alphabet x dim) state
    standing in for a ``dim x dim`` substitution table; both sequences wrap
    modulo their length, the registry-wide convention.
    """
    idx = np.arange(dim, dtype=np.int64)
    letters, code = np.unique(seq_a[idx % seq_a.size], return_inverse=True)
    rows = np.where(letters[:, None] == seq_b[idx % seq_b.size][None, :], hit, miss)
    return rows, code


def decode_dna(sequence: np.ndarray) -> str:
    """Human-readable string of an encoded DNA sequence."""
    return "".join(DNA_LETTERS[int(b)] for b in sequence)


class SmithWatermanKernel(WavefrontKernel):
    """Smith-Waterman local-alignment recurrence."""

    def __init__(
        self,
        seq_a: np.ndarray,
        seq_b: np.ndarray,
        match: float = 2.0,
        mismatch: float = -1.0,
        gap: float = 1.0,
    ) -> None:
        seq_a = np.asarray(seq_a, dtype=np.int8)
        seq_b = np.asarray(seq_b, dtype=np.int8)
        if seq_a.ndim != 1 or seq_b.ndim != 1:
            raise InvalidParameterError("sequences must be 1-D arrays")
        if gap < 0:
            raise InvalidParameterError(f"gap penalty must be >= 0, got {gap}")
        self.seq_a = seq_a
        self.seq_b = seq_b
        self.match = float(match)
        self.mismatch = float(mismatch)
        self.gap = float(gap)
        self.tsize = SW_TSIZE
        self.dsize = SW_DSIZE
        self.name = "smith-waterman"

    def substitution(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Match/mismatch score of aligning base ``a[i]`` with ``b[j]``."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        same = self.seq_a[i % self.seq_a.size] == self.seq_b[j % self.seq_b.size]
        return np.where(same, self.match, self.mismatch)

    def diagonal(self, i, j, west, north, northwest):  # noqa: D102 - see base class
        """Vectorized Smith-Waterman recurrence over one anti-diagonal."""
        score = northwest + self.substitution(i, j)
        candidates = np.stack(
            [np.zeros_like(score), score, north - self.gap, west - self.gap]
        )
        return np.max(candidates, axis=0)

    def make_diagonal_evaluator(self, dim, boundary):
        """Fused sweep path: one precomputed ``dim x dim`` substitution grid.

        Diagonals of the substitution grid are zero-copy strided slices (the
        engine's ``seg``), so each anti-diagonal of the recurrence reduces to
        six in-place ufuncs (an add and three maxima) with a single scratch
        vector.
        """
        idx = np.arange(dim, dtype=np.int64)
        sub = np.where(
            self.seq_a[idx % self.seq_a.size][:, None]
            == self.seq_b[idx % self.seq_b.size][None, :],
            self.match,
            self.mismatch,
        )
        sub_flat = sub.reshape(-1)
        gap = self.gap
        scratch = np.empty(dim)

        def evaluate(d, i_min, i_max, west, north, northwest, out, seg):
            m = i_max - i_min + 1
            t = scratch[:m]
            np.add(northwest, sub_flat[seg], out=out)
            np.maximum(out, 0.0, out=out)
            np.subtract(north, gap, out=t)
            np.maximum(out, t, out=out)
            np.subtract(west, gap, out=t)
            np.maximum(out, t, out=out)

        return evaluate

    def make_row_evaluator(self, dim, boundary):
        """Scan row: ``H[j] = max(t[j], H[j-1] - gap)`` as one running maximum.

        With ``t = max(0, NW + score, N - gap)`` the west chain is a running
        maximum of ``t[j] + j * gap``.  The shift is exact — and the row
        bit-identical to :meth:`diagonal` — only while every value is an
        integer below 2**53, so non-integer scores or boundary decline.
        """
        scores = (self.match, self.mismatch, self.gap, float(boundary))
        if not all(x.is_integer() for x in scores) or 2 * dim * sum(map(abs, scores)) >= 2.0**53:
            return None
        rows, code = letter_rows(self.seq_a, self.seq_b, dim, self.match, self.mismatch)
        gap = self.gap
        ramp = np.arange(dim) * gap
        scratch = np.empty(dim)

        def evaluate(i, c0, c1, north, west, out):
            t = scratch[: c1 - c0]
            shift = ramp[: c1 - c0]
            np.add(north[:-1], rows[code[i], c0:c1], out=out)
            np.maximum(out, 0.0, out=out)
            np.subtract(north[1:], gap, out=t)
            np.maximum(out, t, out=out)
            np.add(out, shift, out=out)
            if west - gap > out[0]:
                out[0] = west - gap
            np.maximum.accumulate(out, out=out)
            np.subtract(out, shift, out=out)

        return evaluate


class SequenceComparisonApp(WavefrontApplication):
    """The biological sequence comparison evaluation application."""

    name = "sequence-comparison"
    default_dim = 512  # "characterized by very large instances"

    def __init__(
        self,
        dim: int | None = None,
        similarity: float = 0.7,
        seed: int | None = None,
        match: float = 2.0,
        mismatch: float = -1.0,
        gap: float = 1.0,
    ) -> None:
        if not 0.0 <= similarity <= 1.0:
            raise InvalidParameterError(
                f"similarity must be in [0, 1], got {similarity}"
            )
        if dim is not None:
            self.default_dim = int(dim)
        self.similarity = similarity
        self.seed = seed
        self.match = match
        self.mismatch = mismatch
        self.gap = gap

    def make_kernel(self) -> SmithWatermanKernel:
        """Construct the Smith-Waterman kernel for the app's sequences."""
        seq_a = random_dna(self.default_dim, seed=self.seed)
        seq_b = mutate(seq_a, rate=1.0 - self.similarity, seed=self.seed)
        return SmithWatermanKernel(
            seq_a, seq_b, match=self.match, mismatch=self.mismatch, gap=self.gap
        )
