"""Matrix-chain ordering — interval DP re-oriented onto the wavefront.

The full matrix-chain multiplication DP minimises over every split point of
an interval, which needs O(n) predecessors per cell and falls outside the
strict three-neighbour wavefront stencil (the same situation as the general
knapsack, see :mod:`repro.apps.knapsack`).  The wavefront-expressible
restriction implemented here considers the two *edge* splits only — multiply
the first or the last matrix of the chain into the rest:

    m[s, e] = 0                                           if s == e
    m[s, e] = min(m[s, e-1] + p[s] * p[e] * p[e+1],       (split off last)
                  m[s+1, e] + p[s] * p[s+1] * p[e+1])     (split off first)

a classic upper bound on the true optimum that is exact for monotone
dimension sequences.  Mapping grid cell ``(i, j)`` to the interval
``[s, e] = [n-1-i, j]`` turns "drop the last matrix" into the west
neighbour and "drop the first matrix" into the north neighbour, and keeps
chain length constant along every anti-diagonal — intervals are the
wavefronts.  Cells with ``e < s`` (below the single-matrix base diagonal)
are not meaningful intervals and evaluate to 0.

The kernel is of medium granularity on the synthetic scale (three multiplies
and a min per cell, ``tsize = 1``, ``dsize = 0``).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import WavefrontApplication
from repro.core.exceptions import InvalidParameterError
from repro.core.params import require_int
from repro.core.pattern import WavefrontKernel
from repro.utils.rng import make_rng

#: Synthetic-scale granularity of one chain-ordering cell.
CHAIN_TSIZE = 1.0
#: No per-cell payload beyond the DP value itself.
CHAIN_DSIZE = 0


class MatrixChainKernel(WavefrontKernel):
    """Edge-split matrix-chain ordering recurrence."""

    def __init__(self, dims: np.ndarray) -> None:
        dims = np.asarray(dims, dtype=float)
        if dims.ndim != 1 or dims.size < 2:
            raise InvalidParameterError(
                "dims must be a 1-D array of at least 2 matrix dimensions"
            )
        if np.any(dims <= 0):
            raise InvalidParameterError("matrix dimensions must be positive")
        self.dims = dims
        self.n = dims.size - 1  # number of matrices in the chain
        self.tsize = CHAIN_TSIZE
        self.dsize = CHAIN_DSIZE
        self.name = "matrix-chain"

    def diagonal(self, i, j, west, north, northwest):  # noqa: D102 - see base class
        """Vectorized matrix-chain recurrence over one anti-diagonal."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        n = self.n
        p = self.dims
        s = (n - 1) - (i % n)
        e = j % n
        last = west + p[s] * p[e] * p[e + 1]
        first = north + p[s] * p[s + 1] * p[e + 1]
        return np.where(e <= s, 0.0, np.minimum(last, first))

    def make_diagonal_evaluator(self, dim, boundary):
        """Fused sweep path: every ``p`` gather becomes a reversed-slice view.

        Along diagonal ``d`` both the interval start ``s = n-1-i`` and end
        ``e = d-i`` decrease as the row grows, so ``p[s]``, ``p[s+1]``,
        ``p[e]`` and ``p[e+1]`` are all contiguous slices of the reversed
        dimension vector.  Diagonals at or below the base (``d <= n-1``) are
        identically zero; all others are pure interior cells.
        """
        if dim != self.n:
            # The modular index wrap-around of diagonal() has no slice
            # equivalent; only the natural problem size gets the fast path.
            return None
        n = self.n
        p_rev = self.dims[::-1].copy()  # p_rev[k] == p[n - k]
        # p[s] * p[s+1] depends on the row alone: one product per row, the
        # same two factors diagonal() multiplies.
        p_ss1 = p_rev[1:] * p_rev[:-1]
        scratch = np.empty(dim)

        def evaluate(d, i_min, i_max, west, north, northwest, out, seg):
            if d <= n - 1:
                out.fill(0.0)
                return
            m = i_max - i_min + 1
            t = scratch[:m]
            p_s = p_rev[i_min + 1 : i_max + 2]  # p[n-1-i]
            p_e = p_rev[n - d + i_min : n - d + i_min + m]  # p[d-i]
            p_e1 = p_rev[n - d + i_min - 1 : n - d + i_min - 1 + m]  # p[d-i+1]
            np.multiply(p_s, p_e, out)
            np.multiply(out, p_e1, out)
            np.add(out, west, out)
            np.multiply(p_ss1[i_min : i_max + 1], p_e1, t)
            np.add(t, north, t)
            np.minimum(out, t, out=out)

        return evaluate

    def optimum_edge_split(self) -> float:
        """Reference value of the edge-split DP, computed by a direct loop.

        Used by the tests to validate the grid sweep; note this is the
        restricted (first-or-last) recurrence, an upper bound on the full
        matrix-chain optimum.
        """
        n = self.n
        p = self.dims
        m = np.zeros((n, n))
        for length in range(2, n + 1):
            for s in range(0, n - length + 1):
                e = s + length - 1
                m[s, e] = min(
                    m[s, e - 1] + p[s] * p[e] * p[e + 1],
                    m[s + 1, e] + p[s] * p[s + 1] * p[e + 1],
                )
        return float(m[0, n - 1])


def max_exact_dim_size(n: int) -> int:
    """The largest ``max_dim_size`` a chain of ``n`` matrices sweeps exactly.

    Every value the float64 sweep forms is an integer: a product ``p[a] *
    p[b] * p[c] <= M**3`` and a candidate ``m + product``.  By induction on
    the interval, ``m[s, e] <= (e - s) * M**3``, so both candidates of
    ``m[s, e]`` are at most ``(e - s) * M**3 <= (n - 1) * M**3``.  All of
    them stay below ``2**53`` — hence exact — iff ``(n - 1) * M**3 <
    2**53``; this returns the largest such ``M``.
    """
    factor = max(n - 1, 1)  # a one-matrix chain still forms its products
    m = round(((2**53 - 1) / factor) ** (1 / 3))
    while factor * m**3 >= 2**53:
        m -= 1
    while factor * (m + 1) ** 3 < 2**53:
        m += 1
    return m


class MatrixChainApp(WavefrontApplication):
    """Edge-split matrix-chain ordering with random matrix dimensions.

    ``max_dim_size`` is an integer in ``1 .. max_exact_dim_size(dim)``: past
    it a value of the float64 sweep could reach ``2**53`` and round.
    """

    name = "matrix-chain"
    default_dim = 128

    def __init__(
        self,
        dim: int | None = None,
        seed: int | None = None,
        max_dim_size: int = 64,
    ) -> None:
        max_dim_size = require_int("max_dim_size", max_dim_size, minimum=1)
        if dim is not None:
            self.default_dim = int(dim)
        bound = max_exact_dim_size(self.default_dim)
        if max_dim_size > bound:
            raise InvalidParameterError(
                f"max_dim_size={max_dim_size} at dim={self.default_dim} lets the sweep "
                f"form values up to (dim - 1) * max_dim_size**3 = "
                f"{(self.default_dim - 1) * max_dim_size**3}, past 2**53 where float64 "
                f"rounds (at this dim max_dim_size <= {bound})"
            )
        self.seed = seed
        self.max_dim_size = max_dim_size

    def make_kernel(self) -> MatrixChainKernel:
        """Construct the matrix-chain kernel for the app's dimensions."""
        rng = make_rng(self.seed)
        dims = rng.integers(1, self.max_dim_size + 1, size=self.default_dim + 1)
        return MatrixChainKernel(dims)
