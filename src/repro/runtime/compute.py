"""Shared functional computation helpers.

The scalar reference evaluation of kernel values on the host grid lives
here: the serial executor sweeps with it, and every other engine is tested
bit-identical against it.

The probabilistic application family (:mod:`repro.apps.viterbi`,
:mod:`repro.apps.stochastic_path`, :mod:`repro.apps.knapsack`'s
expected-value variant) additionally needs *probability-semiring*
arithmetic: log-space sums (:func:`logsumexp_pair`) and max-product steps
(:func:`max_product_pair`).  Those primitives live here — not in the app
modules — so the serial :meth:`~repro.core.pattern.WavefrontKernel.diagonal`
path, the fused evaluators of the vectorized engine and the mp-parallel
workers all evaluate one shared, numerically-stable implementation.  Both
helpers are elementwise, which makes every tile sweep correct by
construction (a tile boundary can never change an elementwise result).
"""

from __future__ import annotations

import numpy as np

from repro.core import diagonal as dg
from repro.core.grid import WavefrontGrid
from repro.core.pattern import WavefrontProblem


# ----------------------------------------------------------------------
# Probability-semiring primitives (log space)
# ----------------------------------------------------------------------
def logsumexp_pair(a, b, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise ``log(exp(a) + exp(b))``, stable across the float range.

    The workhorse of the log-space *sum* semiring: computed as
    ``max(a, b) + log1p(exp(-|a - b|))``, so logits near ``±700`` neither
    overflow nor underflow, and the result is exact to one ulp of the naive
    formula wherever the naive formula is representable.  Edge cases follow
    the mathematical limits without emitting any ``RuntimeWarning``:

    * both operands ``-inf`` → ``-inf``  (empty sum of probabilities);
    * one operand ``-inf``   → the other operand unchanged;
    * ``+inf`` anywhere      → ``+inf``.

    Invalid and divide cannot occur: ``big - small`` is only taken where
    the two differ (``inf - inf`` is masked, not silenced), and ``exp`` of a
    non-positive number is at most 1.  The gap itself overflows only past
    the float range (opposite-sign operands beyond ``±8.9e307``), and the
    result is then ``big`` exactly.  ``exp`` may underflow for large gaps,
    which numpy's default error state ignores.

    ``out`` (optional) receives the result in place and doubles as the gap
    buffer, so only ``big`` and ``small`` are allocated; it may alias ``a``
    or ``b``.  No fused evaluator passes one: the ``stochastic-path``
    evaluator, whose operands are finite, spells the same roundings itself
    without the ``±inf`` masking.  Scalars in, a ``numpy.float64`` out.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    big = np.maximum(a, b)
    small = np.minimum(a, b)
    # big and small are fresh, so the gap may overwrite an `out` aliasing a
    # or b.  Where big == small (ties, both -inf, both +inf) it stays 0.
    if out is None:
        diff = np.zeros(np.shape(big))
    else:
        diff = out
        diff.fill(0.0)
    np.subtract(big, small, diff, where=np.not_equal(big, small))
    np.negative(diff, diff)
    np.exp(diff, diff)
    # The correction lies in [0, ln 2], so an infinite big absorbs it.
    np.log1p(diff, diff)
    return np.add(big, diff, out)


def max_product_pair(a, b, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise max-product step in log space: simply ``max(a, b)``.

    Named (rather than spelled ``np.maximum`` at every call site) so the
    Viterbi-style kernels and their brute-force references share one
    definition of the semiring's ``⊕``; in log space the *product* is the
    ``+`` the caller applies to its operands before combining.  Bit-exact by
    construction — ``max`` introduces no rounding — which is what lets the
    differential battery require exact equality for max-product apps.
    """
    if out is not None:
        return np.maximum(a, b, out=out)
    return np.maximum(a, b)


def compute_cells(
    problem: WavefrontProblem,
    grid: WavefrontGrid,
    i: np.ndarray,
    j: np.ndarray,
) -> None:
    """Compute the cells ``(i, j)`` in place, assuming their deps are ready.

    All cells passed in one call must be mutually independent (i.e. lie on a
    single anti-diagonal, possibly restricted to a tile).
    """
    i = np.asarray(i)
    j = np.asarray(j)
    if i.size == 0:
        return
    west, north, nw = grid.neighbours(i, j, boundary=problem.boundary)
    values = problem.kernel.diagonal(i, j, west, north, nw)
    values = problem.kernel.validate_output(values, i.size)
    grid.values[i, j] = values


def compute_diagonal(problem: WavefrontProblem, grid: WavefrontGrid, d: int) -> int:
    """Compute one full anti-diagonal of the grid; returns the cell count."""
    cells = dg.diagonal_cells(d, grid.dim, grid.dim)
    compute_cells(problem, grid, cells[:, 0], cells[:, 1])
    return cells.shape[0]


def compute_diagonal_range(
    problem: WavefrontProblem, grid: WavefrontGrid, d_lo: int, d_hi: int
) -> int:
    """Compute diagonals ``d_lo .. d_hi`` inclusive; returns total cells computed."""
    if d_hi < d_lo:
        return 0
    total = 0
    for d in range(d_lo, d_hi + 1):
        total += compute_diagonal(problem, grid, d)
    return total


def reference_grid(problem: WavefrontProblem) -> WavefrontGrid:
    """Compute the whole problem with a plain serial sweep (reference result)."""
    grid = problem.make_grid()
    compute_diagonal_range(problem, grid, 0, 2 * problem.dim - 2)
    return grid
