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
from repro.core.exceptions import ExecutionError
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

    ``out`` (optional) receives the result in place — the fused diagonal
    evaluators pass their contiguous output row directly.  Scalars in,
    scalar-shaped 0-d array out; use ``float(...)`` when a Python float is
    needed.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    big = np.maximum(a, b)
    small = np.minimum(a, b)
    # |a - b| via the ordered pair so inf - inf never happens for the
    # both--inf / both-+inf columns (big == small there → diff forced to 0).
    with np.errstate(invalid="ignore"):
        diff = np.subtract(big, small)
    same = big == small  # covers both -inf and both +inf (and exact ties)
    diff = np.where(same, 0.0, diff)
    # exp(-diff) underflows harmlessly to 0.0 for large gaps; suppress the
    # underflow signal rather than let it leak as a RuntimeWarning.
    with np.errstate(under="ignore"):
        correction = np.log1p(np.exp(-diff))
    # Where the dominant operand is infinite the correction must not drag a
    # finite term in (e.g. -inf + log(2) is still -inf, but inf + c is nan
    # only through inf - inf, which `same` already removed).
    correction = np.where(np.isinf(big), 0.0, correction)
    result = big + correction
    if out is not None:
        out[...] = result
        return out
    return result


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


def logsumexp(values, axis: int | None = None) -> np.ndarray:
    """Stable ``log(sum(exp(values)))`` reduction along ``axis``.

    The n-ary companion of :func:`logsumexp_pair` for tracebacks and
    references: shifts by the axis maximum before exponentiating, and maps
    all-``-inf`` reductions to ``-inf`` (an empty probability sum) without
    emitting warnings.
    """
    values = np.asarray(values, dtype=float)
    big = np.max(values, axis=axis, keepdims=True, initial=-np.inf)
    shift = np.where(np.isfinite(big), big, 0.0)
    with np.errstate(under="ignore", over="ignore", divide="ignore"):
        total = np.log(np.sum(np.exp(values - shift), axis=axis, keepdims=True))
        total = total + shift
    # All--inf (or empty) reductions already produced -inf through log(0);
    # +inf operands dominate through exp overflow to inf.  Only the shape
    # bookkeeping remains.
    if axis is not None:
        result = np.squeeze(total, axis=axis)
    else:
        result = np.squeeze(total)
    if result.ndim == 0:
        return result[()]
    return result


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


def verify_against_reference(problem: WavefrontProblem, grid: WavefrontGrid) -> None:
    """Raise :class:`ExecutionError` unless ``grid`` equals the serial sweep exactly."""
    ref = reference_grid(problem)
    if not np.array_equal(ref.values, grid.values):
        diff = np.abs(ref.values - grid.values)
        worst = np.unravel_index(np.argmax(diff), diff.shape)
        raise ExecutionError(
            f"functional result mismatch for {problem.name!r}: max error "
            f"{diff.max():.3e} at cell {worst}"
        )
