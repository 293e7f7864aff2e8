"""Reference ``logsumexp_pair``: the spelling every stored grid was computed with.

This is :func:`repro.runtime.compute.logsumexp_pair` as it was written before
the fused evaluators dropped their ``np.errstate`` blocks and ``np.where``
temporaries: two error-state contexts, an ``isinf`` patch, a fresh array per
intermediate.  It is kept verbatim as the test oracle — the production
function must return the same bits on every input, NaN included, so grids,
witnesses and result-cache entries written by older builds stay valid.  The
benchmark's verifier cannot catch a value change: it compares against the
serial engine of the same build, which calls the production function too.
"""

from __future__ import annotations

import numpy as np


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
