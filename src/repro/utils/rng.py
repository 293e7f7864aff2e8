"""Deterministic random-number helpers.

Every stochastic component in the package (synthetic workload generation,
training-set sampling, ML model fitting) accepts either an integer seed or a
:class:`numpy.random.Generator`.  Centralising the conversion here keeps the
experiments reproducible run-to-run, which matters because the paper's
training sets are built by sampling the exhaustive-search results.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 20140215  # PMAM'14 date; arbitrary but fixed.


def make_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` maps to the package-wide :data:`DEFAULT_SEED` so that library
    entry points are deterministic unless the caller opts out by passing an
    explicit generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)
