"""0/1 knapsack dynamic program — the paper's "future work" extension.

Section 6 of the paper names the 0/1 knapsack problem as the next dynamic
programming pattern the framework should support.  The general knapsack
recurrence reaches back an arbitrary number of columns (``w - weight[i]``),
which falls outside the strict wavefront stencil the framework supports; the
wavefront-expressible special case implemented here is the *unit-weight*
knapsack, where every item weighs one unit:

    V[i, w] = max(V[i-1, w], V[i-1, w-1] + value[i])

i.e. exactly the north / north-west dependencies of the wavefront pattern.
Row ``i`` considers the first ``i`` items and column ``w`` the capacity used.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import WavefrontApplication
from repro.core.exceptions import InvalidParameterError
from repro.core.pattern import WavefrontKernel
from repro.utils.rng import make_rng

#: Synthetic-scale granularity: comparable to Smith-Waterman (a max + add).
KNAPSACK_TSIZE = 0.5
#: No per-cell payload beyond the DP value itself.
KNAPSACK_DSIZE = 0


class KnapsackKernel(WavefrontKernel):
    """Unit-weight 0/1 knapsack recurrence."""

    def __init__(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise InvalidParameterError("values must be a non-empty 1-D array")
        if np.any(values < 0):
            raise InvalidParameterError("item values must be non-negative")
        self.values = values
        self.tsize = KNAPSACK_TSIZE
        self.dsize = KNAPSACK_DSIZE
        self.name = "knapsack"

    def diagonal(self, i, j, west, north, northwest):  # noqa: D102 - see base class
        """Vectorized knapsack recurrence over one anti-diagonal."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        item_value = self.values[i % self.values.size]
        # Capacity 0 (first column) can hold nothing: taking the item is only
        # allowed when at least one unit of capacity is used (j >= 1).
        take = np.where(j >= 1, northwest + item_value, 0.0)
        skip = north
        return np.maximum(take, skip)

    def make_row_evaluator(self, dim, boundary):
        """Row-parallel (no west term): the cell operations of :meth:`diagonal`."""
        item_values = self.values

        def evaluate(i, c0, c1, north, west, out):
            np.add(north[:-1], item_values[i % item_values.size], out=out)
            if c0 == 0:  # capacity 0 can hold nothing
                out[0] = 0.0
            np.maximum(out, north[1:], out=out)

        return evaluate

    def optimum(self, capacity: int, n_items: int | None = None) -> float:
        """Reference optimum computed directly (greedy on the best values).

        With unit weights the optimal choice is simply the ``capacity`` most
        valuable items among the first ``n_items``; the tests use this to
        validate the DP grid.
        """
        if capacity < 0:
            raise InvalidParameterError(f"capacity must be >= 0, got {capacity}")
        n_items = self.values.size if n_items is None else n_items
        pool = np.sort(self.values[:n_items])[::-1]
        return float(np.sum(pool[: min(capacity, pool.size)]))


class ExpectedKnapsackKernel(WavefrontKernel):
    """Moment-tracking expected-value knapsack over Bernoulli item values.

    The probabilistic extension of :class:`KnapsackKernel`: item ``i`` is
    worth ``values[i]`` with probability ``probs[i]`` and nothing otherwise
    (independent Bernoulli draws), still at unit weight.  The *policy* is
    fixed by the first-moment DP

        M1[i, w] = max(M1[i-1, w], M1[i-1, w-1] + p_i v_i)

    (ties take the item), i.e. the classic recurrence on expected values.
    What the wavefront grid carries is the **second moment** of the total
    value ``S`` collected by that policy:

        M2[i, w] = M2[i-1, w-1] + 2 M1[i-1, w-1] (p_i v_i) + p_i v_i^2
                                                if the policy takes item i,
        M2[i, w] = M2[i-1, w]                   otherwise,

    from ``E[(S + X)^2] = E[S^2] + 2 E[S] E[X] + E[X^2]`` for the
    independent Bernoulli increment ``X`` (``E[X] = p v``,
    ``E[X^2] = p v^2``).  Together with M1 this yields the exact variance of
    the stochastic payoff — the "moments of probabilistic loops" shape from
    the related work — while keeping the north / north-west stencil: the
    decision and increment tables are pure functions of ``(i, w)``
    precomputed from the M1 DP, so the grid recurrence is a masked choice
    between ``northwest + A[i, w]`` and ``north``.

    The *witness* is the policy itself: the indices of the items taken on
    the optimal-expected-value traceback from the corner cell, ascending.

    Tables are precomputed lazily per grid size (the M1 DP is a genuine
    O(dim^2) computation, not tileable modulo the item count) and cached on
    the kernel under a ``_cached_`` attribute, which the problem's pickling
    support already knows to drop.
    """

    def __init__(self, values: np.ndarray, probs: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise InvalidParameterError("values must be a non-empty 1-D array")
        if probs.shape != values.shape:
            raise InvalidParameterError("probs must match values' shape")
        if np.any(values < 0):
            raise InvalidParameterError("item values must be non-negative")
        if np.any(probs < 0) or np.any(probs > 1):
            raise InvalidParameterError("item probabilities must lie in [0, 1]")
        self.values = values
        self.probs = probs
        self.tsize = KNAPSACK_TSIZE
        self.dsize = KNAPSACK_DSIZE
        self.name = "knapsack-ev"
        self._cached_ev_tables: tuple | None = None

    def __getstate__(self) -> dict:
        """Drop the lazy table cache; workers rebuild it on first use."""
        state = dict(self.__dict__)
        state["_cached_ev_tables"] = None
        return state

    # ------------------------------------------------------------------
    def _tables(self, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(take, add, m1) tables for a ``dim x dim`` grid, cached.

        ``take[i, w]`` is the policy decision at grid cell ``(i, w)``,
        ``add[i, w]`` the M2 increment applied when taking, and ``m1[i, w]``
        the first moment at the cell.  Row ``i`` of the grid considers
        items ``0 .. i`` (item indices modulo the item count), column ``w``
        is the capacity, with the framework's zero boundary as the empty
        prefix — exactly the :class:`KnapsackKernel` convention.
        """
        cached = self._cached_ev_tables
        if cached is not None and cached[0] >= dim:
            return cached[1][:dim, :dim], cached[2][:dim, :dim], cached[3][:dim, :dim]
        # Grow geometrically so incremental sweeps (serial per-diagonal
        # calls) trigger O(log dim) rebuilds, not one per diagonal.
        size = max(dim, self.values.size)
        if cached is not None:
            size = max(size, 2 * cached[0])
        n = self.values.size
        ev = self.probs * self.values  # E[X] per item
        ev2 = self.probs * self.values**2  # E[X^2] per item
        m1_prev = np.zeros(size)  # M1 of the previous row, capacities 0..size-1
        take = np.empty((size, size), dtype=bool)
        add = np.empty((size, size))
        m1 = np.empty((size, size))
        for i in range(size):
            gain = ev[i % n]
            cand = np.empty(size)
            cand[0] = -np.inf  # capacity 0 can never take
            np.add(m1_prev[:-1], gain, out=cand[1:])
            take[i] = cand >= m1_prev  # ties take the item
            add[i, 0] = 0.0
            add[i, 1:] = 2.0 * m1_prev[:-1] * gain + ev2[i % n]
            m1[i] = np.where(take[i], cand, m1_prev)
            m1_prev = m1[i]
        self._cached_ev_tables = (size, take, add, m1)
        return take[:dim, :dim], add[:dim, :dim], m1[:dim, :dim]

    def first_moment(self, dim: int) -> np.ndarray:
        """The M1 grid (expected total value) for a ``dim x dim`` problem."""
        return self._tables(dim)[2].copy()

    def diagonal(self, i, j, west, north, northwest):  # noqa: D102 - see base class
        """Vectorized second-moment recurrence over one anti-diagonal."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        dim = int(max(np.max(i), np.max(j))) + 1
        take, add, _ = self._tables(dim)
        return np.where(take[i, j], northwest + add[i, j], north)

    def make_row_evaluator(self, dim, boundary):
        """Row-parallel (no west term): rows of the cached policy tables, as views."""
        take, add, _ = self._tables(dim)
        scratch = np.empty(dim)

        def evaluate(i, c0, c1, north, west, out):
            t = scratch[: c1 - c0]
            np.add(north[:-1], add[i, c0:c1], out=t)
            np.copyto(out, north[1:])
            np.copyto(out, t, where=take[i, c0:c1])

        return evaluate

    # ------------------------------------------------------------------
    def reconstruct_witness(self, values: np.ndarray) -> np.ndarray:
        """Item indices the policy takes on the corner-cell traceback.

        Walks the decision table from ``(dim-1, dim-1)``: a *take* records
        the row's item index and moves north-west, a *skip* moves north.
        Returns the ascending ``int64`` item indices (modulo the item
        count), i.e. the deterministic policy whose moments the grid holds.
        """
        dim = values.shape[0]
        take, _, _ = self._tables(dim)
        n = self.values.size
        chosen = []
        i, j = dim - 1, dim - 1
        while i >= 0:
            if take[i, j]:
                chosen.append(i % n)
                j -= 1
            i -= 1
        return np.asarray(chosen[::-1], dtype=np.int64)


class KnapsackApp(WavefrontApplication):
    """Unit-weight 0/1 knapsack application with random item values."""

    name = "knapsack"
    default_dim = 128

    def __init__(self, dim: int | None = None, seed: int | None = None, max_value: float = 10.0) -> None:
        if max_value <= 0:
            raise InvalidParameterError(f"max_value must be positive, got {max_value}")
        if dim is not None:
            self.default_dim = int(dim)
        self.seed = seed
        self.max_value = float(max_value)

    def make_kernel(self) -> KnapsackKernel:
        """Construct the knapsack kernel for the app's item values."""
        rng = make_rng(self.seed)
        values = rng.uniform(0.0, self.max_value, size=self.default_dim)
        return KnapsackKernel(values)


class ExpectedKnapsackApp(WavefrontApplication):
    """Expected-value knapsack with Bernoulli item values and moment tracking.

    Item values are drawn like :class:`KnapsackApp`'s; each item's success
    probability is uniform over ``(0.1, 0.9)`` so no decision is ever
    degenerate and the tie-take rule is exercised through repeated values.
    """

    name = "knapsack-ev"
    default_dim = 128

    def __init__(
        self,
        dim: int | None = None,
        seed: int | None = None,
        max_value: float = 10.0,
    ) -> None:
        if max_value <= 0:
            raise InvalidParameterError(f"max_value must be positive, got {max_value}")
        if dim is not None:
            self.default_dim = int(dim)
        self.seed = seed
        self.max_value = float(max_value)

    def make_kernel(self) -> ExpectedKnapsackKernel:
        """Construct the moment-tracking kernel for the app's random items."""
        rng = make_rng(self.seed)
        values = rng.uniform(0.0, self.max_value, size=self.default_dim)
        probs = rng.uniform(0.1, 0.9, size=self.default_dim)
        return ExpectedKnapsackKernel(values, probs)
