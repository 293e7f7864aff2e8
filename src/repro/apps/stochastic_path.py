"""Risk-sensitive expected cost of a random monotone path on a lattice DAG.

The log-space *sum* member of the probabilistic application family.  A
walker traverses the ``dim x dim`` lattice from the origin to cell
``(i, j)`` moving only east or south; at every interior cell the arrival
direction is random — west with probability ``p_west[i, j]``, north with
the complement — and each visited cell charges a deterministic cost
``c[i, j]``.  The grid tracks the risk-sensitive (exponential-utility)
aggregate

    L[i, j] = log E[ exp(-C(path to (i, j))) ]

whose recurrence is a logsumexp over the two predecessors:

    L[i, j] = -c[i, j] + logsumexp(log p_west[i, j] + L[i, j-1],
                                   log(1 - p_west[i, j]) + L[i-1, j])

with the degenerate edges ``L[0, j] = -c + L[0, j-1]`` (row 0 only ever
arrives from the west), ``L[i, 0] = -c + L[i-1, 0]``, and
``L[0, 0] = -c[0, 0]``.  All probabilities are strictly inside ``(0, 1)``
and costs strictly positive, so every grid value is finite (and negative).
``-L[dim-1, dim-1]`` is the certainty-equivalent path cost of the corner.

The serial :meth:`StochasticPathKernel.diagonal` routes the log-space sum
through the shared, numerically-stable
:func:`repro.runtime.compute.logsumexp_pair` primitive.  The fused evaluator
spells the same shift-by-max formula on finite operands without that
primitive's ``±inf`` masking, and every rounding it makes is one
``logsumexp_pair`` makes, so every backend produces bit-identical grids —
which is what lets the witness below be byte-identical across backends even
though differential tests against an independent reference are ``allclose``
(log-space sums round).

The *witness* is the maximum-a-posteriori arrival path: starting from the
corner, each step picks the predecessor with the larger posterior mass
``log p_dir + L[predecessor]`` (exact ties prefer **west**, matching a
reference that scans predecessors in (west, north) order and keeps the
first maximum).  It is returned as the ``2*dim - 1`` flattened cell
indices ``i*dim + j`` of the path, origin first.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import WavefrontApplication, position_table_flat
from repro.core.exceptions import InvalidParameterError
from repro.core.params import require_int
from repro.core.pattern import WavefrontKernel
from repro.runtime.compute import logsumexp_pair
from repro.utils.rng import make_rng

#: Synthetic-scale granularity: a logsumexp (exp + log1p) dominates the cell.
STOCHASTIC_PATH_TSIZE = 2.0
#: No per-cell payload beyond the DP value itself.
STOCHASTIC_PATH_DSIZE = 0
#: A cell's cost is drawn uniformly from ``[COST_LOW, COST_HIGH)``, then
#: multiplied by ``cost_scale``.
COST_LOW, COST_HIGH = 0.1, 1.0
#: The most a path may be charged: half the float maximum.  The margin
#: absorbs the log-probability terms (at most ``|log 0.05| < 3`` per step)
#: and the rounding of a path's ``2 * dim - 1`` additions, so every grid
#: value of an admitted instance is finite whatever the seed.
MAX_PATH_CHARGE = 2.0**1023


class StochasticPathKernel(WavefrontKernel):
    """Risk-sensitive random-arrival lattice recurrence in log space.

    ``costs`` is the per-cell charge table (strictly positive) and
    ``p_west`` the per-cell west-arrival probability table (strictly inside
    ``(0, 1)``); both are indexed modulo their shape so one kernel serves
    any grid size, following the registry-wide convention.
    """

    def __init__(self, costs: np.ndarray, p_west: np.ndarray) -> None:
        costs = np.asarray(costs, dtype=float)
        p_west = np.asarray(p_west, dtype=float)
        if costs.ndim != 2 or p_west.ndim != 2:
            raise InvalidParameterError("costs and p_west must be 2-D arrays")
        if not np.all(np.isfinite(costs)) or np.any(costs <= 0):
            raise InvalidParameterError("cell costs must be finite and positive")
        if np.any(p_west <= 0) or np.any(p_west >= 1):
            raise InvalidParameterError(
                "west-arrival probabilities must lie strictly inside (0, 1)"
            )
        self.costs = costs
        self.p_west = p_west
        self.log_pw = np.log(p_west)
        self.log_pn = np.log1p(-p_west)
        self.tsize = STOCHASTIC_PATH_TSIZE
        self.dsize = STOCHASTIC_PATH_DSIZE
        self.name = "stochastic-path"

    # ------------------------------------------------------------------
    def _cell(self, table: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Table values of the cells ``(i, j)``, tiled modulo the table shape."""
        return table[i % table.shape[0], j % table.shape[1]]

    def diagonal(self, i, j, west, north, northwest):  # noqa: D102 - see base class
        """Vectorized risk-sensitive recurrence over one anti-diagonal."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        west_mass = west + self._cell(self.log_pw, i, j)
        north_mass = north + self._cell(self.log_pn, i, j)
        mixed = logsumexp_pair(west_mass, north_mass)
        # Edge rows/columns have a single deterministic predecessor; the
        # origin has none (empty path, log E[exp(0)] = 0 before its cost).
        mixed = np.where(i == 0, west, mixed)
        mixed = np.where(j == 0, north, mixed)
        mixed = np.where((i == 0) & (j == 0), 0.0, mixed)
        return mixed - self._cell(self.costs, i, j)

    def make_diagonal_evaluator(self, dim, boundary):
        """Fused sweep path: nine ufuncs per diagonal, nothing allocated.

        Bit-identity with the serial sweep matters here (the witness
        traceback reads exact grid values).  The evaluator spells the
        log-sum itself on two scratch rows: ``big = max``, ``small = min``,
        ``small - big``, ``exp``, ``log1p``, ``big + ...`` — the roundings of
        :func:`~repro.runtime.compute.logsumexp_pair`, without its ``±inf``
        machinery.  For finite operands ``small - big`` is exactly ``-(big -
        small)``; on a tie it is ``+0.0`` where ``logsumexp_pair`` negates a
        ``0.0``, and ``exp`` maps both zeros to 1.  The operands are finite:
        finite tables plus the previous diagonal.  Only an overflowing
        instance breaks that: the final subtract's ``-inf`` is reported by
        the sweep's end-of-tile check on the diagonal it first appears, as
        before, and a later cell whose two predecessors are both ``-inf``
        turns NaN (numpy warns ``invalid value``) where the mask of
        ``logsumexp_pair`` kept ``-inf``.  The
        ``i == 0`` / ``j == 0`` edge cells are at most the first / last
        element of any anti-diagonal segment and are patched as scalars.
        """
        cost_flat = position_table_flat(self.costs, dim)
        pw_flat = position_table_flat(self.log_pw, dim)
        pn_flat = position_table_flat(self.log_pn, dim)
        north_row = np.empty(dim)
        big_row = np.empty(dim)

        def evaluate(d, i_min, i_max, west, north, northwest, out, seg):
            m = i_max - i_min + 1
            tmp = north_row[:m]
            big = big_row[:m]
            np.add(west, pw_flat[seg], out)
            np.add(north, pn_flat[seg], tmp)
            # out = big + log1p(exp(small - big)), small kept in tmp.
            np.maximum(out, tmp, out=big)
            np.minimum(out, tmp, out=tmp)
            np.subtract(tmp, big, tmp)
            np.exp(tmp, tmp)
            np.log1p(tmp, tmp)
            np.add(big, tmp, out)
            if i_min == 0:  # first element sits in row i == 0: west only
                out[0] = west[0]
            if i_max == d:  # last element sits in column j == 0: north only
                out[m - 1] = north[m - 1]
            if d == 0:  # the origin has no predecessor at all
                out[0] = 0.0
            np.subtract(out, cost_flat[seg], out)

        return evaluate

    # ------------------------------------------------------------------
    def reconstruct_witness(self, values: np.ndarray) -> np.ndarray:
        """Trace the maximum-a-posteriori arrival path back from the corner.

        At cell ``(i, j)`` the posterior mass of having arrived from a
        predecessor is ``log p_dir[i, j] + L[predecessor]``; the larger one
        wins, exact ties prefer west.  Returns the ``2*dim - 1`` flattened
        cell indices ``i*dim + j`` of the path, origin first.
        """
        dim = values.shape[0]
        path = np.empty(2 * dim - 1, dtype=np.int64)
        i, j = dim - 1, dim - 1
        for step in range(2 * dim - 2, -1, -1):
            path[step] = i * dim + j
            if i > 0 and j > 0:
                west_mass = self.log_pw[i % self.log_pw.shape[0], j % self.log_pw.shape[1]] + values[i, j - 1]
                north_mass = self.log_pn[i % self.log_pn.shape[0], j % self.log_pn.shape[1]] + values[i - 1, j]
                if west_mass >= north_mass:
                    j -= 1
                else:
                    i -= 1
            elif j > 0:
                j -= 1
            elif i > 0:
                i -= 1
        return path


class StochasticPathApp(WavefrontApplication):
    """Random-arrival lattice walk with seeded random costs and mixtures."""

    name = "stochastic-path"
    default_dim = 256

    def __init__(
        self,
        dim: int | None = None,
        seed: int | None = None,
        cost_scale: float = 1.0,
    ) -> None:
        if cost_scale <= 0:
            raise InvalidParameterError(
                f"cost_scale must be positive, got {cost_scale}"
            )
        if dim is not None:
            self.default_dim = int(dim)
        self.seed = seed
        self.cost_scale = float(cost_scale)
        self._check_charge(self.default_dim)

    def _check_charge(self, dim: int) -> None:
        """The domain: ``cost_scale * COST_HIGH * (2 * dim - 1) <= MAX_PATH_CHARGE``.

        A path crosses ``2 * dim - 1`` cells and each charges less than
        ``cost_scale * COST_HIGH``, so the bound holds for every seed, not
        just the drawn costs.  Checked before any array is built.
        """
        charge = self.cost_scale * COST_HIGH * (2 * dim - 1)
        if not charge <= MAX_PATH_CHARGE:
            raise InvalidParameterError(
                f"cost_scale={self.cost_scale!r} at dim={dim} lets a path charge up to "
                f"cost_scale x (2*dim - 1) = {charge:.6g}, past the bound 2**1023 = "
                f"{MAX_PATH_CHARGE:.6g} (at this dim cost_scale <= "
                f"{MAX_PATH_CHARGE / (COST_HIGH * (2 * dim - 1)):.6g})"
            )

    def problem(self, dim: int | None = None):
        """The instance of side ``dim``, refused when its paths could overflow."""
        self._check_charge(self.default_dim if dim is None else require_int("dim", dim, minimum=2))
        return super().problem(dim)

    def make_kernel(self) -> StochasticPathKernel:
        """Construct the kernel for the app's random lattice."""
        rng = make_rng(self.seed)
        dim = self.default_dim
        costs = rng.uniform(COST_LOW, COST_HIGH, size=(dim, dim)) * self.cost_scale
        p_west = rng.uniform(0.05, 0.95, size=(dim, dim))
        return StochasticPathKernel(costs, p_west)
