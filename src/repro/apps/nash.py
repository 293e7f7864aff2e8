"""Nash-equilibrium evaluation application (Section 3.2.1).

The paper describes it as "a game-theoretic problem in economics,
characterized by small instances but a very computationally demanding
kernel", whose granularity parameter controls the iteration count of a
nested loop, and maps one iteration to ``tsize = 750`` and ``dsize = 4`` on
the synthetic scale.

The reproduction implements the kernel as an iterated best-response update:
each cell blends the payoffs implied by its west / north / north-west
predecessors and then runs a short damped fixed-point loop towards the local
equilibrium value.  The inner loop is what gives the kernel its coarse
granularity; its functional iteration count is kept small by default so the
tests stay fast, while the ``tsize`` metadata keeps the full granularity the
autotuner reasons about.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.apps.base import WavefrontApplication
from repro.core.exceptions import InvalidParameterError
from repro.core.pattern import WavefrontKernel

#: The synthetic-scale granularity the paper assigns to one Nash iteration.
NASH_TSIZE = 750.0
#: The synthetic-scale data granularity of the Nash application.
NASH_DSIZE = 4
#: The least value whose ``tanh`` the fused evaluator's power-of-two scaling
#: keeps exact (``0.25 * tanh(v)`` stays a normal double).
_NORMAL_FLOOR = 2.0**-1018


class NashKernel(WavefrontKernel):
    """Iterated best-response kernel."""

    def __init__(self, inner_iterations: int = 8, damping: float = 0.5) -> None:
        # An integer or anything that indexes like one, but not a bool: a
        # float or True would otherwise be truncated into another request's
        # iteration count.
        try:
            if isinstance(inner_iterations, bool):
                raise TypeError
            iterations = operator.index(inner_iterations)
        except TypeError:
            raise InvalidParameterError(
                f"inner_iterations must be an integer, got {inner_iterations!r}"
            ) from None
        if iterations < 1:
            raise InvalidParameterError(f"inner_iterations must be >= 1, got {iterations}")
        if not 0.0 < damping <= 1.0:
            raise InvalidParameterError(f"damping must be in (0, 1], got {damping}")
        self.inner_iterations = iterations
        self.damping = float(damping)
        self.tsize = NASH_TSIZE
        self.dsize = NASH_DSIZE
        self.name = "nash-equilibrium"

    def _payoff(self, i: np.ndarray, j: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Deterministic payoff surface of the two-player row/column game."""
        row_pref = ((3.0 * i + 1.0) % 11.0) / 11.0
        col_pref = ((5.0 * j + 2.0) % 13.0) / 13.0
        return 0.5 * (row_pref + col_pref) + 0.25 * np.tanh(v)

    def diagonal(self, i, j, west, north, northwest):  # noqa: D102 - see base class
        """Vectorized best-response recurrence over one anti-diagonal."""
        i = np.asarray(i, dtype=float)
        j = np.asarray(j, dtype=float)
        # The predecessors act as the opponents' announced strategies.
        value = 0.4 * west + 0.4 * north + 0.2 * northwest
        for _ in range(self.inner_iterations):
            value = (1.0 - self.damping) * value + self.damping * self._payoff(i, j, value)
        return value

    def make_diagonal_evaluator(self, dim, boundary):
        """Fused sweep path: ``5 + 5 * inner_iterations`` ufuncs per diagonal.

        The payoff's row preference is 11-periodic in ``i`` and its column
        preference 13-periodic in ``j = d - i``, so row ``d mod 13`` of a
        ``13 x dim`` table, built once, holds the static payoff half of
        diagonal ``d`` at absolute row index ``i`` for any tile's ``i_min ..
        i_max``: no call at all.  The table stores it scaled by four,
        ``4 * p0 = 2 * (row_pref + col_pref)``; the seed costs five calls and
        each inner iteration five, ``s = tanh(v); s += 4p0; s *= damping / 4;
        v *= keep; v += s``, with ``tanh`` dominating as in :meth:`diagonal`.

        Bit-identity with :meth:`diagonal` rests on multiplication by a
        power of two commuting with rounding in the normal range: ``2 *
        (row_pref + col_pref)`` is exactly four times ``0.5 * (row_pref +
        col_pref)``, ``tanh(v) + 4p0`` rounds to exactly four times ``p0 +
        0.25 * tanh(v)``, and ``damping / 4`` is exact, so ``(damping / 4) *
        (4r)`` and ``damping * r`` are the same real number before their one
        rounding.  The domain is every ``damping`` in ``(0, 1]`` as long as
        no ``0.25 * tanh(v)`` is subnormal, which :meth:`diagonal` would
        round and this path would not.  With the boundary at 0 every value
        is ``>= 0`` and below 1.17, and where ``p0 > 0`` (``p0 >= 1/26``) a
        subnormal ``tanh(v)`` is absorbed by both spellings alike.  Only the
        cells where ``p0 == 0`` (row ``7 mod 11`` meets column ``10 mod 13``)
        decay: from a seed ``>= damping / 26`` by at most a factor ``1 -
        0.83 * damping`` per iteration.  Where that bound leaves the normal
        range (about 1 300 iterations at the default damping) or the
        boundary is not 0, the factory declines and the sweep calls
        :meth:`diagonal`.
        """
        damping = self.damping
        floor = damping / 26.0 * (1.0 - 0.83 * damping) ** self.inner_iterations
        if boundary != 0.0 or floor < _NORMAL_FLOOR:
            return None
        i_all = np.arange(dim, dtype=float)
        row_pref = ((3.0 * i_all + 1.0) % 11.0) / 11.0
        # pay4[d % 13][i] == 2 * (row_pref[i] + col_pref[d - i]): the column
        # preference depends on j only through j mod 13 == (d - i) mod 13.
        j_mod = (np.arange(13)[:, None] - np.arange(dim)[None, :]) % 13
        col_pref = ((5.0 * j_mod + 2.0) % 13.0) / 13.0
        pay4 = list(2.0 * (row_pref + col_pref))
        quarter_damping = np.array(damping / 4.0)
        keep = np.array(1.0 - damping)
        w_edge, w_nw = np.array(0.4), np.array(0.2)
        iters = range(self.inner_iterations)
        scratch = np.empty(dim)

        def evaluate(d, i_min, i_max, west, north, northwest, out, seg):
            s = scratch[: i_max - i_min + 1]
            p4 = pay4[d % 13][i_min : i_max + 1]
            # Seed: 0.4 * west + 0.4 * north + 0.2 * northwest.
            np.multiply(west, w_edge, out)
            np.multiply(north, w_edge, s)
            np.add(out, s, out)
            np.multiply(northwest, w_nw, s)
            np.add(out, s, out)
            for _ in iters:
                np.tanh(out, s)
                np.add(s, p4, s)
                np.multiply(s, quarter_damping, s)
                np.multiply(out, keep, out)
                np.add(out, s, out)

        return evaluate


class NashEquilibriumApp(WavefrontApplication):
    """The Nash-equilibrium evaluation application."""

    name = "nash-equilibrium"
    default_dim = 96  # "characterized by small instances"

    def __init__(self, dim: int | None = None, inner_iterations: int = 8) -> None:
        self.inner_iterations = inner_iterations
        if dim is not None:
            self.default_dim = int(dim)

    def make_kernel(self) -> NashKernel:
        """Construct the Nash-equilibrium kernel for the app's payoffs."""
        return NashKernel(inner_iterations=self.inner_iterations)
