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

import numpy as np

from repro.apps.base import WavefrontApplication
from repro.core.exceptions import InvalidParameterError
from repro.core.pattern import WavefrontKernel

#: The synthetic-scale granularity the paper assigns to one Nash iteration.
NASH_TSIZE = 750.0
#: The synthetic-scale data granularity of the Nash application.
NASH_DSIZE = 4


class NashKernel(WavefrontKernel):
    """Iterated best-response kernel."""

    def __init__(self, inner_iterations: int = 8, damping: float = 0.5) -> None:
        if inner_iterations < 1:
            raise InvalidParameterError(
                f"inner_iterations must be >= 1, got {inner_iterations}"
            )
        if not 0.0 < damping <= 1.0:
            raise InvalidParameterError(f"damping must be in (0, 1], got {damping}")
        self.inner_iterations = int(inner_iterations)
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
        """Fused sweep path for the best-response iteration.

        The payoff's row preference is 11-periodic in ``i`` and its column
        preference 13-periodic in ``j``; along a diagonal both become plain
        slices of precomputed tables, so the static half of the payoff is
        built once per diagonal and each inner iteration costs four in-place
        ufuncs (with ``tanh`` dominating, exactly as in the scalar path).
        """
        i_all = np.arange(dim, dtype=float)
        row_pref = ((3.0 * i_all + 1.0) % 11.0) / 11.0
        # col_table[t0 + r] == ((5 * (d - i_min - r) + 2) % 13) / 13 when
        # t0 == (i_min - d) mod 13 (same periodic-slice trick as synthetic).
        t = np.arange(dim + 13, dtype=np.int64)
        col_table = ((5.0 * ((-t) % 13) + 2.0) % 13.0) / 13.0
        damping = self.damping
        keep = 1.0 - damping
        iters = self.inner_iterations
        half = np.empty(dim)
        scratch = np.empty(dim)

        def evaluate(d, i_min, i_max, west, north, northwest, out, seg):
            m = i_max - i_min + 1
            p0 = half[:m]
            s = scratch[:m]
            t0 = (i_min - d) % 13
            # Static payoff half: 0.5 * (row_pref + col_pref).
            np.add(row_pref[i_min : i_max + 1], col_table[t0 : t0 + m], out=p0)
            p0 *= 0.5
            # Seed: 0.4 * west + 0.4 * north + 0.2 * northwest.
            np.multiply(west, 0.4, out=out)
            np.multiply(north, 0.4, out=s)
            out += s
            np.multiply(northwest, 0.2, out=s)
            out += s
            for _ in range(iters):
                np.tanh(out, out=s)
                s *= 0.25
                s += p0
                out *= keep
                s *= damping
                out += s

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
