"""The synthetic wavefront application used for training (Section 3.1).

Each element of the synthetic application carries two ints and ``dsize``
floats; the kernel performs ``tsize`` units of work per element.  In this
reproduction the kernel's *value* function is a cheap, deterministic mixture
of the three wavefront neighbours plus a position-dependent term, so the
functional executors can validate correctness quickly; ``tsize`` remains the
granularity the cost model charges for.  Setting ``emulate_work=True`` makes
the kernel really spin a work loop proportional to ``tsize`` (capped), which
the calibration example uses to relate simulated and wall-clock time.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import WavefrontApplication
from repro.core.exceptions import InvalidParameterError
from repro.core.pattern import WavefrontKernel

#: Upper bound on the emulated work loop so functional runs stay interactive.
MAX_EMULATED_ITERATIONS = 2000


class SyntheticKernel(WavefrontKernel):
    """Parameterisable kernel of the synthetic application."""

    def __init__(
        self,
        tsize: float = 100.0,
        dsize: int = 1,
        emulate_work: bool = False,
        seed_term: float = 0.01,
    ) -> None:
        if tsize <= 0:
            raise InvalidParameterError(f"tsize must be positive, got {tsize}")
        if dsize < 0:
            raise InvalidParameterError(f"dsize must be >= 0, got {dsize}")
        self.tsize = float(tsize)
        self.dsize = int(dsize)
        self.emulate_work = emulate_work
        self.seed_term = float(seed_term)
        self.name = "synthetic"

    def diagonal(self, i, j, west, north, northwest):  # noqa: D102 - see base class
        """Vectorized synthetic recurrence over one anti-diagonal."""
        i = np.asarray(i, dtype=float)
        j = np.asarray(j, dtype=float)
        value = (west + north + northwest) / 3.0 + self.seed_term * (1.0 + (i + 2.0 * j) % 7.0)
        if self.emulate_work:
            iterations = int(min(self.tsize, MAX_EMULATED_ITERATIONS))
            acc = value.copy()
            for _ in range(iterations):
                acc = acc * 0.999 + 0.001
            # The emulated work must not change the recurrence's result, only
            # burn time; fold it in with weight zero.
            value = value + 0.0 * acc
        return value

    def make_diagonal_evaluator(self, dim, boundary):
        """Fused sweep path: the position term ``s * (1 + (i + 2j) % 7)``.

        Along diagonal ``d`` the term equals ``s * (1 + (2d - i) % 7)`` — a
        7-periodic function of the row — so one precomputed table of length
        ``dim + 7`` serves every diagonal as a plain slice, and each diagonal
        costs four in-place ufuncs with no temporaries.
        """
        if self.emulate_work:
            # The emulated work loop exists to burn wall-clock time; keep the
            # generic path so calibration measurements stay meaningful.
            return None
        seed_term = self.seed_term
        t = np.arange(dim + 7)
        # table[t0 + r] == s * (1 + (2d - (i_min + r)) % 7) when
        # t0 == (i_min - 2d) mod 7; bit-identical to the float arithmetic of
        # diagonal() because the operands are small exact integers.
        table = seed_term * (1.0 + (-t) % 7)
        three = np.array(3.0)

        def evaluate(d, i_min, i_max, west, north, northwest, out, seg):
            m = i_max - i_min + 1
            np.add(west, north, out)
            np.add(out, northwest, out)
            np.divide(out, three, out)
            t0 = (i_min - 2 * d) % 7
            np.add(out, table[t0 : t0 + m], out)

        return evaluate


class SyntheticApp(WavefrontApplication):
    """Synthetic application instance with fixed (tsize, dsize)."""

    name = "synthetic"
    default_dim = 128

    def __init__(
        self,
        dim: int | None = None,
        tsize: float = 100.0,
        dsize: int = 1,
        emulate_work: bool = False,
    ) -> None:
        self.tsize = float(tsize)
        self.dsize = int(dsize)
        self.emulate_work = emulate_work
        if dim is not None:
            self.default_dim = int(dim)

    def make_kernel(self) -> SyntheticKernel:
        """Construct the synthetic kernel with the app's (tsize, dsize)."""
        return SyntheticKernel(
            tsize=self.tsize, dsize=self.dsize, emulate_work=self.emulate_work
        )
