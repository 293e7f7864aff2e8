"""Viterbi decoding of a left-to-right (Bakis) HMM — max-product in log space.

The first member of the probabilistic application family: a hidden Markov
model whose transition structure is *banded* — from state ``s`` the chain
either **stays** in ``s`` or **advances** to ``s + 1`` — which maps the
classic Viterbi max-product recurrence exactly onto the wavefront stencil.
With row ``i`` the time step and column ``j`` the state,

    V[0, j] = log pi[j] + log emit[0, j]
    V[i, j] = log emit[i, j] + max(V[i-1, j]   + log stay[j],
                                   V[i-1, j-1] + log adv[j])      (j >= 1)
    V[i, 0] = log emit[i, 0] + V[i-1, 0] + log stay[0]

i.e. precisely the north / north-west dependencies of the framework.  All
probabilities are drawn strictly positive, so every grid value is finite and
the engine's finiteness guarantees hold unchanged; the *semiring* arithmetic
(log-space products as sums, max as the combiner) routes through the shared
:func:`repro.runtime.compute.max_product_pair` primitive so every backend
evaluates one definition.

Because ``max`` introduces no rounding, the whole recurrence is **bit-exact**
against a pure-Python reference that performs the same IEEE additions — the
property the differential battery (``tests/property/test_stochastic_apps``)
asserts with strict equality, ties included.

The decoded *witness* is the most probable state path: a length-``dim``
``int64`` array, one state per time row, reconstructed by
:meth:`ViterbiKernel.reconstruct_witness` tracing the argmax decisions
backwards from the best final state.  Ties break deterministically toward
the **lower state index** — both at the final-state argmax and at every
stay-vs-advance decision (advance comes from ``j - 1 < j``, so an exact tie
prefers advance), matching a reference that scans predecessor states in
ascending order and keeps the first maximum.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import WavefrontApplication
from repro.core.exceptions import InvalidParameterError
from repro.core.pattern import WavefrontKernel
from repro.runtime.compute import max_product_pair
from repro.utils.rng import make_rng

#: Synthetic-scale granularity: two adds + one max per cell, marginally
#: coarser than the pure comparison kernels (LCS / knapsack at 0.5).
VITERBI_TSIZE = 0.75
#: No per-cell payload beyond the DP value itself.
VITERBI_DSIZE = 0


class ViterbiKernel(WavefrontKernel):
    """Banded-HMM Viterbi max-product recurrence in log space.

    ``log_pi`` is the initial state distribution, ``log_stay`` / ``log_adv``
    the per-state self-loop and advance log-probabilities, and ``log_emit``
    the ``(time, state)`` emission log-likelihood table — all finite (the
    app draws strictly positive probabilities).  Tables are indexed modulo
    their length, following the convention of every other registered kernel,
    so one kernel serves any grid size.
    """

    def __init__(
        self,
        log_pi: np.ndarray,
        log_stay: np.ndarray,
        log_adv: np.ndarray,
        log_emit: np.ndarray,
    ) -> None:
        log_pi = np.asarray(log_pi, dtype=float)
        log_stay = np.asarray(log_stay, dtype=float)
        log_adv = np.asarray(log_adv, dtype=float)
        log_emit = np.asarray(log_emit, dtype=float)
        if log_pi.ndim != 1 or log_pi.size < 1:
            raise InvalidParameterError("log_pi must be a non-empty 1-D array")
        if log_stay.shape != log_pi.shape or log_adv.shape != log_pi.shape:
            raise InvalidParameterError(
                "log_stay and log_adv must match log_pi's shape"
            )
        if log_emit.ndim != 2:
            raise InvalidParameterError("log_emit must be a 2-D (time, state) array")
        for name, table in (
            ("log_pi", log_pi),
            ("log_stay", log_stay),
            ("log_adv", log_adv),
            ("log_emit", log_emit),
        ):
            if not np.all(np.isfinite(table)):
                raise InvalidParameterError(
                    f"{name} must be finite (strictly positive probabilities)"
                )
        self.log_pi = log_pi
        self.log_stay = log_stay
        self.log_adv = log_adv
        self.log_emit = log_emit
        self.tsize = VITERBI_TSIZE
        self.dsize = VITERBI_DSIZE
        self.name = "viterbi"

    # ------------------------------------------------------------------
    def _emit(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Emission log-likelihoods of the cells ``(i, j)`` (modulo tables)."""
        return self.log_emit[i % self.log_emit.shape[0], j % self.log_emit.shape[1]]

    def diagonal(self, i, j, west, north, northwest):  # noqa: D102 - see base class
        """Vectorized Viterbi recurrence over one anti-diagonal."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        n_states = self.log_pi.size
        stay = north + self.log_stay[j % n_states]
        adv = northwest + self.log_adv[j % n_states]
        best = max_product_pair(np.where(j >= 1, adv, -np.inf), stay)
        values = self._emit(i, j) + best
        # Time step 0 scores from the initial distribution, not from the
        # (boundary-valued) previous row.
        return np.where(i == 0, self.log_pi[j % n_states] + self._emit(i, j), values)

    def make_row_evaluator(self, dim, boundary):
        """Row-parallel (no west term): the cell operations of :meth:`diagonal`.

        A row of the grid is one time step: its emissions are a row of
        ``log_emit`` (gathered only where the table is narrower than the grid).
        """
        cols = np.arange(dim, dtype=np.int64) % self.log_pi.size
        stay_col, adv_col, pi_col = self.log_stay[cols], self.log_adv[cols], self.log_pi[cols]
        log_emit = self.log_emit
        wrapped = None if log_emit.shape[1] >= dim else np.arange(dim) % log_emit.shape[1]
        scratch = np.empty(dim)

        def evaluate(i, c0, c1, north, west, out):
            emit = log_emit[i % log_emit.shape[0]]
            emit = emit[c0:c1] if wrapped is None else emit[wrapped[c0:c1]]
            if i == 0:  # time step 0 scores from the initial distribution
                np.add(pi_col[c0:c1], emit, out=out)
                return
            stay = scratch[: c1 - c0]
            np.add(north[1:], stay_col[c0:c1], out=stay)
            np.add(north[:-1], adv_col[c0:c1], out=out)
            max_product_pair(out, stay, out=out)
            if c0 == 0:  # state 0 has no advance predecessor: stay only
                out[0] = stay[0]
            np.add(out, emit, out=out)

        return evaluate

    # ------------------------------------------------------------------
    def reconstruct_witness(self, values: np.ndarray) -> np.ndarray:
        """Trace the most probable state path back through the value grid.

        Starts at the best final state (lowest index on ties) and at every
        step re-evaluates the stay / advance scores from the grid's previous
        row; exact ties prefer the advance predecessor (``j - 1``),
        matching an ascending-state argmax scan.  Returns the length-``dim``
        ``int64`` state sequence, one state per time row.
        """
        dim = values.shape[0]
        n_states = self.log_pi.size
        path = np.empty(dim, dtype=np.int64)
        path[-1] = int(np.argmax(values[-1]))
        for t in range(dim - 1, 0, -1):
            j = path[t]
            stay = values[t - 1, j] + self.log_stay[j % n_states]
            if j >= 1:
                adv = values[t - 1, j - 1] + self.log_adv[j % n_states]
                path[t - 1] = j - 1 if adv >= stay else j
            else:
                path[t - 1] = j
        return path


class ViterbiApp(WavefrontApplication):
    """Banded-HMM Viterbi decoding with seeded random model parameters.

    ``self_bias`` tilts the stay/advance split (0.5 = balanced); emission
    likelihoods are drawn log-uniformly over roughly three decades so argmax
    decisions are well-separated on typical instances while still exercising
    ties through the modulo-tiled tables.
    """

    name = "viterbi"
    default_dim = 256

    def __init__(
        self,
        dim: int | None = None,
        seed: int | None = None,
        self_bias: float = 0.6,
    ) -> None:
        if not 0.0 < self_bias < 1.0:
            raise InvalidParameterError(
                f"self_bias must be in (0, 1), got {self_bias}"
            )
        if dim is not None:
            self.default_dim = int(dim)
        self.seed = seed
        self.self_bias = float(self_bias)

    def make_kernel(self) -> ViterbiKernel:
        """Construct the Viterbi kernel for the app's random HMM."""
        rng = make_rng(self.seed)
        dim = self.default_dim
        # Strictly positive probabilities keep every log finite.
        pi = rng.uniform(0.05, 1.0, size=dim)
        pi /= pi.sum()
        stay = np.clip(
            rng.normal(self.self_bias, 0.1, size=dim), 0.05, 0.95
        )
        emit = rng.uniform(1e-3, 1.0, size=(dim, dim))
        return ViterbiKernel(
            log_pi=np.log(pi),
            log_stay=np.log(stay),
            log_adv=np.log1p(-stay),
            log_emit=np.log(emit),
        )
