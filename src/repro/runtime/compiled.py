"""Compiled kernel tier: Numba ``@njit`` whole-grid ports of the hot kernels.

The fused numpy evaluators (:meth:`~repro.core.pattern.WavefrontKernel.
make_diagonal_evaluator`) pay one ufunc dispatch per anti-diagonal; this
module removes even that by JIT-compiling a scalar row-major fill of the
whole grid for the kernels worth the effort — edit-distance, LCS and
Viterbi.  All three stencils read only north / west / north-west
neighbours, so a row-major visit order satisfies every dependency, and the
per-cell arithmetic replicates the evaluators' float expressions operation
for operation (``min``/``max`` are rounding-free; every addition keeps the
reference operand order), which keeps the compiled grids **bit-identical**
to the numpy reference — the property ``tests/runtime/test_compiled.py``
asserts with strict equality.

Numba is strictly optional: the import is guarded, :func:`numba_available`
is the registry's availability probe (so the ``compiled`` strategy simply
never appears in :func:`repro.runtime.registry.available_executors` on
hosts without it), and nothing else in the package imports :mod:`numba`.
Kernels without a port fall back to the vectorized sweep — same
grids, ``compiled_kernel: False`` in the stats — so sweeping every app
through the ``compiled`` backend stays total.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import ExecutionError
from repro.core.grid import WavefrontGrid
from repro.core.params import TunableParams
from repro.core.pattern import WavefrontProblem
from repro.hardware.costmodel import PhaseBreakdown
from repro.runtime.executor_base import Executor
from repro.runtime.vectorized import DiagonalSweepEngine

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    _NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the common container path
    njit = None
    _NUMBA_AVAILABLE = False


def numba_available() -> bool:
    """True when :mod:`numba` imported cleanly (the registry's probe)."""
    return _NUMBA_AVAILABLE


# ----------------------------------------------------------------------
# Scalar fills (pure Python until jitted; never called uncompiled)
# ----------------------------------------------------------------------
def _edit_fill(values, sub, gap):
    # Mirrors EditDistanceKernel.diagonal(): out-of-grid neighbours are the
    # virtual first row/column of the (len+1)-sized table.
    dim = values.shape[0]
    for i in range(dim):
        for j in range(dim):
            north = values[i - 1, j] if i > 0 else (j + 1.0) * gap
            west = values[i, j - 1] if j > 0 else (i + 1.0) * gap
            if i > 0 and j > 0:
                nw = values[i - 1, j - 1]
            elif i == 0:
                nw = j * gap
            else:
                nw = i * gap
            values[i, j] = min(min(north + gap, west + gap), nw + sub[i, j])


def _lcs_fill(values, match, boundary):
    # Mirrors LCSKernel.diagonal(): the constant boundary is the recurrence's
    # natural base case.
    dim = values.shape[0]
    for i in range(dim):
        for j in range(dim):
            north = values[i - 1, j] if i > 0 else boundary
            west = values[i, j - 1] if j > 0 else boundary
            nw = values[i - 1, j - 1] if i > 0 and j > 0 else boundary
            if match[i, j]:
                values[i, j] = nw + 1.0
            else:
                values[i, j] = max(north, west)


def _viterbi_fill(values, stay_col, adv_col, pi_col, emit):
    # Mirrors ViterbiKernel.diagonal(): row 0 scores from the initial
    # distribution; column 0 has no advance predecessor.
    dim = values.shape[0]
    for j in range(dim):
        values[0, j] = pi_col[j] + emit[0, j]
    for i in range(1, dim):
        values[i, 0] = (values[i - 1, 0] + stay_col[0]) + emit[i, 0]
        for j in range(1, dim):
            stay = values[i - 1, j] + stay_col[j]
            adv = values[i - 1, j - 1] + adv_col[j]
            best = adv if adv > stay else stay
            values[i, j] = best + emit[i, j]


#: Lazily-jitted fill functions, compiled once per process.
_JIT_CACHE: dict = {}


def _jitted(name: str, py_fill) -> object:
    """The jitted form of one scalar fill, compiled on first use."""
    fn = _JIT_CACHE.get(name)
    if fn is None:
        fn = njit(py_fill)
        _JIT_CACHE[name] = fn
    return fn


# ----------------------------------------------------------------------
# Per-kernel table builders
# ----------------------------------------------------------------------
def _port_edit_distance(kernel, dim: int):
    idx = np.arange(dim, dtype=np.int64)
    sub = np.where(
        kernel.seq_a[idx % kernel.seq_a.size][:, None]
        == kernel.seq_b[idx % kernel.seq_b.size][None, :],
        0.0,
        kernel.mismatch,
    )
    fill = _jitted("edit-distance", _edit_fill)
    return lambda values: fill(values, sub, kernel.gap)


def _port_lcs(kernel, dim: int, boundary: float):
    idx = np.arange(dim, dtype=np.int64)
    match = (
        kernel.seq_a[idx % kernel.seq_a.size][:, None]
        == kernel.seq_b[idx % kernel.seq_b.size][None, :]
    )
    fill = _jitted("lcs", _lcs_fill)
    return lambda values: fill(values, match, boundary)


def _port_viterbi(kernel, dim: int):
    idx = np.arange(dim, dtype=np.int64)
    n_states = kernel.log_pi.size
    stay_col = kernel.log_stay[idx % n_states]
    adv_col = kernel.log_adv[idx % n_states]
    pi_col = kernel.log_pi[idx % n_states]
    emit = kernel.log_emit[
        (idx % kernel.log_emit.shape[0])[:, None],
        (idx % kernel.log_emit.shape[1])[None, :],
    ]
    fill = _jitted("viterbi", _viterbi_fill)
    return lambda values: fill(values, stay_col, adv_col, pi_col, emit)


#: Kernel class name -> port builder.  Only kernels whose per-cell arithmetic
#: has been verified bit-exact against the fused evaluators are listed.
_PORTS = {
    "EditDistanceKernel": lambda problem: _port_edit_distance(
        problem.kernel, problem.dim
    ),
    "LCSKernel": lambda problem: _port_lcs(
        problem.kernel, problem.dim, problem.boundary
    ),
    "ViterbiKernel": lambda problem: _port_viterbi(problem.kernel, problem.dim),
}

#: Problem attribute caching the built port (dropped by __getstate__ like
#: every other ``_cached_*`` attribute, so problems stay picklable).
_FILL_ATTR = "_cached_compiled_fill"


def compiled_fill_for(problem: WavefrontProblem):
    """The problem's compiled whole-grid fill, or ``None`` without a port.

    The table precompute (substitution grid, match mask, emission table) is
    cached on the problem, so repeated requests pay it once; the jitted
    machine code itself is cached per process.
    Returns ``None`` when numba is missing or the kernel has no port.
    """
    if not numba_available():
        return None
    cached = getattr(problem, _FILL_ATTR, None)
    if cached is not None:
        return cached[0]
    builder = _PORTS.get(type(problem.kernel).__name__)
    fill = builder(problem) if builder is not None else None
    setattr(problem, _FILL_ATTR, (fill,))
    return fill


class CompiledExecutor(Executor):
    """Single-core execution through the JIT-compiled kernel tier.

    Ported kernels run as one machine-code pass over the grid (no numpy
    dispatch anywhere); unported kernels fall back to the vectorized
    sweep so the strategy is total over the app registry.  Functional
    execution without numba raises a typed
    :class:`~repro.core.exceptions.ExecutionError`; the registry's
    availability probe (:func:`numba_available`) keeps the strategy out of
    enumeration on such hosts, so only explicit construction can get here.
    """

    strategy = "compiled"

    def _breakdown(self, problem: WavefrontProblem, tunables: TunableParams) -> PhaseBreakdown:
        params = problem.input_params()
        return PhaseBreakdown(pre_s=self.cost_model.compiled_time(params))

    def _run_functional(
        self, problem: WavefrontProblem, tunables: TunableParams
    ) -> tuple[WavefrontGrid, dict]:
        if not numba_available():
            raise ExecutionError(
                "the compiled strategy requires numba, which is not "
                "installed in this environment"
            )
        grid = problem.make_grid()
        fill = compiled_fill_for(problem)
        if fill is None:
            cells = DiagonalSweepEngine(problem).sweep(grid, 0, 2 * problem.dim - 2)
            return grid, {"cells_computed": cells, "compiled_kernel": False}
        fill(grid.values)
        return grid, {
            "cells_computed": problem.dim * problem.dim,
            "compiled_kernel": True,
        }

    def _validate(self, problem: WavefrontProblem, tunables: TunableParams) -> TunableParams:
        # A single-core strategy with no tiling; normalise like serial.
        return TunableParams(cpu_tile=1)
