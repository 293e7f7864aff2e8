"""The vectorized wavefront engine: whole anti-diagonals as NumPy batches.

The scalar executors evaluate diagonals through fancy-indexed gathers
(:func:`repro.runtime.compute.compute_cells`): per diagonal they materialise
index arrays, gather three neighbour arrays with ``np.where`` masks and
scatter the result back.  For fine-grained kernels that machinery dominates
the runtime.  This module removes it:

* a diagonal of a row-major square grid is an arithmetic sequence in the
  flattened array (:func:`repro.core.diagonal.flat_diagonal_slice`), so whole
  diagonals are read and written through zero-copy strided *views*;
* the west / north / north-west neighbours of diagonal ``d`` are sub-slices
  of the views of diagonals ``d - 1`` and ``d - 2`` — no gathers at all.
  Boundary cells only occur on the growing half of the sweep and touch at
  most the two end elements of a diagonal;
* kernels may provide a fused evaluator
  (:meth:`repro.core.pattern.WavefrontKernel.make_diagonal_evaluator`) that
  precomputes position-dependent tables once per sweep and evaluates each
  diagonal with in-place ufuncs, writing straight into the grid.

The engine is exposed three ways: :class:`DiagonalSweepEngine` (the raw
sweep over any diagonal range, used by the hybrid executor's CPU phases),
:func:`compute_diagonal_range_vectorized` (drop-in counterpart of
:func:`repro.runtime.compute.compute_diagonal_range`) and
:class:`VectorizedSerialExecutor` (the registered ``vectorized`` strategy,
the default single-core backend whenever NumPy is available).
"""

from __future__ import annotations

from repro.core.exceptions import KernelError
from repro.core.grid import WavefrontGrid
from repro.core.params import TunableParams
from repro.core.pattern import WavefrontProblem
from repro.core.tiling import Tile, TileDecomposition
from repro.hardware.costmodel import PhaseBreakdown
from repro.runtime.executor_base import Executor

try:  # pragma: no cover - exercised indirectly by numpy_available()
    import numpy as np

    _HAS_NUMPY = True
except ImportError:  # pragma: no cover - the toolchain always ships numpy
    np = None  # type: ignore[assignment]
    _HAS_NUMPY = False


def numpy_available() -> bool:
    """True when NumPy importable — the gate for the vectorized backend.

    NumPy is a hard dependency of the core package, but the registry keeps
    the check explicit so stripped-down deployments (or a future non-NumPy
    core) degrade to the scalar serial executor instead of crashing.
    """
    return _HAS_NUMPY


class TileSweeper:
    """Strided-diagonal sweep of one rectangular region of the grid.

    The workhorse shared by the whole-grid engine and the multicore
    backend's worker processes: a region's local anti-diagonals are
    arithmetic sequences of stride ``dim - 1`` in the flattened grid, so
    the sweep reads and writes them through zero-copy views, and the west /
    north / north-west neighbours are the same views shifted by one flat
    position — even when they live outside the region (in an
    already-computed neighbouring tile).  Boundary patches (grid row 0 /
    column 0) touch at most the two end elements of a local diagonal.

    One sweeper serves any number of tiles of its problem; building it pays
    the kernel's fused-evaluator precompute exactly once, which is why an
    execution builds one and every worker of a team keeps the few it used
    last.
    """

    def __init__(self, problem: WavefrontProblem) -> None:
        if not _HAS_NUMPY:
            raise KernelError("the vectorized engine requires NumPy")
        self.problem = problem
        self.kernel = problem.kernel
        self.dim = problem.dim
        self.boundary = float(problem.boundary)
        self._evaluator = self.kernel.make_diagonal_evaluator(self.dim, self.boundary)
        # Scratch for boundary-patched neighbour assembly (worst case: the
        # longest diagonal of a whole-grid region).
        self._west = np.empty(self.dim)
        self._north = np.empty(self.dim)
        self._nw = np.empty(self.dim)

    @property
    def fused(self) -> bool:
        """True when the kernel supplied a fused diagonal evaluator."""
        return self._evaluator is not None

    def sweep_tile(
        self,
        flat: np.ndarray,
        tile: Tile,
        d_lo: int = 0,
        d_hi: int | None = None,
    ) -> int:
        """Compute ``tile``'s cells on diagonals ``[d_lo, d_hi]``; returns cells.

        ``flat`` is the flattened ``dim * dim`` value array.  All cells of
        the tile's west / north / north-west neighbour tiles on earlier
        diagonals, and all cells before ``d_lo``, must already hold final
        values (the tile-wavefront + range contract).  The output is
        validated for finiteness before the call returns, i.e. before the
        tile retires and a successor (or the caller) may read it: a tile
        swept whole is checked once as a 2-D block, a range-clipped one
        diagonal by diagonal as it is produced, so the cost is proportional
        to the cells computed and values elsewhere are none of this
        sweep's business.
        """
        dim = self.dim
        stride = dim - 1
        boundary = self.boundary
        evaluator = self._evaluator
        r0, r1 = tile.row_start, tile.row_stop
        c0, c1 = tile.col_start, tile.col_stop
        first = r0 + c0
        last = (r1 - 1) + (c1 - 1)
        if d_hi is None:
            d_hi = last
        whole = d_lo <= first and d_hi >= last
        total = 0
        for d in range(max(first, d_lo), min(last, d_hi) + 1):
            i_min = max(r0, d - (c1 - 1))
            i_max = min(r1 - 1, d - c0)
            m = i_max - i_min + 1
            # Cell (i, d - i) sits at flat index i * dim + (d - i); the local
            # diagonal is the stride-(dim-1) sequence from rows i_min..i_max.
            start = i_min * dim + (d - i_min)
            end = start + (m - 1) * stride
            out = flat[start : end + 1 : stride]
            j_min = d - i_max

            if i_min > 0 and j_min > 0:
                # Interior: every neighbour exists, west/north/north-west are
                # the same strided sequence shifted by 1 / dim / dim + 1.
                west = flat[start - 1 : end : stride]
                north = flat[start - dim : end - dim + 1 : stride]
                nw = flat[start - dim - 1 : end - dim : stride]
            else:
                # The region touches grid row 0 and/or column 0: assemble
                # the neighbours in scratch, patching the out-of-grid
                # elements (at most the first and last of each array) with
                # the boundary value.
                west = self._west[:m]
                north = self._north[:m]
                nw = self._nw[:m]
                w_hi = m - 1 if j_min == 0 else m  # valid west entries
                n_lo = 1 if i_min == 0 else 0  # first valid north entry
                if j_min == 0:
                    west[m - 1] = boundary
                    nw[m - 1] = boundary
                if i_min == 0:
                    north[0] = boundary
                    nw[0] = boundary
                if w_hi > 0:
                    west[:w_hi] = flat[start - 1 : start - 1 + (w_hi - 1) * stride + 1 : stride]
                if n_lo < m:
                    base = start - dim + n_lo * stride
                    north[n_lo:] = flat[base : start - dim + (m - 1) * stride + 1 : stride]
                nw_hi = m - 2 if j_min == 0 else m - 1
                if n_lo <= nw_hi:
                    base = start - dim - 1 + n_lo * stride
                    nw[n_lo : nw_hi + 1] = flat[base : start - dim - 1 + nw_hi * stride + 1 : stride]

            if evaluator is not None:
                evaluator(d, i_min, i_max, west, north, nw, out)
            else:
                i = np.arange(i_min, i_max + 1, dtype=np.int64)
                values = np.asarray(self.kernel.diagonal(i, d - i, west, north, nw), dtype=float)
                if values.ndim != 1 or values.shape[0] != m:
                    raise KernelError(
                        f"kernel {self.kernel.name!r} returned shape {values.shape}, "
                        f"expected ({m},)"
                    )
                out[:] = values
            if not whole and not np.all(np.isfinite(out)):
                raise self._non_finite(d, tile)
            total += m
        if whole:
            block = flat.reshape(dim, dim)[r0:r1, c0:c1]
            if not np.all(np.isfinite(block)):
                # Name the diagonal the per-diagonal check would have.
                rows, cols = np.nonzero(~np.isfinite(block))
                raise self._non_finite(first + int(np.min(rows + cols)), tile)
        return total

    def _non_finite(self, d: int, tile: Tile) -> KernelError:
        return KernelError(
            f"kernel {self.kernel.name!r} produced non-finite values "
            f"on diagonal {d} of tile ({tile.tile_row}, {tile.tile_col})"
        )

    def sweep_grid(self, grid: WavefrontGrid, decomposition: TileDecomposition) -> int:
        """In-process sweep of a whole tile schedule (reference/testing path)."""
        flat = grid.values.reshape(-1)
        total = 0
        for tiles in decomposition.schedule():
            for tile in tiles:
                total += self.sweep_tile(flat, tile)
        return total


class DiagonalSweepEngine:
    """Batched anti-diagonal sweep of one wavefront problem.

    The engine is built once per execution (so fused evaluators precompute
    their position tables once) and then run over any diagonal range with
    :meth:`sweep`; it is dropped with the run, so the tables — one to three
    extra grids — never outlive it on a cached problem.
    Neighbour values are read from the grid itself through strided diagonal
    views, which makes a mid-grid range (``d_lo > 0``) correct by
    construction — exactly what the hybrid executor's trailing CPU phase
    needs.  The sweep itself is the whole-grid special case of
    :class:`TileSweeper`: the grid is one tile, validated finite as one
    block when swept whole and diagonal by diagonal when the range clips it.
    """

    def __init__(self, problem: WavefrontProblem) -> None:
        if not _HAS_NUMPY:
            raise KernelError("the vectorized engine requires NumPy")
        self.problem = problem
        self.kernel = problem.kernel
        self.boundary = float(problem.boundary)
        self._sweeper = TileSweeper(problem)
        dim = problem.dim
        self._grid_tile = Tile(
            tile_row=0, tile_col=0, row_start=0, row_stop=dim, col_start=0, col_stop=dim
        )

    @property
    def _evaluator(self):
        """The kernel's fused evaluator, if any (``None`` -> generic path)."""
        return self._sweeper._evaluator

    # ------------------------------------------------------------------
    def sweep(self, grid: WavefrontGrid, d_lo: int = 0, d_hi: int | None = None) -> int:
        """Compute diagonals ``d_lo .. d_hi`` inclusive; returns cells computed.

        Diagonals before ``d_lo`` must already hold their final values (or be
        outside the grid); this matches the contract of
        :func:`repro.runtime.compute.compute_diagonal_range`.
        """
        dim = grid.dim
        last = 2 * dim - 2
        if d_hi is None:
            d_hi = last
        if d_hi < d_lo:
            return 0
        if d_lo < 0 or d_hi > last:
            raise KernelError(
                f"diagonal range [{d_lo}, {d_hi}] out of bounds for dim={dim}"
            )
        return self._sweeper.sweep_tile(
            grid.values.reshape(-1), self._grid_tile, d_lo, d_hi
        )


def compute_diagonal_range_vectorized(
    problem: WavefrontProblem, grid: WavefrontGrid, d_lo: int, d_hi: int
) -> int:
    """Vectorized counterpart of :func:`repro.runtime.compute.compute_diagonal_range`."""
    return DiagonalSweepEngine(problem).sweep(grid, d_lo, d_hi)


class VectorizedSerialExecutor(Executor):
    """Single-core sweep evaluating whole anti-diagonals as NumPy batches.

    Produces grids identical to :class:`repro.runtime.serial.SerialExecutor`
    (the test suite asserts cell-for-cell equality on every registered
    application) while running several times faster, and is therefore the
    default serial fallback whenever NumPy is available
    (:func:`repro.runtime.registry.default_serial_executor`).
    """

    strategy = "vectorized"

    def _breakdown(self, problem: WavefrontProblem, tunables: TunableParams) -> PhaseBreakdown:
        params = problem.input_params()
        return PhaseBreakdown(pre_s=self.cost_model.vectorized_time(params))

    def _run_functional(
        self, problem: WavefrontProblem, tunables: TunableParams
    ) -> tuple[WavefrontGrid, dict]:
        grid = problem.make_grid()
        engine = DiagonalSweepEngine(problem)
        cells = engine.sweep(grid)
        return grid, {
            "cells_computed": cells,
            "fused_kernel": engine._evaluator is not None,
        }

    def _validate(self, problem: WavefrontProblem, tunables: TunableParams) -> TunableParams:
        # Like the scalar serial baseline this strategy ignores tunables;
        # normalise them so results record the canonical configuration.
        return TunableParams(cpu_tile=1)
