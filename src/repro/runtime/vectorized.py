"""The vectorized wavefront engine: a whole tile per call, as NumPy batches.

The scalar executors evaluate diagonals through fancy-indexed gathers
(:func:`repro.runtime.compute.compute_cells`): per diagonal they materialise
index arrays, gather three neighbour arrays with ``np.where`` masks and
scatter the result back.  For fine-grained kernels that machinery dominates
the runtime.  This module removes it.  A sweep is always a whole tile — the
whole grid is the one-tile case — walked one of two ways:

* by rows, when the kernel offers a row evaluator
  (:meth:`~repro.core.pattern.WavefrontKernel.make_row_evaluator`): each grid
  row written once, in place, from the row above;
* by diagonals otherwise: the last two diagonals of the tile live in three
  rolling row buffers indexed by grid row, so the west / north / north-west
  neighbours of diagonal ``d`` and its output are plain *contiguous* slices
  of those buffers — no gathers, and no stride-``(dim - 1)`` operand in any
  ufunc.  The two slots around a diagonal are its halo: a neighbouring
  tile's cell read from the grid as a scalar, or the boundary value.  A
  diagonal of a row-major square grid is an arithmetic sequence in the
  flattened array (cell ``(i, d - i)`` sits at ``d + i * (dim - 1)``), so each
  computed diagonal is stored to the grid exactly once through one strided
  slice, and the two diagonals before the tile's first one are loaded the
  same way — which is how a tile reads its neighbour tiles.  A kernel may
  provide a fused evaluator
  (:meth:`repro.core.pattern.WavefrontKernel.make_diagonal_evaluator`) that
  precomputes position-dependent tables once per sweeper and evaluates each
  diagonal with in-place ufuncs on the contiguous rows; the sweeper hands it
  the store's row-major slice so row-major tables line up with any tile.

:class:`TileSweeper` is the sweep; :class:`VectorizedSerialExecutor` (the
registered ``vectorized`` strategy, the preferred single-core engine) runs
it once over the whole-grid tile.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import InvalidParameterError, KernelError
from repro.core.grid import WavefrontGrid
from repro.core.params import TunableParams
from repro.core.pattern import WavefrontProblem
from repro.core.tiling import Tile
from repro.hardware.costmodel import PhaseBreakdown
from repro.runtime.executor_base import Executor


class TileSweeper:
    """Row-major or diagonal (rolling-row) sweep of one rectangular grid region.

    The workhorse shared by the whole-grid engine and the multicore
    backend's worker processes.  A kernel with a row evaluator is walked by
    rows; otherwise the last two anti-diagonals of the region live in three
    rolling row buffers indexed by grid row (slot ``i - row_start + 1``), so
    the west / north / north-west neighbours and the output of every
    diagonal are contiguous slices of those buffers; the diagonal is stored
    to the row-major grid once.  Slot 0 and the slot one past a diagonal's
    last cell are the halo: a cell of the north / west / north-west
    neighbour tile read from the grid as a scalar, or the boundary value
    where the region touches grid row 0 / column 0.

    One sweeper serves any number of tiles of its problem; building it pays
    the kernel's fused-evaluator precompute exactly once, which is why an
    execution builds one and every worker of a team keeps the few it used
    last.
    """

    def __init__(self, problem: WavefrontProblem) -> None:
        self.problem = problem
        self.kernel = problem.kernel
        self.dim = problem.dim
        self.boundary = float(problem.boundary)
        self._row_evaluator = self.kernel.make_row_evaluator(self.dim, self.boundary)
        # A kernel with a row form never walks diagonals, so the diagonal
        # evaluator's position tables (up to three grids) are not built.
        self._evaluator = (
            self.kernel.make_diagonal_evaluator(self.dim, self.boundary)
            if self._row_evaluator is None
            else None
        )
        # Diagonals d - 2, d - 1 and d of the region being swept; a tile of
        # ``rows`` rows uses the first ``rows + 2`` slots of each.  The row
        # walk borrows the first as its north halo buffer.
        self._rows = np.empty((3, self.dim + 2))
        #: ``"rows"`` or ``"diagonals"``: the walk every sweep takes.
        self.traversal = "rows" if self._row_evaluator is not None else "diagonals"

    @property
    def whole_grid(self) -> Tile:
        """The grid as one tile: what a single-core sweep hands :meth:`sweep_tile`."""
        dim = self.dim
        return Tile(tile_row=0, tile_col=0, row_start=0, row_stop=dim, col_start=0, col_stop=dim)

    @property
    def fused(self) -> bool:
        """True when the kernel supplied a fused (row or diagonal) evaluator."""
        return self._row_evaluator is not None or self._evaluator is not None

    def _load_diagonal(self, flat: np.ndarray, buf: np.ndarray, d: int, lo: int, hi: int, r0: int) -> None:
        """Fill ``buf`` with cells ``(i, d - i)`` for rows ``lo .. hi``.

        Out-of-grid cells (row or column -1) take the boundary value.
        """
        dim = self.dim
        buf[lo - r0 + 1 : hi - r0 + 2] = self.boundary
        lo = max(lo, 0)
        hi = min(hi, d)
        if lo <= hi:
            buf[lo - r0 + 1 : hi - r0 + 2] = flat[lo * dim + d - lo : hi * dim + d - hi + 1 : dim - 1]

    def sweep_tile(self, flat: np.ndarray, tile: Tile) -> int:
        """Compute every cell of ``tile``; returns the number of cells.

        ``flat`` is the flattened ``dim * dim`` value array.  All cells of
        the tile's west / north / north-west neighbour tiles must already
        hold final values (the tile-wavefront contract): the row walk reads
        the row above and the cell to the west of each tile row, the
        diagonal walk loads the two diagonals before the tile's first one on
        entry and reads at most two halo cells per later diagonal.  The tile
        is validated finite as one block before the call returns, i.e.
        before it retires and a successor (or the caller) may read it.
        """
        dim = self.dim
        r0, r1 = tile.row_start, tile.row_stop
        c0, c1 = tile.col_start, tile.col_stop
        if not (0 <= r0 < r1 <= dim and 0 <= c0 < c1 <= dim):
            raise InvalidParameterError(
                f"tile rows [{r0}, {r1}) x cols [{c0}, {c1}) lies outside the dim={dim} grid"
            )
        values = flat.reshape(dim, dim)
        if self._row_evaluator is not None:
            self._sweep_rows(values, r0, r1, c0, c1)
        else:
            self._sweep_diagonals(flat, r0, r1, c0, c1)
        block = values[r0:r1, c0:c1]
        if not np.all(np.isfinite(block)):
            rows, cols = np.nonzero(~np.isfinite(block))
            raise KernelError(
                f"kernel {self.kernel.name!r} produced non-finite values on diagonal "
                f"{r0 + c0 + int(np.min(rows + cols))} of tile ({tile.tile_row}, {tile.tile_col})"
            )
        return (r1 - r0) * (c1 - c0)

    def _sweep_rows(self, values: np.ndarray, r0: int, r1: int, c0: int, c1: int) -> None:
        """Rows ``r0 .. r1 - 1`` of the tile, each written once, in place."""
        evaluate = self._row_evaluator
        boundary = self.boundary
        halo = self._rows[0, : c1 - c0 + 1]
        for i in range(r0, r1):
            row = values[i]
            if i and c0:
                north = values[i - 1, c0 - 1 : c1]
            else:  # the boundary stands in for row -1 / column -1
                north = halo
                north[0] = boundary
                north[1:] = values[i - 1, :c1] if i else boundary
            evaluate(i, c0, c1, north, row[c0 - 1] if c0 else boundary, row[c0:c1])

    def _sweep_diagonals(self, flat: np.ndarray, r0: int, r1: int, c0: int, c1: int) -> None:
        """Diagonals ``r0 + c0 .. r1 + c1 - 2`` of the tile on the rolling rows."""
        dim = self.dim
        stride = dim - 1
        boundary = self.boundary
        evaluator = self._evaluator
        prev2, prev1, cur = self._rows
        first = r0 + c0
        self._load_diagonal(flat, prev1, first - 1, r0 - 1, r0, r0)
        self._load_diagonal(flat, prev2, first - 2, r0 - 1, r0 - 1, r0)
        for d in range(first, r1 + c1 - 1):
            # max / min spelled as conditionals: this runs once per diagonal.
            i_min = d - (c1 - 1)
            if i_min < r0:
                i_min = r0
            i_max = d - c0
            if i_max >= r1:
                i_max = r1 - 1
            a = i_min - r0 + 1
            b = i_max - r0 + 2
            # Diagonal d - 1 as left by the previous iteration lacks at most
            # its two halo cells: (r0 - 1, d - r0) above the first row and
            # (i_max, c0 - 1) left of the last.
            if i_min == r0:
                prev1[0] = flat[(r0 - 1) * dim + d - r0] if r0 else boundary
            if i_max == d - c0:
                prev1[b - 1] = flat[i_max * dim + c0 - 1] if c0 else boundary
            west, north, nw = prev1[a:b], prev1[a - 1 : b - 1], prev2[a - 1 : b - 1]
            out = cur[a:b]
            # Cell (i, d - i) sits at flat index i * dim + (d - i): the
            # stride-(dim-1) sequence from rows i_min..i_max.
            start = i_min * dim + (d - i_min)
            seg = slice(start, start + (b - a - 1) * stride + 1, stride)
            if evaluator is not None:
                evaluator(d, i_min, i_max, west, north, nw, out, seg)
            else:
                i = np.arange(i_min, i_max + 1, dtype=np.int64)
                values = np.asarray(self.kernel.diagonal(i, d - i, west, north, nw), dtype=float)
                if values.ndim != 1 or values.shape[0] != b - a:
                    raise KernelError(
                        f"kernel {self.kernel.name!r} returned shape {values.shape}, "
                        f"expected ({b - a},)"
                    )
                out[:] = values
            flat[seg] = out
            prev2, prev1, cur = prev1, cur, prev2


class VectorizedSerialExecutor(Executor):
    """Single-core sweep evaluating whole anti-diagonals as NumPy batches.

    Produces grids identical to :class:`repro.runtime.serial.SerialExecutor`
    (the test suite asserts cell-for-cell equality on every registered
    application) while running several times faster, and is therefore the
    first of :func:`repro.runtime.registry.available_serial_engines`.
    """

    strategy = "vectorized"

    def _breakdown(self, problem: WavefrontProblem, tunables: TunableParams) -> PhaseBreakdown:
        params = problem.input_params()
        return PhaseBreakdown(pre_s=self.cost_model.vectorized_time(params))

    def _run_functional(
        self, problem: WavefrontProblem, tunables: TunableParams
    ) -> tuple[WavefrontGrid, dict]:
        grid = problem.make_grid()
        sweeper = TileSweeper(problem)
        cells = sweeper.sweep_tile(grid.values.reshape(-1), sweeper.whole_grid)
        return grid, {
            "cells_computed": cells,
            "fused_kernel": sweeper.fused,
            "traversal": sweeper.traversal,
        }

    def _validate(self, problem: WavefrontProblem, tunables: TunableParams) -> TunableParams:
        # Like the scalar serial baseline this strategy ignores tunables;
        # normalise them so results record the canonical configuration.
        return TunableParams(cpu_tile=1)
