"""The vectorized wavefront engine: a whole region per call, as NumPy batches.

The scalar executors evaluate diagonals through fancy-indexed gathers
(:func:`repro.runtime.compute.compute_cells`): per diagonal they materialise
index arrays, gather three neighbour arrays with ``np.where`` masks and
scatter the result back.  For fine-grained kernels that machinery dominates
the runtime.  This module removes it.  A sweep is always a whole region — a
tile's rows ∩ columns ∩ anti-diagonals; the whole grid is the one-rectangle
case — walked one of two ways:

* by rows, when the kernel offers a row evaluator
  (:meth:`~repro.core.pattern.WavefrontKernel.make_row_evaluator`): each grid
  row written once, in place, from the row above;
* by diagonals otherwise: the last two diagonals of the region live in
  three rolling row buffers indexed by grid row, so the west / north /
  north-west neighbours of diagonal ``d`` and its output are plain
  *contiguous* slices of those buffers — no gathers, and no stride-``(dim -
  1)`` operand in any ufunc.  The two slots around a diagonal are its halo:
  a predecessor region's cell read from the grid as a scalar, or the
  boundary value.  A diagonal of a row-major square grid is an arithmetic
  sequence in the flattened array (cell ``(i, d - i)`` sits at ``d + i *
  (dim - 1)``), so each computed diagonal is stored to the grid exactly once
  through one strided slice, and the two diagonals before the region's
  first one are loaded the same way over every row it spans — which is how
  a region reads its predecessors.  A kernel may provide a fused evaluator
  (:meth:`repro.core.pattern.WavefrontKernel.make_diagonal_evaluator`) that
  precomputes position-dependent tables once per sweeper and evaluates each
  diagonal with in-place ufuncs on the contiguous rows; the sweeper hands it
  the store's row-major slice so row-major tables line up with any region.

:class:`TileSweeper` is the sweep; :class:`VectorizedSerialExecutor` (the
registered ``vectorized`` strategy, the preferred single-core engine) runs
it once over the whole-grid tile.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.exceptions import InvalidParameterError, KernelError
from repro.core.grid import WavefrontGrid
from repro.core.params import TunableParams
from repro.core.pattern import WavefrontProblem
from repro.core.tiling import Tile
from repro.runtime.executor_base import Executor


class TileSweeper:
    """Row-major or diagonal (rolling-row) sweep of one grid region.

    The workhorse shared by the whole-grid engine and the multicore
    backend's worker processes.  A kernel with a row evaluator is walked by
    rows; otherwise the last two anti-diagonals of the region live in three
    rolling row buffers indexed by grid row (slot ``i - row_start + 1``), so
    the west / north / north-west neighbours and the output of every
    diagonal are contiguous slices of those buffers; the diagonal is stored
    to the row-major grid once.  Slot 0 and the slot one past a diagonal's
    last cell are the halo: a cell of a predecessor region read from the
    grid as a scalar, or the boundary value where the region touches grid
    row 0 / column 0.  A region is a :class:`~repro.core.tiling.Tile`: a
    rectangle, cut to a range of anti-diagonals when it has one.

    One sweeper serves any number of regions of its problem; building it pays
    the kernel's fused-evaluator precompute exactly once, which is why the
    whole-grid engine keeps one per problem between runs and every worker
    of a team keeps the few it used last.  It holds the kernel, never the
    problem: a problem keeps its sweeper, and a reference back would make
    a cycle that only the cyclic collector frees.
    """

    def __init__(self, problem: WavefrontProblem) -> None:
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
        #: True when the kernel supplied a fused (row or diagonal) evaluator.
        self.fused = self._row_evaluator is not None or self._evaluator is not None
        #: The grid as one tile: what a single-core sweep hands :meth:`sweep_tile`.
        self.whole_grid = Tile(
            tile_row=0, tile_col=0, row_start=0, row_stop=self.dim, col_start=0, col_stop=self.dim
        )

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

        ``flat`` is the flattened ``dim * dim`` value array.  The region is
        the tile's rows ∩ columns ∩ anti-diagonals; a tile without a
        diagonal range is the rectangle.  Every cell the region reads must
        already hold its final value — all of them lie in its predecessor
        regions (:class:`~repro.core.tiling.Tile`) or, transitively, theirs: the row
        walk reads the row above and the cell to the west of each region
        row, the diagonal walk loads the two diagonals before the region's
        first one, over every row that diagonal spans, on entry and reads at
        most two halo cells per later diagonal.  No other cell of ``flat``
        is read, so what the rest of it holds never matters.  The region is
        checked finite before the call returns, i.e. before it retires and a
        successor (or the caller) may read it.
        """
        dim = self.dim
        r0, r1 = tile.row_start, tile.row_stop
        c0, c1 = tile.col_start, tile.col_stop
        d0 = r0 + c0 if tile.diag_start is None else max(tile.diag_start, r0 + c0)
        d1 = r1 + c1 - 1 if tile.diag_stop is None else min(tile.diag_stop, r1 + c1 - 1)
        if not (0 <= r0 < r1 <= dim and 0 <= c0 < c1 <= dim and d0 < d1):
            raise InvalidParameterError(
                f"tile rows [{r0}, {r1}) x cols [{c0}, {c1}) x diagonals "
                f"[{d0}, {d1}) lies outside the dim={dim} grid"
            )
        if self._row_evaluator is not None:
            cells = self._sweep_rows(flat.reshape(dim, dim), r0, r1, c0, c1, d0, d1)
        else:
            cells = self._sweep_diagonals(flat, r0, r1, c0, c1, d0, d1)
        self._check_finite(flat, tile, d0, d1)
        return cells

    def _check_finite(self, flat: np.ndarray, tile: Tile, d0: int, d1: int) -> None:
        """Raise :class:`KernelError` unless every cell of the region is finite.

        One vectorised test of a view holding the region: the rectangle, or
        for a diagonal range the rows x diagonals parallelogram (cell ``(i,
        d - i)`` sits at flat index ``i * (dim - 1) + d``).  The
        parallelogram also holds cells beside the region, stale ones
        included; only when the test fails are those told apart, so a value
        outside the region never fails it.
        """
        dim = self.dim
        r0, r1 = tile.row_start, tile.row_stop
        c0, c1 = tile.col_start, tile.col_stop
        if d0 == r0 + c0 and d1 == r1 + c1 - 1:  # the rectangle
            finite = np.isfinite(flat.reshape(dim, dim)[r0:r1, c0:c1])
            if finite.all():
                return
            rows, cols = np.nonzero(~finite)
            first = r0 + c0 + int(np.min(rows + cols))
        else:
            start = r0 * (dim - 1) + d0
            stop = start + (r1 - r0 - 1) * (dim - 1) + d1 - d0
            finite = np.isfinite(sliding_window_view(flat[start:stop], d1 - d0)[:: dim - 1])
            if finite.all():
                return
            rows, steps = np.nonzero(~finite)
            cols = d0 + steps - r0 - rows
            inside = (cols >= c0) & (cols < c1)
            if not inside.any():
                return
            first = d0 + int(np.min(steps[inside]))
        raise KernelError(
            f"kernel {self.kernel.name!r} produced non-finite values on diagonal "
            f"{first} of tile ({tile.tile_row}, {tile.tile_col})"
        )

    def _sweep_rows(self, values: np.ndarray, r0: int, r1: int, c0: int, c1: int, d0: int, d1: int) -> int:
        """Rows ``r0 .. r1 - 1`` of the region, each row's cells written once, in place."""
        evaluate = self._row_evaluator
        boundary = self.boundary
        halo = self._rows[0]
        cells = 0
        for i in range(r0, r1):
            # Row i's cells of the region: columns a .. b - 1 ([c0, c1) in a rectangle).
            a = d0 - i if d0 - i > c0 else c0
            b = d1 - i if d1 - i < c1 else c1
            if a >= b:
                continue
            row = values[i]
            if i and a:
                north = values[i - 1, a - 1 : b]
            else:  # the boundary stands in for row -1 / column -1
                north = halo[: b - a + 1]
                north[0] = boundary
                north[1:] = values[i - 1, :b] if i else boundary
            evaluate(i, a, b, north, row[a - 1] if a else boundary, row[a:b])
            cells += b - a
        return cells

    def _sweep_diagonals(self, flat: np.ndarray, r0: int, r1: int, c0: int, c1: int, d0: int, d1: int) -> int:
        """Diagonals ``d0 .. d1 - 1`` of the region on the rolling rows."""
        dim = self.dim
        stride = dim - 1
        boundary = self.boundary
        evaluator = self._evaluator
        prev2, prev1, cur = self._rows
        # Diagonals d0 - 1 and d0 - 2 over every row diagonal d0 reads them
        # in, the row above its first one included.
        i_min, i_max = max(r0, d0 - c1 + 1), min(r1 - 1, d0 - c0)
        self._load_diagonal(flat, prev1, d0 - 1, i_min - 1, i_max, r0)
        self._load_diagonal(flat, prev2, d0 - 2, i_min - 1, i_max - 1, r0)
        cells = 0
        for d in range(d0, d1):
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
            cells += b - a
            prev2, prev1, cur = prev1, cur, prev2
        return cells


class VectorizedSerialExecutor(Executor):
    """Single-core sweep evaluating whole anti-diagonals as NumPy batches.

    Produces grids identical to :class:`repro.runtime.serial.SerialExecutor`
    (the test suite asserts cell-for-cell equality on every registered
    application) while running several times faster, and is therefore the
    first of :func:`repro.runtime.registry.available_serial_engines`.

    Each problem keeps its :class:`TileSweeper`, evaluator tables and all,
    between runs as its ``_cached_sweeper`` (pickling drops it; its arrays
    count in :attr:`~repro.core.pattern.WavefrontProblem.nbytes`).  A run
    checks it out with one atomic ``pop`` and puts it back after the sweep,
    so two threads sweeping one problem never share a sweeper's buffers:
    the second finds none and builds its own.
    """

    strategy = "vectorized"

    def _run_functional(
        self, problem: WavefrontProblem, tunables: TunableParams
    ) -> tuple[WavefrontGrid, dict]:
        grid = problem.make_grid()
        sweeper = problem.__dict__.pop("_cached_sweeper", None) or TileSweeper(problem)
        cells = sweeper.sweep_tile(grid.values.reshape(-1), sweeper.whole_grid)
        problem._cached_sweeper = sweeper
        return grid, {
            "cells_computed": cells,
            "fused_kernel": sweeper.fused,
            "traversal": sweeper.traversal,
        }

    @classmethod
    def _validate(cls, system, dim: int, tunables: TunableParams) -> TunableParams:
        # Like the scalar serial baseline this strategy ignores tunables;
        # normalise them so results record the canonical configuration.
        return TunableParams(cpu_tile=1)
