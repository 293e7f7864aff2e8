"""The operand contract of :class:`~repro.runtime.vectorized.TileSweeper`.

Three things nothing else pins: the rows carried from diagonal to diagonal
(and the halo cells loaded from neighbouring tiles) are right for every
tile shape, sweep order and range split; the diagonal evaluator really
receives contiguous neighbours plus the row-major slice of the cells it
computes; and a tile one call owns whole goes through the row evaluator, on
the grid's own rows, while a range-clipped one follows the diagonals.
"""

import numpy as np
import pytest

from repro.apps.lcs import LCSApp, LCSKernel
from repro.apps.registry import available_applications, get_application
from repro.core.exceptions import InvalidParameterError
from repro.core.pattern import WavefrontProblem
from repro.core.tiling import Tile, TileDecomposition
from repro.runtime import TileSweeper
from repro.runtime.compute import reference_grid

DIM = 37  # prime: no tile side below divides it, so edge tiles are ragged


@pytest.fixture(scope="module", params=available_applications())
def app_case(request):
    """(problem, serial reference values) of one registered application."""
    problem = get_application(request.param, dim=DIM).problem(DIM)
    return problem, reference_grid(problem).values


class TestHaloBattery:
    """Generated from the registry: every app, ragged tiles, hostile orders."""

    @staticmethod
    def sweep(problem, tile_side, *, reverse=False, split=None):
        sweeper = TileSweeper(problem)
        grid = problem.make_grid()
        flat = grid.values.reshape(-1)
        flat[:] = np.nan  # an unswept cell read as a neighbour poisons the grid
        waves = list(TileDecomposition(DIM, DIM, tile_side).schedule())
        ranges = [(0, None)] if split is None else [(0, split - 1), (split, None)]
        cells = 0
        for d_lo, d_hi in ranges:
            for wave in waves:
                for tile in reversed(wave) if reverse else wave:
                    sweeper._rows[:] = np.nan  # nothing may survive from the last tile
                    cells += sweeper.sweep_tile(flat, tile, d_lo, d_hi)
        assert cells == DIM * DIM
        return grid.values

    @pytest.mark.parametrize("tile_side", [5, 8, DIM])
    def test_schedule_order(self, app_case, tile_side):
        problem, reference = app_case
        assert np.array_equal(reference, self.sweep(problem, tile_side))

    @pytest.mark.parametrize("tile_side", [5, 8])
    def test_reverse_order_within_each_wave(self, app_case, tile_side):
        problem, reference = app_case
        assert np.array_equal(reference, self.sweep(problem, tile_side, reverse=True))

    @pytest.mark.parametrize("tile_side", [5, 8, DIM])
    @pytest.mark.parametrize("split", [1, 19, 40, 2 * DIM - 2])
    def test_range_split_through_the_middle_of_tiles(self, app_case, tile_side, split):
        problem, reference = app_case
        assert np.array_equal(reference, self.sweep(problem, tile_side, split=split))


class RecordingKernel(LCSKernel):
    """LCS whose two evaluators check every operand the engine hands them.

    ``handed[walk][i, j]`` counts how often cell ``(i, j)`` went through the
    evaluator of that walk; ``grid`` is the value array the test sweeps, so
    the row evaluator can tell a grid view from a copy.
    """

    def __init__(self, seq_a, seq_b, dim, boundary):
        super().__init__(seq_a, seq_b)
        self.handed = {walk: np.zeros((dim, dim), dtype=int) for walk in ("rows", "diagonals")}
        self.grid = np.full((dim, dim), np.nan)
        self.boundary = boundary

    def make_diagonal_evaluator(self, dim, boundary):
        inner = super().make_diagonal_evaluator(dim, boundary)
        cell_index = np.arange(dim * dim)

        def evaluate(d, i_min, i_max, west, north, northwest, out, seg):
            m = i_max - i_min + 1
            for operand in (west, north, northwest, out):
                assert operand.dtype == np.float64
                assert operand.shape == (m,)
                assert operand.flags.c_contiguous
            rows = np.arange(i_min, i_max + 1)
            assert np.array_equal(cell_index[seg], rows * dim + (d - rows))
            self.handed["diagonals"][rows, d - rows] += 1
            inner(d, i_min, i_max, west, north, northwest, out, seg)

        return evaluate

    def make_row_evaluator(self, dim, boundary):
        inner = super().make_row_evaluator(dim, boundary)
        grid = self.grid

        def same_memory(a, b):
            return a.shape == b.shape and a.ctypes.data == b.ctypes.data

        def evaluate(i, c0, c1, north, west, out):
            for operand, length in ((north, c1 - c0 + 1), (out, c1 - c0)):
                assert operand.dtype == np.float64
                assert operand.shape == (length,)
                assert operand.flags.c_contiguous
            assert same_memory(out, grid[i, c0:c1])  # the grid row itself
            if i > 0 and c0 > 0:  # interior: a plain view of the previous row
                assert same_memory(north, grid[i - 1, c0 - 1 : c1])
            else:
                assert not np.shares_memory(north, grid)
                expected = np.full(c1 - c0 + 1, self.boundary)
                if i > 0:
                    expected[1:] = grid[i - 1, :c1]
                assert np.array_equal(north, expected)
            assert west == (grid[i, c0 - 1] if c0 else self.boundary)
            self.handed["rows"][i, c0:c1] += 1
            inner(i, c0, c1, north, west, out)

        return evaluate


class TestEvaluatorContract:
    @pytest.fixture()
    def problem(self):
        template = LCSApp(dim=DIM, seed=3).make_kernel()
        boundary = 3.0  # told apart from a zeroed buffer
        kernel = RecordingKernel(template.seq_a, template.seq_b, DIM, boundary)
        return WavefrontProblem(dim=DIM, kernel=kernel, boundary=boundary)

    @pytest.mark.parametrize("tile_side", [DIM, 8, 5])
    @pytest.mark.parametrize("split", [None, 19, 40])
    def test_operands_are_contiguous_and_the_slice_is_exact(self, problem, tile_side, split):
        kernel = problem.kernel
        sweeper = TileSweeper(problem)
        flat = kernel.grid.reshape(-1)
        decomposition = TileDecomposition(DIM, DIM, tile_side)
        ranges = [(0, None)] if split is None else [(0, split - 1), (split, None)]
        by_rows = np.zeros((DIM, DIM), dtype=bool)
        for d_lo, d_hi in ranges:
            for wave in decomposition.schedule():
                for tile in wave:
                    sweeper._rows[:] = np.nan
                    sweeper.sweep_tile(flat, tile, d_lo, d_hi)
                    # A tile goes by rows exactly when one call owns all of it.
                    first = tile.row_start + tile.col_start
                    last = tile.row_stop + tile.col_stop - 2
                    if split is None or not first < split <= last:
                        by_rows[tile.row_start : tile.row_stop, tile.col_start : tile.col_stop] = True
        assert np.array_equal(kernel.handed["rows"], by_rows.astype(int))
        assert np.array_equal(kernel.handed["diagonals"], (~by_rows).astype(int))
        assert np.array_equal(reference_grid(problem).values, kernel.grid)

    def test_the_diagonal_evaluator_is_not_built_for_a_sweep_that_walks_rows(self, problem):
        sweeper = TileSweeper(problem)
        for wave in TileDecomposition(DIM, DIM, 8).schedule():
            for tile in wave:
                sweeper.sweep_tile(problem.kernel.grid.reshape(-1), tile)
        assert sweeper.traversal == "rows" and "_evaluator" not in vars(sweeper)
        sweeper.sweep_tile(problem.kernel.grid.reshape(-1), tile, 0, 2 * DIM - 3)
        assert sweeper.traversal == "diagonals" and "_evaluator" in vars(sweeper)

    @pytest.mark.parametrize(
        "bounds",
        [(30, 40, 0, 8), (0, 8, 30, 40), (-1, 4, 0, 4), (0, 4, -2, 4), (8, 8, 0, 4), (0, 4, 9, 5)],
        ids=lambda b: "rows[%d,%d)cols[%d,%d)" % b,
    )
    def test_tile_outside_the_grid_is_rejected_before_any_write(self, problem, bounds):
        r0, r1, c0, c1 = bounds
        tile = Tile(tile_row=0, tile_col=0, row_start=r0, row_stop=r1, col_start=c0, col_stop=c1)
        sweeper = TileSweeper(problem)
        flat = np.full(DIM * DIM, -7.0)
        with pytest.raises(InvalidParameterError, match="outside the dim=37 grid"):
            sweeper.sweep_tile(flat, tile)
        assert np.all(flat == -7.0)
        assert not any(counts.any() for counts in problem.kernel.handed.values())
