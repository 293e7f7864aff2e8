"""The rolling-row contract of :class:`~repro.runtime.vectorized.TileSweeper`.

Two things nothing else pins: the rows carried from diagonal to diagonal
(and the halo cells loaded from neighbouring tiles) are right for every
tile shape, sweep order and range split, and the evaluator really receives
contiguous neighbours plus the row-major slice of the cells it computes.
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
    """LCS whose fused evaluator checks every operand the engine hands it."""

    def make_diagonal_evaluator(self, dim, boundary):
        inner = super().make_diagonal_evaluator(dim, boundary)
        cell_index = np.arange(dim * dim)
        self.calls = calls = []

        def evaluate(d, i_min, i_max, west, north, northwest, out, seg):
            m = i_max - i_min + 1
            for operand in (west, north, northwest, out):
                assert operand.dtype == np.float64
                assert operand.shape == (m,)
                assert operand.flags.c_contiguous
            rows = np.arange(i_min, i_max + 1)
            assert np.array_equal(cell_index[seg], rows * dim + (d - rows))
            calls.append((d, i_min, i_max))
            inner(d, i_min, i_max, west, north, northwest, out, seg)

        return evaluate


class TestEvaluatorContract:
    @pytest.fixture()
    def problem(self):
        template = LCSApp(dim=DIM, seed=3).make_kernel()
        return WavefrontProblem(dim=DIM, kernel=RecordingKernel(template.seq_a, template.seq_b))

    @pytest.mark.parametrize("tile_side", [DIM, 8, 5])
    @pytest.mark.parametrize("split", [None, 19, 40])
    def test_operands_are_contiguous_and_the_slice_is_exact(self, problem, tile_side, split):
        sweeper = TileSweeper(problem)
        grid = problem.make_grid()
        flat = grid.values.reshape(-1)
        decomposition = TileDecomposition(DIM, DIM, tile_side)
        ranges = [(0, None)] if split is None else [(0, split - 1), (split, None)]
        for d_lo, d_hi in ranges:
            for wave in decomposition.schedule():
                for tile in wave:
                    sweeper.sweep_tile(flat, tile, d_lo, d_hi)
        calls = problem.kernel.calls
        # Every cell was handed to the evaluator exactly once.
        assert sum(i_max - i_min + 1 for _, i_min, i_max in calls) == DIM * DIM
        assert np.array_equal(reference_grid(problem).values, grid.values)

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
        assert problem.kernel.calls == []
