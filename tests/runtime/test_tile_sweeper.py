"""The operand contract of :class:`~repro.runtime.vectorized.TileSweeper`.

Three things nothing else pins: the rows carried from diagonal to diagonal
(and the halo cells loaded from neighbouring tiles) are right for every
tile shape and sweep order; the diagonal evaluator really receives
contiguous neighbours plus the row-major slice of the cells it computes;
and a kernel with a row evaluator goes through it on the grid's own rows,
every tile of it, while one without follows the diagonals.
"""

import numpy as np
import pytest

from repro.apps.lcs import LCSApp, LCSKernel
from repro.apps.sequence import SmithWatermanKernel
from repro.apps.registry import available_applications, get_application
from repro.core.exceptions import InvalidParameterError
from repro.core.pattern import WavefrontProblem
from repro.core.tiling import Tile, TileDecomposition
from repro.runtime import DependencyGraph, TileSweeper
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
    def sweep(problem, tile_side, *, reverse=False, seed=None):
        sweeper = TileSweeper(problem)
        grid = problem.make_grid()
        flat = grid.values.reshape(-1)
        flat[:] = np.nan  # an unswept cell read as a neighbour poisons the grid
        decomposition = TileDecomposition(DIM, DIM, tile_side)
        if seed is None:
            order = (
                tile
                for wave in decomposition.schedule()
                for tile in (reversed(wave) if reverse else wave)
            )
        else:
            order = TestHaloBattery.out_of_order(decomposition, seed)
        cells = 0
        for tile in order:
            sweeper._rows[:] = np.nan  # nothing may survive from the last tile
            cells += sweeper.sweep_tile(flat, tile)
        assert cells == DIM * DIM
        return grid.values

    @staticmethod
    def out_of_order(decomposition, seed):
        """Tiles in a random order the dependency graph allows.

        Every ready tile is taken at once and a random one of those in
        flight finishes next, as on a pipelined team whose workers run at
        different speeds: tiles of later waves overtake earlier ones.
        """
        rng = np.random.default_rng(seed)
        graph = DependencyGraph(decomposition)
        in_flight = []
        while not graph.done:
            while (tile := graph.acquire()) is not None:
                in_flight.append(tile)
            tile = in_flight.pop(int(rng.integers(len(in_flight))))
            yield tile
            graph.retire(tile)

    @pytest.mark.parametrize("tile_side", [5, 8, DIM])
    def test_schedule_order(self, app_case, tile_side):
        problem, reference = app_case
        assert np.array_equal(reference, self.sweep(problem, tile_side))

    @pytest.mark.parametrize("tile_side", [5, 8])
    def test_reverse_order_within_each_wave(self, app_case, tile_side):
        problem, reference = app_case
        assert np.array_equal(reference, self.sweep(problem, tile_side, reverse=True))

    @pytest.mark.parametrize("tile_side", [3, 5, 8])
    @pytest.mark.parametrize("seed", range(4))
    def test_any_order_the_dependency_graph_allows(self, app_case, tile_side, seed):
        problem, reference = app_case
        assert np.array_equal(reference, self.sweep(problem, tile_side, seed=seed))


class Recording:
    """Mixin: a kernel whose two evaluators check every operand they are handed.

    ``handed[walk][i, j]`` counts how often cell ``(i, j)`` went through the
    evaluator of that walk; ``built`` names the evaluators the kernel was
    asked for; ``grid`` is the value array the test sweeps, so the row
    evaluator can tell a grid view from a copy.
    """

    def __init__(self, dim, boundary, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.handed = {walk: np.zeros((dim, dim), dtype=int) for walk in ("rows", "diagonals")}
        self.built = []
        self.grid = np.full((dim, dim), np.nan)
        self.boundary = boundary

    def make_diagonal_evaluator(self, dim, boundary):
        self.built.append("diagonals")
        inner = super().make_diagonal_evaluator(dim, boundary)
        if inner is None:
            return None
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
        self.built.append("rows")
        inner = super().make_row_evaluator(dim, boundary)
        if inner is None:
            return None
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


class RecordingLCS(Recording, LCSKernel):
    """LCS: a row form that never declines, and no diagonal evaluator."""


class RecordingSmithWaterman(Recording, SmithWatermanKernel):
    """Smith-Waterman: both forms; a fractional gap makes the row probe decline."""


#: The walk each recorded case's sweeps take.
WALKS = {"lcs": "rows", "smith-waterman-fractional-gap": "diagonals"}


def recording_problem(case, boundary=3.0):  # 3.0: told apart from a zeroed buffer
    template = LCSApp(dim=DIM, seed=3).make_kernel()
    seqs = (template.seq_a, template.seq_b)
    if case == "lcs":
        kernel = RecordingLCS(DIM, boundary, *seqs)
    else:
        kernel = RecordingSmithWaterman(DIM, boundary, *seqs, gap=1.5)
    return WavefrontProblem(dim=DIM, kernel=kernel, boundary=boundary)


class TestEvaluatorContract:
    @pytest.mark.parametrize("tile_side", [DIM, 8, 5])
    @pytest.mark.parametrize("case", sorted(WALKS))
    def test_operands_are_contiguous_and_the_slice_is_exact(self, case, tile_side):
        problem = recording_problem(case)
        kernel = problem.kernel
        sweeper = TileSweeper(problem)
        flat = kernel.grid.reshape(-1)
        for wave in TileDecomposition(DIM, DIM, tile_side).schedule():
            for tile in wave:
                sweeper._rows[:] = np.nan
                sweeper.sweep_tile(flat, tile)
        walk = WALKS[case]
        other = "diagonals" if walk == "rows" else "rows"
        assert sweeper.traversal == walk
        assert np.array_equal(kernel.handed[walk], np.ones((DIM, DIM), dtype=int))
        assert not kernel.handed[other].any()
        assert np.array_equal(reference_grid(problem).values, kernel.grid)

    @pytest.mark.parametrize("gap, built", [(1.0, ["rows"]), (1.5, ["rows", "diagonals"])])
    def test_the_diagonal_evaluator_is_built_only_when_the_row_form_declines(self, gap, built):
        template = LCSApp(dim=DIM, seed=3).make_kernel()
        kernel = RecordingSmithWaterman(DIM, 0.0, template.seq_a, template.seq_b, gap=gap)
        sweeper = TileSweeper(WavefrontProblem(dim=DIM, kernel=kernel))
        assert kernel.built == built and sweeper.fused
        assert sweeper.traversal == ("rows" if gap == 1.0 else "diagonals")

    @pytest.mark.parametrize(
        "bounds",
        [(30, 40, 0, 8), (0, 8, 30, 40), (-1, 4, 0, 4), (0, 4, -2, 4), (8, 8, 0, 4), (0, 4, 9, 5)],
        ids=lambda b: "rows[%d,%d)cols[%d,%d)" % b,
    )
    @pytest.mark.parametrize("case", sorted(WALKS))
    def test_tile_outside_the_grid_is_rejected_before_any_write(self, case, bounds):
        problem = recording_problem(case)
        r0, r1, c0, c1 = bounds
        tile = Tile(tile_row=0, tile_col=0, row_start=r0, row_stop=r1, col_start=c0, col_stop=c1)
        sweeper = TileSweeper(problem)
        flat = np.full(DIM * DIM, -7.0)
        with pytest.raises(InvalidParameterError, match="outside the dim=37 grid"):
            sweeper.sweep_tile(flat, tile)
        assert np.all(flat == -7.0)
        assert not any(counts.any() for counts in problem.kernel.handed.values())
