"""Exactness of the row walk at its edges (hypothesis + probe tests).

The row evaluators of the scan apps are bit-identical to ``diagonal()`` only
under a precondition each kernel probes for itself (integer-valued scores,
magnitudes below 2**53).  This module draws instances on both sides of every
probe: a declined instance must get ``make_row_evaluator(...) is None`` and
still equal the serial reference through the diagonal walk, an accepted one
must equal it bit for bit through rows — at ragged tile sides, with wrapped
sequences, a non-zero boundary, and tiles that cut row 0 and column 0 off
the rest.  A row evaluator that writes a NaN is reported exactly as the
diagonal walk reports that cell, in process and through a worker team.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.editdistance import EditDistanceKernel
from repro.apps.knapsack import ExpectedKnapsackApp
from repro.apps.lcs import LCSKernel
from repro.apps.sequence import SmithWatermanKernel, random_dna
from repro.apps.viterbi import ViterbiApp
from repro.core.exceptions import KernelError
from repro.core.params import TunableParams
from repro.core.pattern import WavefrontKernel, WavefrontProblem
from repro.core.tiling import Tile, TileDecomposition
from repro.facade.policy import ExecutionPolicy
from repro.runtime import TileSweeper
from repro.runtime.compute import reference_grid
from repro.session import Session

seeds = st.integers(min_value=0, max_value=2**31 - 1)
dims = st.integers(min_value=2, max_value=40)
integer_scores = st.integers(min_value=0, max_value=9).map(float)
fractional_scores = st.sampled_from([0.3, 1.5, math.pi])


def tiled_sweep(problem, tiles):
    """(values, walk) of ``problem`` swept tile by tile over a poisoned grid."""
    sweeper = TileSweeper(problem)
    grid = problem.make_grid()
    flat = grid.values.reshape(-1)
    flat[:] = np.nan
    for tile in tiles:
        sweeper._rows[:] = np.nan
        sweeper.sweep_tile(flat, tile)
    return grid.values, sweeper.traversal


def square_tiles(dim, side):
    return [tile for wave in TileDecomposition(dim, dim, side).schedule() for tile in wave]


def sequences(seed, dim, shorter=0):
    """Two DNA sequences; ``shorter`` > 0 makes them wrap inside the grid."""
    return random_dna(max(1, dim - shorter), seed=seed), random_dna(max(1, dim - shorter // 2), seed=seed + 1)


def check(kernel, dim, side, *, offered, boundary=0.0):
    problem = WavefrontProblem(dim=dim, kernel=kernel, boundary=boundary)
    assert (kernel.make_row_evaluator(dim, boundary) is not None) == offered
    values, walk = tiled_sweep(problem, square_tiles(dim, min(side, dim)))
    assert walk == ("rows" if offered else "diagonals")
    assert np.array_equal(reference_grid(problem).values, values)


class TestScanAppsAtTheirProbe:
    @settings(max_examples=60, deadline=None)
    @given(seeds, dims, st.integers(1, 40), integer_scores, integer_scores, st.integers(0, 7))
    def test_edit_distance_integer_costs_go_by_rows_bit_for_bit(self, seed, dim, side, gap, mismatch, shorter):
        kernel = EditDistanceKernel(*sequences(seed, dim, shorter), gap=gap + 1.0, mismatch=mismatch)
        check(kernel, dim, side, offered=True)

    @settings(max_examples=40, deadline=None)
    @given(seeds, dims, st.integers(1, 40), fractional_scores, integer_scores, st.booleans())
    def test_edit_distance_fractional_costs_are_declined(self, seed, dim, side, odd, whole, which):
        gap, mismatch = (odd, whole) if which else (whole + 1.0, odd)
        kernel = EditDistanceKernel(*sequences(seed, dim), gap=gap, mismatch=mismatch)
        check(kernel, dim, side, offered=False)

    @settings(max_examples=60, deadline=None)
    @given(seeds, dims, st.integers(1, 40), integer_scores, integer_scores, integer_scores, st.integers(0, 7))
    def test_smith_waterman_integer_scores_go_by_rows_bit_for_bit(
        self, seed, dim, side, match, mismatch, gap, shorter
    ):
        kernel = SmithWatermanKernel(
            *sequences(seed, dim, shorter), match=match, mismatch=-mismatch, gap=gap
        )
        check(kernel, dim, side, offered=True, boundary=2.0)

    @settings(max_examples=40, deadline=None)
    @given(seeds, dims, st.integers(1, 40), fractional_scores, st.integers(0, 3))
    def test_smith_waterman_fractional_scores_or_boundary_are_declined(self, seed, dim, side, odd, which):
        scores = {"match": 2.0, "mismatch": -1.0, "gap": 1.0}
        boundary = 0.0
        if which == 3:
            boundary = odd
        else:
            scores[("match", "mismatch", "gap")[which]] = odd
        check(SmithWatermanKernel(*sequences(seed, dim), **scores), dim, side, offered=False, boundary=boundary)

    @pytest.mark.parametrize(
        "kernel",
        [
            EditDistanceKernel([0, 1], [1, 0], gap=2.0**50),
            EditDistanceKernel([0, 1], [1, 0], mismatch=2.0**53),
            SmithWatermanKernel([0, 1], [1, 0], match=2.0**50),
            SmithWatermanKernel([0, 1], [1, 0], gap=2.0**50),
        ],
        ids=["edit-gap", "edit-mismatch", "sw-match", "sw-gap"],
    )
    def test_integer_scores_too_large_to_shift_exactly_are_declined(self, kernel):
        assert kernel.make_row_evaluator(64, 0.0) is None
        assert type(kernel)(kernel.seq_a, kernel.seq_b).make_row_evaluator(64, 0.0) is not None

    @settings(max_examples=60, deadline=None)
    @given(seeds, dims, st.integers(1, 40), st.integers(1, 30), st.sampled_from([0.0, 3.0, -2.5]))
    def test_lcs_wrapped_sequences_and_any_boundary(self, seed, dim, side, shorter, boundary):
        check(LCSKernel(*sequences(seed, dim, shorter)), dim, side, offered=True, boundary=boundary)


class TestNorthOnlyWitnesses:
    """Row 0 and column 0 carry the special cases: cut them off on their own."""

    @settings(max_examples=30, deadline=None)
    @given(seeds, st.integers(3, 40), st.sampled_from([ViterbiApp, ExpectedKnapsackApp]), st.integers(0, 9))
    def test_witness_is_byte_identical_with_row_0_and_column_0_in_their_own_tiles(
        self, seed, dim, app, narrower
    ):
        # Tables drawn for a smaller instance wrap modulo their shape inside the grid.
        problem = app(dim=max(2, dim - narrower), seed=seed).problem(dim)
        cuts = [(0, 1), (1, dim)]
        tiles = [
            Tile(tile_row=r, tile_col=c, row_start=r0, row_stop=r1, col_start=c0, col_stop=c1)
            for r, (r0, r1) in enumerate(cuts)
            for c, (c0, c1) in enumerate(cuts)
        ]
        values, walk = tiled_sweep(problem, tiles)
        reference = reference_grid(problem).values
        assert walk == "rows" and np.array_equal(reference, values)
        witness = problem.kernel.reconstruct_witness(values)
        assert witness.tobytes() == problem.kernel.reconstruct_witness(reference).tobytes()


class OneBadCellByRows(WavefrontKernel):
    """``i + j`` everywhere, NaN at one cell, by rows or (``rows=False``) by diagonals.

    Module-level: a session's resident team receives its problems pickled.
    """

    name = "one-bad-cell"

    def __init__(self, row, col, rows):
        self.row, self.col, self.rows = row, col, rows

    def diagonal(self, i, j, west, north, northwest):
        out = (i + j).astype(float)
        out[(i == self.row) & (j == self.col)] = np.nan
        return out

    def make_row_evaluator(self, dim, boundary):
        if not self.rows:
            return None

        def evaluate(i, c0, c1, north, west, out):
            out[:] = np.arange(i + c0, i + c1)
            if i == self.row and c0 <= self.col < c1:
                out[self.col - c0] = np.nan

        return evaluate


class TestANaNFromARowEvaluator:
    """Cell (9, 6): diagonal 15 — tile (2, 1) of square side-4 tiles; on two
    strips, region (2, 0) of the row walk and (1, 3) of the diagonal walk."""

    @staticmethod
    def message(solve):
        with pytest.raises(KernelError) as excinfo:
            solve()
        return str(excinfo.value)

    def test_in_process_message_equals_the_diagonal_walks(self):
        def sweep(rows):
            problem = WavefrontProblem(dim=16, kernel=OneBadCellByRows(9, 6, rows))
            return lambda: tiled_sweep(problem, square_tiles(16, 4))

        by_rows = self.message(sweep(True))
        assert by_rows == self.message(sweep(False))
        assert "non-finite values on diagonal 15 of tile (2, 1)" in by_rows

    def test_through_a_two_worker_pipelined_session(self, i7_2600k):
        policy = ExecutionPolicy(backend="pipelined", workers=2, tunables=TunableParams(cpu_tile=4))
        with Session(system=i7_2600k) as session:
            messages = [
                self.message(
                    lambda: session.solve(
                        WavefrontProblem(dim=16, kernel=OneBadCellByRows(9, 6, rows)), policy=policy
                    )
                )
                for rows in (True, False)
            ]
            # Each walk cuts its own strips, so each names its own region.
            assert "non-finite values on diagonal 15 of tile (2, 0)" in messages[0]
            assert "non-finite values on diagonal 15 of tile (1, 3)" in messages[1]
            good = WavefrontProblem(dim=16, kernel=OneBadCellByRows(-1, -1, True))
            assert session.solve(good, policy=policy).grid.values[9, 6] == 15.0
