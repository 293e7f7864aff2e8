"""Tests for the anti-diagonal geometry helpers."""

import numpy as np
import pytest

from repro.core import diagonal as dg
from repro.core.exceptions import InvalidParameterError


class TestDiagonalGeometry:
    def test_lengths_square(self):
        lengths = [dg.diagonal_length(d, 4, 4) for d in range(7)]
        assert lengths == [1, 2, 3, 4, 3, 2, 1]

    def test_lengths_rectangular(self):
        lengths = [dg.diagonal_length(d, 4, 6) for d in range(9)]
        assert lengths == [1, 2, 3, 4, 4, 4, 3, 2, 1]
        assert max(lengths) == 4  # "maximum parallelism ... at iterations 3,4 and 5"

    def test_diagonal_cells_sum_to_grid(self):
        total = sum(dg.diagonal_cells(d, 5, 7).shape[0] for d in range(11))
        assert total == 35

    def test_diagonal_cells_are_on_diagonal_and_ordered(self):
        cells = dg.diagonal_cells(6, 5, 7)
        assert np.all(cells.sum(axis=1) == 6)
        assert np.all(np.diff(cells[:, 0]) == 1)

    def test_diagonal_bounds(self):
        assert dg.diagonal_bounds(0, 4, 4) == (0, 0)
        assert dg.diagonal_bounds(3, 4, 4) == (0, 3)
        assert dg.diagonal_bounds(5, 4, 4) == (2, 3)

    def test_cells_before_diagonal(self):
        dim = 6
        for d in range(2 * dim):
            expected = sum(dg.diagonal_length(k, dim, dim) for k in range(min(d, 2 * dim - 1)))
            assert dg.cells_before_diagonal(d, dim) == expected
        assert dg.cells_before_diagonal(2 * dim - 1, dim) == dim * dim

    def test_cells_in_diagonal_range(self):
        assert dg.cells_in_diagonal_range(0, 10, 6) == 36
        assert dg.cells_in_diagonal_range(5, 5, 6) == 6
        assert dg.cells_in_diagonal_range(7, 3, 6) == 0

    def test_band_diagonal_range_centred_on_main(self):
        lo, hi = dg.band_diagonal_range(dim=10, band=2)
        assert (lo, hi) == (7, 11)
        assert hi - lo + 1 == 5  # 2*band + 1 diagonals

    def test_band_diagonal_range_clipped(self):
        lo, hi = dg.band_diagonal_range(dim=10, band=100)
        assert (lo, hi) == (0, 18)

    @pytest.mark.parametrize("bad_call", [
        lambda: dg.diagonal_length(-1, 4, 4),
        lambda: dg.diagonal_length(7, 4, 4),
        lambda: dg.band_diagonal_range(10, -1),
        lambda: dg.cells_before_diagonal(-1, 4),
    ])
    def test_out_of_range_rejected(self, bad_call):
        with pytest.raises(InvalidParameterError):
            bad_call()
