"""Tests for the wavefront value grid."""

import numpy as np
import pytest

from repro.core.exceptions import InvalidParameterError
from repro.core.grid import WavefrontGrid


class TestWavefrontGrid:
    def test_shapes_and_payload(self):
        grid = WavefrontGrid(dim=8, dsize=3)
        assert grid.values.shape == (8, 8)
        assert grid.dsize == 3

    def test_grid_carries_only_its_values(self):
        # dsize sizes transfers in the cost model; it allocates nothing here.
        arrays = [v for v in vars(WavefrontGrid(dim=4, dsize=5)).values()
                  if isinstance(v, np.ndarray)]
        assert len(arrays) == 1 and arrays[0].shape == (4, 4)

    def test_neighbours_boundary(self):
        grid = WavefrontGrid(dim=4)
        grid.values[:] = 7.0
        west, north, nw = grid.neighbours(np.array([0]), np.array([0]), boundary=-1.0)
        assert west[0] == -1.0 and north[0] == -1.0 and nw[0] == -1.0

    def test_neighbours_interior(self):
        grid = WavefrontGrid(dim=4)
        grid.values[1, 1] = 5.0
        grid.values[1, 2] = 6.0
        grid.values[2, 1] = 7.0
        west, north, nw = grid.neighbours(np.array([2]), np.array([2]))
        assert (west[0], north[0], nw[0]) == (7.0, 6.0, 5.0)

    def test_invalid_dim_rejected(self):
        with pytest.raises(InvalidParameterError):
            WavefrontGrid(dim=1)
        with pytest.raises(InvalidParameterError):
            WavefrontGrid(dim=8, dsize=-2)
