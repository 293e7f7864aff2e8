"""Tests for the synthetic training application."""

import numpy as np
import pytest

from repro.apps.synthetic import MAX_EMULATED_ITERATIONS, SyntheticApp, SyntheticKernel
from repro.core.exceptions import InvalidParameterError
from repro.core.params import InputParams
from repro.runtime.compute import reference_grid


class TestSyntheticKernel:
    def test_metadata_propagates(self):
        kernel = SyntheticKernel(tsize=750, dsize=4)
        assert kernel.tsize == 750 and kernel.dsize == 4

    def test_values_deterministic(self):
        kernel = SyntheticKernel()
        i = np.arange(5)
        out1 = kernel.diagonal(i, i, np.ones(5), np.ones(5), np.ones(5))
        out2 = kernel.diagonal(i, i, np.ones(5), np.ones(5), np.ones(5))
        assert np.array_equal(out1, out2)

    def test_depends_on_neighbours(self):
        kernel = SyntheticKernel()
        i = np.arange(3)
        a = kernel.diagonal(i, i, np.ones(3), np.ones(3), np.ones(3))
        b = kernel.diagonal(i, i, 2 * np.ones(3), np.ones(3), np.ones(3))
        assert not np.array_equal(a, b)

    def test_emulated_work_does_not_change_result(self):
        plain = SyntheticKernel(tsize=500, emulate_work=False)
        busy = SyntheticKernel(tsize=500, emulate_work=True)
        i = np.arange(4)
        args = (i, i, np.ones(4), 2 * np.ones(4), 0.5 * np.ones(4))
        assert np.allclose(plain.diagonal(*args), busy.diagonal(*args))

    def test_emulated_work_capped(self):
        assert MAX_EMULATED_ITERATIONS < 10_000

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SyntheticKernel(tsize=0)
        with pytest.raises(InvalidParameterError):
            SyntheticKernel(dsize=-1)


class TestSyntheticApp:
    def test_problem_reflects_parameters(self):
        app = SyntheticApp(dim=64, tsize=2000, dsize=3)
        params = app.problem().input_params()
        assert params == InputParams(dim=64, tsize=2000, dsize=3)

    def test_grid_values_finite(self):
        grid = reference_grid(SyntheticApp(dim=16, tsize=10, dsize=1).problem())
        assert np.all(np.isfinite(grid.values))
        assert grid.values[-1, -1] != 0.0
