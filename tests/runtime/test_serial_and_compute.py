"""Tests for the serial executor and the shared compute helpers."""

import numpy as np
import pytest

from repro.core.params import TunableParams
from repro.core.pattern import FunctionKernel, WavefrontProblem
from repro.runtime.compute import (
    compute_diagonal_range,
    reference_grid,
)
from repro.runtime.executor_base import ExecutionMode
from repro.runtime.serial import SerialExecutor


def counting_problem(dim=10):
    """A problem whose exact solution is known: value = i + j + 1 everywhere."""
    kernel = FunctionKernel(
        lambda i, j, w, n, nw: np.maximum(w, n) + 1.0, tsize=1.0, name="counting"
    )
    return WavefrontProblem(dim=dim, kernel=kernel)


class TestComputeHelpers:
    def test_reference_grid_matches_closed_form(self):
        problem = counting_problem(8)
        grid = reference_grid(problem)
        i, j = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        assert np.array_equal(grid.values, i + j + 1.0)

    def test_compute_diagonal_range_counts_cells(self):
        problem = counting_problem(6)
        grid = problem.make_grid()
        assert compute_diagonal_range(problem, grid, 0, 10) == 36
        assert compute_diagonal_range(problem, grid, 5, 4) == 0

class TestSerialExecutor:
    def test_functional_result_and_value(self, i7_2600k):
        problem = counting_problem(12)
        result = SerialExecutor(i7_2600k).execute(problem)
        assert result.value == 23.0  # (dim-1) + (dim-1) + 1
        assert result.stats["cells_computed"] == 144
        assert result.wall_time > 0.0

    def test_simulate_mode_produces_no_grid(self, i7_2600k):
        problem = counting_problem(12)
        result = SerialExecutor(i7_2600k).execute(problem, mode="simulate")
        assert result.grid is None and result.rtime > 0
        with pytest.raises(ValueError):
            _ = result.value

    def test_rtime_identical_across_modes(self, i7_2600k):
        problem = counting_problem(12)
        executor = SerialExecutor(i7_2600k)
        functional = executor.execute(problem, mode=ExecutionMode.FUNCTIONAL)
        simulated = executor.execute(problem, mode=ExecutionMode.SIMULATE)
        assert functional.rtime == pytest.approx(simulated.rtime)

    def test_tunables_normalised_to_serial(self, i7_2600k):
        problem = counting_problem(8)
        result = SerialExecutor(i7_2600k).execute(
            problem, TunableParams.from_encoding(8, 3, -1, 1)
        )
        assert result.tunables == TunableParams(cpu_tile=1)

    def test_unknown_mode_rejected(self, i7_2600k):
        with pytest.raises(Exception):
            SerialExecutor(i7_2600k).execute(counting_problem(8), mode="warp-speed")

    def test_simulated_rtime_is_the_breakdown_total(self, i7_2600k):
        result = SerialExecutor(i7_2600k).execute(counting_problem(8), mode="simulate")
        assert result.system == "i7-2600K"
        assert result.rtime == result.breakdown.total_s
