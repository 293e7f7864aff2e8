"""Tests for the user-facing wavefront pattern API."""

import numpy as np
import pytest

from repro.core.exceptions import InvalidParameterError, KernelError
from repro.core.pattern import FunctionKernel, WavefrontProblem


def max_plus_kernel():
    return FunctionKernel(
        lambda i, j, w, n, nw: np.maximum(w, n) + 1.0, tsize=2.0, dsize=1, name="max-plus"
    )


class TestFunctionKernel:
    def test_diagonal_delegates_to_the_function(self):
        kernel = max_plus_kernel()
        out = kernel.diagonal(np.array([1]), np.array([1]), np.array([2.0]), np.array([5.0]), np.array([0.0]))
        assert out.tolist() == [6.0]

    def test_metadata(self):
        kernel = max_plus_kernel()
        assert kernel.tsize == 2.0 and kernel.dsize == 1 and kernel.name == "max-plus"

    def test_invalid_metadata_rejected(self):
        with pytest.raises(InvalidParameterError):
            FunctionKernel(lambda *a: a, tsize=0)
        with pytest.raises(InvalidParameterError):
            FunctionKernel(lambda *a: a, dsize=-1)

    def test_validate_output_shape(self):
        kernel = max_plus_kernel()
        with pytest.raises(KernelError):
            kernel.validate_output(np.zeros((2, 2)), 4)
        with pytest.raises(KernelError):
            kernel.validate_output(np.zeros(3), 4)

    def test_validate_output_rejects_nan(self):
        kernel = max_plus_kernel()
        with pytest.raises(KernelError):
            kernel.validate_output(np.array([1.0, np.nan]), 2)

    def test_validate_output_passthrough(self):
        kernel = max_plus_kernel()
        out = kernel.validate_output(np.array([1, 2, 3]), 3)
        assert out.dtype == float


class TestWavefrontProblem:
    def test_input_params_from_kernel(self):
        problem = WavefrontProblem(dim=16, kernel=max_plus_kernel())
        params = problem.input_params()
        assert params.dim == 16 and params.tsize == 2.0 and params.dsize == 1

    def test_make_grid_matches_dsize(self):
        problem = WavefrontProblem(dim=8, kernel=max_plus_kernel())
        grid = problem.make_grid()
        assert grid.dim == 8 and grid.dsize == 1

    def test_name_defaults_to_kernel_name(self):
        assert WavefrontProblem(dim=8, kernel=max_plus_kernel()).name == "max-plus"
        assert WavefrontProblem(dim=8, kernel=max_plus_kernel(), name="custom").name == "custom"

    def test_small_dim_rejected(self):
        with pytest.raises(InvalidParameterError):
            WavefrontProblem(dim=1, kernel=max_plus_kernel())

    def test_nbytes_counts_the_kernels_arrays(self):
        from repro.apps.registry import get_application

        problem = get_application("stochastic-path", dim=64).problem(64)
        assert problem.nbytes == 4 * 64 * 64 * 8  # costs, p_west and two logs
        assert WavefrontProblem(dim=8, kernel=max_plus_kernel()).nbytes == 0

    def test_nbytes_counts_lazy_tables_once_built(self):
        from repro.apps.registry import get_application

        problem = get_application("knapsack-ev", dim=64).problem(64)
        before = problem.nbytes
        problem.kernel._tables(64)  # take (bool) + add + m1 (float64)
        assert problem.nbytes == before + 64 * 64 * (1 + 8 + 8)

    def test_nbytes_counts_a_view_as_its_base_once(self):
        kernel = max_plus_kernel()
        base = np.zeros(100)
        kernel.table, kernel.parts = base, (base[:10], [base[10:]])
        assert WavefrontProblem(dim=8, kernel=kernel).nbytes == base.nbytes
