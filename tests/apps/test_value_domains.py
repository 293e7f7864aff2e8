"""Constructor values an app's sweep cannot answer are refused up front.

``stochastic-path`` bounds the heaviest path's charge so every value stays
finite, and ``matrix-chain`` bounds ``max_dim_size`` so every value its
float64 sweep forms stays an exact integer.  Both bounds are seed-free and
checked before any array is built; the answer at the edge is checked
against an oracle that shares no code with the kernels.
"""

import numpy as np
import pytest

from repro.apps.matrixchain import max_exact_dim_size
from repro.apps.registry import get_application
from repro.apps.stochastic_path import MAX_PATH_CHARGE
from repro.core.exceptions import InvalidParameterError
from repro.facade.policy import ExecutionPolicy
from repro.session import Session


def largest_cost_scale(dim):
    return MAX_PATH_CHARGE / (2 * dim - 1)


class TestStochasticPathCharge:
    @pytest.mark.parametrize("dim", [2, 16, 40])
    def test_the_largest_admitted_scale_is_finite_for_every_seed(self, dim):
        with Session() as session:
            for seed in range(4):
                result = session.solve(
                    "stochastic-path", dim, seed=seed, cost_scale=largest_cost_scale(dim),
                    policy=ExecutionPolicy(backend="vectorized"),
                )
                assert np.all(np.isfinite(result.grid.values))

    @pytest.mark.parametrize("scale", [1e308, float("inf"), float("nan")])
    def test_past_the_bound_is_refused_naming_it(self, scale):
        with pytest.raises(InvalidParameterError, match=r"2\*\*1023.*cost_scale <= 2\.8995"):
            get_application("stochastic-path", dim=16, cost_scale=scale)

    def test_just_past_the_bound_is_refused(self):
        scale = np.nextafter(largest_cost_scale(16), np.inf)
        with pytest.raises(InvalidParameterError, match="cost_scale"):
            get_application("stochastic-path", dim=16, cost_scale=scale)

    def test_a_larger_problem_than_the_constructor_named_is_checked_too(self):
        app = get_application("stochastic-path", dim=16, cost_scale=largest_cost_scale(16))
        with pytest.raises(InvalidParameterError, match="at dim=17"):
            app.problem(17)


def exact_edge_split(dims):
    """The edge-split DP in Python integers: ``m[s][e]``, 0 where ``e <= s``."""
    p = [int(x) for x in dims]
    n = len(p) - 1
    m = [[0] * n for _ in range(n)]
    for length in range(2, n + 1):
        for s in range(n - length + 1):
            e = s + length - 1
            m[s][e] = min(m[s][e - 1] + p[s] * p[e] * p[e + 1], m[s + 1][e] + p[s] * p[s + 1] * p[e + 1])
    return m


class TestMatrixChainExactness:
    def test_the_bound_is_the_largest_size_whose_values_stay_below_2_53(self):
        bound = max_exact_dim_size(48)
        assert 47 * bound**3 < 2**53 <= 47 * (bound + 1) ** 3
        assert bound == 57654

    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_the_largest_admitted_size_equals_an_integer_dp(self, backend):
        dim, size = 48, max_exact_dim_size(48)
        with Session() as session:
            for seed in range(3):
                app = get_application("matrix-chain", dim=dim, seed=seed, max_dim_size=size)
                m = exact_edge_split(app.make_kernel().dims)
                grid = session.solve(
                    "matrix-chain", dim, seed=seed, max_dim_size=size,
                    policy=ExecutionPolicy(backend=backend),
                ).grid.values
                exact = [[m[dim - 1 - i][j] if j > dim - 1 - i else 0 for j in range(dim)] for i in range(dim)]
                assert grid.tolist() == exact  # every cell, float == int exactly
                assert max(map(max, exact)) < 2**53

    @pytest.mark.parametrize("size", [57655, 2**21, 2**40])
    def test_past_the_bound_is_refused_naming_it(self, size):
        with pytest.raises(InvalidParameterError, match=r"2\*\*53.*max_dim_size <= 57654"):
            get_application("matrix-chain", dim=48, max_dim_size=size)

    @pytest.mark.parametrize("size", [2.5, 64.0, True, "64", None])
    def test_a_size_that_is_not_an_integer_is_refused(self, size):
        with pytest.raises(InvalidParameterError, match="max_dim_size must be an integer"):
            get_application("matrix-chain", dim=48, max_dim_size=size)
