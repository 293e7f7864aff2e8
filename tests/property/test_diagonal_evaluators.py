"""Exactness of the rewritten diagonal evaluators beyond registry defaults.

The registry batteries sweep each app at its default parameters.  The
``nash-equilibrium`` and ``stochastic-path`` evaluators rest on IEEE-754
arguments (a power-of-two scaling of the Nash payoff, a sign-flipped gap in
the stochastic log-sum) that must hold for every parameter the kernel
accepts, so this module compares each evaluator with the unchanged serial
``kernel.diagonal`` — the oracle — on drawn neighbour rows and on random
``(d, i_min, i_max)`` segments, the shapes a tile hands it.  Whole grids of
a non-default Nash kernel are then compared across engines, and an
overflowing stochastic-path instance must fail as it always has.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.nash import NashKernel
from repro.apps.registry import get_application
from repro.apps.stochastic_path import StochasticPathKernel
from repro.core.exceptions import InvalidParameterError, KernelError
from repro.core.params import TunableParams
from repro.core.pattern import WavefrontProblem
from repro.facade.policy import ExecutionPolicy
from repro.runtime.compute import reference_grid
from repro.session import Session

dims = st.integers(min_value=2, max_value=48)
dampings = st.one_of(
    st.sampled_from([1 / 8, 0.3, 0.5, 0.7, 1.0]),
    st.floats(min_value=1e-3, max_value=1.0),
)


@st.composite
def segments(draw):
    """``(dim, d, i_min, i_max)``: a run of rows of one anti-diagonal."""
    dim = draw(dims)
    d = draw(st.integers(min_value=0, max_value=2 * dim - 2))
    lo, hi = max(0, d - dim + 1), min(d, dim - 1)
    i_min = draw(st.integers(min_value=lo, max_value=hi))
    i_max = draw(st.integers(min_value=i_min, max_value=hi))
    return dim, d, i_min, i_max


def rows(draw, elements, m):
    return [np.array(draw(st.lists(elements, min_size=m, max_size=m))) for _ in range(3)]


def evaluate(kernel, dim, d, i_min, i_max, west, north, northwest):
    """The fused evaluator's output next to ``kernel.diagonal``'s."""
    evaluator = kernel.make_diagonal_evaluator(dim, 0.0)
    assert evaluator is not None
    i = np.arange(i_min, i_max + 1, dtype=np.int64)
    expected = np.asarray(kernel.diagonal(i, d - i, west, north, northwest), dtype=float)
    start = i_min * dim + d - i_min
    seg = slice(start, start + (i_max - i_min) * (dim - 1) + 1, dim - 1)
    out = np.full(i_max - i_min + 1, np.nan)
    evaluator(d, i_min, i_max, west, north, northwest, out, seg)
    return out, expected


@settings(max_examples=300, deadline=None)
@given(
    segment=segments(),
    iterations=st.integers(min_value=1, max_value=12),
    damping=dampings,
    data=st.data(),
)
def test_nash_evaluator_equals_diagonal_bit_for_bit(segment, iterations, damping, data):
    dim, d, i_min, i_max = segment
    # Grid values are >= 0 and O(1); the evaluator's domain excludes
    # subnormal intermediates, so a drawn neighbour is 0 or not tiny.
    value = st.one_of(st.just(0.0), st.floats(min_value=1e-100, max_value=2.0))
    west, north, northwest = rows(data.draw, value, i_max - i_min + 1)
    kernel = NashKernel(inner_iterations=iterations, damping=damping)
    out, expected = evaluate(kernel, dim, d, i_min, i_max, west, north, northwest)
    assert out.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    segment=segments(),
    shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    tie=st.booleans(),
    data=st.data(),
)
def test_stochastic_path_evaluator_equals_diagonal_bit_for_bit(segment, shape, tie, data):
    dim, d, i_min, i_max = segment
    size = shape[0] * shape[1]
    costs = data.draw(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=size, max_size=size))
    p_west = data.draw(
        st.lists(
            st.one_of(st.just(0.5), st.floats(min_value=1e-3, max_value=1 - 1e-3)),
            min_size=size,
            max_size=size,
        )
    )
    kernel = StochasticPathKernel(np.reshape(costs, shape), np.reshape(p_west, shape))
    west, north, northwest = rows(
        data.draw, st.floats(min_value=-1e6, max_value=1e6), i_max - i_min + 1
    )
    if tie:  # equal masses where p_west == 0.5: the +0.0 / -0.0 gap
        north = west.copy()
    out, expected = evaluate(kernel, dim, d, i_min, i_max, west, north, northwest)
    assert out.tobytes() == expected.tobytes()


def test_a_tie_takes_the_zero_gap_path():
    """Not vacuous: equal masses reach ``exp(+0.0)`` and match ``exp(-0.0)``."""
    kernel = StochasticPathKernel(np.full((1, 1), 0.25), np.full((1, 1), 0.5))
    west = np.array([-3.0, -1.5, -2.0])
    out, expected = evaluate(kernel, 8, 5, 2, 4, west, west.copy(), west.copy())
    assert out.tobytes() == expected.tobytes()
    assert np.allclose(out, west + np.log(0.5) + np.log(2.0) - 0.25)


def test_an_overflowing_instance_fails_on_the_same_diagonal():
    """Costs scaled by ``1e308`` overflow the final subtract on diagonal 3.

    The app refuses ``cost_scale=1e308`` before building an array (its
    domain), so the instance is built from the kernel directly: the same
    costs the app drew at ``cost_scale=1``, times ``1e308``.  The cells
    after the overflow whose two predecessors are both ``-inf`` turn NaN
    with an ``invalid value`` warning (``logsumexp_pair`` masks that gap);
    the first non-finite diagonal, which the error names, is unchanged.
    """
    drawn = get_application("stochastic-path", dim=16).make_kernel()
    problem = WavefrontProblem(
        dim=16, kernel=StochasticPathKernel(drawn.costs * 1e308, drawn.p_west)
    )
    with pytest.raises(InvalidParameterError, match=r"2\*\*1023"):
        get_application("stochastic-path", dim=16, cost_scale=1e308)
    with Session() as session, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(KernelError, match=r"non-finite values on diagonal 3 of tile \(0, 0\)"):
            session.solve(problem, policy=ExecutionPolicy(backend="vectorized"))
    messages = {(w.category, str(w.message)) for w in caught}
    assert (RuntimeWarning, "overflow encountered in subtract") in messages
    assert messages <= {
        (RuntimeWarning, "overflow encountered in subtract"),
        (RuntimeWarning, "invalid value encountered in subtract"),
    }


@pytest.mark.parametrize("damping", [1 / 8, 0.3, 1.0])
def test_non_default_nash_grids_agree_on_every_engine(damping, i7_2600k):
    problem = WavefrontProblem(dim=40, kernel=NashKernel(inner_iterations=5, damping=damping))
    expected = reference_grid(problem).values
    policies = [
        ExecutionPolicy(backend="serial"),
        ExecutionPolicy(backend="vectorized"),
        ExecutionPolicy(backend="pipelined", workers=2, tunables=TunableParams(cpu_tile=8)),
    ]
    with Session(system=i7_2600k) as session:
        for policy in policies:
            result = session.solve(problem, policy=policy)
            assert result.grid.values.tobytes() == expected.tobytes(), policy


def test_nash_declines_where_the_inner_loop_could_leave_the_normal_range():
    """Past the bound the sweep calls ``diagonal()``, so grids still agree.

    At 1538 iterations cell (7, 10), where the static payoff is 0, decays to
    about 6e-315: the unguarded evaluator rounded that cell differently.
    """
    assert NashKernel(1300, 0.5).make_diagonal_evaluator(16, 0.0) is not None
    assert NashKernel(1538, 0.5).make_diagonal_evaluator(16, 0.0) is None
    assert NashKernel(400, 1.0).make_diagonal_evaluator(16, 0.0) is None
    assert NashKernel(8, 0.5).make_diagonal_evaluator(16, 0.5) is None
    problem = WavefrontProblem(dim=11, kernel=NashKernel(1538, 0.5))
    expected = reference_grid(problem).values
    assert 0.0 < expected[7, 10] < np.finfo(float).tiny
    with Session() as session:
        result = session.solve(problem, policy=ExecutionPolicy(backend="vectorized"))
    assert result.grid.values.tobytes() == expected.tobytes()
