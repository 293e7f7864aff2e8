"""Micro-benchmarks of the functional executors.

Not a paper figure: these measure the reproduction's own machinery (serial
sweep, simulated GPU band with halo exchange) on a small
grid so regressions in the executors' overheads are visible over time.
"""

import pytest

from repro.apps.synthetic import SyntheticApp
from repro.core.params import TunableParams
from repro.runtime.hybrid import HybridExecutor
from repro.runtime.serial import SerialExecutor


@pytest.fixture(scope="module")
def small_problem():
    return SyntheticApp(dim=48, tsize=100, dsize=1).problem()


def test_serial_functional_sweep(benchmark, systems, small_problem):
    executor = SerialExecutor(systems[1])
    result = benchmark(executor.execute, small_problem)
    assert result.grid is not None


def test_hybrid_dual_gpu_functional_sweep(benchmark, systems, small_problem):
    executor = HybridExecutor(systems[1])
    config = TunableParams.from_encoding(4, 20, 3, 1)
    result = benchmark(executor.execute, small_problem, config)
    assert result.grid is not None


def test_simulate_mode_prediction(benchmark, systems, small_problem):
    executor = HybridExecutor(systems[1])
    config = TunableParams.from_encoding(4, 20, 3, 1)
    result = benchmark(executor.execute, small_problem, config, "simulate")
    assert result.grid is None and result.rtime > 0
