"""Micro-benchmarks of the functional executors.

Not a paper figure: these measure the reproduction's own machinery (serial
sweep, simulated GPU band with halo exchange) and simulate mode's pricing
on a small grid so regressions in their overheads are visible over time.
"""

import pytest

from repro.apps.synthetic import SyntheticApp
from repro.core.params import TunableParams
from repro.facade.policy import ExecutionPolicy
from repro.runtime.hybrid import HybridExecutor
from repro.runtime.serial import SerialExecutor
from repro.session import Session


@pytest.fixture(scope="module")
def small_problem():
    return SyntheticApp(dim=48, tsize=100, dsize=1).problem()


def test_serial_functional_sweep(systems, small_problem):
    executor = SerialExecutor(systems[1])
    result = executor.execute(small_problem)
    assert result.grid is not None


def test_hybrid_dual_gpu_functional_sweep(systems, small_problem):
    executor = HybridExecutor(systems[1])
    config = TunableParams.from_encoding(4, 20, 3, 1)
    result = executor.execute(small_problem, config)
    assert result.grid is not None


def test_simulate_mode_prediction(systems):
    policy = ExecutionPolicy(backend="hybrid", tunables=TunableParams.from_encoding(4, 20, 3, 1))
    with Session(system=systems[1]) as session:
        plan = session.plan("synthetic", 48, policy=policy, tsize=100, dsize=1)
        result = session.run(plan, "simulate")
    assert result.grid is None and result.rtime > 0
