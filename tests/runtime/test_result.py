"""Tests for the execution result object."""

import numpy as np
import pytest

from repro.core.params import InputParams, TunableParams
from repro.hardware.costmodel import PhaseBreakdown
from repro.runtime.result import ExecutionResult
from repro.apps.synthetic import SyntheticApp
from repro.runtime.serial import SerialExecutor


class TestExecutionResult:
    def make_result(self, with_grid=True):
        params = InputParams(dim=8, tsize=10, dsize=1)
        if with_grid:
            problem = SyntheticApp(dim=8, tsize=10, dsize=1).problem()
            grid = SerialExecutor.__new__(SerialExecutor)  # placeholder, not used
            from repro.runtime.compute import reference_grid

            grid = reference_grid(problem)
        else:
            grid = None
        return ExecutionResult(
            params=params,
            tunables=TunableParams(cpu_tile=2),
            system="test",
            mode="functional" if with_grid else "simulate",
            rtime=1.25,
            breakdown=PhaseBreakdown(pre_s=1.25),
            grid=grid,
        )

    def test_value_and_checksum_require_grid(self):
        result = self.make_result(with_grid=False)
        with pytest.raises(ValueError):
            _ = result.value
        with pytest.raises(ValueError):
            _ = result.checksum

    def test_value_checksum_present_with_grid(self):
        result = self.make_result(with_grid=True)
        assert result.value != 0.0
        assert result.checksum != 0.0

    def test_matches_requires_both_grids(self):
        a = self.make_result(with_grid=True)
        b = self.make_result(with_grid=True)
        c = self.make_result(with_grid=False)
        assert a.matches(b)
        assert not a.matches(c)

    def test_matches_is_bit_identity_one_ulp_breaks_it(self):
        a = self.make_result(with_grid=True)
        b = self.make_result(with_grid=True)
        cell = b.grid.values[1, 2]
        b.grid.values[1, 2] = np.nextafter(cell, np.inf)
        assert not a.matches(b) and not b.matches(a)

    def test_matches_compares_witnesses_exactly(self):
        a = self.make_result(with_grid=True)
        b = self.make_result(with_grid=True)
        a.witness = np.array([0, 1, 2], dtype=np.int64)
        assert not a.matches(b) and not b.matches(a)
        b.witness = np.array([0, 1, 3], dtype=np.int64)
        assert not a.matches(b)
        b.witness = a.witness.copy()
        assert a.matches(b)
