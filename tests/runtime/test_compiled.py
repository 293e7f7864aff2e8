"""Tests of the JIT-compiled kernel tier (`compiled`).

The tier is optional: without :mod:`numba` it must be invisible to every
enumerating caller (registry availability, the tuner's backend dimension)
and raise a typed error when constructed and run directly.  With numba the
acceptance property is bit-exact equality with the numpy reference for the
ported kernels (edit-distance, lcs, viterbi) and a silent vectorized
fallback for everything else.  The gating tests run everywhere; the
numerical tests auto-skip without numba.
"""

import numpy as np
import pytest

from repro.apps.registry import available_applications, get_application
from repro.core.exceptions import ExecutionError
from repro.core.params import TunableParams
from repro.runtime import (
    CompiledExecutor,
    SerialExecutor,
    available_executors,
    compiled_fill_for,
    numba_available,
)
from repro.runtime.registry import ENGINE_SPECS


class TestGating:
    """The tier is exactly as available as numba is."""

    def test_registry_availability_tracks_numba(self):
        listed = "compiled" in available_executors()
        assert listed == numba_available()

    def test_spec_probes_numba(self):
        assert ENGINE_SPECS["compiled"].available is numba_available

    def test_fill_lookup_returns_none_without_numba(self, i7_2600k):
        problem = get_application("lcs", dim=8).problem(8)
        fill = compiled_fill_for(problem)
        if numba_available():
            assert fill is not None
        else:
            assert fill is None

    @pytest.mark.skipif(numba_available(), reason="needs a numba-less environment")
    def test_running_without_numba_is_a_typed_error(self, i7_2600k):
        problem = get_application("lcs", dim=8).problem(8)
        with pytest.raises(ExecutionError, match="numba"):
            CompiledExecutor(i7_2600k).execute(problem)

    def test_cost_model_prices_the_compiled_tier(self, i7_2600k):
        from repro.hardware.costmodel import CostModel

        model = CostModel(i7_2600k)
        params = get_application("lcs", dim=256).problem(256).input_params()
        compiled = model.engine_time("compiled", params)
        assert 0 < compiled < model.engine_time("serial", params)


class TestPortLogic:
    """The port arithmetic itself, validated without numba.

    The fill functions handed to ``@njit`` are plain Python; running them
    uncompiled against the serial reference proves the ports bit-exact in
    every environment, so a numba-less CI leg still guards the arithmetic
    and the jitted legs only add the compilation itself.
    """

    @pytest.mark.parametrize("app_name", ("edit-distance", "lcs", "viterbi"))
    @pytest.mark.parametrize("dim", (2, 3, 17, 64))
    def test_uncompiled_fill_matches_serial_bit_for_bit(
        self, app_name, dim, i7_2600k, monkeypatch
    ):
        from repro.runtime import compiled as compiled_mod

        problem = get_application(app_name, dim=dim).problem(dim)
        reference = SerialExecutor(i7_2600k).execute(problem).grid.values
        monkeypatch.setattr(compiled_mod, "_jitted", lambda name, fn: fn)
        fill = compiled_mod._PORTS[type(problem.kernel).__name__](problem)
        grid = problem.make_grid()
        fill(grid.values)
        assert np.array_equal(reference, grid.values)


requires_numba = pytest.mark.skipif(not numba_available(), reason="numba not installed")


@requires_numba
class TestCompiledKernels:
    """Bit-exact equality with the reference for the ported kernels."""

    @pytest.mark.parametrize("app_name", ("edit-distance", "lcs", "viterbi"))
    @pytest.mark.parametrize("dim", (2, 3, 17, 64))
    def test_matches_serial_bit_for_bit(self, app_name, dim, i7_2600k):
        problem = get_application(app_name, dim=dim).problem(dim)
        serial = SerialExecutor(i7_2600k).execute(problem)
        compiled = CompiledExecutor(i7_2600k).execute(problem)
        assert np.array_equal(serial.grid.values, compiled.grid.values)
        assert compiled.stats["compiled_kernel"] is True

    @pytest.mark.parametrize("app_name", available_applications())
    def test_every_app_runs_ported_or_fallback(self, app_name, i7_2600k):
        dim = 16
        problem = get_application(app_name, dim=dim).problem(dim)
        serial = SerialExecutor(i7_2600k).execute(problem)
        compiled = CompiledExecutor(i7_2600k).execute(problem)
        assert np.array_equal(serial.grid.values, compiled.grid.values)
        assert compiled.stats["cells_computed"] == dim * dim

    def test_fill_is_cached_per_problem(self, i7_2600k):
        problem = get_application("viterbi", dim=12).problem(12)
        first = compiled_fill_for(problem)
        second = compiled_fill_for(problem)
        assert first is second
