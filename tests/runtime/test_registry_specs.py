"""Tests of the declarative :class:`~repro.runtime.registry.EngineSpec` API.

Specs declare capabilities and availability probes, the serial-engine
preference order is derived from the specs, and capability queries raise
typed errors on typos.
"""

import numpy as np
import pytest

from repro import ExecutionPolicy, Session
from repro.apps.registry import available_applications
from repro.core.exceptions import InvalidParameterError, UnknownExecutorError
from repro.core.params import TunableParams
from repro.runtime import EngineSpec, available_executors, engines_with
from repro.runtime.registry import (
    ENGINE_SPECS,
    KNOWN_CAPABILITIES,
    SERIAL_ENGINES,
    _derived_serial_engines,
)
from repro.runtime.serial import SerialExecutor
from repro.runtime.vectorized import numpy_available


class TestSpecValidation:
    def test_unknown_capability_rejected_at_registration(self):
        with pytest.raises(InvalidParameterError, match="unknown capabilities"):
            EngineSpec(
                name="bad-spec",
                factory=SerialExecutor,
                capabilities=frozenset({"telepathic"}),
            )

    def test_empty_name_rejected(self):
        class Nameless(SerialExecutor):
            strategy = ""

        with pytest.raises(InvalidParameterError, match="strategy"):
            EngineSpec(name="", factory=Nameless)

    def test_availability_defaults_to_true(self):
        spec = EngineSpec(name="probe-free", factory=SerialExecutor)
        assert spec.is_available()


class TestBuiltinSpecs:
    def test_every_builtin_executor_has_a_spec(self):
        for name, spec in ENGINE_SPECS.items():
            assert spec.name == name == spec.factory.strategy
            assert spec.capabilities <= KNOWN_CAPABILITIES

    def test_serial_engines_derived_from_ranks(self):
        assert SERIAL_ENGINES == _derived_serial_engines()
        assert [ENGINE_SPECS[n].serial_rank for n in SERIAL_ENGINES] == sorted(
            ENGINE_SPECS[n].serial_rank for n in SERIAL_ENGINES
        )
        if numpy_available():
            assert SERIAL_ENGINES[0] == "vectorized"

    def test_pipelined_engine_registered_with_capability(self):
        assert "pipelined" in ENGINE_SPECS
        assert "pipelined" in ENGINE_SPECS["pipelined"].capabilities
        assert "pipelined" in available_executors()

    def test_multicore_capability_query(self):
        multicore = engines_with("multicore")
        assert "mp-parallel" in multicore
        assert "pipelined" in multicore
        assert "serial" not in multicore

    def test_unknown_capability_is_a_typed_error(self):
        with pytest.raises(UnknownExecutorError, match="unknown engine capability"):
            engines_with("bogus-capability")
        # Typed errors still satisfy pre-existing KeyError expectations.
        assert issubclass(UnknownExecutorError, KeyError)


class TestEveryEngineMatchesSerial:
    """Generated from the registry: a new engine cannot forget to be compared."""

    DIM = 24

    @pytest.fixture(scope="class")
    def session(self):
        with Session(system="i7-2600K") as session:
            yield session

    # Engine varies fastest, so both pool backends borrow one pool per app.
    @pytest.mark.parametrize("engine", available_executors())
    @pytest.mark.parametrize("app", available_applications())
    def test_grid_and_witness_equal_the_serial_reference(self, session, engine, app):
        # A real band on two devices for the GPU strategy, several tiles on
        # two workers for the pools; the whole-grid engines ignore both.
        policy = ExecutionPolicy(
            backend=engine,
            workers=2,
            tunables=TunableParams.from_encoding(cpu_tile=8, band=6, halo=1, gpu_tile=1),
        )
        result = session.solve(app, self.DIM, policy=policy)
        serial = session.solve(app, self.DIM, policy=ExecutionPolicy(backend="serial"))
        assert result.stats["strategy"] == engine
        assert np.array_equal(serial.grid.values, result.grid.values)
        assert serial.matches(result)
