"""Tests of the declarative :class:`~repro.runtime.registry.EngineSpec` API.

Specs declare capabilities, every registered engine is available,
registration order is preference order, capability queries raise typed
errors on typos, and
:func:`~repro.runtime.registry.fill_engine` is the one check of a plan's
engine vocabulary.
"""

import dataclasses

import numpy as np
import pytest

from repro import ExecutionPolicy, Session
from repro.apps.registry import available_applications
from repro.core.exceptions import InvalidParameterError, UnknownExecutorError
from repro.core.params import TunableParams
from repro.runtime import (
    EngineSpec,
    available_executors,
    available_serial_engines,
    engines_with,
    fill_engine,
    register_executor,
)
from repro.runtime.registry import ENGINE_SPECS, KNOWN_CAPABILITIES
from repro.runtime.serial import SerialExecutor


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

    def test_available_executors_are_the_registered_names(self):
        assert available_executors() == sorted(ENGINE_SPECS)

    def test_a_spec_is_a_name_a_factory_and_capabilities(self):
        # No availability probe: registered is the one meaning of known.
        assert [f.name for f in dataclasses.fields(EngineSpec)] == [
            "name",
            "factory",
            "capabilities",
        ]


class TestBuiltinSpecs:
    def test_every_builtin_executor_has_a_spec(self):
        for name, spec in ENGINE_SPECS.items():
            assert spec.name == name == spec.factory.strategy
            assert spec.capabilities <= KNOWN_CAPABILITIES

    def test_serial_engines_follow_registration_order(self):
        assert available_serial_engines() == engines_with("serial") == ["vectorized", "serial"]

    def test_only_what_something_queries_is_a_capability(self):
        assert KNOWN_CAPABILITIES == {"serial", "multicore"}

    def test_multicore_capability_query(self):
        assert engines_with("multicore") == ["mp-parallel", "pipelined"]

    def test_unknown_capability_is_a_typed_error(self):
        with pytest.raises(UnknownExecutorError, match="unknown engine capability"):
            engines_with("bogus-capability")
        # Typed errors still satisfy pre-existing KeyError expectations.
        assert issubclass(UnknownExecutorError, KeyError)


class TestFillEngine:
    """One function says which registered engine fills a (backend, engine) grid."""

    @pytest.mark.parametrize("name", sorted(set(available_executors()) - {"hybrid"}))
    def test_every_backend_but_hybrid_fills_its_own_grid(self, name):
        assert fill_engine(name) == name
        assert fill_engine(name, "serial") == name
        assert fill_engine("hybrid", name) == name

    def test_unpinned_hybrid_fills_on_the_preferred_serial_engine(self):
        assert fill_engine("hybrid") == available_serial_engines()[0] == "vectorized"

    @pytest.mark.parametrize(
        "backend,engine",
        [
            ("hybrid", "fpga"),
            ("hybrid", "mp"),
            ("hybrid-mp", None),
            ("hybrid-vectorized", None),
            ("serial", "fpga"),
            ("hybrid", "hybrid"),
            ("compiled", None),
            ("hybrid", "compiled"),
        ],
    )
    def test_unknown_and_retired_names_are_one_typed_error(self, backend, engine):
        with pytest.raises(UnknownExecutorError) as error:
            fill_engine(backend, engine)
        for known in ("serial", "vectorized", "mp-parallel", "pipelined"):
            assert known in str(error.value)

    def test_the_error_names_exactly_the_registered_engines(self):
        # One notion of a known engine: what the error offers is what runs.
        with pytest.raises(UnknownExecutorError) as error:
            fill_engine("compiled")
        assert error.value.args[0].endswith("known: " + ", ".join(available_executors()))


class TestRegisteringAnEngine:
    """Bringing an engine (back) is one registration; the registry does the rest."""

    def test_one_registration_makes_an_engine_known_everywhere(self, monkeypatch):
        from repro.runtime import registry
        from repro.runtime.vectorized import VectorizedSerialExecutor

        class Rebadged(VectorizedSerialExecutor):
            strategy = "rebadged"

        # A copy, so the registration leaves with the test.
        monkeypatch.setattr(registry, "ENGINE_SPECS", dict(ENGINE_SPECS))
        register_executor(
            EngineSpec(name="rebadged", factory=Rebadged, capabilities=frozenset({"serial"}))
        )
        assert available_executors() == sorted([*ENGINE_SPECS, "rebadged"])
        assert available_serial_engines() == ["vectorized", "serial", "rebadged"]
        assert fill_engine("hybrid", "rebadged") == "rebadged"
        with Session(system="i7-2600K") as session:
            reference = session.solve("lcs", 24, policy=ExecutionPolicy(backend="serial"))
            for policy in (
                ExecutionPolicy(backend="rebadged"),
                ExecutionPolicy(backend="hybrid", engine="rebadged"),
            ):
                result = session.solve("lcs", 24, policy=policy)
                assert np.array_equal(reference.grid.values, result.grid.values)
        assert result.stats["engine"] == "rebadged"


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
