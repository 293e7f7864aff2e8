"""Registry of the available execution engines (backends).

Mirrors :mod:`repro.apps.registry` on the executor side: every strategy is
registered under its ``strategy`` name so the CLI, the benchmark driver and
the autotuner can enumerate and construct backends uniformly.

Registration is declarative: an :class:`EngineSpec` names the executor
class, the *capabilities* it offers (``pipelined``, ``compiled``,
``requires_shm``, ``subrange_safe``, ...) and an optional availability
probe — the gate that keeps the vectorized engine out of NumPy-less
environments and the compiled tier silent wherever :mod:`numba` is not
installed, without the rest of the system ever having to care.  The serial
engine preference order (:data:`SERIAL_ENGINES`) is **derived** from the
specs' ``serial_rank``, not hand-maintained, and capability queries go
through :func:`engines_with`, which raises the typed
:class:`~repro.core.exceptions.UnknownExecutorError` on capability typos
instead of leaking a ``KeyError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.exceptions import InvalidParameterError, UnknownExecutorError
from repro.hardware.costmodel import CostConstants
from repro.hardware.system import SystemSpec
from repro.runtime.compiled import CompiledExecutor, numba_available
from repro.runtime.executor_base import Executor
from repro.runtime.hybrid import HybridExecutor
from repro.runtime.mp_parallel import MPParallelExecutor, PipelinedMPExecutor
from repro.runtime.serial import SerialExecutor
from repro.runtime.vectorized import VectorizedSerialExecutor, numpy_available

#: The capability vocabulary an :class:`EngineSpec` may declare.
KNOWN_CAPABILITIES: frozenset[str] = frozenset(
    {
        "serial",  # single-core whole-grid engine (hybrid CPU-phase candidate)
        "multicore",  # scales with worker count
        "gpu",  # drives (simulated) GPU devices
        "pipelined",  # dependency-driven tile dispatch, no wave barrier
        "compiled",  # JIT-compiled kernel tier
        "requires_shm",  # needs POSIX shared memory for its grid
        "subrange_safe",  # can sweep partial diagonal ranges in place
    }
)


@dataclass(frozen=True)
class EngineSpec:
    """Declarative registration record of one executor strategy.

    ``name`` is the registry key (must match ``factory.strategy``),
    ``capabilities`` the subset of :data:`KNOWN_CAPABILITIES` the engine
    offers, ``available`` an optional zero-argument probe consulted by every
    enumeration (``None`` means always available), and ``serial_rank`` the
    engine's position in the derived :data:`SERIAL_ENGINES` preference order
    (``None`` keeps it out of the serial-engine family).
    """

    name: str
    factory: type[Executor]
    capabilities: frozenset[str] = field(default_factory=frozenset)
    available: Callable[[], bool] | None = None
    serial_rank: int | None = None

    def __post_init__(self) -> None:
        """Validate the name and the capability vocabulary."""
        if not self.name or self.name == Executor.strategy:
            raise InvalidParameterError(
                f"executor class {self.factory.__name__} must define a unique "
                "'strategy' name"
            )
        unknown = frozenset(self.capabilities) - KNOWN_CAPABILITIES
        if unknown:
            raise InvalidParameterError(
                f"engine spec {self.name!r} declares unknown capabilities "
                f"{sorted(unknown)}; known: {sorted(KNOWN_CAPABILITIES)}"
            )

    def is_available(self) -> bool:
        """Whether the engine can run in this environment."""
        return True if self.available is None else bool(self.available())


#: Declarative specs by strategy name: the one registry of executors.
ENGINE_SPECS: dict[str, EngineSpec] = {}


def register_executor(spec: EngineSpec) -> EngineSpec:
    """Register an :class:`EngineSpec` under its strategy name; returns it."""
    ENGINE_SPECS[spec.name] = spec
    return spec


def get_executor(
    name: str, system: SystemSpec, constants: CostConstants | None = None, **kwargs
) -> Executor:
    """Construct a registered executor by strategy name."""
    try:
        spec = ENGINE_SPECS[name]
    except KeyError:
        known = ", ".join(sorted(ENGINE_SPECS))
        raise UnknownExecutorError(f"unknown executor {name!r}; known: {known}") from None
    return spec.factory(system, constants, **kwargs)


def available_executors() -> list[str]:
    """Names of the registered executors usable in this environment, sorted.

    Engines whose availability probe answers ``False`` (the compiled tier
    without :mod:`numba`, the vectorized engine without NumPy) are silently
    absent, so enumerating callers — the bench driver, the search space —
    never construct an engine that cannot run.
    """
    return sorted(spec.name for spec in ENGINE_SPECS.values() if spec.is_available())


def engines_with(capability: str) -> list[str]:
    """Names of available engines declaring ``capability``, sorted.

    Unknown capabilities raise the typed
    :class:`~repro.core.exceptions.UnknownExecutorError` (the CLI's usage
    exit path) instead of leaking a ``KeyError`` out of the filter.
    """
    if capability not in KNOWN_CAPABILITIES:
        known = ", ".join(sorted(KNOWN_CAPABILITIES))
        raise UnknownExecutorError(
            f"unknown engine capability {capability!r}; known: {known}"
        )
    return sorted(
        spec.name
        for spec in ENGINE_SPECS.values()
        if capability in spec.capabilities and spec.is_available()
    )


def _derived_serial_engines() -> tuple[str, ...]:
    """The serial engine family in preference order, derived from the specs."""
    ranked = [
        spec for spec in ENGINE_SPECS.values() if spec.serial_rank is not None
    ]
    return tuple(spec.name for spec in sorted(ranked, key=lambda s: s.serial_rank))


def available_serial_engines() -> list[str]:
    """Serial engine names usable in this environment, in preference order."""
    return [
        name
        for name in _derived_serial_engines()
        if ENGINE_SPECS[name].is_available()
    ]


def default_serial_executor(
    system: SystemSpec, constants: CostConstants | None = None
) -> Executor:
    """The preferred single-core executor: vectorized when NumPy is available."""
    return get_executor(available_serial_engines()[0], system, constants)


# ----------------------------------------------------------------------
# The built-in engines
# ----------------------------------------------------------------------
for _spec in (
    EngineSpec(
        name=SerialExecutor.strategy,
        factory=SerialExecutor,
        capabilities=frozenset({"serial", "subrange_safe"}),
        serial_rank=1,
    ),
    EngineSpec(
        name=VectorizedSerialExecutor.strategy,
        factory=VectorizedSerialExecutor,
        capabilities=frozenset({"serial", "subrange_safe"}),
        available=numpy_available,
        serial_rank=0,
    ),
    EngineSpec(
        name=MPParallelExecutor.strategy,
        factory=MPParallelExecutor,
        capabilities=frozenset({"multicore", "requires_shm", "subrange_safe"}),
    ),
    EngineSpec(
        name=PipelinedMPExecutor.strategy,
        factory=PipelinedMPExecutor,
        capabilities=frozenset(
            {"multicore", "requires_shm", "subrange_safe", "pipelined"}
        ),
    ),
    EngineSpec(
        name=CompiledExecutor.strategy,
        factory=CompiledExecutor,
        capabilities=frozenset({"compiled"}),
        available=numba_available,
    ),
    EngineSpec(
        name=HybridExecutor.strategy,
        factory=HybridExecutor,
        capabilities=frozenset({"gpu", "multicore"}),
    ),
):
    register_executor(_spec)

#: The serial (single-core, whole-grid) engine family, in preference order.
#: Derived from the specs' ``serial_rank``.
SERIAL_ENGINES: tuple[str, ...] = _derived_serial_engines()
