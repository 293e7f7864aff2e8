"""Registry of the execution engines: the one list of what can fill a grid.

Mirrors :mod:`repro.apps.registry` on the executor side: every strategy is
registered under its ``strategy`` name so the CLI, the benchmark driver,
the session and the hybrid executor enumerate and construct engines
uniformly.  An *engine* anywhere in the package — a plan's ``backend``, a
plan's ``engine``, ``HybridExecutor(engine=...)``, a profiled backend — is
a name registered here; there is no other spelling.

Registration is declarative: an :class:`EngineSpec` names the executor
class and the *capabilities* it offers.  Registration order is preference
order: the first ``serial`` engine is the one an unpinned hybrid plan fills with
(:func:`fill_engine`).  Capability queries go through :func:`engines_with`,
which raises the typed :class:`~repro.core.exceptions.UnknownExecutorError`
on capability typos instead of leaking a ``KeyError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.exceptions import InvalidParameterError, UnknownExecutorError
from repro.hardware.costmodel import CostConstants
from repro.hardware.system import SystemSpec
from repro.runtime.executor_base import Executor
from repro.runtime.hybrid import HybridExecutor
from repro.runtime.mp_parallel import MPParallelExecutor, PipelinedMPExecutor
from repro.runtime.serial import SerialExecutor
from repro.runtime.vectorized import VectorizedSerialExecutor

#: The capability vocabulary an :class:`EngineSpec` may declare.
KNOWN_CAPABILITIES: frozenset[str] = frozenset(
    {
        "serial",  # single-core whole-grid engine: ignores the tile and the worker count
        "multicore",  # tiled engine on a shared-memory worker team: takes workers, wants a coarse tile
    }
)


@dataclass(frozen=True)
class EngineSpec:
    """Declarative registration record of one executor strategy.

    ``name`` is the registry key (must match ``factory.strategy``) and
    ``capabilities`` the subset of :data:`KNOWN_CAPABILITIES` the engine
    offers.
    """

    name: str
    factory: type[Executor]
    capabilities: frozenset[str] = field(default_factory=frozenset)

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


#: Declarative specs by strategy name, in preference order: the one registry
#: of executors.
ENGINE_SPECS: dict[str, EngineSpec] = {}


def register_executor(spec: EngineSpec) -> EngineSpec:
    """Register an :class:`EngineSpec` under its strategy name; returns it."""
    ENGINE_SPECS[spec.name] = spec
    return spec


def _spec(name: str) -> EngineSpec:
    """The spec registered as ``name``, or the typed error naming what is."""
    try:
        return ENGINE_SPECS[name]
    except KeyError:
        known = ", ".join(sorted(ENGINE_SPECS))
        raise UnknownExecutorError(f"unknown executor {name!r}; known: {known}") from None


def get_executor(
    name: str, system: SystemSpec, constants: CostConstants | None = None, **kwargs
) -> Executor:
    """Construct a registered executor by strategy name."""
    return _spec(name).factory(system, constants, **kwargs)


def available_executors() -> list[str]:
    """Names of the registered executors, sorted."""
    return sorted(ENGINE_SPECS)


def engines_with(capability: str) -> list[str]:
    """Names of the engines declaring ``capability``, best first.

    Unknown capabilities raise the typed
    :class:`~repro.core.exceptions.UnknownExecutorError` (the CLI's usage
    exit path) instead of leaking a ``KeyError`` out of the filter.
    """
    if capability not in KNOWN_CAPABILITIES:
        known = ", ".join(sorted(KNOWN_CAPABILITIES))
        raise UnknownExecutorError(
            f"unknown engine capability {capability!r}; known: {known}"
        )
    return [spec.name for spec in ENGINE_SPECS.values() if capability in spec.capabilities]


def available_serial_engines() -> list[str]:
    """Serial engine names, in preference order."""
    return engines_with("serial")


def fill_engine(backend: str, engine: str | None = None) -> str:
    """Name of the engine that fills the grid of one ``(backend, engine)`` choice.

    Every backend fills its own grid except the hybrid executor, which
    delegates to ``engine`` — any registered strategy but itself, the
    preferred serial engine when unset.  This is where a plan's engine
    vocabulary is checked: a name that is not registered (``"fpga"``, or a
    retired alias of the hybrid executor's engines) and a hybrid executor
    asked to fill through itself raise
    :class:`~repro.core.exceptions.UnknownExecutorError` naming the known
    engines, before anything is constructed.
    """
    _spec(backend)
    if engine is not None:
        _spec(engine)
    if backend != HybridExecutor.strategy:
        return backend
    if engine is None:
        return available_serial_engines()[0]
    if engine == backend:
        known = ", ".join(sorted(set(ENGINE_SPECS) - {backend}))
        raise UnknownExecutorError(
            f"the {backend!r} executor cannot fill its grid through itself; "
            f"known engines: {known}"
        )
    return engine


# ----------------------------------------------------------------------
# The built-in engines, in preference order
# ----------------------------------------------------------------------
for _builtin in (
    EngineSpec(
        name=VectorizedSerialExecutor.strategy,
        factory=VectorizedSerialExecutor,
        capabilities=frozenset({"serial"}),
    ),
    EngineSpec(
        name=SerialExecutor.strategy,
        factory=SerialExecutor,
        capabilities=frozenset({"serial"}),
    ),
    EngineSpec(
        name=MPParallelExecutor.strategy,
        factory=MPParallelExecutor,
        capabilities=frozenset({"multicore"}),
    ),
    EngineSpec(
        name=PipelinedMPExecutor.strategy,
        factory=PipelinedMPExecutor,
        capabilities=frozenset({"multicore"}),
    ),
    EngineSpec(name=HybridExecutor.strategy, factory=HybridExecutor),
):
    register_executor(_builtin)
