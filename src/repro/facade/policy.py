"""Typed execution policy: every plan override in one declarative object.

:class:`ExecutionPolicy` is the one spelling of a plan override: a frozen,
validated value that :meth:`repro.session.Session.plan` and
:meth:`~repro.session.Session.solve` accept as ``policy=``.  The HTTP layer
lifts the ``backend`` / ``engine`` / ``workers`` / ``tunables`` keys of a
``POST /solve`` body into the same object at decode time, so every request
— in process or over the wire — reaches the session in one shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.params import TunableParams, require_int


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a plan should execute: backend, engine, workers, tunables.

    Every field is optional; ``None`` means "let the tuner decide".  Setting
    ``backend`` (or ``tunables``) makes the resulting plan *manual*: the
    tuner is bypassed and the plan's ``tuner`` field reads ``"manual"``.
    ``backend`` and ``engine`` are names of :mod:`repro.runtime.registry`
    and nothing else: the backend executes the plan, and ``engine`` is the
    engine the hybrid executor fills its grid through.  ``engine`` alone
    keeps the tuner's decision and swaps only the engine that fills the
    grid: the hybrid executor's, or a whole-grid plan's backend.  A name
    the registry does not know is a typed error at plan time.  A tiled
    engine (``"mp-parallel"`` barriers per tile-diagonal, ``"pipelined"``
    drains the dependency graph with no barrier) named without
    ``tunables`` gets a coarse tile
    (:func:`repro.runtime.mp_parallel.default_tile`).
    """

    backend: str | None = None
    engine: str | None = None
    workers: int | None = None
    tunables: TunableParams | None = None

    def __post_init__(self) -> None:
        """Validate the worker count."""
        if self.workers is not None:
            require_int("workers", self.workers, minimum=1)

    def overrides(self) -> dict:
        """The non-``None`` fields as a name -> value dict (cache keys, repr)."""
        fields = {
            "backend": self.backend,
            "engine": self.engine,
            "workers": self.workers,
            "tunables": self.tunables,
        }
        return {name: value for name, value in fields.items() if value is not None}
