"""The resolved execution plan the session's plan/execute split exchanges.

A :class:`ResolvedPlan` is everything needed to execute one application
instance, with every tuning decision already made: the application (by
registry name plus constructor overrides), the instance parameters, the
tunables, the backend/engine/worker selection and the strategy that produced
it.  Plans are

* **inspectable** — plain frozen dataclass fields plus :meth:`describe`;
* **JSON-serialisable** — :meth:`to_dict` / :meth:`from_dict` round-trip
  through the format-versioned layout :func:`save_plan` / :func:`load_plan`
  persist;
* **replayable** — :meth:`repro.session.Session.run` accepts a plan from
  any session (or a file written days earlier) as long as the application
  name is registered and the backend fits the session's system.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.exceptions import ArtifactError
from repro.core.params import InputParams, TunableParams
from repro.core.pattern import WavefrontProblem
from repro.utils.serialization import load_json, save_json

#: Format marker written into every persisted plan (bumped on layout changes).
PLAN_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ResolvedPlan:
    """One fully-resolved, executable tuning decision for one instance.

    ``backend`` and ``engine`` are names of :mod:`repro.runtime.registry`:
    the backend executes the plan and ``engine`` (when set) is the engine
    the hybrid executor fills its grid through — there is no other spelling,
    and a name the registry does not know fails
    :meth:`repro.session.Session.plan` / :meth:`~repro.session.Session.run`
    with a typed error.  ``tuner`` records the strategy kind that produced the
    plan (``"learned"``, ``"measured"``, ``"exhaustive"``, ``"manual"``) and
    ``expected_s`` its runtime estimate, ``None`` when the strategy cannot
    estimate.  ``app_kwargs`` are the constructor overrides needed to
    rebuild the application from the registry (sorted name/value pairs, so
    plans hash and compare structurally).
    """

    app: str
    dim: int
    params: InputParams
    tunables: TunableParams
    backend: str
    system: str
    engine: str | None = None
    workers: int = 1
    tuner: str = "manual"
    expected_s: float | None = None
    app_kwargs: tuple[tuple[str, object], ...] = ()
    #: The concrete problem the plan was resolved from, when the session had
    #: one in hand (always, for plans it resolved itself).  Excluded from
    #: equality and from the serialised layout: a plan loaded from JSON
    #: carries ``None`` here and is re-anchored through the application
    #: registry at :meth:`repro.session.Session.run` time.
    problem: WavefrontProblem | None = field(default=None, compare=False, repr=False)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def app_options(self) -> dict:
        """The application constructor overrides as a dictionary."""
        return dict(self.app_kwargs)

    def describe(self) -> str:
        """Human-readable one-line description of the whole plan."""
        engine_txt = f", engine={self.engine}" if self.engine else ""
        workers_txt = f", workers={self.workers}" if self.workers > 1 else ""
        expected_txt = (
            f"  ~{self.expected_s * 1e3:.2f} ms expected"
            if self.expected_s is not None
            else ""
        )
        return (
            f"{self.app}[dim={self.dim}] -> {self.backend}"
            f"({self.tunables.describe()}{engine_txt}{workers_txt}) "
            f"on {self.system} via {self.tuner}{expected_txt}"
        )

    def with_(self, **kwargs) -> "ResolvedPlan":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable representation (see :data:`PLAN_FORMAT_VERSION`)."""
        return {
            "format_version": PLAN_FORMAT_VERSION,
            "app": self.app,
            "dim": self.dim,
            "params": {
                "dim": self.params.dim,
                "tsize": self.params.tsize,
                "dsize": self.params.dsize,
            },
            "tunables": {
                k: int(v) for k, v in self.tunables.features().items()
            },
            "backend": self.backend,
            "engine": self.engine,
            "workers": self.workers,
            "system": self.system,
            "tuner": self.tuner,
            "expected_s": self.expected_s,
            "app_kwargs": dict(self.app_kwargs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResolvedPlan":
        """Rebuild a plan serialised by :meth:`to_dict`.

        Raises :class:`repro.core.exceptions.ArtifactError` on a stale
        ``format_version`` or a payload that is not a plan.  Plans written
        while the tile dispatch order was a separate field may carry a
        ``"dispatch"`` key: ``"barrier"`` was the default and is ignored,
        ``"pipelined"`` is only accepted on the ``pipelined`` backend (which
        is how that request is spelled now).
        """
        if not isinstance(data, dict) or "backend" not in data or "app" not in data:
            raise ArtifactError("payload does not contain a resolved plan")
        version = data.get("format_version")
        if version != PLAN_FORMAT_VERSION:
            raise ArtifactError(
                f"unsupported plan format version {version!r} "
                f"(expected {PLAN_FORMAT_VERSION})"
            )
        if data.get("dispatch") == "pipelined" and data["backend"] != "pipelined":
            raise ArtifactError(
                f"plan asks for pipelined dispatch on backend {data['backend']!r}; "
                "re-plan with backend='pipelined'"
            )
        p = data["params"]
        t = data["tunables"]
        return cls(
            app=str(data["app"]),
            dim=int(data["dim"]),
            params=InputParams(
                dim=int(p["dim"]), tsize=float(p["tsize"]), dsize=int(p["dsize"])
            ),
            tunables=TunableParams(
                cpu_tile=int(t["cpu_tile"]),
                band=int(t["band"]),
                gpu_count=int(t["gpu_count"]),
                gpu_tile=int(t["gpu_tile"]),
                halo=int(t["halo"]),
            ),
            backend=str(data["backend"]),
            engine=data.get("engine"),
            workers=int(data.get("workers", 1)),
            system=str(data["system"]),
            tuner=str(data.get("tuner", "manual")),
            expected_s=(
                float(data["expected_s"]) if data.get("expected_s") is not None else None
            ),
            app_kwargs=tuple(sorted(dict(data.get("app_kwargs", {})).items())),
        )


def save_plan(plan: ResolvedPlan, path: str | Path) -> Path:
    """Serialise a resolved plan to ``path`` (JSON)."""
    return save_json(plan.to_dict(), path)


def load_plan(path: str | Path) -> ResolvedPlan:
    """Restore a plan saved by :func:`save_plan`.

    Raises :class:`repro.core.exceptions.ArtifactError` when the file does
    not hold a plan or carries a stale ``format_version``.
    """
    try:
        payload = load_json(path)
    except FileNotFoundError as exc:
        raise ArtifactError(f"plan file not found: {exc.filename}") from None
    return ResolvedPlan.from_dict(payload)
