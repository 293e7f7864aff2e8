"""Measured-profile autotuning of the live runtime backends.

The paper trains its tuner "in the factory" on *measured* runs and ships the
fitted models with the library.  The rest of this reproduction stands the
2014 testbed in with an analytic cost model; this module closes the loop for
the machine actually running the code:

1. **Profile** — :func:`profile_host` introspects the local host
   (:func:`repro.hardware.system.detect_local_system`), runs timed
   functional sweeps of the registered whole-grid engines (``serial``,
   ``vectorized``) over an instance grid, and collects the wall-clocks into
   a :class:`MeasuredProfile`, persisted via :func:`save_profile` (JSON,
   format-versioned).
2. **Tune** — :meth:`MeasuredTuner.resolve` answers deployment queries
   through the :class:`~repro.autotuner.protocol.Tuner` protocol: the
   fastest measured engine at the nearest profiled instance, with that
   record's wall as ``expected_s``.  The tuner holds nothing but the
   profile and keeps no plan cache of its own: the session's plan cache
   answers repeats.

The tiled engines (``mp-parallel``, ``pipelined``) are not profiled and
never planned: on the hosts this runs on their tile and worker count never
beat the whole-grid sweep, so they stay reachable only through a pinned
:class:`~repro.facade.policy.ExecutionPolicy`.

The CLI exposes the pipeline as ``repro profile`` (step 1, plus the
predicted-vs-measured report of :mod:`repro.analysis.measured`) and
``repro tune --system local`` (step 2).
"""

from __future__ import annotations

import math
import platform as _platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.exceptions import ArtifactError, SearchError, UsageError
from repro.core.params import InputParams, TunableParams
from repro.apps.registry import available_applications, get_application
from repro.autotuner.protocol import PlanDecision, Tuner
from repro.hardware.calibration import constants_from_measurements
from repro.hardware.costmodel import CostConstants
from repro.hardware.system import SystemSpec, detect_local_system
from repro.runtime.registry import engines_with, get_executor
from repro.utils.serialization import load_json, save_json

#: Format marker written into every profile file (bumped on layout changes;
#: 2: ``backend`` is a registry engine name, no ``hybrid-<engine>`` rows;
#: 3: whole-grid engines only, records carry no ``workers`` / ``cpu_tile``).
PROFILE_FORMAT_VERSION = 3

#: Backends the profiler times and the tuner plans: every registered
#: whole-grid engine, best first (no tile, one worker).
PROFILED_BACKENDS = tuple(engines_with("serial"))

#: The backend every profile must contain: it is the speedup reference of
#: each instance.
REFERENCE_BACKEND = "serial"


# ----------------------------------------------------------------------
# Profile data model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MeasuredRecord:
    """One timed (application, instance, backend) point."""

    app: str
    backend: str
    params: InputParams
    wall_s: float
    repeats: int = 1

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "app": self.app,
            "backend": self.backend,
            "dim": self.params.dim,
            "tsize": self.params.tsize,
            "dsize": self.params.dsize,
            "wall_s": self.wall_s,
            "repeats": self.repeats,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MeasuredRecord":
        """Rebuild a record serialised by :meth:`to_dict`."""
        return cls(
            app=str(data["app"]),
            backend=str(data["backend"]),
            params=InputParams(
                dim=int(data["dim"]), tsize=float(data["tsize"]), dsize=int(data["dsize"])
            ),
            wall_s=float(data["wall_s"]),
            repeats=int(data.get("repeats", 1)),
        )


@dataclass
class MeasuredProfile:
    """All measured records of one profiling run on one host."""

    system: str
    host: dict = field(default_factory=dict)
    records: list[MeasuredRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def add(self, record: MeasuredRecord) -> None:
        """Append one measured record."""
        self.records.append(record)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def instances(self) -> list[InputParams]:
        """Distinct profiled instances, in measurement order."""
        seen: dict[InputParams, None] = {}
        for record in self.records:
            seen.setdefault(record.params, None)
        return list(seen)

    def apps(self) -> list[str]:
        """Distinct application names, in measurement order."""
        seen: dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.app, None)
        return list(seen)

    def records_for(
        self,
        params: InputParams | None = None,
        backend: str | None = None,
        app: str | None = None,
    ) -> list[MeasuredRecord]:
        """Records filtered by instance, backend and/or application."""
        return [
            r
            for r in self.records
            if (params is None or r.params == params)
            and (backend is None or r.backend == backend)
            and (app is None or r.app == app)
        ]

    def _app_filter(self, params: InputParams, app: str | None) -> str | None:
        """``app`` when that application was measured at ``params``, else None.

        Two applications can share an input signature — lcs and
        edit-distance are both (tsize=0.5, dsize=0) — so queries prefer the
        asking app's own measurements and only fall back to same-signature
        records of other apps (the paper's premise: instances with the same
        (dim, tsize, dsize) behave the same).
        """
        if app is not None and any(
            r.app == app for r in self.records if r.params == params
        ):
            return app
        return None

    def best(self, params: InputParams, app: str | None = None) -> MeasuredRecord:
        """The fastest measured record of one instance, across all backends."""
        candidates = self.records_for(params, app=self._app_filter(params, app))
        if not candidates:
            raise SearchError(f"no measured records for instance {params}")
        return min(candidates, key=lambda r: r.wall_s)

    def best_for_backend(
        self, params: InputParams, backend: str, app: str | None = None
    ) -> MeasuredRecord:
        """The fastest measured record of one instance on one backend."""
        candidates = self.records_for(
            params, backend=backend, app=self._app_filter(params, app)
        )
        if not candidates:
            raise SearchError(
                f"no measured records for instance {params} on backend {backend!r}"
            )
        return min(candidates, key=lambda r: r.wall_s)

    def serial_time(self, params: InputParams, app: str | None = None) -> float:
        """The measured serial-reference wall of one instance."""
        return self.best_for_backend(params, REFERENCE_BACKEND, app=app).wall_s

    def calibrated_constants(self, system: SystemSpec) -> CostConstants:
        """Cost constants fitted to this profile's serial/vectorized walls."""
        serial_walls = {
            p: self.best_for_backend(p, REFERENCE_BACKEND).wall_s
            for p in self.instances()
            if self.records_for(p, backend=REFERENCE_BACKEND)
        }
        vectorized_walls = {
            p: self.best_for_backend(p, "vectorized").wall_s
            for p in self.instances()
            if self.records_for(p, backend="vectorized")
        }
        return constants_from_measurements(system, serial_walls, vectorized_walls or None)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable representation of the whole profile."""
        return {
            "format_version": PROFILE_FORMAT_VERSION,
            "system": self.system,
            "host": dict(self.host),
            "records": [r.to_dict() for r in self.records],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MeasuredProfile":
        """Rebuild a profile serialised by :meth:`to_dict`."""
        version = data.get("format_version")
        if version != PROFILE_FORMAT_VERSION:
            raise ArtifactError(
                f"unsupported profile format version {version!r} "
                f"(expected {PROFILE_FORMAT_VERSION}); re-run `repro profile`"
            )
        return cls(
            system=str(data["system"]),
            host=dict(data.get("host", {})),
            records=[MeasuredRecord.from_dict(r) for r in data["records"]],
        )


def save_profile(profile: MeasuredProfile, path: str | Path) -> Path:
    """Serialise a measured profile to ``path`` (JSON)."""
    return save_json(profile.to_dict(), path)


def load_profile(path: str | Path) -> MeasuredProfile:
    """Restore a profile saved by :func:`save_profile`.

    Raises :class:`repro.core.exceptions.SearchError` when the file is not a
    profile and :class:`repro.core.exceptions.ArtifactError` when it carries
    a stale ``format_version``.
    """
    payload = load_json(path)
    if not isinstance(payload, dict) or "records" not in payload:
        raise SearchError(f"{path} does not contain a measured profile")
    return MeasuredProfile.from_dict(payload)


# ----------------------------------------------------------------------
# The profiler
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProfileConfig:
    """What :func:`profile_host` measures: the instance grid.

    Every instance is timed on every :data:`PROFILED_BACKENDS` engine;
    ``budget_s`` truncates the sweep when the wall-clock budget is
    exhausted, so quick runs stay quick even on slow hosts.

    The default app grid spans the arithmetic-intensity classes the
    registry offers: the fine-grained comparison kernels, the probabilistic
    max-product recurrence (``viterbi``, ``tsize`` 0.75) and the
    transcendental-heavy log-space sum (``stochastic-path``, ``tsize`` 2.0).
    """

    apps: tuple[str, ...] = (
        "lcs",
        "synthetic",
        "edit-distance",
        "viterbi",
        "stochastic-path",
    )
    dims: tuple[int, ...] = (128, 256, 512, 768)
    repeats: int = 3
    budget_s: float = 300.0

    @classmethod
    def quick(cls) -> "ProfileConfig":
        """The CI / 1-core budget: a grid that finishes well inside 60 s."""
        return cls(
            apps=("lcs", "synthetic", "viterbi"),
            dims=(128, 256, 512),
            repeats=2,
            budget_s=50.0,
        )

    def validate(self) -> None:
        """Raise :class:`UsageError` on an unusable grid, before anything runs."""
        if not self.apps or not self.dims:
            raise UsageError("profile grid needs at least one app and one dim")
        unknown = set(self.apps) - set(available_applications())
        if unknown:
            raise UsageError(f"unknown applications in profile grid: {sorted(unknown)}")
        if min(self.dims) < 2:
            raise UsageError(f"profile dims must be >= 2, got {min(self.dims)}")
        if self.repeats < 1:
            raise UsageError(f"repeats must be >= 1, got {self.repeats}")
        if not (math.isfinite(self.budget_s) and self.budget_s > 0):
            raise UsageError(f"budget_s must be finite and > 0, got {self.budget_s}")


def profile_host(
    system: SystemSpec | None = None,
    config: ProfileConfig | None = None,
    progress: Callable[[str], None] | None = None,
) -> MeasuredProfile:
    """Run the timed sweep and return the :class:`MeasuredProfile`.

    Every (app, dim, backend) point is executed functionally
    ``config.repeats`` times and the best wall is recorded, mirroring the
    ``bench`` CLI.  The sweep visits instances in order and stops early when
    ``config.budget_s`` is exhausted (recorded as ``host["truncated"]``), so
    the reference backend of each visited instance is always measured first
    and partially-profiled instances never lack their serial baseline.
    """
    system = system if system is not None else detect_local_system()
    config = config if config is not None else ProfileConfig()
    config.validate()
    say = progress if progress is not None else (lambda _msg: None)

    profile = MeasuredProfile(
        system=system.name,
        host={
            "cpu": system.cpu.name,
            "cores": system.cpu.cores,
            "freq_mhz": system.cpu.freq_mhz,
            "mem_gb": round(system.cpu.mem_gb, 2),
            "python": sys.version.split()[0],
            "platform": _platform.platform(),
            "repeats": config.repeats,
            "budget_s": config.budget_s,
            "truncated": False,
        },
    )
    # Reference backend first within every instance (serial baselines).
    ordered_backends = [REFERENCE_BACKEND] + [
        b for b in PROFILED_BACKENDS if b != REFERENCE_BACKEND
    ]
    whole_grid = TunableParams()  # the whole-grid engines take no tile
    t_start = time.perf_counter()
    truncated = False
    for app_name in config.apps:
        for dim in config.dims:
            app = get_application(app_name, dim=dim)
            problem = app.problem(dim)
            params = problem.input_params()
            for backend in ordered_backends:
                if (
                    backend != REFERENCE_BACKEND
                    and time.perf_counter() - t_start > config.budget_s
                ):
                    truncated = True
                    break
                executor = get_executor(backend, system)
                best = math.inf
                for _ in range(config.repeats):
                    t0 = time.perf_counter()
                    executor.execute(problem, whole_grid)
                    best = min(best, time.perf_counter() - t0)
                profile.add(
                    MeasuredRecord(
                        app=app_name,
                        backend=backend,
                        params=params,
                        wall_s=best,
                        repeats=config.repeats,
                    )
                )
            say(
                f"profiled {app_name} dim={dim}: "
                f"{len(profile.records_for(params, app=app_name))} points"
            )
            if truncated:
                break
        if truncated:
            break
    profile.host["truncated"] = truncated
    profile.host["elapsed_s"] = round(time.perf_counter() - t_start, 3)
    if truncated:
        say(f"budget of {config.budget_s:g}s exhausted — profile truncated")
    return profile


# ----------------------------------------------------------------------
# The measured tuner
# ----------------------------------------------------------------------
class MeasuredTuner(Tuner):
    """A tuner that ranks the engines it measured on the local host.

    Holds only the :class:`MeasuredProfile`; nothing is fitted.  An unseen
    instance is answered from the nearest profiled one.  Construct it from
    a persisted profile with ``MeasuredTuner(load_profile(path))``.
    """

    kind = "measured"

    def __init__(self, profile: MeasuredProfile) -> None:
        if not profile.records:
            raise SearchError("a measured tuner needs a non-empty profile")
        unplannable = {r.backend for r in profile.records} - set(PROFILED_BACKENDS)
        if unplannable:
            raise SearchError(
                f"measured profile holds records of {sorted(unplannable)}; "
                f"a measured tuner plans only {list(PROFILED_BACKENDS)}"
            )
        self.profile = profile

    def nearest_instance(self, params: InputParams, app: str | None = None) -> InputParams:
        """The profiled instance closest to ``params`` in feature space.

        Distance is Euclidean in (log dim, log tsize, dsize).  With ``app``
        given and present in the profile, only that application's instances
        are candidates, so two apps sharing an input signature anchor to
        their own measurements.
        """
        if app is not None and app in self.profile.apps():
            instances = list(
                dict.fromkeys(r.params for r in self.profile.records if r.app == app)
            )
        else:
            instances = self.profile.instances()

        def distance(candidate: InputParams) -> float:
            return (
                (math.log(candidate.dim) - math.log(params.dim)) ** 2
                + (math.log(candidate.tsize) - math.log(params.tsize)) ** 2
                + float(candidate.dsize != params.dsize)
            )

        return min(instances, key=distance)

    def resolve(self, app: str, params: InputParams) -> PlanDecision:
        """Tuned decision for one application instance.

        The :class:`~repro.autotuner.protocol.Tuner` protocol entry point:
        the fastest measured engine at the nearest profiled instance of
        ``app``, on one worker with no tile, and that record's measured wall
        as ``expected_s``.  At a profiled instance this is exactly
        :meth:`MeasuredProfile.best`.
        """
        best = self.profile.best(self.nearest_instance(params, app), app=app)
        return PlanDecision(
            backend=best.backend,
            tunables=TunableParams(),
            workers=1,
            expected_s=best.wall_s,
        )
