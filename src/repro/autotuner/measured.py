"""Measured-profile autotuning of the live runtime backends.

The paper trains its tuner "in the factory" on *measured* runs and ships the
fitted models with the library.  The rest of this reproduction stands the
2014 testbed in with an analytic cost model; this module closes the loop for
the machine actually running the code:

1. **Profile** — :func:`profile_host` introspects the local host
   (:func:`repro.hardware.system.detect_local_system`), runs timed
   functional sweeps of the registered CPU engines (``serial``,
   ``vectorized``, ``mp-parallel``, ``pipelined``) over an instance grid,
   and collects the wall-clocks into a :class:`MeasuredProfile`.
2. **Train** — :meth:`MeasuredTuner.train` converts the profile into
   :class:`repro.autotuner.exhaustive.SearchResults`-compatible records and
   feeds them through the existing
   :class:`repro.autotuner.training.TrainingSetBuilder` →
   :class:`repro.autotuner.models.LearnedTuner` path, so the model trees are
   fitted on real wall-clock instead of cost-model synthetic data.  The
   fitted tuner persists via :func:`repro.autotuner.persistence.save_tuner`,
   the profile via :func:`save_profile` (both JSON, both format-versioned).
3. **Tune** — :meth:`MeasuredTuner.resolve` answers deployment queries
   through the :class:`~repro.autotuner.protocol.Tuner` protocol: the
   backend is resolved from the measured per-backend bests (the measured
   analogue of the cost-model engine dimension), the tile from the learned
   model snapped onto the measured tile grid, and the expected runtime is
   the measured wall of the nearest profiled record.  The tuner keeps no
   plan cache of its own: the session's plan cache answers repeats.

The CLI exposes the pipeline as ``repro profile`` (steps 1+2, plus the
predicted-vs-measured report of :mod:`repro.analysis.measured`) and
``repro tune --system local`` (step 3).
"""

from __future__ import annotations

import math
import platform as _platform
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from repro.core.exceptions import ArtifactError, SearchError
from repro.core.params import InputParams, TunableParams
from repro.apps.registry import available_applications, get_application
from repro.autotuner.exhaustive import SearchRecord, SearchResults
from repro.autotuner.models import LearnedTuner
from repro.autotuner.protocol import PlanDecision, Tuner
from repro.autotuner.training import TrainingSetBuilder
from repro.hardware.calibration import constants_from_measurements
from repro.hardware.costmodel import CostConstants
from repro.hardware.system import SystemSpec, detect_local_system
from repro.runtime.registry import engines_with, get_executor
from repro.utils.serialization import load_json, save_json

#: Format marker written into every profile file (bumped on layout changes;
#: 2: ``backend`` is a registry engine name, no ``hybrid-<engine>`` rows).
PROFILE_FORMAT_VERSION = 2

#: Default artifact locations, relative to the working directory
#: (see ``docs/artifacts.md`` for the naming scheme).
DEFAULT_PROFILE_PATH = Path("benchmarks") / "results" / "local_profile.json"
DEFAULT_MODEL_PATH = Path("benchmarks") / "results" / "local_tuner.json"
DEFAULT_REPORT_PATH = Path("benchmarks") / "results" / "local_profile_report.txt"

#: CPU backends the profiler can time: every registered whole-grid and
#: tiled engine (the hybrid executor would re-time the engine it fills with).
PROFILED_BACKENDS = tuple(engines_with("serial") + engines_with("multicore"))

#: The backend every profile must contain: it is the speedup reference and
#: the source of the training set's serial baselines.
REFERENCE_BACKEND = "serial"


# ----------------------------------------------------------------------
# Profile data model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MeasuredRecord:
    """One timed (application, backend, configuration) point."""

    app: str
    backend: str
    workers: int
    params: InputParams
    tunables: TunableParams
    wall_s: float
    repeats: int = 1

    def to_search_record(self) -> SearchRecord:
        """The :class:`SearchRecord` view used by the training pipeline."""
        return SearchRecord(
            params=self.params,
            tunables=self.tunables,
            rtime=self.wall_s,
            exceeded_threshold=False,
        )

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "app": self.app,
            "backend": self.backend,
            "workers": self.workers,
            "dim": self.params.dim,
            "tsize": self.params.tsize,
            "dsize": self.params.dsize,
            "cpu_tile": self.tunables.cpu_tile,
            "wall_s": self.wall_s,
            "repeats": self.repeats,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MeasuredRecord":
        """Rebuild a record serialised by :meth:`to_dict`."""
        return cls(
            app=str(data["app"]),
            backend=str(data["backend"]),
            workers=int(data["workers"]),
            params=InputParams(
                dim=int(data["dim"]), tsize=float(data["tsize"]), dsize=int(data["dsize"])
            ),
            tunables=TunableParams(cpu_tile=int(data["cpu_tile"])),
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

    # ------------------------------------------------------------------
    # Bridges into the existing training pipeline
    # ------------------------------------------------------------------
    def to_search_results(self) -> SearchResults:
        """:class:`SearchResults`-compatible view of the measured records.

        For every (instance, tunables) point the *fastest backend's* wall is
        kept — the backend is a separately-resolved dimension, exactly like
        the cost-model tuner's engine dimension, so the learned models see
        one runtime per configuration.  Serial baselines come from the
        measured :data:`REFERENCE_BACKEND` walls.  Applications sharing an
        input signature (same dim/tsize/dsize) pool their measurements —
        for the learned models an instance *is* its signature.  No
        90-second threshold applies: every measured point really ran.
        """
        results = SearchResults(system=self.system, threshold_s=math.inf)
        for params in self.instances():
            results.serial_times[params] = self.serial_time(params)
            best_by_config: dict[TunableParams, MeasuredRecord] = {}
            for record in self.records_for(params):
                current = best_by_config.get(record.tunables)
                if current is None or record.wall_s < current.wall_s:
                    best_by_config[record.tunables] = record
            for record in best_by_config.values():
                results.add(record.to_search_record())
        return results

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
    """What :func:`profile_host` measures: the instance/configuration grid.

    ``tiles`` are the candidate ``cpu_tile`` sides for the tiled backends
    (the whole-grid engines ignore the tile and are measured once at
    ``cpu_tile=1``); ``budget_s`` truncates the sweep when the wall-clock
    budget is exhausted, so quick runs stay quick even on slow hosts.

    The default app grid spans the arithmetic-intensity classes the
    registry offers: the fine-grained comparison kernels, the probabilistic
    max-product recurrence (``viterbi``, ``tsize`` 0.75) and the
    transcendental-heavy log-space sum (``stochastic-path``, ``tsize`` 2.0)
    — so learned records cover the new probabilistic workload class too.
    """

    apps: tuple[str, ...] = (
        "lcs",
        "synthetic",
        "edit-distance",
        "viterbi",
        "stochastic-path",
    )
    dims: tuple[int, ...] = (128, 256, 512, 768)
    backends: tuple[str, ...] = PROFILED_BACKENDS
    tiles: tuple[int, ...] = (8, 16, 32, 64, 128)
    workers: tuple[int, ...] | None = None
    repeats: int = 3
    budget_s: float = 300.0

    @classmethod
    def quick(cls) -> "ProfileConfig":
        """The CI / 1-core budget: a grid that finishes well inside 60 s."""
        return cls(
            apps=("lcs", "synthetic", "viterbi"),
            dims=(128, 256, 512),
            backends=("serial", "vectorized", "mp-parallel"),
            tiles=(32, 128),
            repeats=2,
            budget_s=50.0,
        )

    def validate(self) -> None:
        """Raise :class:`SearchError` on an unusable grid."""
        if not self.apps or not self.dims or not self.backends:
            raise SearchError("profile grid needs at least one app, dim and backend")
        if REFERENCE_BACKEND not in self.backends:
            raise SearchError(
                f"profile grid must include the {REFERENCE_BACKEND!r} reference backend"
            )
        unknown = set(self.apps) - set(available_applications())
        if unknown:
            raise SearchError(f"unknown applications in profile grid: {sorted(unknown)}")
        unknown = set(self.backends) - set(PROFILED_BACKENDS)
        if unknown:
            raise SearchError(f"unknown backends in profile grid: {sorted(unknown)}")
        if self.repeats < 1:
            raise SearchError(f"repeats must be >= 1, got {self.repeats}")
        if self.budget_s <= 0:
            raise SearchError(f"budget_s must be positive, got {self.budget_s}")


def _worker_candidates(system: SystemSpec) -> tuple[int, ...]:
    """Powers of two up to the host's core count, always including the count."""
    budget = max(1, system.cpu.cores)
    counts: list[int] = []
    w = 1
    while w < budget:
        counts.append(w)
        w *= 2
    counts.append(budget)
    return tuple(dict.fromkeys(counts))


def _backend_configs(
    tiled: bool, dim: int, config: ProfileConfig, worker_candidates: tuple[int, ...]
) -> list[tuple[TunableParams, int]]:
    """(tunables, workers) points measured for one backend at one ``dim``.

    The single-core whole-grid engines ignore the tile, so they contribute
    exactly one point; the ``tiled`` (multicore) engines sweep the tile grid
    (clipped to the instance) and the worker counts.
    """
    if not tiled:
        return [(TunableParams(cpu_tile=1), 1)]
    tiles = dict.fromkeys(min(t, dim) for t in config.tiles)
    return [(TunableParams(cpu_tile=t), w) for t in tiles for w in worker_candidates]


def profile_host(
    system: SystemSpec | None = None,
    config: ProfileConfig | None = None,
    progress: Callable[[str], None] | None = None,
) -> MeasuredProfile:
    """Run the timed sweep and return the :class:`MeasuredProfile`.

    Every (app, dim, backend, configuration) point is executed functionally
    ``config.repeats`` times and the best wall is recorded, mirroring the
    ``bench`` CLI.  The sweep visits instances in order and stops early when
    ``config.budget_s`` is exhausted (recorded as ``host["truncated"]``), so
    the reference backend of each visited instance is always measured first
    and partially-profiled instances never lack their serial baseline.
    """
    system = system if system is not None else detect_local_system()
    config = config if config is not None else ProfileConfig()
    config.validate()
    worker_candidates = (
        tuple(config.workers) if config.workers else _worker_candidates(system)
    )
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
    # Reference backend first within every instance (serial baselines), then
    # the cheap whole-grid engines, then the tiled/multicore sweeps.
    ordered_backends = [REFERENCE_BACKEND] + [
        b for b in config.backends if b != REFERENCE_BACKEND
    ]
    tiled = engines_with("multicore")  # only these take a tile and a worker count
    t_start = time.perf_counter()
    truncated = False
    for app_name in config.apps:
        for dim in config.dims:
            app = get_application(app_name, dim=dim)
            problem = app.problem(dim)
            params = problem.input_params()
            for backend in ordered_backends:
                for tunables, workers in _backend_configs(
                    backend in tiled, dim, config, worker_candidates
                ):
                    if (
                        backend != REFERENCE_BACKEND
                        and time.perf_counter() - t_start > config.budget_s
                    ):
                        truncated = True
                        break
                    engine_kwargs = {"workers": workers} if backend in tiled else {}
                    executor = get_executor(backend, system, **engine_kwargs)
                    best = math.inf
                    for _ in range(config.repeats):
                        t0 = time.perf_counter()
                        executor.execute(problem, tunables, mode="functional")
                        best = min(best, time.perf_counter() - t0)
                    profile.add(
                        MeasuredRecord(
                            app=app_name,
                            backend=backend,
                            workers=workers,
                            params=params,
                            tunables=tunables.clipped(dim),
                            wall_s=best,
                            repeats=config.repeats,
                        )
                    )
                if truncated:
                    break
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
    """A tuner trained on measured wall-clocks of the local host.

    Wraps the measured profile (ground truth for profiled instances) and the
    :class:`LearnedTuner` fitted on it (generalisation to unseen instances).
    Construct via :meth:`train` or, when model and profile were persisted,
    via :meth:`from_files`.
    """

    kind = "measured"

    def __init__(self, profile: MeasuredProfile, model: LearnedTuner) -> None:
        self.profile = profile
        self.model = model

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def train(
        cls, profile: MeasuredProfile, builder: TrainingSetBuilder | None = None
    ) -> "MeasuredTuner":
        """Fit the learned models on the measured records.

        The profile's instance grid is small compared to the synthetic Table 3
        sweep, so the default builder keeps every instance in the training
        split (``instance_stride=1``) instead of holding half out.
        """
        if not profile.records:
            raise SearchError("cannot train a measured tuner on an empty profile")
        builder = builder if builder is not None else TrainingSetBuilder(instance_stride=1)
        results = profile.to_search_results()
        training = builder.build(results)
        tile_grid = tuple(sorted({r.tunables.cpu_tile for r in profile.records}))
        model = LearnedTuner(
            system_name=profile.system,
            supports_gpu=False,
            supports_dual_gpu=False,
            cpu_tile_choices=tile_grid,
        ).fit(training)
        return cls(profile, model)

    @classmethod
    def from_files(
        cls,
        profile_path: str | Path = DEFAULT_PROFILE_PATH,
        model_path: str | Path = DEFAULT_MODEL_PATH,
    ) -> "MeasuredTuner":
        """Load a persisted profile + trained model pair."""
        from repro.autotuner.persistence import load_tuner

        return cls(load_profile(profile_path), load_tuner(model_path))

    # ------------------------------------------------------------------
    # Deployment queries
    # ------------------------------------------------------------------
    def nearest_instance(self, params: InputParams, app: str | None = None) -> InputParams:
        """The profiled instance closest to ``params`` in feature space.

        Distance is Euclidean in (log dim, log tsize, dsize) — the scales
        the learned models split on.  With ``app`` given and present in the
        profile, only that application's instances are candidates, so two
        apps sharing an input signature anchor to their own measurements.
        """
        if app is not None and app in self.profile.apps():
            instances = list(
                dict.fromkeys(r.params for r in self.profile.records if r.app == app)
            )
        else:
            instances = self.profile.instances()
        if not instances:
            raise SearchError("measured profile contains no instances")

        def distance(candidate: InputParams) -> float:
            return (
                (math.log(candidate.dim) - math.log(params.dim)) ** 2
                + (math.log(candidate.tsize) - math.log(params.tsize)) ** 2
                + float(candidate.dsize != params.dsize)
            )

        return min(instances, key=distance)

    def _snap_tile(
        self, backend: str, anchor: InputParams, tile: int, app: str | None = None
    ) -> tuple[TunableParams, int, float]:
        """Snap a learned tile onto the measured grid of one backend.

        Returns ``(tunables, workers, wall)`` of the measured record whose
        tile is closest to the prediction (best workers for that tile).
        """
        candidates = self.profile.records_for(
            anchor, backend=backend, app=self.profile._app_filter(anchor, app)
        )
        if not candidates:
            raise SearchError(
                f"no measured records for backend {backend!r} at instance {anchor}"
            )
        nearest = min(candidates, key=lambda r: (abs(r.tunables.cpu_tile - tile), r.wall_s))
        best_at_tile = min(
            (r for r in candidates if r.tunables.cpu_tile == nearest.tunables.cpu_tile),
            key=lambda r: r.wall_s,
        )
        return best_at_tile.tunables, best_at_tile.workers, best_at_tile.wall_s

    def resolve(self, app: str, params: InputParams) -> PlanDecision:
        """Tuned (backend, workers, tile) decision for one application instance.

        The :class:`~repro.autotuner.protocol.Tuner` protocol entry point:
        the measured-best backend at the nearest profiled instance of
        ``app``, the learned tile snapped onto that backend's measured tile
        grid (clipped to ``params.dim``), and that record's measured wall as
        ``expected_s``.
        """
        anchor = self.nearest_instance(params, app)
        best = self.profile.best(anchor, app=app)
        predicted = self.model.predict(params.features())
        tunables, workers, expected = self._snap_tile(
            best.backend, anchor, predicted.cpu_tile, app
        )
        return PlanDecision(
            backend=best.backend,
            tunables=replace(tunables, cpu_tile=min(tunables.cpu_tile, params.dim)),
            workers=workers,
            expected_s=expected,
        )
